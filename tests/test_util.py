"""Seeding, quantile, and worker-pool helpers."""

import math
import os

import numpy as np
import pytest
import scipy.stats

import gridpcr.util

from gridpcr.util import (
    atomic_write_bytes,
    default_threads,
    mix_seed,
    norm_ppf,
    replicate_rng,
    run_indexed,
    THREADS_ENV_VAR,
)


def test_norm_ppf_matches_scipy():
    probs = np.concatenate(
        [
            [1e-12, 1e-8, 0.001, 0.01, 0.025, 0.02425],
            np.linspace(0.05, 0.95, 19),
            [0.975, 0.99, 0.999, 1 - 1e-8, 1 - 1e-12],
        ]
    )
    ours = np.array([norm_ppf(p) for p in probs])
    ref = scipy.stats.norm.ppf(probs)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


def test_norm_ppf_symmetry_and_bounds():
    assert norm_ppf(0.5) == 0.0
    assert norm_ppf(0.975) == pytest.approx(-norm_ppf(0.025), abs=1e-15)
    for bad in (0.0, 1.0, -0.2, 1.2, math.nan):
        with pytest.raises(ValueError):
            norm_ppf(bad)


def test_mix_seed_spreads_and_repeats():
    seen = {mix_seed(0, salt) for salt in range(1000)}
    assert len(seen) == 1000
    assert mix_seed(42, 7) == mix_seed(42, 7)
    assert mix_seed(42, 7) != mix_seed(42, 8)
    assert mix_seed(42, 7) != mix_seed(43, 7)


def test_replicate_rng_is_call_order_independent():
    a = replicate_rng(9, 3).standard_normal(5)
    # interleave other replicates; replicate 3 must not notice
    replicate_rng(9, 0).standard_normal(17)
    replicate_rng(9, 11).standard_normal(2)
    b = replicate_rng(9, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = replicate_rng(9, 4).standard_normal(5)
    assert not np.array_equal(a, c)


def test_run_indexed_preserves_index_order():
    def job(i):
        return i * i

    for threads in (1, 3):
        assert run_indexed(job, 20, threads) == [i * i for i in range(20)]


def test_run_indexed_propagates_errors():
    def job(i):
        if i == 5:
            raise ValueError("boom")
        return i

    with pytest.raises(ValueError):
        run_indexed(job, 10, 2)


def test_run_indexed_caps_workers(monkeypatch):
    # A huge thread count must not start that many OS threads: the pool is
    # capped at min(threads, count, usable CPUs). The fake pool records its
    # size and runs the calls serially, so this test starts no thread.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(gridpcr.util, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert run_indexed(lambda i: i * i, 50, 10**6) == [i * i for i in range(50)]
    assert run_indexed(lambda i: i, 3, 10**6) == [0, 1, 2]
    assert sizes == [4, 3]

    sizes.clear()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert run_indexed(lambda i: i, 50, 10**6) == list(range(50))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_indexed(lambda i: i, 50, 10**6) == list(range(50))
    assert sizes == [6]


def test_default_threads_env(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert default_threads() == 1
    monkeypatch.setenv(THREADS_ENV_VAR, "6")
    assert default_threads() == 6
    monkeypatch.setenv(THREADS_ENV_VAR, "zero")
    with pytest.raises(ValueError):
        default_threads()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(str(target), b"abc")
    assert target.read_bytes() == b"abc"
    atomic_write_bytes(str(target), b"xy")
    assert target.read_bytes() == b"xy"
    assert os.listdir(tmp_path) == ["out.bin"]
