"""Seeding, quantile, and worker-pool helpers."""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest
import scipy.stats

import gridpcr.util

from gridpcr.errors import ConfigurationError
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


class FakeHelper:
    """Stands in for a helper thread and starts none; the caller runs every call."""

    made = []

    def __init__(self, target):
        FakeHelper.made.append(target)

    def start(self):
        pass

    def join(self):
        pass


def workers_per_call(fn, *args):
    """(result, workers) of one ``run_indexed`` call under ``FakeHelper``."""
    FakeHelper.made.clear()
    result = run_indexed(fn, *args)
    return result, len(FakeHelper.made) + 1


def test_run_indexed_caps_workers(monkeypatch):
    # A huge thread count must not start that many OS threads: the caller
    # and its helpers are capped at min(threads, count, usable CPUs). The
    # fake helpers record themselves and start no thread.
    monkeypatch.setattr(gridpcr.util, "Thread", FakeHelper)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    squares = [i * i for i in range(50)]
    assert workers_per_call(lambda i: i * i, 50, 10**6) == (squares, 4)
    assert workers_per_call(lambda i: i, 3, 10**6) == ([0, 1, 2], 3)

    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert workers_per_call(lambda i: i, 50, 10**6) == (list(range(50)), 6)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert workers_per_call(lambda i: i, 50, 10**6) == (list(range(50)), 1)


def test_run_indexed_runs_calls_on_the_caller(monkeypatch):
    # Helpers that never start leave every call to the calling thread.
    monkeypatch.setattr(gridpcr.util, "Thread", FakeHelper)
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    got = workers_per_call(lambda i: threading.get_ident(), 6, 2)
    assert got == ([caller] * 6, 2)


def test_run_indexed_caller_works_beside_its_helper(monkeypatch):
    # Two calls that wait for each other need two threads at once; with
    # one helper, the caller must be the other.
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 2)
    both = threading.Barrier(2, timeout=10)

    def job(i):
        both.wait()
        return threading.get_ident()

    idents = run_indexed(job, 2, 2)
    assert threading.get_ident() in idents and len(set(idents)) == 2


def test_run_indexed_never_exceeds_the_cap(monkeypatch):
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 3)
    lock = threading.Lock()
    active, peak, seen = [0], [0], set()

    def job(i):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            seen.add(threading.get_ident())
        time.sleep(0.002)
        with lock:
            active[0] -= 1
        return i

    assert run_indexed(job, 30, 10**6) == list(range(30))
    assert peak[0] <= 3 and len(seen) <= 3
    assert threading.get_ident() in seen


def test_run_indexed_hands_out_every_index_once_under_contention(monkeypatch):
    # More workers than cores and a tiny switch interval: a lost update on
    # the shared index iterator would run an index twice or skip one.
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 8)
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_indexed(lambda i: ran.append(i) or i, 3000, 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(3000))
    assert sorted(ran) == list(range(3000))


def test_run_indexed_raises_the_lowest_failure_after_every_call(monkeypatch):
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 2)
    ran = []

    def job(i):
        ran.append(i)
        if i in (3, 7):
            raise ValueError(f"call {i}")
        return i

    for threads in (2, 1):
        ran.clear()
        with pytest.raises(ValueError, match="^call 3$"):
            run_indexed(job, 10, threads)
        assert sorted(ran) == (list(range(10)) if threads == 2 else [0, 1, 2, 3])


@pytest.fixture
def blas():
    """numpy's OpenBLAS (get, set) handle, set to 2 threads for the test."""
    api = gridpcr.util._openblas()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, put = api
    before = get()
    put(2)
    yield api
    put(before)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_indexed_pins_blas_to_one_thread(blas, threads):
    get = blas[0]
    assert run_indexed(lambda i: get(), 4, threads) == [1, 1, 1, 1]
    assert get() == 2

    def job(i):
        if i == 2:
            raise ValueError("boom")
        return get()

    with pytest.raises(ValueError):
        run_indexed(job, 4, threads)
    assert get() == 2


def test_nested_run_indexed_never_sets_blas(blas, monkeypatch):
    get, put = blas
    sets = []

    def recording_put(n):
        sets.append(n)
        put(n)

    monkeypatch.setattr(gridpcr.util, "_openblas", lambda: (get, recording_put))

    def outer(i):
        return run_indexed(lambda j: get(), 3, 2)

    assert run_indexed(outer, 4, 2) == [[1, 1, 1]] * 4
    assert sets == [1, 2]
    assert get() == 2


def test_overlapping_run_indexed_keep_blas_pinned(blas):
    # Loop A starts first and ends while loop B, on another thread, is still
    # running: B must stay single-threaded, and the count comes back after B.
    get = blas[0]
    a_running, b_running, a_done = (threading.Event() for _ in range(3))
    seen = []

    def loop_a():
        run_indexed(lambda i: (a_running.set(), b_running.wait(10)), 1, 1)
        a_done.set()

    def loop_b():
        def job(i):
            b_running.set()
            a_done.wait(10)
            return get()

        seen.extend(run_indexed(job, 1, 1))

    workers = [threading.Thread(target=loop_a), threading.Thread(target=loop_b)]
    workers[0].start()
    assert a_running.wait(10)
    workers[1].start()
    for worker in workers:
        worker.join(10)
    assert not any(worker.is_alive() for worker in workers)
    assert a_done.is_set() and seen == [1]
    assert get() == 2


def test_run_indexed_without_blas_handle(monkeypatch):
    monkeypatch.setattr(gridpcr.util, "_openblas", lambda: None)
    for threads in (1, 2):
        assert run_indexed(lambda i: i * i, 20, threads) == [i * i for i in range(20)]


def test_default_threads_env(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert default_threads() == 1
    monkeypatch.setenv(THREADS_ENV_VAR, "6")
    assert default_threads() == 6
    monkeypatch.setenv(THREADS_ENV_VAR, "zero")
    with pytest.raises(ValueError):
        default_threads()
    for raw in ("0", "-3"):
        monkeypatch.setenv(THREADS_ENV_VAR, raw)
        with pytest.raises(ConfigurationError, match=f"at least 1, got '{raw}'"):
            default_threads()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(str(target), b"abc")
    assert target.read_bytes() == b"abc"
    atomic_write_bytes(str(target), b"xy")
    assert target.read_bytes() == b"xy"
    assert os.listdir(tmp_path) == ["out.bin"]
