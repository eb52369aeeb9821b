"""Self time, busy time and span parents, from synthetic and traced spans."""

import numpy as np
import pytest

import gridpcr
import spans
from spans import Span


def test_self_time_subtracts_union_of_overlapping_children():
    spans_ = [
        Span(1, None, "outer", 1, 0.0, 10.0),
        Span(2, 1, "a", 1, 1.0, 3.0),
        Span(3, 1, "b", 2, 2.0, 5.0),   # overlaps a on another thread
        Span(4, 1, "c", 2, 9.0, 12.0),  # runs past the parent: clipped to it
        Span(5, 2, "inner", 1, 1.5, 2.5),  # grandchild: counted against a only
    ]
    own = spans.self_times(spans_)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_busy_time_sums_per_thread_unions():
    pool = Span(1, None, spans.POOL, 1, 0.0, 10.0)
    spans_ = [
        pool,
        Span(2, 1, "r", 11, 0.0, 4.0),
        Span(3, 1, "r", 11, 3.0, 6.0),
        Span(4, 1, "r", 12, 1.0, 2.0),
    ]
    assert spans.busy_time(pool, spans_) == pytest.approx(6.0 + 1.0)


def test_iteration_summary_and_layer_metrics():
    spans_ = [
        Span(1, None, "cli.main.bootstrap", 1, 0.0, 4.0, cpu=7.0),
        Span(2, 1, spans.POOL, 1, 1.0, 3.0, cpu=3.5),
        Span(3, 2, "decomp._eig_from_scores", 11, 1.0, 1.5),
        Span(4, 2, "decomp._eig_from_scores", 12, 1.0, 2.5),
        Span(5, 1, "resampling.bootstrap_theta", 1, 0.5, 3.5,
             attrs={"attempted": 2, "failed": 0}),
    ]
    summary = spans.iteration_summary(spans_)
    assert summary["decomp._eig_from_scores"]["calls"] == 2
    assert summary[spans.POOL]["busy_s"] == pytest.approx(2.0)
    metrics = spans.layer_metrics([summary, summary], overhead_ratio=1.01)
    assert metrics["decomp._eig_from_scores.calls"] == (2, "count")
    assert metrics["decomp._eig_from_scores.p50_ms"][0] == pytest.approx(1000.0)
    assert metrics["util.run_indexed.cpu_s"] == (3.5, "s")
    assert metrics["cli.main.bootstrap.s"] == (4.0, "s")
    assert metrics["cli.main.cpu_s"] == (7.0, "s")
    assert metrics["resampling.replicates.useful_ratio"] == (1.0, "ratio")
    assert metrics["storage.read_grid.calls"] == (0, "count")


def test_tracer_wraps_every_binding_and_parents_pool_workers():
    from gridpcr import cli, resampling, util

    originals = (cli.read_grid, resampling._eig_from_scores, resampling.run_indexed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.read_grid is not originals[0]
        assert resampling._eig_from_scores is not originals[1]
        block = np.eye(3)
        resampling.run_indexed(lambda i: resampling._eig_from_scores(block), 4, threads=2)
    finally:
        tracer.uninstall()
    assert (cli.read_grid, resampling._eig_from_scores, resampling.run_indexed) == originals
    assert util.run_indexed is originals[2] and gridpcr.read_grid is originals[0]
    recorded = tracer.take()
    pool = [s for s in recorded if s.name == spans.POOL]
    eig = [s for s in recorded if s.name == "decomp._eig_from_scores"]
    assert len(pool) == 1 and len(eig) == 4
    assert all(s.parent == pool[0].id for s in eig)
    assert pool[0].cpu is not None
