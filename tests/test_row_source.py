"""Samples read from grid files a row chunk at a time, against in-memory arrays."""

import os
import sys
import threading
import warnings

import numpy as np
import pytest

import gridpcr.space
import gridpcr.util
from gridpcr import (
    AmbientSpace,
    ConformanceError,
    FormatError,
    bspline_tensor_basis,
    diagnose_projection,
    fit_subspace_pca,
    project_scores,
    write_grid,
)
from gridpcr.bases import mask_space
from gridpcr.decomp import _sq_norms, model_from_white
from gridpcr.space import as_sample, sample_mean
from gridpcr.storage import GridRows
from gridpcr.util import replicate_rng, run_indexed

REL = 1e-12
N = 23
CHUNK_ROWS = 3  # 23 rows make 8 chunks, the last one of 2 rows


def assert_rel(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= REL * scale


def unmasked_3d():
    return AmbientSpace.unit_domain((9, 8, 7)), 2, 2


def masked_2d():
    space = AmbientSpace.unit_domain((20, 24))
    mask = np.ones(space.dims, dtype=bool)
    mask[:3, :3] = False
    return mask_space(space, mask), 3, 3


def dropped_rows_2d():
    space = AmbientSpace.unit_domain((16, 14))
    mask = np.ones(space.dims, dtype=bool)
    mask[:7, :6] = False
    mask[12:, 10:] = False
    return mask_space(space, mask), 1, 6


def make_case(case, tmp_path, seed):
    space, degree, knots = case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        basis = bspline_tensor_basis(space, degree, knots)
    rng = replicate_rng(9700, seed)
    fields = rng.standard_normal((4, space.size))
    sample = rng.standard_normal((N, 4)) * [4.0, 2.0, 1.0, 0.5] @ fields
    sample += 0.1 * rng.standard_normal(sample.shape) + 1.0
    path = tmp_path / "sample.hsg"
    write_grid(path, sample.reshape(N, *space.dims))
    return space, basis, sample, path


@pytest.fixture
def small_chunks(monkeypatch):
    def use(space):
        monkeypatch.setattr(gridpcr.space, "ROW_CHUNK_VALUES", CHUNK_ROWS * space.size)

    return use


CASES = [unmasked_3d, masked_2d, dropped_rows_2d]


@pytest.mark.parametrize("case", CASES)
def test_fit_from_file_matches_array(tmp_path, small_chunks, case):
    space, basis, sample, path = make_case(case, tmp_path, CASES.index(case))
    assert (basis.kept is not None) == (case is dropped_rows_2d)
    whole = fit_subspace_pca(space, basis, sample)
    small_chunks(space)
    array = fit_subspace_pca(space, basis, sample)
    with GridRows(path) as rows:
        streamed = fit_subspace_pca(space, basis, rows)
    # The mean adds rows one at a time for any chunk size, as numpy does.
    for model in (whole, array, streamed):
        assert model.mean.tobytes() == sample.mean(axis=0).tobytes()
    for model in (array, streamed):
        assert model.n_components == whole.n_components
        assert_rel(model.eigenvalues, whole.eigenvalues)
        assert_rel(model.white, whole.white)
        assert model.total_variance == pytest.approx(whole.total_variance, rel=REL)
    with GridRows(path) as rows:
        streamed_scores = project_scores(space, basis, rows)
    assert_rel(streamed_scores, project_scores(space, basis, sample))


@pytest.mark.parametrize("case", CASES)
def test_diagnose_from_file_matches_array(tmp_path, small_chunks, case):
    space, basis, sample, path = make_case(case, tmp_path, CASES.index(case))
    whole = diagnose_projection(space, basis, sample)
    small_chunks(space)
    array = diagnose_projection(space, basis, sample)
    with GridRows(path) as rows:
        streamed = diagnose_projection(space, basis, rows)
    for report in (array, streamed):
        for name in ("delta_hat", "s2_hat", "t_stat"):
            assert getattr(report, name) == pytest.approx(getattr(whole, name), rel=REL)
        assert (report.reject, report.n, report.basis_rank) == (
            whole.reject, whole.n, whole.basis_rank,
        )


def mean_through(space, basis, sample):
    return sample_mean(space, as_sample(space, sample))


@pytest.mark.parametrize("fn", [
    fit_subspace_pca, diagnose_projection, project_scores,
    pytest.param(mean_through, id="sample_mean"),
])
def test_nonfinite_last_row_from_file_raises_as_for_array(tmp_path, small_chunks, fn):
    # The value sits in the last chunk; as_sample checks only the shape, so
    # every pass finds it itself.
    space, basis, sample, path = make_case(unmasked_3d, tmp_path, 0)
    small_chunks(space)
    sample[-1, -1] = np.nan
    write_grid_nan(path, sample.reshape(N, *space.dims))
    message = "^sample contains non-finite values$"
    with pytest.raises(ConformanceError, match=message):
        fn(space, basis, sample)
    with GridRows(path) as rows, pytest.raises(ConformanceError, match=message):
        fn(space, basis, rows)


def write_grid_nan(path, values):
    # write_grid refuses non-finite payloads, so lay the bytes out here.
    values = np.ascontiguousarray(values, dtype="<f8")
    header = b"HSG1" + bytes([1, values.ndim])
    header += np.asarray(values.shape, dtype="<u8").tobytes()
    path.write_bytes(header + values.tobytes())


@pytest.mark.parametrize("fn", [fit_subspace_pca, diagnose_projection])
def test_file_cut_short_after_opening_raises_format_error(tmp_path, small_chunks, fn):
    space, basis, _, path = make_case(unmasked_3d, tmp_path, 0)
    small_chunks(space)
    size = os.path.getsize(path)
    with GridRows(path) as rows:
        os.truncate(path, size - 8 * space.size)
        with pytest.raises(FormatError, match="^grid file truncated") as err:
            fn(space, basis, rows)
    assert err.value.offset == size - 8 * space.size


def test_sample_shape_must_match_the_masked_grid(tmp_path):
    space, basis, _, path = make_case(unmasked_3d, tmp_path, 0)
    other, _, _ = masked_2d()
    with GridRows(path) as rows, pytest.raises(
        ConformanceError,
        match=r"^sample shape \(23, 9, 8, 7\) does not conform to grid \(20, 24\)$",
    ):
        fit_subspace_pca(other, basis, rows)


def fit_bytes(model):
    return [
        np.asarray(a).tobytes()
        for a in (model.eigenvalues, model.coords, model.white, model.mean,
                  model.total_variance)
    ]


@pytest.mark.parametrize("case", CASES)
def test_passes_same_bytes_for_any_pool_size(tmp_path, small_chunks, monkeypatch, case):
    # Eight row chunks: every pass (the mean, the projection, the residuals
    # and the sign pass) runs as tasks on the pool.
    space, basis, sample, path = make_case(case, tmp_path, CASES.index(case))
    small_chunks(space)
    fits, reports = [], []
    for cpus in (1, 2, 3, 16):
        monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: cpus)
        with GridRows(path) as rows:
            for data in (sample, rows):
                fits.append(fit_bytes(fit_subspace_pca(space, basis, data)))
                reports.append(diagnose_projection(space, basis, data))
    assert fits[0][3] == sample.mean(axis=0).tobytes()
    assert all(f == fits[0] for f in fits)
    assert all(r == reports[0] for r in reports)


def test_pass_buffers_do_not_grow_with_the_cpu_count(tmp_path, small_chunks, monkeypatch):
    # Sixteen usable CPUs and eight chunks: every pass is capped at
    # PASS_BUFFERS chunk buffers, a worker for each buffer set.
    space, basis, _, path = make_case(unmasked_3d, tmp_path, 0)
    small_chunks(space)
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 16)
    held, passes = [], []
    chunk_buffer, pool = gridpcr.space.chunk_buffer, gridpcr.space.run_indexed

    def counted_buffer(*args):
        held.append(1)
        return chunk_buffer(*args)

    def counted_pool(fn, count, threads):
        passes.append((len(held), threads))
        held.clear()
        return pool(fn, count, threads)

    monkeypatch.setattr(gridpcr.space, "chunk_buffer", counted_buffer)
    monkeypatch.setattr(gridpcr.space, "run_indexed", counted_pool)
    with GridRows(path) as rows:
        fit_subspace_pca(space, basis, rows)
        diagnose_projection(space, basis, rows)
    # fit: projection with the mean, signs; diagnose: mean, residuals
    assert passes == [(4, 2), (4, 4), (4, 4), (4, 2)]


def test_model_from_white_in_a_worker_starts_no_pool(tmp_path, small_chunks, monkeypatch):
    space, basis, sample, _ = make_case(unmasked_3d, tmp_path, 0)
    small_chunks(space)
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 2)
    model = fit_subspace_pca(space, basis, sample)
    assert model.n_components > CHUNK_ROWS  # the sign pass spans several chunks
    helpers = []

    class CountingHelper(gridpcr.util.Thread):
        def __init__(self, target):
            helpers.append(target)
            super().__init__(target=target)

    def refit(i):
        return model_from_white(
            space, basis, model.white, model.whitener, model.mean, model.total_variance
        )

    monkeypatch.setattr(gridpcr.util, "Thread", CountingHelper)
    alone = refit(0)
    assert len(helpers) == 1  # the sign pass: the caller and one helper
    helpers.clear()
    inside = run_indexed(refit, 2, threads=2)
    assert len(helpers) == 1  # the replicate pool's only
    for refitted in (alone, *inside):
        assert fit_bytes(refitted) == fit_bytes(model)


def bounded(fn, *args):
    """fn(*args) in a thread joined with a timeout, so that a pass that
    deadlocks fails the test; returns its result or the error it raised."""
    got = {}

    def call():
        try:
            got["value"] = fn(*args)
        except Exception as exc:
            got["value"] = exc

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "the pass did not finish"
    return got["value"]


def outcome(fn, *args):
    error = bounded(fn, *args)
    assert isinstance(error, Exception)
    return type(error), str(error), getattr(error, "offset", None)


def test_ordered_mean_under_contention(tmp_path, monkeypatch):
    # One row per chunk, more workers than cores and a tiny switch
    # interval: tasks finish out of order and wait for their turns, and the
    # mean must still be numpy's, bit for bit.
    space, basis, sample, path = make_case(unmasked_3d, tmp_path, 0)
    monkeypatch.setattr(gridpcr.space, "ROW_CHUNK_VALUES", space.size)
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 8)
    want = sample.mean(axis=0).tobytes()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with GridRows(path) as rows:
            for _ in range(5):
                for data in (sample, rows):
                    assert bounded(sample_mean, space, data).tobytes() == want
                    assert bounded(fit_subspace_pca, space, basis, data).mean.tobytes() == want
    finally:
        sys.setswitchinterval(switch)


# Failures in the ordered pass, by row: a file cut inside the row, or a NaN
# in it. Row 0 is the fit's shift row, read before the pass, and the first
# of chunk 0; row 13 lies in chunk 4 of 8.
FAILURES = [("cut", 0), ("cut", 1), ("cut", 13), ("nan", 0), ("nan", 13)]


@pytest.mark.parametrize("fn", [fit_subspace_pca, diagnose_projection])
@pytest.mark.parametrize("failure", FAILURES, ids=lambda f: f"{f[0]}-row-{f[1]}")
def test_failing_chunk_raises_as_on_one_worker(tmp_path, small_chunks, monkeypatch, fn, failure):
    space, basis, sample, path = make_case(unmasked_3d, tmp_path, 0)
    small_chunks(space)
    kind, row = failure
    if kind == "nan":
        sample[row, 5] = np.nan
        write_grid_nan(path, sample.reshape(N, *space.dims))
    start = os.path.getsize(path) - sample.nbytes
    outcomes = []
    with GridRows(path) as rows:
        if kind == "cut":
            os.truncate(path, start + 8 * (row * space.size + 7))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: cpus)
            outcomes.append(outcome(fn, space, basis, rows))
            if kind == "nan":
                outcomes.append(outcome(fn, space, basis, sample))
    if kind == "cut":
        end = start + 8 * (row * space.size + 7)
        want = (FormatError, f"grid file truncated: expected {start + sample.nbytes} "
                f"bytes, found {end}", end)
    else:
        want = (ConformanceError, "sample contains non-finite values", None)
    assert outcomes == [want] * len(outcomes)


@pytest.mark.parametrize("fn", [fit_subspace_pca, diagnose_projection])
def test_earlier_nan_reports_before_a_later_cut(tmp_path, small_chunks, monkeypatch, fn):
    # The NaN in chunk 1 is the lowest failure, also for the diagnostic's
    # mean, whose pass finds the cut in chunk 4 first.
    space, basis, sample, path = make_case(unmasked_3d, tmp_path, 0)
    small_chunks(space)
    sample[4, 5] = np.nan
    write_grid_nan(path, sample.reshape(N, *space.dims))
    with GridRows(path) as rows:
        os.truncate(path, os.path.getsize(path) - 8 * (N - 13) * space.size)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: cpus)
            assert outcome(fn, space, basis, rows) == (
                ConformanceError, "sample contains non-finite values", None
            )


@pytest.mark.parametrize("fn", [fit_subspace_pca, diagnose_projection])
def test_finite_sample_whose_squares_overflow_is_not_rejected(tmp_path, fn):
    # Finite rows whose sums are not finite are scanned again, found
    # finite, and carried through: the fit's total variance and the
    # diagnostic's delta_hat come out infinite, as before the row pass.
    space, basis, sample, path = make_case(unmasked_3d, tmp_path, 0)
    sample *= 1e160
    write_grid(path, sample.reshape(N, *space.dims))
    with GridRows(path) as rows, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for data in (sample, rows):
            result = fn(space, basis, data)
            if fn is fit_subspace_pca:
                assert result.mean.tobytes() == sample.mean(axis=0).tobytes()
                assert result.total_variance == np.inf
                assert result.n_components == 0
            else:
                assert result.delta_hat == np.inf and result.reject is False


def test_far_first_row_takes_the_exact_total_variance(monkeypatch):
    # Row 0 lies 100 sd from the rest, so the shifted-data formula would
    # lose digits to cancellation: the fit reads the sample again and sums
    # the deviations from the mean as the two-pass formula does, bit for bit.
    space = AmbientSpace.unit_domain((10, 12))
    basis = bspline_tensor_basis(space, 2, 2)
    rng = replicate_rng(9701, 0)
    sample = 1.0 + 0.3 * rng.standard_normal((2000, space.size))
    sample[0] += 100.0 * 0.3
    exact = gridpcr.decomp._total_variance
    calls = []
    monkeypatch.setattr(
        gridpcr.decomp, "_total_variance", lambda *args: calls.append(1) or exact(*args)
    )
    model = fit_subspace_pca(space, basis, sample)
    mean = sample.mean(axis=0)
    two_pass = float(_sq_norms(space, sample - mean).mean())
    assert calls == [1]
    assert model.total_variance == two_pass
    shifted = _sq_norms(space, sample - sample[0]).mean() - _sq_norms(space, [mean - sample[0]])[0]
    assert abs(shifted - two_pass) > 1e-13 * two_pass


def test_fit_reads_an_ordinary_sample_once(tmp_path, small_chunks, monkeypatch):
    space, basis, sample, path = make_case(unmasked_3d, tmp_path, 0)
    small_chunks(space)
    read = gridpcr.space.read_grid
    moved = []

    def counted(*args, **kwargs):
        out = read(*args, **kwargs)
        moved.append(out.nbytes)
        return out

    monkeypatch.setattr(gridpcr.space, "read_grid", counted)
    with GridRows(path) as rows:
        model = fit_subspace_pca(space, basis, rows)
    # The first row, before the pass; then every chunk once, in the order
    # in which the two pool workers happen to read them.
    assert moved[0] == 8 * space.size
    assert sorted(moved[1:]) == [8 * 2 * space.size] + [8 * CHUNK_ROWS * space.size] * 7
    two_pass = float(_sq_norms(space, sample - sample.mean(axis=0)).mean())
    assert model.total_variance == pytest.approx(two_pass, rel=REL)
