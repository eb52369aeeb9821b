"""Samples read from grid files a row chunk at a time, against in-memory arrays."""

import os
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
from gridpcr.decomp import model_from_white
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


@pytest.mark.parametrize("fn", [fit_subspace_pca, diagnose_projection])
def test_nonfinite_last_row_from_file_raises_as_for_array(tmp_path, small_chunks, fn):
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
    # Eight row chunks: every pass (the column-block mean, the projection,
    # the residuals and the sign pass) runs as tasks on the pool.
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
    # mean, projection, signs; mean, residuals
    assert passes == [(4, 4), (4, 2), (4, 4), (4, 4), (4, 2)]


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
