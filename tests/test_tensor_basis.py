"""The basis protocol against each basis's dense rows, and the factored
B-spline basis's memory use."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gridpcr import (
    AmbientSpace,
    BasisSet,
    ConformanceError,
    TensorBasis,
    Triangulation,
    bspline_tensor_basis,
    diagnose_projection,
    eigenfunctions,
    fit_subspace_pca,
    gram,
    project_scores,
    synthesize,
    write_grid,
    write_table,
)
import gridpcr.space
from gridpcr.bases import NEGLIGIBLE_ROW_TOL, mask_space, tri_pl_basis
from gridpcr.cli import main
from gridpcr.decomp import _residual_sq_norms, _sq_norms
from gridpcr.space import _negative_peaks, synthesize_tiles, synthesized_negative_peaks
from gridpcr.util import replicate_rng

REL = 1e-12


def assert_rel(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= REL * scale


def unit_2d():
    space = AmbientSpace.regular((12, 10))
    return space, bspline_tensor_basis(space, 2, (2, 3))


def nonuniform_3d():
    rng = replicate_rng(9600, 0)
    spacings = [0.2 + rng.random(d) for d in (7, 8, 6)]
    weights = np.einsum("i,j,k->ijk", *spacings)
    space = AmbientSpace(dims=(7, 8, 6), weights=weights)
    return space, bspline_tensor_basis(space, 2, (2, 1, 1))


def masked_2d():
    space = AmbientSpace.unit_domain((16, 14))
    mask = np.ones(space.dims, dtype=bool)
    mask[:7, :6] = False
    mask[12:, 10:] = False
    space = mask_space(space, mask)
    return space, bspline_tensor_basis(space, 1, 6)


def masked_tri():
    """Hat functions of a 4 x 4 square mesh on a disk that leaves two corner
    vertices without support: a dense basis with dropped rows."""
    space = AmbientSpace.unit_domain((20, 24))
    cx, cy = np.meshgrid(*space.centers(), indexing="ij")
    space = mask_space(space, (cx - 0.5) ** 2 + (cy - 0.5) ** 2 <= 0.45**2)
    ticks = np.linspace(0.0, 1.0, 5)
    vertices = np.array([[u, v] for u in ticks for v in ticks])
    cells = []
    for v00 in (5 * i + j for i in range(4) for j in range(4)):
        cells += [[v00, v00 + 5, v00 + 6], [v00, v00 + 6, v00 + 1]]
    basis = tri_pl_basis(space, Triangulation(vertices, np.array(cells)))
    assert len(basis.provenance["kept_vertices"]) == 23
    return space, basis


def build(case):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        space, basis = case()
    return space, basis, caught


CASES = [unit_2d, nonuniform_3d, masked_2d]


def in_span_sample(space, basis, n=40, seed=0):
    """Rank-4 sample inside the basis span, with well-separated variances."""
    rng = replicate_rng(9601, seed)
    elements = rng.standard_normal((4, basis.n_functions)) @ basis.rows()
    xi = rng.standard_normal((n, 4)) * np.sqrt([9.0, 4.0, 1.0, 0.25])
    return xi @ elements + rng.standard_normal(space.size)


@pytest.mark.parametrize("case", CASES + [masked_tri], ids=lambda c: c.__name__)
def test_factored_maps_match_dense_rows(case):
    space, basis, _ = build(case)
    assert isinstance(basis, TensorBasis) != hasattr(basis, "functions")
    rows = basis.rows()
    assert basis.shape == rows.shape == (basis.n_functions, space.size)
    rng = replicate_rng(9602, 0)
    sample = rng.standard_normal((9, space.size))
    center = rng.standard_normal(space.size)
    coef = rng.standard_normal((5, basis.n_functions))
    g = (rows * space.weights) @ rows.T
    assert_rel(gram(space, basis), 0.5 * (g + g.T))
    assert_rel(project_scores(space, basis, sample), (sample * space.weights) @ rows.T)
    assert_rel(
        project_scores(space, basis, sample - center),
        ((sample - center) * space.weights) @ rows.T,
    )
    assert_rel(synthesize(space, basis, coef), coef @ rows)

    other = AmbientSpace.regular((space.size + 1,))
    message = re.escape(f"basis width {space.size} does not conform to grid {other.dims}")
    with pytest.raises(ConformanceError, match=message):
        gram(other, basis)
    with pytest.raises(ConformanceError, match=message):
        project_scores(other, basis, np.zeros((1, other.size)))
    with pytest.raises(ConformanceError, match=message):
        synthesize(other, basis, coef)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_fit_and_diagnostic_match_dense_rows(case):
    space, basis, _ = build(case)
    dense = BasisSet(functions=basis.rows())
    sample = in_span_sample(space, basis)
    a = fit_subspace_pca(space, basis, sample)
    b = fit_subspace_pca(space, dense, sample)
    assert a.n_components == b.n_components == 4
    assert_rel(a.eigenvalues, b.eigenvalues)
    assert_rel(eigenfunctions(space, basis, a), eigenfunctions(space, dense, b))
    assert a.total_variance == pytest.approx(b.total_variance, rel=REL)

    noisy = sample + 0.05 * replicate_rng(9603, 0).standard_normal(sample.shape)
    ra = diagnose_projection(space, basis, noisy)
    rb = diagnose_projection(space, dense, noisy)
    for name in ("delta_hat", "s2_hat", "t_stat"):
        assert getattr(ra, name) == pytest.approx(getattr(rb, name), rel=REL)
    assert (ra.reject, ra.n, ra.basis_rank) == (rb.reject, rb.n, rb.basis_rank)


def test_masked_basis_drops_unsupported_rows():
    space, basis, caught = build(masked_2d)
    support = space.weights > 0
    full = TensorBasis(factors=basis.factors, support=basis.support).rows()
    keep = np.max(np.abs(full), axis=1) >= NEGLIGIBLE_ROW_TOL
    dropped = np.flatnonzero(~keep).tolist()
    assert dropped
    np.testing.assert_array_equal(basis.kept, np.flatnonzero(keep))
    assert basis.provenance["dropped_rows"] == dropped
    assert [str(w.message) for w in caught] == [
        f"dropped {len(dropped)} basis row(s) with no support on the domain"
    ]
    assert caught[0].filename == __file__
    np.testing.assert_array_equal(basis.rows(), full[keep])

    model = fit_subspace_pca(space, basis, in_span_sample(space, basis))
    assert np.all(eigenfunctions(space, basis, model)[:, ~support] == 0.0)


def test_unmasked_basis_keeps_every_row():
    space, basis, caught = build(unit_2d)
    assert basis.kept is None and basis.support is None
    assert "dropped_rows" not in basis.provenance
    assert not caught


def test_no_dense_rows_on_the_fitting_paths(tmp_path, monkeypatch):
    def guarded(basis):
        raise AssertionError("dense rows built for a TensorBasis")

    monkeypatch.setattr(TensorBasis, "rows", guarded)

    dims = (40, 36, 30)
    space = AmbientSpace.unit_domain(dims)
    basis = bspline_tensor_basis(space, 2, 2)
    rng = replicate_rng(9604, 0)
    n = 12
    smooth = np.einsum(
        "i,j,k->ijk", *(np.sin(np.pi * c * (1 + a)) for a, c in enumerate(space.centers()))
    ).ravel()
    sample = rng.standard_normal((n, 1)) * smooth + 0.1 * rng.standard_normal((n, space.size))
    dense_bytes = 8 * basis.n_functions * space.size

    tracemalloc.start()
    try:
        model = fit_subspace_pca(space, basis, sample)
        report = diagnose_projection(space, basis, sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The sample exists before tracing; fitting and the diagnostic add a few
    # row chunks, each at most n x V (one chunk holds this whole sample), and
    # no J x V eigenfunctions. The dense rows would be N x V, N = 125 > 4 n.
    assert peak < dense_bytes / 2
    assert model.n_components == n - 1
    assert report.basis_rank == basis.n_functions

    data = tmp_path / "s.hsg"
    write_grid(data, sample.reshape(n, *dims))
    x = rng.standard_normal(n)
    y = 1.0 + x + model.white[:, 0]
    table = tmp_path / "d.csv"
    write_table(table, ["y", "x1"], [[y[i], x[i]] for i in range(n)])
    rc = main([
        "regress", "--data", str(data), "--degree", "2", "--knots", "2",
        "--table", str(table), "--response", "y", "--m", "2",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 0


TILE_CASES = CASES + [masked_tri]


@pytest.mark.parametrize("case", TILE_CASES, ids=lambda c: c.__name__)
def test_tile_reductions_match_the_dense_rows(case, monkeypatch):
    # One slab (or column) per tile, a few per tile, and one tile in all.
    space, basis, _ = build(case)
    rng = replicate_rng(9603, 0)
    coef = rng.standard_normal((5, basis.n_functions))
    dense = coef @ basis.rows()
    dev = rng.standard_normal(dense.shape)
    buf = np.empty(dense.shape)
    for values in (1, 60, 2**17):
        monkeypatch.setattr(gridpcr.space, "TILE_VALUES", values)
        covered, tiles = [], 0
        for cols, tile in synthesize_tiles(space, basis, coef, buf):
            assert np.shares_memory(tile, buf)
            assert_rel(tile, dense[:, cols])
            covered += range(space.size)[cols]
            tiles += 1
        assert covered == list(range(space.size))
        if tiles == 1:  # a single tile is the product synthesize makes
            assert np.array_equal(tile, synthesize(space, basis, coef))
        negative = synthesized_negative_peaks(space, basis, coef, buf)
        assert np.array_equal(negative, _negative_peaks(dense))
        assert_rel(_residual_sq_norms(space, basis, dev, coef, buf), _sq_norms(space, dev - dense))
    assert tiles == 1


@pytest.mark.parametrize("case", TILE_CASES, ids=lambda c: c.__name__)
def test_fit_signs_from_tiles_match_the_dense_rule(case, monkeypatch):
    space, basis, _ = build(case)
    sample = in_span_sample(space, basis)
    sample += 0.01 * replicate_rng(9604, 0).standard_normal(sample.shape)
    whole = fit_subspace_pca(space, basis, sample)  # one tile per chunk
    monkeypatch.setattr(gridpcr.space, "TILE_VALUES", 1)
    tiled = fit_subspace_pca(space, basis, sample)
    assert tiled.n_components > 4
    assert tiled.coords.tobytes() == whole.coords.tobytes()
    assert not _negative_peaks(eigenfunctions(space, basis, tiled)).any()


def test_tied_peaks_are_signed_by_the_first_extreme_entry(monkeypatch):
    # Each row's max is -min, and they fall in different tiles; the first
    # extreme entry is positive in the tensor rows and negative in the
    # dense ones.
    monkeypatch.setattr(gridpcr.space, "TILE_VALUES", 1)
    space = AmbientSpace.regular((2, 2))
    coef = np.array([[1.0], [-1.0]])
    tensor = TensorBasis(factors=(np.array([[1.0, -1.0]]), np.array([[1.0, 0.5]])))
    dense = BasisSet(functions=np.array([[0.5, -1.0, 0.2, 1.0]]))
    for basis, first in ((tensor, [False, True]), (dense, [True, False])):
        rows = coef @ basis.rows()
        assert np.array_equal(rows.max(axis=1), -rows.min(axis=1))
        assert len(list(synthesize_tiles(space, basis, coef, np.empty((2, 4))))) > 1
        negative = synthesized_negative_peaks(space, basis, coef, np.empty((2, 4)))
        assert negative.tolist() == _negative_peaks(rows).tolist() == first
