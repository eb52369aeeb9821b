"""The factored B-spline basis against its dense rows, and its memory use."""

import tracemalloc
import warnings

import numpy as np
import pytest

import gridpcr
from gridpcr import (
    AmbientSpace,
    BasisSet,
    TensorBasis,
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
from gridpcr.bases import NEGLIGIBLE_ROW_TOL, mask_space
from gridpcr.cli import main
from gridpcr.space import basis_rows, kron_rows
from gridpcr.util import replicate_rng

REL = 1e-12


def assert_rel(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= REL * scale


def unit_2d():
    return AmbientSpace.regular((12, 10)), 2, (2, 3)


def nonuniform_3d():
    rng = replicate_rng(9600, 0)
    spacings = [0.2 + rng.random(d) for d in (7, 8, 6)]
    weights = np.einsum("i,j,k->ijk", *spacings)
    return AmbientSpace(dims=(7, 8, 6), weights=weights), 2, (2, 1, 1)


def masked_2d():
    space = AmbientSpace.unit_domain((16, 14))
    mask = np.ones(space.dims, dtype=bool)
    mask[:7, :6] = False
    mask[12:, 10:] = False
    return mask_space(space, mask), 1, 6


def build(case):
    space, degree, knots = case()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = bspline_tensor_basis(space, degree, knots)
    return space, basis, caught


CASES = [unit_2d, nonuniform_3d, masked_2d]


def in_span_sample(space, dense, n=40, seed=0):
    """Rank-4 sample inside the basis span, with well-separated variances."""
    rng = replicate_rng(9601, seed)
    elements = rng.standard_normal((4, dense.n_functions)) @ dense.functions
    xi = rng.standard_normal((n, 4)) * np.sqrt([9.0, 4.0, 1.0, 0.25])
    return xi @ elements + rng.standard_normal(space.size)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_factored_maps_match_dense_rows(case):
    space, basis, _ = build(case)
    assert isinstance(basis, TensorBasis)
    assert not hasattr(basis, "functions")
    dense = BasisSet(functions=basis_rows(basis))
    assert basis.shape == dense.functions.shape == (basis.n_functions, space.size)
    rng = replicate_rng(9602, 0)
    sample = rng.standard_normal((9, space.size))
    center = rng.standard_normal(space.size)
    coef = rng.standard_normal((5, basis.n_functions))
    assert_rel(gram(space, basis), gram(space, dense))
    assert_rel(project_scores(space, basis, sample), project_scores(space, dense, sample))
    assert_rel(
        project_scores(space, basis, sample, center=center),
        project_scores(space, dense, sample, center=center),
    )
    assert_rel(synthesize(space, basis, coef), synthesize(space, dense, coef))
    assert_rel(synthesize(space, dense, coef), coef @ dense.functions)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_fit_and_diagnostic_match_dense_rows(case):
    space, basis, _ = build(case)
    dense = BasisSet(functions=basis_rows(basis))
    sample = in_span_sample(space, dense)
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
    full = np.where(support, kron_rows(basis.factors), 0.0)
    keep = np.max(np.abs(full), axis=1) >= NEGLIGIBLE_ROW_TOL
    dropped = np.flatnonzero(~keep).tolist()
    assert dropped
    np.testing.assert_array_equal(basis.kept, np.flatnonzero(keep))
    assert basis.provenance["dropped_rows"] == dropped
    assert [str(w.message) for w in caught] == [
        f"dropped {len(dropped)} basis row(s) with no support on the domain"
    ]
    assert caught[0].filename == __file__
    np.testing.assert_array_equal(basis_rows(basis), full[keep])

    dense = BasisSet(functions=basis_rows(basis))
    model = fit_subspace_pca(space, basis, in_span_sample(space, dense))
    assert np.all(eigenfunctions(space, basis, model)[:, ~support] == 0.0)


def test_unmasked_basis_keeps_every_row():
    space, basis, caught = build(unit_2d)
    assert basis.kept is None and basis.support is None
    assert "dropped_rows" not in basis.provenance
    assert not caught


def test_no_dense_rows_on_the_fitting_paths(tmp_path, monkeypatch):
    dense_rows = basis_rows

    def guarded(basis):
        if isinstance(basis, TensorBasis):
            raise AssertionError("dense rows built for a TensorBasis")
        return dense_rows(basis)

    for module in vars(gridpcr).values():
        if getattr(module, "basis_rows", None) is dense_rows:
            monkeypatch.setattr(module, "basis_rows", guarded)

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
