"""Subspace PCA, the projection diagnostic, and component selection."""

import tracemalloc

import numpy as np
import pytest

from gridpcr import (
    AmbientSpace,
    BasisSet,
    ConfigurationError,
    GridPcrError,
    NearMultiplicityError,
    SelectionInfeasibleError,
    bspline_tensor_basis,
    component_scores,
    diagnose_projection,
    eigenfunctions,
    eigenvalue_se,
    fit_subspace_pca,
    select_pve,
)
import gridpcr.decomp
import gridpcr.space
from gridpcr.decomp import centered_scores, check_gaps, EigenModel, PveSelection
from gridpcr.util import replicate_rng


def spanning_case(seed, max_dim=8):
    """Random small grid with a basis spanning the whole cell space."""
    rng = replicate_rng(7000, seed)
    dims = (int(rng.integers(2, max_dim + 1)), int(rng.integers(2, max_dim + 1)))
    space = AmbientSpace(
        dims=dims, weights=rng.uniform(0.3, 1.7, int(np.prod(dims)))
    )
    n_extra = int(rng.integers(0, 4))
    funcs = rng.standard_normal((space.size + n_extra, space.size))
    basis = BasisSet(functions=funcs, provenance={"kind": "custom"})
    n = int(rng.integers(space.size + 2, 40 + space.size))
    sample = rng.standard_normal((n, space.size)) * rng.uniform(0.5, 2.0)
    return space, basis, sample


def dense_eigenpairs(space, sample):
    """Oracle: eigenpairs of the weighted empirical covariance.

    Under the weighted inner product the covariance operator acts as C W;
    symmetrizing with W^(1/2) gives an ordinary symmetric eigenproblem whose
    vectors map back through W^(-1/2).
    """
    w = space.weights
    keep = w > 0
    dev = sample - sample.mean(axis=0)
    cov = dev.T @ dev / sample.shape[0]
    root = np.sqrt(w[keep])
    sym = root[:, None] * cov[np.ix_(keep, keep)] * root[None, :]
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    phis = np.zeros((sample.shape[1], vals.size))
    phis[keep] = vecs / root[:, None]
    return vals, phis.T


def align_signs(reference, candidate):
    flip = np.sign(np.sum(reference * candidate, axis=1))
    flip[flip == 0] = 1.0
    return candidate * flip[:, None]


def test_matches_dense_oracle_on_spanning_bases():
    for seed in range(20):
        space, basis, sample = spanning_case(seed)
        model = fit_subspace_pca(space, basis, sample)
        vals, phis = dense_eigenpairs(space, sample)
        j = model.n_components
        np.testing.assert_allclose(model.eigenvalues, vals[:j], atol=1e-8)
        phi_hat = eigenfunctions(space, basis, model)
        aligned = align_signs(phi_hat, phis[:j])
        np.testing.assert_allclose(phi_hat, aligned, atol=1e-8)


def test_eigenfunctions_orthonormal_and_sign_convention():
    for seed in range(10):
        space, basis, sample = spanning_case(seed)
        model = fit_subspace_pca(space, basis, sample)
        phi_hat = eigenfunctions(space, basis, model)
        g = phi_hat * space.weights @ phi_hat.T
        np.testing.assert_allclose(g, np.eye(model.n_components), atol=1e-9)
        for row in phi_hat:
            assert row[np.argmax(np.abs(row))] > 0


def test_fit_keeps_no_grid_rows_of_the_eigenfunctions(monkeypatch):
    # The signs are read from eigenfunctions synthesized two rows at a time;
    # neither they nor any other J x V array may be held by the fit.
    space = AmbientSpace.unit_domain((40, 48))
    basis = bspline_tensor_basis(space, 3, 3)
    sample = replicate_rng(7050, 0).standard_normal((60, space.size))
    reference = fit_subspace_pca(space, basis, sample)
    monkeypatch.setattr(gridpcr.space, "ROW_CHUNK_VALUES", 2 * space.size)
    tracemalloc.start()
    try:
        model = fit_subspace_pca(space, basis, sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    j = model.n_components
    assert j == basis.n_functions == 49
    assert peak < j * space.size * 8 / 2
    np.testing.assert_allclose(model.coords, reference.coords, atol=1e-9)
    phis = eigenfunctions(space, basis, model)
    assert np.all(phis[np.arange(j), np.argmax(np.abs(phis), axis=1)] > 0)


def test_total_variance_is_parseval_sum_when_spanning():
    space, basis, sample = spanning_case(3)
    model = fit_subspace_pca(space, basis, sample)
    assert model.total_variance == pytest.approx(model.eigenvalues.sum(), rel=1e-10)


def test_model_reproduces_sample_spectrum_shape():
    # planted two-component data: eigenvalues estimate the planted variances
    rng = replicate_rng(7100, 0)
    space = AmbientSpace.unit_domain((10, 10))
    raw = rng.standard_normal((2, space.size))
    q = np.linalg.qr((raw * np.sqrt(space.weights)).T)[0].T
    phis = q / np.sqrt(space.weights)
    n = 4000
    xi = rng.standard_normal((n, 2)) * np.sqrt([4.0, 1.0])
    sample = xi @ phis
    basis = bspline_tensor_basis(space, 2, 3)
    # the random plant is not inside the spline span; use a custom basis
    basis = BasisSet(functions=phis, provenance={"kind": "custom"})
    model = fit_subspace_pca(space, basis, sample)
    assert model.n_components == 2
    np.testing.assert_allclose(model.eigenvalues, [4.0, 1.0], rtol=0.15)


def test_invariant_to_basis_reparameterization():
    # same span, different rows: identical eigenpairs
    rng = replicate_rng(7200, 0)
    space = AmbientSpace.unit_domain((7, 6))
    funcs = rng.standard_normal((12, space.size))
    mix = rng.standard_normal((12, 12))  # invertible almost surely
    sample = rng.standard_normal((25, space.size))
    basis_a = BasisSet(functions=funcs, provenance={})
    basis_b = BasisSet(functions=mix @ funcs, provenance={})
    a = fit_subspace_pca(space, basis_a, sample)
    b = fit_subspace_pca(space, basis_b, sample)
    assert a.n_components == b.n_components
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
    phi_a = eigenfunctions(space, basis_a, a)
    phi_b = eigenfunctions(space, basis_b, b)
    np.testing.assert_allclose(phi_a, align_signs(phi_a, phi_b), atol=1e-7)


def test_component_scores_orthonormal_rows():
    # scores come from the fitted whitened scores, never the grid; they must
    # equal the grid inner products whether the basis keeps every Gram
    # direction (case 1) or loses some to the drop tolerance (case 5)
    for seed, dropped in ((1, 0), (5, 2)):
        space, basis, sample = spanning_case(seed)
        model = fit_subspace_pca(space, basis, sample)
        assert model.whitener.dropped == dropped
        want = (sample * space.weights) @ eigenfunctions(space, basis, model).T
        got = component_scores(model)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(centered_scores(model).mean(axis=0)).max() <= 1e-12
    manual = np.array(
        [
            [space.inner(z, phi) for phi in eigenfunctions(space, basis, model)]
            for z in sample[:4]
        ]
    )
    np.testing.assert_allclose(component_scores(model)[:4], manual, atol=1e-10)


def test_centered_scores_mean_zero_variance_lambda():
    space, basis, sample = spanning_case(6)
    model = fit_subspace_pca(space, basis, sample)
    xi = centered_scores(model)
    np.testing.assert_allclose(xi.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(
        (xi**2).mean(axis=0), model.eigenvalues, rtol=1e-8
    )


def test_select_pve_worked_examples():
    def model_with(lams, total):
        lams = np.asarray(lams, dtype=float)
        return EigenModel(
            eigenvalues=lams,
            coords=np.zeros((lams.size, lams.size)),
            white=np.zeros((10, lams.size)),
            mean=np.zeros(4),
            whitener=None,
            total_variance=total,
        )

    sel = select_pve(model_with([3.5, 3.0, 2.5, 2.0, 1.5, 1.0], 13.5), 0.95)
    assert isinstance(sel, PveSelection)
    assert sel.m == 6  # cumulative 12.5 fails the strict 12.825 cut, 13.5 passes
    np.testing.assert_allclose(sel.cumulative[-1], 1.0)

    assert select_pve(model_with([1.0], 1.0), 0.5).m == 1
    assert select_pve(model_with([2.0, 1.0], 3.0), 0.95).m == 2
    # threshold met strictly before the last component
    assert select_pve(model_with([9.0, 1.0], 10.0), 0.85).m == 1

    with pytest.raises(SelectionInfeasibleError) as err:
        select_pve(model_with([1.0, 0.5], 10.0), 0.95)
    assert err.value.achieved == pytest.approx(0.15)

    for bad in (0.0, 1.0, -2.0):
        with pytest.raises(ConfigurationError):
            select_pve(model_with([1.0], 1.0), bad)


def test_diagnostic_exact_span_and_orthogonal_basis():
    rng = replicate_rng(7300, 1)
    space = AmbientSpace.unit_domain((6, 6))
    funcs = rng.standard_normal((4, space.size))
    basis = BasisSet(functions=funcs, provenance={})
    inside = rng.standard_normal((30, 4)) @ funcs
    report = diagnose_projection(space, basis, inside, 0.05)
    assert report.delta_hat == pytest.approx(0.0, abs=1e-10)
    assert report.t_stat == pytest.approx(0.0, abs=1e-6)
    assert not report.reject

    # data orthogonal to the basis: delta equals the total variance
    q, _ = np.linalg.qr((funcs * np.sqrt(space.weights)).T, mode="complete")
    ortho = (q[:, 4:8] / np.sqrt(space.weights)[:, None]).T
    outside = rng.standard_normal((30, 4)) @ ortho
    report = diagnose_projection(space, basis, outside, 0.05)
    dev = outside - outside.mean(axis=0)
    total = np.mean([space.inner(d, d) for d in dev])
    assert report.delta_hat == pytest.approx(total, rel=1e-10)
    assert report.reject


def test_diagnostic_identity_and_statistic_arithmetic():
    for seed in range(20):
        rng = replicate_rng(7400, seed)
        dims = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        space = AmbientSpace(
            dims=dims, weights=rng.uniform(0.2, 2.0, int(np.prod(dims)))
        )
        funcs = rng.standard_normal((int(rng.integers(2, 7)), space.size))
        basis = BasisSet(functions=funcs, provenance={})
        sample = rng.standard_normal((int(rng.integers(5, 25)), space.size))
        report = diagnose_projection(space, basis, sample, 0.04)
        # residual-norm form recomputed from scratch
        dev = sample - sample.mean(axis=0)
        sw = np.sqrt(space.weights)
        q, _ = np.linalg.qr((funcs * sw).T)
        resid = dev * sw - (dev * sw) @ q @ q.T
        norms2 = (resid**2).sum(axis=1)
        delta = norms2.mean()
        assert report.delta_hat == pytest.approx(delta, abs=1e-8 * max(1.0, delta))
        s2 = ((norms2 - delta) ** 2).mean()
        assert report.s2_hat == pytest.approx(s2, rel=1e-6)
        n = sample.shape[0]
        want_t = np.sqrt(n) * delta / np.sqrt(s2 + 1.0 / n)
        assert report.t_stat == pytest.approx(want_t, rel=1e-6)
        assert report.reject == (report.t_stat > report.critical)


def test_diagnostic_alpha_domain():
    space, basis, sample = spanning_case(8)
    for bad in (0.0, 0.06, 0.5, -0.01):
        with pytest.raises(ConfigurationError):
            diagnose_projection(space, basis, sample, bad)
    report = diagnose_projection(space, basis, sample, 0.01)
    assert report.alpha == 0.01


def test_diagnostic_degenerate_sample():
    space = AmbientSpace.unit_domain((4, 4))
    basis = BasisSet(functions=np.ones((1, 16)), provenance={})
    sample = np.tile(np.linspace(0, 1, 16), (5, 1))
    report = diagnose_projection(space, basis, sample, 0.05)
    assert report.delta_hat == pytest.approx(0.0, abs=1e-20)
    assert report.t_stat == pytest.approx(0.0, abs=1e-20)
    assert not report.reject


def test_eigenvalue_se_matches_formula_and_scale():
    rng = replicate_rng(7500, 0)
    space = AmbientSpace.unit_domain((8, 8))
    raw = rng.standard_normal((3, space.size))
    q = np.linalg.qr((raw * np.sqrt(space.weights)).T)[0].T
    phis = q / np.sqrt(space.weights)
    lambdas = np.array([5.0, 2.0, 1.0])
    n = 2000
    xi = rng.standard_normal((n, 3)) * np.sqrt(lambdas)
    sample = xi @ phis
    basis = BasisSet(functions=phis, provenance={})
    model = fit_subspace_pca(space, basis, sample)
    se = eigenvalue_se(model)
    # definition: sd of squared centered scores over sqrt(n)
    xi_hat = centered_scores(model)
    manual = (xi_hat**2).std(axis=0, ddof=0) / np.sqrt(n)
    np.testing.assert_allclose(se, manual, rtol=1e-10)
    # Gaussian scores: sd(xi^2) = lambda * sqrt(2)
    np.testing.assert_allclose(
        se, lambdas * np.sqrt(2.0 / n), rtol=0.15
    )


def test_eigenfunction_cov_guards_near_multiplicity():
    rng = replicate_rng(7700, 0)
    space = AmbientSpace.unit_domain((6, 6))
    funcs = rng.standard_normal((5, space.size))
    xi = rng.standard_normal((50, 5))
    sample = xi @ funcs
    model = fit_subspace_pca(space, BasisSet(functions=funcs, provenance={}), sample)
    lam = model.eigenvalues
    with pytest.raises(NearMultiplicityError):
        check_gaps(model, model.n_components, gap_tol=abs(lam[0] - lam[1]) * 1.01)
    # a pair tied beyond the requested range must not block the range itself
    check_gaps(model, 1, gap_tol=min(abs(np.diff(lam))) * 0.5)


def test_fit_requires_two_rows():
    space = AmbientSpace.unit_domain((4, 4))
    basis = BasisSet(functions=np.ones((1, 16)), provenance={})
    with pytest.raises(GridPcrError):
        fit_subspace_pca(space, basis, np.zeros((1, 16)))


def test_fit_and_diagnostic_check_the_sample_once(monkeypatch):
    # Each public call validates its sample once; the projection inside it
    # does not check the sample again.
    checked = []
    original = gridpcr.space.as_sample

    def spy(space, x):
        checked.append(np.shape(x))
        return original(space, x)

    monkeypatch.setattr(gridpcr.space, "as_sample", spy)
    monkeypatch.setattr(gridpcr.decomp, "as_sample", spy)
    space = AmbientSpace.unit_domain((6, 7))
    basis = bspline_tensor_basis(space, 2, 2)
    sample = replicate_rng(7300, 0).standard_normal((30, space.size))
    fit_subspace_pca(space, basis, sample)
    assert checked == [sample.shape]
    diagnose_projection(space, basis, sample)
    assert checked == [sample.shape] * 2
