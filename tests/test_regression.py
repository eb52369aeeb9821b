"""Principal-component regression and plug-in covariance."""

from dataclasses import replace

import numpy as np
import pytest

from gridpcr import (
    AmbientSpace,
    BasisSet,
    ConfigurationError,
    ConformanceError,
    DegenerateDesignError,
    NearMultiplicityError,
    RegressionDesign,
    coefficient_element,
    coefficient_names,
    component_scores,
    eigenfunctions,
    fit_pcr,
    fit_precision,
    fit_subspace_pca,
    plugin_cov,
    sandwich_cov,
)
from gridpcr.regression import design_matrix
from gridpcr.util import replicate_rng


def umat(x, scores):
    return np.column_stack([np.ones(len(x)), x, scores])


def toy_design(seed, n=40, d=2, m=3, treatment=False):
    rng = replicate_rng(8000, seed)
    x = rng.standard_normal((n, d))
    scores = rng.standard_normal((n, m)) * np.sqrt([3.0, 2.0, 1.0][:m])
    y = rng.standard_normal(n)
    arm = rng.random(n) < 0.5 if treatment else None
    return RegressionDesign(y=y, x=x, scores=scores, treatment=arm)


def test_design_validation():
    rng = replicate_rng(8001, 0)
    with pytest.raises(ConformanceError):
        RegressionDesign(y=rng.standard_normal(5), x=np.zeros((4, 1)), scores=np.zeros((5, 1)))
    with pytest.raises(ConformanceError):
        RegressionDesign(y=rng.standard_normal(5), x=np.zeros((5, 1)), scores=np.zeros((4, 1)))
    with pytest.raises(ConformanceError):
        RegressionDesign(y=np.array([1.0, np.nan]), x=np.zeros((2, 0)), scores=np.zeros((2, 1)))
    d = toy_design(0)
    assert (d.n, d.d, d.m) == (40, 2, 3)


def test_coefficient_names():
    assert coefficient_names(2, 3) == ["intercept", "x1", "x2", "z1", "z2", "z3"]
    assert coefficient_names(1, 1, treatment=True) == [
        "intercept", "x1", "z1", "treat", "treat:x1", "treat:z1",
    ]


def test_fit_matches_lstsq_oracle():
    for seed in range(5):
        design = toy_design(seed)
        fit = fit_pcr(design)
        u = np.column_stack([np.ones(design.n), design.x, design.scores])
        ref, *_ = np.linalg.lstsq(u, design.y, rcond=None)
        np.testing.assert_allclose(fit.theta, ref, atol=1e-10)
        np.testing.assert_allclose(fit.residuals, design.y - u @ fit.theta, atol=1e-10)
        assert fit.alpha == fit.theta[0]
        np.testing.assert_array_equal(fit.beta, fit.theta[1:3])
        np.testing.assert_array_equal(fit.gamma, fit.theta[3:])


def test_exact_recovery_with_oracle_scores():
    rng = replicate_rng(8100, 0)
    n, d, m = 60, 3, 4
    x = rng.standard_normal((n, d))
    scores = rng.standard_normal((n, m))
    theta0 = np.concatenate([[0.5], rng.uniform(-2, 2, d), rng.uniform(-2, 2, m)])
    y = umat(x, scores) @ theta0
    fit = fit_pcr(RegressionDesign(y=y, x=x, scores=scores))
    np.testing.assert_allclose(fit.theta, theta0, atol=1e-10)
    assert fit.sigma_hat.shape == (1 + d + m, 1 + d + m)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)


def test_degenerate_design_rejected():
    design = toy_design(2)
    x = np.column_stack([design.x, design.x[:, 0]])  # exact duplicate column
    with pytest.raises(DegenerateDesignError) as err:
        fit_pcr(RegressionDesign(y=design.y, x=x, scores=design.scores))
    assert "nondegeneracy" in str(err.value)


def test_more_parameters_than_rows_rejected():
    rng = replicate_rng(8200, 0)
    with pytest.raises(DegenerateDesignError):
        fit_pcr(
            RegressionDesign(
                y=rng.standard_normal(4),
                x=rng.standard_normal((4, 3)),
                scores=rng.standard_normal((4, 2)),
            )
        )


def test_precision_fit_recovers_interactions():
    rng = replicate_rng(8300, 0)
    n, d, m = 400, 2, 2
    x = rng.standard_normal((n, d))
    scores = rng.standard_normal((n, m))
    arm = rng.random(n) < 0.5
    base = np.array([1.0, 0.5, -0.5, 2.0, 1.0])
    mod = np.array([0.25, -1.0, 0.75, 0.5, -0.25])
    u = umat(x, scores)
    y = u @ base + arm * (u @ mod)
    two_arm = RegressionDesign(y=y, x=x, scores=scores, treatment=arm)
    fit = fit_precision(two_arm)
    assert fit.block_size == 5
    np.testing.assert_allclose(fit.base, base, atol=1e-8)
    np.testing.assert_allclose(fit.modifier, mod, atol=1e-8)
    np.testing.assert_allclose(fit.theta, np.concatenate([base, mod]), atol=1e-8)
    np.testing.assert_array_equal(fit.gamma, fit.base[3:])
    # fit_pcr fits the two-arm model whenever the design has a treatment
    np.testing.assert_array_equal(fit_pcr(two_arm).theta, fit.theta)
    one_arm = fit_pcr(RegressionDesign(y=y, x=x, scores=scores))
    assert one_arm.modifier.size == 0
    np.testing.assert_array_equal(one_arm.base, one_arm.theta)


def test_precision_fit_requires_both_arms():
    design = toy_design(3)
    with pytest.raises(ConformanceError):
        fit_precision(design)  # no treatment column at all
    one_arm = RegressionDesign(
        y=design.y, x=design.x, scores=design.scores,
        treatment=np.zeros(design.n, dtype=bool),
    )
    with pytest.raises(DegenerateDesignError):
        fit_precision(one_arm)


def test_weights_are_checked_once_for_both_arms():
    message = "weights must be one nonnegative value per row"
    for treatment in (False, True):
        design = toy_design(5, treatment=treatment)
        bad_sign = np.ones(design.n)
        bad_sign[3] = -1.0
        for weights in (np.ones(design.n - 1), bad_sign):
            with pytest.raises(ConformanceError, match=message):
                fit_pcr(design, weights)
        unit = fit_pcr(design, np.ones(design.n))
        np.testing.assert_array_equal(unit.theta, fit_pcr(design).theta)


def test_sandwich_cov_covers_two_arm_fits():
    design = toy_design(6, n=80, treatment=True)
    fit = fit_precision(design)
    u = umat(design.x, design.scores)
    full = np.column_stack([u, u * design.treatment[:, None]])
    bread = np.linalg.inv(full.T @ full / design.n)
    meat = (full * fit.residuals[:, None] ** 2).T @ full / design.n
    hc0 = bread @ meat @ bread / design.n
    np.testing.assert_allclose(
        sandwich_cov(fit, design), hc0, rtol=0, atol=1e-12 * np.abs(hc0).max()
    )
    np.testing.assert_array_equal(design_matrix(design), full)


def fitted_pipeline(seed, n=300):
    """Full pipeline on in-span data so plug-in pieces are well defined."""
    rng = replicate_rng(8400, seed)
    space = AmbientSpace.unit_domain((8, 8))
    raw = rng.standard_normal((3, space.size))
    q = np.linalg.qr((raw * np.sqrt(space.weights)).T)[0].T
    phis = q / np.sqrt(space.weights)
    lambdas = np.array([4.0, 2.0, 1.0])
    xi = rng.standard_normal((n, 3)) * np.sqrt(lambdas)
    sample = xi @ phis
    x = rng.standard_normal((n, 2))
    eps = rng.standard_normal(n)
    theta0 = np.array([1.0, 0.8, -0.6, 1.5, -1.0, 0.5])
    y = umat(x, xi) @ theta0 + eps
    basis = BasisSet(functions=phis, provenance={})
    model = fit_subspace_pca(space, basis, sample)
    scores = component_scores(model)[:, :3]
    design = RegressionDesign(y=y, x=x, scores=scores)
    return space, basis, model, design


def test_plugin_cov_reduces_to_sandwich_when_noiseless_null():
    # eps = 0 and gamma = 0: residuals vanish, so both estimates are zero
    rng = replicate_rng(8500, 0)
    space, basis, model, design = fitted_pipeline(0)
    y = umat(design.x, design.scores)[:, :3] @ np.array([1.0, 0.8, -0.6])
    design0 = RegressionDesign(y=y, x=design.x, scores=design.scores)
    fit = fit_pcr(design0)
    plug = plugin_cov(fit, model, design0)
    sand = sandwich_cov(fit, design0)
    np.testing.assert_allclose(plug, sand, atol=1e-18)
    np.testing.assert_allclose(plug, 0.0, atol=1e-18)


def test_plugin_cov_rejects_two_arm_fit():
    _, _, model, design = fitted_pipeline(1)
    arm = np.arange(design.n) % 2 == 0
    two_arm = RegressionDesign(
        y=design.y, x=design.x, scores=design.scores, treatment=arm
    )
    with pytest.raises(ConfigurationError, match="single-arm"):
        plugin_cov(fit_precision(two_arm), model, two_arm)
    with pytest.raises(ConfigurationError, match="single-arm"):
        plugin_cov(fit_pcr(design), model, two_arm)
    with pytest.raises(ConfigurationError, match="single-arm"):
        plugin_cov(fit_precision(two_arm), model, design)


def test_plugin_cov_tracks_monte_carlo_truth():
    # the empirical sd of the full estimator is the ground truth; the naive
    # sandwich must miss the score block (its whole reason to exist) while
    # the corrected covariance matches every block
    space = AmbientSpace.unit_domain((8, 8))
    rng0 = replicate_rng(8400, 99)
    raw = rng0.standard_normal((3, space.size))
    q = np.linalg.qr((raw * np.sqrt(space.weights)).T)[0].T
    phis = q / np.sqrt(space.weights)
    lambdas = np.array([4.0, 2.0, 1.0])
    theta0 = np.array([1.0, 0.8, -0.6, 1.5, -1.0, 0.5])
    basis = BasisSet(functions=phis, provenance={})
    n = 600
    thetas, plugs, sands = [], [], []
    for rep in range(150):
        rng = replicate_rng(8600, rep)
        xi = rng.standard_normal((n, 3)) * np.sqrt(lambdas)
        sample = xi @ phis
        x = rng.standard_normal((n, 2))
        y = umat(x, xi) @ theta0 + rng.standard_normal(n)
        model = fit_subspace_pca(space, basis, sample)
        scores = component_scores(model)[:, :3]
        phi_hat = eigenfunctions(space, basis, model)
        flips = np.sign(phi_hat * space.weights @ phis.T).diagonal()
        scores = scores * flips
        design = RegressionDesign(y=y, x=x, scores=scores)
        fit = fit_pcr(design)
        plug = plugin_cov(fit, model, design)
        np.testing.assert_allclose(plug, plug.T, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(plug) > -1e-12)
        thetas.append(fit.theta)
        plugs.append(np.sqrt(np.diag(plug)))
        sands.append(np.sqrt(np.diag(sandwich_cov(fit, design))))
    emp = np.std(thetas, axis=0, ddof=1)
    plug_med = np.median(plugs, axis=0)
    sand_med = np.median(sands, axis=0)
    np.testing.assert_allclose(plug_med, emp, rtol=0.2)
    np.testing.assert_allclose(sand_med[:3], emp[:3], rtol=0.2)
    assert np.all(sand_med[3:] < 0.7 * emp[3:])


def test_plugin_cov_shrinks_like_one_over_n():
    space_a, basis_a, model_a, design_a = fitted_pipeline(2, n=400)
    space_b, basis_b, model_b, design_b = fitted_pipeline(2, n=3600)
    va = np.diag(plugin_cov(fit_pcr(design_a), model_a, design_a))
    vb = np.diag(plugin_cov(fit_pcr(design_b), model_b, design_b))
    ratio = va / vb
    assert np.all(ratio > 3.0) and np.all(ratio < 27.0)  # nominal 9


def test_coefficient_element_reconstruction():
    space, basis, model, design = fitted_pipeline(3)
    fit = fit_pcr(design)
    elem = coefficient_element(fit, model, space, basis)
    manual = fit.gamma @ eigenfunctions(space, basis, model)[: design.m]
    np.testing.assert_allclose(elem, manual, atol=1e-12)


def stack_of(pipelines):
    """One design stacking the rows of every pipeline's design."""
    designs = [design for *_, design in pipelines]
    return RegressionDesign(
        y=np.array([d.y for d in designs]),
        x=np.array([d.x for d in designs]),
        scores=np.array([d.scores for d in designs]),
    )


def test_stacked_fits_and_plugin_covs_keep_each_draws_bytes():
    # Monte Carlo replicates stack y, x and the scores. Each draw's fit and
    # plug-in covariance are those of its own call, byte for byte. A stack
    # that holds a draw whose eigenvalues are too close raises that draw's
    # own message, and the other draws, stacked without it, keep their bytes.
    pipelines = [fitted_pipeline(seed) for seed in (4, 5, 6)]
    space, basis, close, design = pipelines[1]
    lams = close.eigenvalues.copy()
    lams[1] = lams[0] * (1.0 - 1e-9)
    pipelines[1] = (space, basis, replace(close, eigenvalues=lams), design)
    models = [model for _, _, model, _ in pipelines]
    stacked = stack_of(pipelines)
    fits = fit_pcr(stacked)
    with pytest.raises(NearMultiplicityError) as alone:
        plugin_cov(fit_pcr(pipelines[1][3]), models[1], pipelines[1][3])
    with pytest.raises(NearMultiplicityError) as batch:
        plugin_cov(fits, models, stacked)
    assert type(batch.value) is NearMultiplicityError
    assert str(batch.value) == str(alone.value)
    for (*_, design), fit in zip(pipelines, fits):
        own = fit_pcr(design)
        for name in ("theta", "residuals", "sigma_hat"):
            assert getattr(fit, name).tobytes() == getattr(own, name).tobytes(), name
    kept = [pipelines[0], pipelines[2]]
    kept_stack = stack_of(kept)
    covs = plugin_cov(fit_pcr(kept_stack), [models[0], models[2]], kept_stack)
    for (*_, model, design), cov in zip(kept, covs):
        assert cov.tobytes() == plugin_cov(fit_pcr(design), model, design).tobytes()


def test_stacked_design_validation():
    pipelines = [fitted_pipeline(seed) for seed in (4, 5)]
    stacked = stack_of(pipelines)
    assert (stacked.n, stacked.d, stacked.m) == (300, 2, 3)
    with pytest.raises(ConformanceError, match="y stacks"):
        replace(stacked, y=stacked.y[:1])
    with pytest.raises(ConformanceError, match="x stacks"):
        replace(stacked, x=np.zeros((3, 300, 2)))
    with pytest.raises(ConformanceError, match="x stacks"):
        replace(pipelines[0][3], x=stacked.x)
    with pytest.raises(ConformanceError, match="one indicator per row"):
        replace(stacked, treatment=np.zeros((3, 300), dtype=bool))
