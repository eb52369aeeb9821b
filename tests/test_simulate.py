"""Scenario families, data generation, and the Monte Carlo harness."""

import sys
import tracemalloc

import numpy as np
import pytest

from gridpcr import (
    ConfigurationError,
    ConformanceError,
    PipelineOptions,
    ScenarioConfig,
    StudyError,
    TreatmentConfig,
    ar_covariates,
    bspline_tensor_basis,
    eigenfunctions,
    fit_subspace_pca,
    gen_response,
    generate_dataset,
    kl_sample,
    make_family,
    run_monte_carlo,
    run_replicate,
    scenario_space,
)
import gridpcr
from gridpcr import simulate
from gridpcr.space import AmbientSpace
from gridpcr.util import replicate_rng


def small_config(**overrides):
    base = dict(
        family="synthetic2d",
        dims=(8, 9),
        lambdas=(3.0, 1.0),
        alpha0=1.0,
        beta0=(1.0, -0.5),
        gamma0=(1.5, -1.0),
        noise_sd=1.0,
        n=80,
        seed=4,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def small_options(**overrides):
    base = dict(degree=2, interior_knots=2)
    base.update(overrides)
    return PipelineOptions(**base)


def test_scenario_config_validation():
    small_config()
    with pytest.raises(ConfigurationError):
        small_config(family="fourier1d")
    with pytest.raises(ConfigurationError):
        small_config(dims=(8, 9, 10))
    with pytest.raises(ConfigurationError):
        small_config(lambdas=(1.0, 1.0), gamma0=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        small_config(gamma0=(1.0,))
    with pytest.raises(ConfigurationError):
        small_config(corr=1.0)
    with pytest.raises(ConfigurationError):
        small_config(noise_sd=-0.1)
    with pytest.raises(ConfigurationError):
        small_config(treatment=TreatmentConfig(alpha=0.0, beta=(1.0,), gamma=(1.0, 2.0)))
    with pytest.raises(ConfigurationError):
        TreatmentConfig(alpha=0.0, beta=(1.0,), gamma=(1.0,), prob=1.0)
    with pytest.raises(ConfigurationError):
        PipelineOptions(inference="delta")


def test_families_are_orthonormal():
    space2 = scenario_space(small_config(dims=(20, 24)))
    for j in (1, 3, 8):
        fam = make_family(space2, "synthetic2d", j)
        assert fam.phis.shape == (j, space2.size)
        gram = (fam.phis * space2.weights) @ fam.phis.T
        np.testing.assert_allclose(gram, np.eye(j), atol=1e-10)
    space3 = AmbientSpace.unit_domain((12, 14, 10))
    fam3 = make_family(space3, "quadratic_gauss3d", 2)
    gram3 = (fam3.phis * space3.weights) @ fam3.phis.T
    np.testing.assert_allclose(gram3, np.eye(2), atol=1e-10)


def test_family_bounds_and_breakdown():
    space = AmbientSpace.unit_domain((6, 6))
    with pytest.raises(ConfigurationError):
        make_family(space, "synthetic2d", 9)
    with pytest.raises(ConfigurationError):
        make_family(space, "synthetic2d", 0)
    with pytest.raises(ConfigurationError):
        make_family(space, "spline", 2)
    with pytest.raises(ConfigurationError):
        make_family(AmbientSpace.unit_domain((4, 5, 6)), "synthetic2d", 2)
    with pytest.raises(ConfigurationError):
        make_family(AmbientSpace.unit_domain((6, 6)), "quadratic_gauss3d", 2)
    with pytest.raises(ConfigurationError):
        make_family(AmbientSpace.unit_domain((5, 6, 4)), "quadratic_gauss3d", 3)
    # three bump functions cannot stay independent on a two-cell grid
    with pytest.raises(ConfigurationError):
        make_family(AmbientSpace.unit_domain((1, 2)), "synthetic2d", 3)


def test_gamma_element_and_score_variances():
    space = AmbientSpace.unit_domain((10, 12))
    fam = make_family(space, "synthetic2d", 3)
    with pytest.raises(ConformanceError):
        fam.gamma_element([1.0, 2.0])
    elem = fam.gamma_element([1.0, -2.0, 0.5])
    np.testing.assert_allclose(
        elem, fam.phis[0] - 2.0 * fam.phis[1] + 0.5 * fam.phis[2], atol=1e-14
    )
    lams = np.array([4.0, 2.0, 1.0])
    rng = replicate_rng(9300, 0)
    sample = kl_sample(fam, lams, 4000, rng)
    scores = (sample * space.weights) @ fam.phis.T
    np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=0.1)
    np.testing.assert_allclose(scores.var(axis=0, ddof=1), lams, rtol=0.12)
    with pytest.raises(ConformanceError):
        kl_sample(fam, lams[:2], 10, rng)
    with pytest.raises(ConfigurationError):
        kl_sample(fam, [4.0, 0.0, 1.0], 10, rng)


def test_ar_covariates_correlation():
    rng = replicate_rng(9301, 0)
    x = ar_covariates(6000, 4, 0.6, rng)
    emp = np.corrcoef(x.T)
    target = 0.6 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    np.testing.assert_allclose(emp, target, atol=0.05)
    assert ar_covariates(15, 0, 0.3, rng).shape == (15, 0)
    with pytest.raises(ConfigurationError):
        ar_covariates(10, 2, 1.0, rng)


def test_gen_response_exact_when_noiseless():
    space = AmbientSpace.unit_domain((9, 8))
    fam = make_family(space, "synthetic2d", 2)
    rng = replicate_rng(9302, 0)
    xi = rng.standard_normal((25, 2))
    sample = xi @ fam.phis
    x = rng.standard_normal((25, 3))
    beta = np.array([1.0, -2.0, 0.5])
    gamma = np.array([1.5, -1.0])
    y = gen_response(fam, xi, x, 2.0, beta, gamma, 0.0, rng)
    np.testing.assert_allclose(y, 2.0 + x @ beta + xi @ gamma, atol=1e-10)
    dense = 2.0 + x @ beta + (sample * space.weights) @ fam.gamma_element(gamma)
    np.testing.assert_allclose(y, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
    arm = rng.random(25) < 0.5
    mod = TreatmentConfig(alpha=0.5, beta=(0.1, 0.2, -0.3), gamma=(1.0, -0.5))
    y2 = gen_response(
        fam, xi, x, 2.0, beta, gamma, 0.0, rng, treatment=arm, modifier=mod
    )
    extra = 0.5 + x @ np.array(mod.beta) + xi @ np.array(mod.gamma)
    np.testing.assert_allclose(y2, y + arm * extra, atol=1e-10)
    with pytest.raises(ConformanceError):
        gen_response(fam, xi, x, 2.0, beta, gamma, 0.0, rng, modifier=mod)
    with pytest.raises(ConformanceError):
        gen_response(fam, sample, x, 2.0, beta, gamma, 0.0, rng)


def test_generate_dataset_keyed_by_replicate():
    config = small_config(
        treatment=TreatmentConfig(alpha=0.5, beta=(0.2, -0.2), gamma=(0.5, 0.5))
    )
    space, fam, sample, x, y, arm = generate_dataset(config, 3)
    space2, fam2, sample2, x2, y2, arm2 = generate_dataset(config, 3, fam)
    np.testing.assert_array_equal(sample.factors, sample2.factors)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(arm, arm2)
    assert fam2 is fam and space2 is space
    assert sample.factors.shape == (80, 2)
    assert np.asarray(sample).shape == (80, space.size)
    assert x.shape == (80, 2) and y.shape == (80,)
    assert arm.dtype == bool and 0 < arm.sum() < 80
    other = generate_dataset(config, 4)[2]
    assert not np.array_equal(sample.factors, other.factors)
    assert generate_dataset(small_config(), 0)[5] is None


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("two_arm", [False, True], ids=["one-arm", "two-arm"])
@pytest.mark.parametrize(
    "family, dims", [("synthetic2d", (8, 9)), ("quadratic_gauss3d", (8, 9, 7))]
)
def test_factored_replicate_matches_dense_fit(family, dims, two_arm):
    # The Monte Carlo fit works from the KL factors; the dense fit of the
    # rows factors @ phis is its oracle. The random stream is x, the
    # factors, the treatment, then the noise.
    treatment = None
    if two_arm:
        treatment = TreatmentConfig(alpha=0.5, beta=(0.2, -0.2), gamma=(0.5, 0.5))
    config = small_config(family=family, dims=dims, treatment=treatment, seed=23)
    study = simulate.Study.build(config, small_options())
    space, fam, sample, x, y, arm = generate_dataset(config, 5, study.family)

    rng = replicate_rng(config.seed, 5)
    np.testing.assert_array_equal(
        x, simulate.ar_covariates(config.n, config.d, config.corr, rng)
    )
    rows = kl_sample(fam, config.lambdas, config.n, rng)
    np.testing.assert_array_equal(rows, np.asarray(sample))
    np.testing.assert_array_equal(rows, sample.factors @ fam.phis)
    dense_y = (
        config.alpha0
        + x @ np.array(config.beta0)
        + (rows * space.weights) @ fam.gamma_element(config.gamma0)
    )
    if two_arm:
        np.testing.assert_array_equal(arm, rng.random(config.n) < treatment.prob)
        dense_y = dense_y + arm * (
            treatment.alpha
            + x @ np.array(treatment.beta)
            + (rows * space.weights) @ fam.gamma_element(treatment.gamma)
        )
    dense_y = dense_y + config.noise_sd * rng.standard_normal(config.n)
    assert _rel_err(y, dense_y) <= 1e-12

    model = study.fit(sample.factors)
    dense = fit_subspace_pca(space, study.basis, rows)
    assert model.n_components == dense.n_components == config.n_components
    for name in ("eigenvalues", "coords", "white", "mean"):
        assert _rel_err(getattr(model, name), getattr(dense, name)) <= 1e-12, name
    assert model.total_variance == pytest.approx(dense.total_variance, rel=1e-12)


def test_scenario_built_once_per_study(monkeypatch):
    # The family, the basis and its whitener depend only on the scenario,
    # so a study builds each once, whatever the replicate count.
    calls = {}
    for name in ("make_family", "bspline_tensor_basis", "whiten"):
        original = getattr(gridpcr, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("gridpcr") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    table = run_monte_carlo(small_config(n=40), 4, small_options(inference="plugin"))
    assert table.completed == 4
    assert calls == {"make_family": 1, "bspline_tensor_basis": 1, "whiten": 1}


def test_monte_carlo_memory_does_not_grow_with_the_grid_sample():
    # The n x V sample (203 MB here) is never formed: a replicate holds its
    # n x J factors, n x rank whitened scores and a few grid rows.
    config = ScenarioConfig(
        family="quadratic_gauss3d",
        dims=(40, 48, 33),
        lambdas=(2.0, 1.0),
        alpha0=1.0,
        beta0=(1.0, 1.0),
        gamma0=(1.5, -1.0),
        n=400,
        seed=7,
    )
    options = PipelineOptions(degree=2, interior_knots=2, inference="plugin")
    tracemalloc.start()
    try:
        table = run_monte_carlo(config, 2, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.completed == 2
    assert peak < config.n * int(np.prod(config.dims)) * 8 / 4


def test_monte_carlo_reproducible_across_threads():
    config = small_config(n=60, seed=9)
    options = small_options(inference="plugin")
    one = run_monte_carlo(config, 6, options, threads=1)
    multi = run_monte_carlo(config, 6, options, threads=3)
    np.testing.assert_array_equal(one.mse, multi.mse)
    np.testing.assert_array_equal(one.coverage, multi.coverage)
    np.testing.assert_array_equal(one.covered_reps, multi.covered_reps)
    assert one.mhat_counts == multi.mhat_counts
    assert one.completed == 6 and one.failures == []


def test_metrics_layout_and_truth():
    config = small_config(
        n=100,
        treatment=TreatmentConfig(alpha=0.5, beta=(0.2, -0.2), gamma=(0.5, 0.5)),
    )
    table = run_monte_carlo(config, 3, small_options())
    assert table.names == [
        "lambda1", "lambda2",
        "intercept", "x1", "x2", "z1", "z2",
        "treat", "treat:x1", "treat:x2", "treat:z1", "treat:z2",
    ]
    np.testing.assert_array_equal(
        table.truth,
        [3.0, 1.0, 1.0, 1.0, -0.5, 1.5, -1.0, 0.5, 0.2, -0.2, 0.5, 0.5],
    )
    assert np.all(np.isnan(table.coverage))
    assert np.all(table.covered_reps == 0)
    assert table.mse.shape == (12,)
    rows = table.rows()
    assert rows[0][0] == "lambda1" and rows[0][1] == 3.0
    assert sum(table.mhat_counts.values()) == 3


def test_coverage_denominators_track_selected_components():
    # forcing m = 1 leaves the second component unestimated: its squared
    # error is the squared truth and it never enters a coverage average
    config = small_config(n=100, seed=11, noise_sd=0.5)
    options = small_options(m_override=1, inference="plugin")
    table = run_monte_carlo(config, 5, options)
    assert table.mhat_counts == {1: 5}
    i_z2 = table.names.index("z2")
    i_lam2 = table.names.index("lambda2")
    assert table.covered_reps[i_z2] == 0 and np.isnan(table.coverage[i_z2])
    assert table.mse[i_z2] == pytest.approx(1.0)
    # the eigen block is scored from the full model, not the truncated fit
    assert table.mse[i_lam2] < 0.2
    for name in ("intercept", "x1", "x2", "z1"):
        i = table.names.index(name)
        assert table.covered_reps[i] == 5
        assert 0.0 <= table.coverage[i] <= 1.0


def test_monte_carlo_failure_budget():
    config = small_config(n=40)
    with pytest.raises(StudyError) as excinfo:
        run_monte_carlo(config, 4, small_options(m_override=10))
    assert len(excinfo.value.failures) == 4
    with pytest.raises(ConfigurationError):
        run_monte_carlo(config, 0, small_options())


def test_configuration_error_in_a_replicate_stops_the_study():
    # a setting that fails one replicate fails them all, so it is raised as
    # itself instead of being counted against the failure budget
    config = small_config(
        n=60, treatment=TreatmentConfig(alpha=0.5, beta=(0.3, 0.0), gamma=(1.0, -0.5))
    )
    with pytest.raises(ConfigurationError, match="single-arm"):
        run_monte_carlo(config, 3, small_options(inference="plugin", m_override=2))


def test_two_arm_intervals_cover_modifier_block():
    config = small_config(
        n=120,
        seed=21,
        noise_sd=0.5,
        beta0=(1.0,),
        treatment=TreatmentConfig(alpha=0.5, beta=(0.3,), gamma=(1.0, -0.5)),
    )
    options = small_options(inference="jackknife", m_override=2)
    table = run_monte_carlo(config, 3, options)
    for name in ("treat", "treat:x1", "treat:z1", "treat:z2"):
        i = table.names.index(name)
        assert table.covered_reps[i] == 3
        assert 0.0 <= table.coverage[i] <= 1.0
    assert np.isnan(table.coverage[table.names.index("lambda1")])


@pytest.mark.parametrize(
    "family, dims", [("synthetic2d", (8, 9)), ("quadratic_gauss3d", (8, 9, 7))]
)
def test_signs_from_coordinates_match_grid_inner_products(monkeypatch, family, dims):
    # run_replicate reads the sign of <phi_hat_j, phi_j> from whitened
    # coordinates; it must be the sign of the inner product on the grid.
    # Close eigenvalues mix the two components, so both signs occur.
    seen = []
    fit_to_truth = simulate._fit_to_truth

    def spy(config, signs, m, two_arm):
        seen.append(signs.copy())
        return fit_to_truth(config, signs, m, two_arm)

    monkeypatch.setattr(simulate, "_fit_to_truth", spy)
    config = small_config(family=family, dims=dims, lambdas=(1.1, 1.0), n=60, seed=17)
    options = small_options()
    flips = 0
    for rep in range(8):
        m = run_replicate(config, options, rep)["m"]
        space, fam, sample, *_ = generate_dataset(config, rep)
        basis = bspline_tensor_basis(space, options.degree, options.interior_knots)
        phis = eigenfunctions(space, basis, fit_subspace_pca(space, basis, sample))
        k = min(m, config.n_components)
        inner = np.sum(phis[:k] * fam.phis[:k] * space.weights, axis=1)
        want = np.ones(config.n_components)
        want[:k] = np.where(inner >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(seen[-1], want)
        flips += int(np.sum(want < 0))
    assert 0 < flips < 8 * config.n_components
