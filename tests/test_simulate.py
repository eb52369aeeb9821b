"""Scenario families, data generation, and the Monte Carlo harness."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridpcr import (
    BootstrapSpec,
    ConfigurationError,
    ConformanceError,
    JackknifeSpec,
    PluginSpec,
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
)
import gridpcr
import gridpcr.resampling
from gridpcr import simulate
from gridpcr.decomp import (
    EigenModel,
    centered_scores,
    component_scores,
    eigenvalue_se,
    model_from_white,
)
from gridpcr.regression import RegressionDesign, fit_pcr, plugin_cov
from gridpcr.resampling import solve_alone_on_failure
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
        degree=2,
        interior_knots=2,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


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
    with pytest.raises(ConfigurationError, match="at least 2"):
        small_config(n=1)
    with pytest.raises(ConfigurationError):
        small_config(treatment=TreatmentConfig(alpha=0.0, beta=(1.0,), gamma=(1.0, 2.0)))
    with pytest.raises(ConfigurationError):
        small_config(intervals="delta")
    with pytest.raises(ConfigurationError, match="base_seed must be 0"):
        small_config(intervals=BootstrapSpec(base_seed=1))


def test_one_study_is_one_key_however_it_is_spelled():
    # Settings left None take the family's defaults and knot counts are
    # stored per axis, so every spelling of a study is equal and hashes alike.
    default = ScenarioConfig("synthetic2d")
    for config in (
        ScenarioConfig("synthetic2d", dims=(20, 24), degree=3, interior_knots="7"),
        ScenarioConfig("synthetic2d", dims=[20, 24], interior_knots=[7, 7]),
        ScenarioConfig("synthetic2d", lambdas=[3.5, 3, 2.5, 2, 1.5, 1], interior_knots=7),
    ):
        assert config == default and hash(config) == hash(default)
    assert default.interior_knots == (7, 7) and default.degree == 3
    assert ScenarioConfig("synthetic2d", interior_knots=5) != default
    cube = ScenarioConfig("quadratic_gauss3d")
    assert (cube.dims, cube.degree, cube.interior_knots) == ((12, 14, 10), 2, (2, 2, 2))
    # replace passes the stored settings through the checks again
    config = ScenarioConfig("quadratic_gauss3d", degree=1, interior_knots="3,2,2")
    moved = replace(config, seed=1)
    assert moved.interior_knots == (3, 2, 2) and moved.seed == 1
    assert replace(moved, seed=0) == config


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("lambdas", (NAN, 1.0)), ("lambdas", (INF, 1.0)), ("alpha0", NAN),
    ("beta0", (1.0, INF)), ("gamma0", (1.5, NAN)), ("noise_sd", NAN),
    ("noise_sd", INF),
])
def test_scenario_rejects_nonfinite_settings(field, value):
    # NaN passes every range check, so each field is checked finite itself.
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got "):
        small_config(**{field: value})


@pytest.mark.parametrize("field, value", [("alpha", NAN), ("beta", (INF,)), ("gamma", (1.0, NAN))])
def test_treatment_rejects_nonfinite_settings(field, value):
    settings = dict(alpha=0.5, beta=(1.0,), gamma=(1.0, 2.0))
    settings[field] = value
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got "):
        TreatmentConfig(**settings)


def test_families_are_orthonormal():
    space2 = AmbientSpace.unit_domain((20, 24))
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
    space, fam, factors, x, y, arm = generate_dataset(config, 3)
    space2, fam2, factors2, x2, y2, arm2 = generate_dataset(config, 3, fam)
    np.testing.assert_array_equal(factors, factors2)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(arm, arm2)
    assert fam2 is fam and space2 is space
    assert factors.shape == (80, 2)
    assert (factors @ fam.phis).shape == (80, space.size)
    assert x.shape == (80, 2) and y.shape == (80,)
    assert arm.dtype == bool and 0 < arm.sum() < 80
    other = generate_dataset(config, 4)[2]
    assert not np.array_equal(factors, other)
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
    study = simulate.Study.build(config)
    space, fam, factors, x, y, arm = generate_dataset(config, 5, study.family)

    rng = replicate_rng(config.seed, 5)
    np.testing.assert_array_equal(
        x, simulate.ar_covariates(config.n, config.d, config.corr, rng)
    )
    rows = kl_sample(fam, config.lambdas, config.n, rng)
    np.testing.assert_array_equal(rows, factors @ fam.phis)
    dense_y = (
        config.alpha0
        + x @ np.array(config.beta0)
        + (rows * space.weights) @ fam.gamma_element(config.gamma0)
    )
    if two_arm:
        np.testing.assert_array_equal(arm, rng.random(config.n) < 0.5)
        dense_y = dense_y + arm * (
            treatment.alpha
            + x @ np.array(treatment.beta)
            + (rows * space.weights) @ fam.gamma_element(treatment.gamma)
        )
    dense_y = dense_y + config.noise_sd * rng.standard_normal(config.n)
    assert _rel_err(y, dense_y) <= 1e-12

    model = study.fit(factors)
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
    table = run_monte_carlo(small_config(n=40, intervals=PluginSpec()), 4)
    assert table.completed == 4
    assert calls == {"make_family": 1, "bspline_tensor_basis": 1, "whiten": 1}


def test_monte_carlo_memory_does_not_grow_with_the_grid_sample():
    # The n x V sample (203 MB here) is never formed: a replicate holds its
    # n x J factors, its n x k scores in the study's frame and a few grid
    # rows.
    config = ScenarioConfig(
        family="quadratic_gauss3d",
        dims=(40, 48, 33),
        lambdas=(2.0, 1.0),
        alpha0=1.0,
        beta0=(1.0, 1.0),
        gamma0=(1.5, -1.0),
        n=400,
        seed=7,
        degree=2,
        interior_knots=2,
        intervals=PluginSpec(),
    )
    tracemalloc.start()
    try:
        table = run_monte_carlo(config, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.completed == 2
    assert peak < config.n * int(np.prod(config.dims)) * 8 / 4


def test_monte_carlo_reproducible_across_threads():
    config = small_config(n=60, seed=9, intervals=PluginSpec())
    one = run_monte_carlo(config, 6, threads=1)
    multi = run_monte_carlo(config, 6, threads=3)
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
    table = run_monte_carlo(config, 3)
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
    # tau = 0.5 selects m = 1, which leaves the second component
    # unestimated: its squared error is the squared truth and it never
    # enters a coverage average
    config = small_config(n=100, seed=11, noise_sd=0.5, tau=0.5, intervals=PluginSpec())
    table = run_monte_carlo(config, 5)
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
    # no replicate's components explain tau = 0.999 of its variance
    config = small_config(n=40, tau=0.999)
    with pytest.raises(StudyError) as excinfo:
        run_monte_carlo(config, 4)
    assert len(excinfo.value.failures) == 4
    assert all("explain only" in message for _, message in excinfo.value.failures)
    with pytest.raises(ConfigurationError):
        run_monte_carlo(config, 0)


def test_configuration_error_in_a_replicate_stops_the_study():
    # a setting that fails one replicate fails them all, so it is raised as
    # itself instead of being counted against the failure budget
    config = small_config(
        n=60,
        treatment=TreatmentConfig(alpha=0.5, beta=(0.3, 0.0), gamma=(1.0, -0.5)),
        intervals=PluginSpec(),
    )
    with pytest.raises(ConfigurationError, match="single-arm"):
        run_monte_carlo(config, 3)


def test_two_arm_intervals_cover_modifier_block():
    config = small_config(
        n=120,
        seed=21,
        noise_sd=0.5,
        beta0=(1.0,),
        treatment=TreatmentConfig(alpha=0.5, beta=(0.3,), gamma=(1.0, -0.5)),
        intervals=JackknifeSpec(),
    )
    table = run_monte_carlo(config, 3)
    assert table.mhat_counts == {2: 3}
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
    flips = 0
    for rep in range(8):
        m = run_replicate(config, rep)[0]["m"]
        space, fam, factors, *_ = generate_dataset(config, rep)
        basis = bspline_tensor_basis(space, config.degree, config.interior_knots)
        rows = factors @ fam.phis
        phis = eigenfunctions(space, basis, fit_subspace_pca(space, basis, rows))
        k = min(m, config.n_components)
        inner = np.sum(phis[:k] * fam.phis[:k] * space.weights, axis=1)
        want = np.ones(config.n_components)
        want[:k] = np.where(inner >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(seen[-1], want)
        flips += int(np.sum(want < 0))
    assert 0 < flips < 8 * config.n_components


def frame_free_twin(study, factors, model):
    """The model of the same rows without the study's frame: n x rank scores."""
    return EigenModel(
        eigenvalues=model.eigenvalues,
        coords=model.coords,
        left=factors @ study.family_white,
        mean=model.mean,
        whitener=model.whitener,
        total_variance=model.total_variance,
    )


@pytest.mark.parametrize(
    "family, dims", [("synthetic2d", (8, 9)), ("quadratic_gauss3d", (8, 9, 7))]
)
def test_study_model_derives_everything_in_its_frame(family, dims):
    # Scores, eigenvalue SEs and the plug-in covariance of a Study model
    # come from its n x k scores; the n x rank formulas are the oracle.
    config = small_config(family=family, dims=dims, n=120, seed=31)
    study = simulate.Study.build(config)
    _, _, factors, x, y, _ = generate_dataset(config, 2, study.family)
    model = study.fit(factors)
    assert model.right is not None and model.left.shape[1] < model.whitener.rank
    twin = frame_free_twin(study, factors, model)
    for derive in (component_scores, centered_scores, eigenvalue_se):
        assert _rel_err(derive(model), derive(twin)) <= 1e-12, derive.__name__
    assert _rel_err(model.white, twin.white) <= 1e-12
    design = RegressionDesign(y=y, x=x, scores=component_scores(model))
    fit = fit_pcr(design)
    got = plugin_cov(fit, model, design)
    want = plugin_cov(fit, twin, design)
    assert _rel_err(got, want) <= 1e-12


@pytest.mark.parametrize(
    "family, dims", [("synthetic2d", (8, 9)), ("quadratic_gauss3d", (8, 9, 7))]
)
def test_frame_row_signs_match_the_grid_sign_pass(family, dims):
    # Study.fit reads each eigenvector's sign from k synthesized frame rows;
    # the grid sign pass over the n x rank scores must agree on every seed.
    config = small_config(family=family, dims=dims, lambdas=(1.1, 1.0), n=60)
    study = simulate.Study.build(config)
    assert study.frame_rows.shape == (
        study.family_frame[1].shape[0], study.family.space.size,
    )
    for seed in range(8):
        factors = generate_dataset(replace(config, seed=seed), 0, study.family)[2]
        model = study.fit(factors)
        grid = model_from_white(
            study.family.space, study.basis, factors @ study.family_white,
            study.whitener, model.mean, model.total_variance,
        )
        assert grid.right is None
        assert np.all(np.sum(model.coords * grid.coords, axis=1) > 0), seed
        assert _rel_err(model.coords, grid.coords) <= 1e-12


def test_replicates_keep_their_scores_in_the_study_frame(monkeypatch):
    # A replicate never reads the n x rank whitened scores, a bootstrap or
    # jackknife inside it takes no SVD of them, and nothing of their size
    # (2 MB here) is allocated.
    def formed(self):
        raise AssertionError("the n x rank whitened scores were formed")

    def svd(a):
        raise AssertionError("a replicate took an SVD of its scores")

    monkeypatch.setattr(EigenModel, "white", property(formed))
    monkeypatch.setattr(gridpcr.resampling, "column_space", svd)
    config = small_config(
        family="quadratic_gauss3d", dims=(12, 14, 10), n=2000, seed=5
    )
    study = simulate.Study.build(config)
    assert study.whitener.rank == 125
    for intervals in (PluginSpec(), BootstrapSpec(b_reps=3), JackknifeSpec()):
        tracemalloc.start()
        try:
            run_replicate(replace(config, intervals=intervals), 0, study)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < config.n * study.whitener.rank * 8, intervals


def test_ar_covariates_keep_their_bytes_with_one_factor_per_setting():
    for n, d, corr in ((50, 3, 0.6), (20, 4, -0.3), (7, 1, 0.0)):
        omega = corr ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        want = replicate_rng(9303, d).standard_normal((n, d)) @ np.linalg.cholesky(omega).T
        got = ar_covariates(n, d, corr, replicate_rng(9303, d))
        assert got.tobytes() == want.tobytes()
        assert simulate._ar_factor(d, corr) is simulate._ar_factor(d, corr)


def constant_covariate_at(monkeypatch, replicate):
    """Make ``generate_dataset`` give ``replicate`` a constant first covariate."""
    generate = simulate.generate_dataset

    def patched(config, r, family=None):
        space, fam, factors, x, y, treatment = generate(config, r, family)
        if r == replicate:
            x = x.copy()
            x[:, 0] = 1.0
        return space, fam, factors, x, y, treatment

    monkeypatch.setattr(simulate, "generate_dataset", patched)


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got["m"] == want["m"]
    for key in ("lam_err", "theta_err", "covered"):
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("inference", [None, "plugin", "jackknife"])
def test_a_failing_replicate_fails_alone_in_its_batch(monkeypatch, inference):
    # One replicate of the batch has a singular design. It fails with the
    # message it has alone, and every other replicate, whichever m it
    # selects (tau = 0.75 gives m = 1 and m = 2 here), keeps the numbers of
    # a range of one.
    constant_covariate_at(monkeypatch, 3)
    intervals = {None: None, "plugin": PluginSpec(), "jackknife": JackknifeSpec()}[inference]
    config = small_config(n=60, seed=2, tau=0.75, intervals=intervals)
    study = simulate.Study.build(config)

    def solve(indices):
        return run_replicate(config, indices, study)

    batch = solve_alone_on_failure(solve, range(8))
    alone = [solve_alone_on_failure(solve, range(r, r + 1))[0] for r in range(8)]
    assert isinstance(alone[3], gridpcr.DegenerateDesignError)
    assert len({out["m"] for out in alone if isinstance(out, dict)}) == 2
    for got, want in zip(batch, alone):
        assert_same_outcome(got, want)


def test_a_failing_replicate_gives_the_failures_of_replicates_solved_alone(monkeypatch):
    constant_covariate_at(monkeypatch, 3)
    config = small_config(n=60, seed=2, intervals=PluginSpec())
    with pytest.raises(StudyError) as batched:
        run_monte_carlo(config, 10, threads=2)
    study = simulate.Study.build(config)
    with pytest.raises(StudyError) as alone:
        gridpcr.resampling.run_tolerant(
            lambda indices: [run_replicate(config, r, study)[0] for r in indices],
            10, 1, "Monte Carlo",
        )
    assert str(batched.value) == str(alone.value)
    assert batched.value.failures == alone.value.failures
    assert [i for i, _ in batched.value.failures] == [3]


@pytest.mark.parametrize("reps", [10, 17])
def test_monte_carlo_output_identical_for_any_thread_count(reps):
    config = small_config(n=50, seed=13, tau=0.75, intervals=PluginSpec())
    tables = [run_monte_carlo(config, reps, threads=t) for t in (1, 2, 3)]
    for table in tables[1:]:
        for name in ("mse", "coverage", "covered_reps"):
            assert getattr(table, name).tobytes() == getattr(tables[0], name).tobytes()
        assert table.mhat_counts == tables[0].mhat_counts
        assert table.completed == tables[0].completed == reps
