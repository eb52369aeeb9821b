"""Bootstrap and block-jackknife inference for the regression pipeline."""

import os

import numpy as np
import pytest

from gridpcr import (
    AmbientSpace,
    BasisSet,
    BootstrapSpec,
    ConfigurationError,
    ConformanceError,
    DegenerateDesignError,
    GridPcrError,
    JackknifeSpec,
    RegressionDesign,
    StudyError,
    block_jackknife,
    bootstrap_eigenvalues,
    bootstrap_theta,
    component_scores,
    eigenfunctions,
    fit_pcr,
    fit_precision,
    fit_subspace_pca,
    gen_weights,
    percentile_ci,
)
import gridpcr.resampling
import gridpcr.util
from gridpcr.resampling import CiTable, _replicate_theta
from gridpcr.util import replicate_rng


def small_problem(seed, n=50, noise=0.3):
    """Two-component family on a 4x4 grid with basis = true eigenfunctions."""
    space = AmbientSpace.unit_domain((4, 4))
    rng = replicate_rng(9000, seed)
    raw = rng.standard_normal((2, space.size))
    q = np.linalg.qr((raw * np.sqrt(space.weights)).T)[0].T
    phis = q / np.sqrt(space.weights)
    xi = rng.standard_normal((n, 2)) * np.sqrt([4.0, 1.0])
    sample = xi @ phis
    x = rng.standard_normal((n, 1))
    theta = np.array([0.5, 0.7, 1.5, -1.0])
    y = np.column_stack([np.ones(n), x, xi]) @ theta + noise * rng.standard_normal(n)
    basis = BasisSet(functions=phis, provenance={})
    return space, basis, sample, y, x, theta


def design_of(model, y, x, m, treatment=None):
    """Regression inputs scored with the model's first m components."""
    return RegressionDesign(
        y=y, x=x, scores=component_scores(model)[:, :m], treatment=treatment
    )


def rank_starved_problem():
    """Five observations in a three-function basis; resamples often lose rank."""
    space = AmbientSpace.unit_domain((2, 3))
    rng = replicate_rng(9100, 0)
    basis = BasisSet(functions=rng.standard_normal((3, space.size)), provenance={})
    data = rng.standard_normal((5, space.size))
    y = rng.standard_normal(5)
    return space, basis, data, y


def test_bootstrap_spec_validation():
    assert BootstrapSpec().kind == "wild"
    with pytest.raises(ConfigurationError):
        BootstrapSpec(kind="parametric")
    with pytest.raises(ConfigurationError):
        BootstrapSpec(b_reps=1)
    with pytest.raises(ConfigurationError):
        BootstrapSpec(level=1.0)


def test_jackknife_spec_validation():
    assert JackknifeSpec(r=8).r == 8
    with pytest.raises(ConfigurationError):
        JackknifeSpec(r=1)
    with pytest.raises(ConfigurationError):
        JackknifeSpec(r=8, level=0.0)


def test_multinomial_weights_are_counts():
    spec = BootstrapSpec(kind="nonparametric", base_seed=5)
    for b in range(10):
        w = gen_weights(spec, 37, b)
        assert w.shape == (37,)
        assert w.sum() == 37.0
        assert np.all(w >= 0) and np.all(w == np.floor(w))
    with pytest.raises(ConformanceError):
        gen_weights(spec, 0, 0)


def test_wild_weights_positive_unit_mean():
    spec = BootstrapSpec(kind="wild", base_seed=5)
    for b in range(10):
        w = gen_weights(spec, 53, b)
        assert np.all(w > 0)
        assert abs(w.mean() - 1.0) < 1e-12


def test_weights_keyed_by_replicate_not_call_order():
    spec = BootstrapSpec(kind="wild", base_seed=11)
    forward = [gen_weights(spec, 20, b) for b in range(6)]
    backward = [gen_weights(spec, 20, b) for b in reversed(range(6))]
    for b in range(6):
        np.testing.assert_array_equal(forward[b], backward[5 - b])
    other = gen_weights(BootstrapSpec(kind="wild", base_seed=12), 20, 0)
    assert not np.array_equal(forward[0], other)


def test_percentile_ci_linear_interpolation():
    draws = np.arange(1.0, 101.0)
    lower, upper = percentile_ci(draws, 0.95)
    # position (B - 1) q + 1 in the sorted draws: 3.475 and 97.525
    assert lower[0] == pytest.approx(3.475, abs=1e-12)
    assert upper[0] == pytest.approx(97.525, abs=1e-12)


def test_percentile_ci_validation():
    with pytest.raises(ConformanceError):
        percentile_ci(np.array([1.0]), 0.95)
    with pytest.raises(ConformanceError):
        percentile_ci(np.array([1.0, np.nan, 2.0]), 0.95)
    with pytest.raises(ConfigurationError):
        percentile_ci(np.arange(10.0), 1.0)


def test_percentile_ci_nesting():
    rng = replicate_rng(9200, 0)
    draws = rng.standard_normal((200, 3)) * [1.0, 2.0, 0.5]
    lo95, hi95 = percentile_ci(draws, 0.95)
    lo99, hi99 = percentile_ci(draws, 0.99)
    assert np.all(lo99 <= lo95) and np.all(hi95 <= hi99)


def test_citable_validation():
    ok = dict(point=np.zeros(2), se=np.ones(2), level=0.95, method="x", completed=3)
    CiTable(names=["a", "b"], lower=np.zeros(2), upper=np.ones(2), **ok)
    with pytest.raises(ConformanceError):
        CiTable(names=["a", "b"], lower=np.ones(2), upper=np.zeros(2), **ok)
    with pytest.raises(ConformanceError):
        CiTable(names=["a", "b"], lower=np.zeros(3), upper=np.ones(3), **ok)


def test_bootstrap_theta_reproducible_across_threads():
    space, basis, sample, y, x, _ = small_problem(1)
    spec = BootstrapSpec(kind="wild", b_reps=16, base_seed=42)
    model = fit_subspace_pca(space, basis, sample)
    design = design_of(model, y, x, 2)
    one = bootstrap_theta(model, design, spec, threads=1)
    again = bootstrap_theta(model, design, spec, threads=1)
    multi = bootstrap_theta(model, design, spec, threads=3)
    np.testing.assert_array_equal(one.draws, again.draws)
    np.testing.assert_array_equal(one.draws, multi.draws)
    np.testing.assert_array_equal(one.table.lower, multi.table.lower)
    assert one.table.method == "bootstrap-wild"
    assert one.table.completed == 16
    assert one.table.names == ["intercept", "x1", "z1", "z2"]


def test_bootstrap_seed_changes_draws():
    space, basis, sample, y, x, _ = small_problem(2)
    model = fit_subspace_pca(space, basis, sample)
    design = design_of(model, y, x, 2)
    a = bootstrap_theta(model, design, BootstrapSpec(b_reps=8, base_seed=0))
    b = bootstrap_theta(model, design, BootstrapSpec(b_reps=8, base_seed=1))
    assert not np.array_equal(a.draws, b.draws)
    np.testing.assert_array_equal(a.table.point, b.table.point)


def test_bootstrap_sign_alignment_keeps_draws_near_point():
    # replicate eigenvectors come out of eigh with arbitrary signs; without
    # alignment the score-coefficient draws would split between +-|theta|
    space, basis, sample, y, x, _ = small_problem(3, n=80, noise=0.1)
    model = fit_subspace_pca(space, basis, sample)
    for kind in ("wild", "nonparametric"):
        res = bootstrap_theta(
            model, design_of(model, y, x, 2),
            BootstrapSpec(kind=kind, b_reps=40, base_seed=7),
        )
        for name in ("z1", "z2"):
            col = res.table.names.index(name)
            point = res.table.point[col]
            assert abs(point) > 0.9
            assert np.all(res.draws[:, col] * point > 0)
            assert np.all(np.abs(res.draws[:, col] - point) < 0.6)


def test_bootstrap_eigenvalues_pads_short_replicates():
    space, basis, data, _ = rank_starved_problem()
    spec = BootstrapSpec(kind="nonparametric", b_reps=20, base_seed=3)
    res = bootstrap_eigenvalues(fit_subspace_pca(space, basis, data), spec)
    assert res.draws.shape == (20, 3)
    assert np.all(res.draws[:, 0] > 0)
    # rank-deficient resamples keep fewer components; missing ones read zero
    assert np.any(res.draws[:, -1] == 0.0)
    assert np.all(np.diff(res.draws, axis=1) <= 1e-12)
    assert res.table.names == ["lambda1", "lambda2", "lambda3"]


def test_bootstrap_failure_budget():
    space, basis, data, y = rank_starved_problem()
    spec = BootstrapSpec(kind="nonparametric", b_reps=20, base_seed=3)
    model = fit_subspace_pca(space, basis, data)
    with pytest.raises(StudyError) as excinfo:
        bootstrap_theta(model, design_of(model, y, np.zeros((y.size, 0)), 3), spec)
    assert len(excinfo.value.failures) > 1
    b, msg = excinfo.value.failures[0]
    assert isinstance(b, int) and msg


def test_jackknife_blocks_match_manual_refit():
    space, basis, sample, y, x, _ = small_problem(4)
    n, r = 50, 8
    full = fit_subspace_pca(space, basis, sample)
    res = block_jackknife(full, design_of(full, y, x, 2), JackknifeSpec(r=r))
    k = n // r
    used = r * k
    assert res.kept == used - k
    for block in (0, r - 1):
        keep = np.ones(used, dtype=bool)
        keep[block::r] = False
        idx = np.flatnonzero(keep)
        sub = fit_subspace_pca(space, basis, sample[idx])
        flips = np.sign(
            np.sum(
                eigenfunctions(space, basis, sub)[:2]
                * space.weights
                * eigenfunctions(space, basis, full)[:2],
                axis=1,
            )
        )
        scores = component_scores(sub)[:, :2] * flips
        fit = fit_pcr(RegressionDesign(y=y[idx], x=x[idx], scores=scores))
        np.testing.assert_allclose(res.replicates[block], fit.theta, atol=1e-8)


@pytest.mark.parametrize("two_arm", [False, True])
def test_nonparametric_weights_match_resampled_refit(two_arm):
    space, basis, sample, y, x, _ = small_problem(9)
    n = y.size
    treatment = np.arange(n) % 2 == 0 if two_arm else None
    full = fit_subspace_pca(space, basis, sample)
    spec = BootstrapSpec(kind="nonparametric", b_reps=6, base_seed=13)
    res = bootstrap_theta(full, design_of(full, y, x, 2, treatment), spec)
    assert not res.failures
    for b in range(spec.b_reps):
        idx = np.repeat(np.arange(n), gen_weights(spec, n, b).astype(int))
        sub = fit_subspace_pca(space, basis, sample[idx])
        flips = np.sign(
            np.sum(
                eigenfunctions(space, basis, sub)[:2]
                * space.weights
                * eigenfunctions(space, basis, full)[:2],
                axis=1,
            )
        )
        design = RegressionDesign(
            y=y[idx],
            x=x[idx],
            scores=component_scores(sub)[:, :2] * flips,
            treatment=None if treatment is None else treatment[idx],
        )
        fit = fit_precision(design) if two_arm else fit_pcr(design)
        np.testing.assert_allclose(res.draws[b], fit.theta, rtol=0, atol=1e-10)


def test_resample_emptying_an_arm_fails():
    space, basis, sample, y, x, _ = small_problem(10)
    n = y.size
    treatment = np.arange(n) % 2 == 0
    model = fit_subspace_pca(space, basis, sample)
    counts = np.zeros(n)
    counts[~treatment] = 2.0  # every draw lands in the control arm
    with pytest.raises(DegenerateDesignError, match="treatment arm sizes are 50 and 0"):
        _replicate_theta(
            model, design_of(model, y, x, 2, treatment), counts, "replicate 0"
        )


def test_jackknife_covariance_formula():
    space, basis, sample, y, x, _ = small_problem(5)
    r = 10
    model = fit_subspace_pca(space, basis, sample)
    res = block_jackknife(model, design_of(model, y, x, 2), JackknifeSpec(r=r))
    dev = res.replicates - res.replicates.mean(axis=0)
    np.testing.assert_allclose(res.cov, (r - 1) / r * dev.T @ dev, atol=1e-14)
    np.testing.assert_allclose(res.table.se, np.sqrt(np.diag(res.cov)), atol=1e-14)
    half = res.table.upper - res.table.point
    np.testing.assert_allclose(half, res.table.point - res.table.lower, atol=1e-12)
    np.testing.assert_allclose(half / res.table.se, 1.959963985, rtol=1e-8)


def test_jackknife_ignores_trailing_rows():
    space, basis, sample, y, x, _ = small_problem(6)
    spec = JackknifeSpec(r=8)
    model = fit_subspace_pca(space, basis, sample)
    base = block_jackknife(model, design_of(model, y, x, 2), spec)
    # rows past r * floor(n / r) never enter a replicate, only the point fit
    y2 = y.copy()
    y2[-2:] += 100.0
    bumped = block_jackknife(model, design_of(model, y2, x, 2), spec)
    np.testing.assert_array_equal(base.replicates, bumped.replicates)
    np.testing.assert_array_equal(base.cov, bumped.cov)
    assert not np.array_equal(base.table.point, bumped.table.point)


def test_jackknife_needs_enough_blocks():
    space, basis, sample, y, x, _ = small_problem(7)
    model = fit_subspace_pca(space, basis, sample)
    # width = 1 + d + m = 4 coefficients, so r must exceed 5
    with pytest.raises(ConfigurationError):
        block_jackknife(model, design_of(model, y, x, 2), JackknifeSpec(r=5))
    with pytest.raises(ConfigurationError):
        block_jackknife(model, design_of(model, y, x, 2), JackknifeSpec(r=30))


def test_jackknife_failing_block_raises(monkeypatch):
    # Unlike a bootstrap draw, a jackknife block is not tolerated as a failure.
    space, basis, sample, y, x, _ = small_problem(7)
    model = fit_subspace_pca(space, basis, sample)

    def flaky(model, design, weights, label):
        if label == "jackknife block 3":
            raise GridPcrError(f"{label} retained too few components")
        return _replicate_theta(model, design, weights, label)

    monkeypatch.setattr(gridpcr.resampling, "_replicate_theta", flaky)
    with pytest.raises(GridPcrError, match="jackknife block 3"):
        block_jackknife(model, design_of(model, y, x, 2), JackknifeSpec(r=8))


def test_jackknife_blocks_run_on_the_requested_workers(monkeypatch):
    # The fake pool records its size and runs the blocks serially, so this
    # test starts no thread; the replicates must not depend on the count.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(gridpcr.util, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    space, basis, sample, y, x, _ = small_problem(7)
    model = fit_subspace_pca(space, basis, sample)
    design = design_of(model, y, x, 2)
    pooled = block_jackknife(model, design, JackknifeSpec(r=8), threads=3)
    assert sizes == [3]
    serial = block_jackknife(model, design, JackknifeSpec(r=8))
    assert sizes == [3]
    np.testing.assert_array_equal(pooled.replicates, serial.replicates)
    np.testing.assert_array_equal(pooled.cov, serial.cov)


def test_design_rows_must_match_model():
    space, basis, sample, y, x, _ = small_problem(8, n=30)
    model = fit_subspace_pca(space, basis, sample)
    scores = component_scores(model)[:, :2]
    treatment = np.arange(30) % 2 == 0
    spec = BootstrapSpec(b_reps=20)
    jack = JackknifeSpec(r=8)
    with pytest.raises(ConformanceError, match="y has 29, x has 30"):
        RegressionDesign(y=y[:29], x=x, scores=scores)
    with pytest.raises(ConformanceError, match="y has 30, x has 29"):
        RegressionDesign(y=y, x=x[:29], scores=scores)
    with pytest.raises(ConformanceError, match="one indicator per row"):
        RegressionDesign(y=y, x=x, scores=scores, treatment=treatment[:29])
    short = RegressionDesign(y=y[:29], x=x[:29], scores=scores[:29])
    with pytest.raises(ConformanceError, match="design has 29 rows"):
        bootstrap_theta(model, short, spec)
    with pytest.raises(ConformanceError, match="design has 29 rows"):
        block_jackknife(model, short, jack)


def test_design_scores_must_be_the_models():
    # the point fit uses the design's scores and the replicates the model's,
    # so flipped or extra components would put the point outside its interval
    space, basis, sample, y, x, _ = small_problem(8, n=30)
    model = fit_subspace_pca(space, basis, sample)
    design = design_of(model, y, x, 2)
    flipped = RegressionDesign(y=y, x=x, scores=design.scores * [1.0, -1.0])
    extra = RegressionDesign(
        y=y, x=x, scores=np.column_stack([design.scores, design.scores[:, 0]])
    )
    for bad, message in ((flipped, "component scores"), (extra, "m=3 outside")):
        with pytest.raises(ConformanceError, match=message):
            bootstrap_theta(model, bad, BootstrapSpec(b_reps=20))
        with pytest.raises(ConformanceError, match=message):
            block_jackknife(model, bad, JackknifeSpec(r=8))
