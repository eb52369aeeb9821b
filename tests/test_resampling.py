"""Bootstrap and block-jackknife inference for the regression pipeline."""

import os
from dataclasses import replace

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
    PipelineOptions,
    PluginSpec,
    RegressionDesign,
    ScenarioConfig,
    Study,
    StudyError,
    block_jackknife,
    bootstrap_eigenvalues,
    bootstrap_theta,
    bspline_tensor_basis,
    coefficient_intervals,
    coefficient_names,
    component_scores,
    eigenfunctions,
    fit_pcr,
    fit_precision,
    fit_subspace_pca,
    gen_weights,
    generate_dataset,
    kl_factors,
    make_family,
    percentile_ci,
    plugin_cov,
)
import gridpcr.decomp
import gridpcr.resampling
import gridpcr.util
from gridpcr.decomp import _eig_from_scores
from gridpcr.resampling import (
    BATCH,
    CiTable,
    _replicate_frame,
    _replicate_thetas,
    _run_batches,
    normal_ci,
)
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
        _replicate_thetas(
            _replicate_frame(model), design_of(model, y, x, 2, treatment), counts[None],
            ["replicate 0"],
        )


@pytest.mark.parametrize(
    "bad, message",
    [
        (3, "treatment arm sizes are 50 and 0; both arms must be populated for the "
            "modifier block"),
        (10, "the draw retained 1 components, fewer than the 2 the design needs"),
    ],
    ids=["empty-arm", "one-direction"],
)
def test_a_failing_draw_fails_alone_in_its_batch(monkeypatch, bad, message):
    # Handmade weights for one draw: every weight in the control arm, or
    # weight on two rows only. The other 20 draws of the study succeed.
    space, basis, sample, y, x, _ = small_problem(10)
    n = y.size
    treatment = np.arange(n) % 2 == 0
    model = fit_subspace_pca(space, basis, sample)
    design = design_of(model, y, x, 2, treatment)
    spec = BootstrapSpec(kind="wild", b_reps=21, base_seed=8)
    handmade = [gen_weights(spec, n, b) for b in range(spec.b_reps)]
    handmade[bad] = np.where(treatment, 0.0, 2.0) if bad == 3 else (np.arange(n) < 2) * 1.0
    monkeypatch.setattr(gridpcr.resampling, "gen_weights", lambda spec, n, b: handmade[b])
    runs = [bootstrap_theta(model, design, spec, threads) for threads in (1, 2, 3)]
    for res in runs:
        assert res.failures == [(bad, message)]
        assert res.draws.tobytes() == runs[0].draws.tobytes()
    frame = _replicate_frame(model)
    want = [direct_theta(frame, design, w) for b, w in enumerate(handmade) if b != bad]
    assert_close_to_column_max(runs[0].draws, want)


def test_bootstrap_study_error_names_each_failing_draw_once(monkeypatch):
    # Two of 21 draws put weight on two rows only: beyond the 5% budget.
    space, basis, sample, y, x, _ = small_problem(10)
    model = fit_subspace_pca(space, basis, sample)
    design = design_of(model, y, x, 2)
    spec = BootstrapSpec(kind="wild", b_reps=21, base_seed=8)
    handmade = [gen_weights(spec, y.size, b) for b in range(spec.b_reps)]
    for bad in (3, 10):
        handmade[bad] = (np.arange(y.size) < 2) * 1.0
    monkeypatch.setattr(gridpcr.resampling, "gen_weights", lambda spec, n, b: handmade[b])
    with pytest.raises(StudyError) as err:
        bootstrap_theta(model, design, spec)
    why = "the draw retained 1 components, fewer than the 2 the design needs"
    assert str(err.value) == (
        f"2 of 21 bootstrap replicates failed (tolerance 5%); first failures: "
        f"replicate 3: {why}; replicate 10: {why}"
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


def solve_spy(failing, error=GridPcrError):
    """A batch solver that records its ranges and raises for one holding ``failing``."""
    calls = []

    def solve(indices):
        calls.append((indices.start, indices.stop))
        if failing in indices:
            raise error(f"draw {failing} fails")
        return [10 * i for i in indices]

    return solve, calls


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_range_is_solved_again_draw_by_draw(threads):
    solve, calls = solve_spy(failing=None)
    assert _run_batches(solve, 20, threads) == [10 * i for i in range(20)]
    assert sorted(calls) == [(0, 8), (8, 16), (16, 20)]

    solve, calls = solve_spy(failing=10)
    outcomes = _run_batches(solve, 20, threads)
    assert [type(out) for out in outcomes].count(GridPcrError) == 1
    assert str(outcomes[10]) == "draw 10 fails"
    assert outcomes[:10] + outcomes[11:] == [10 * i for i in range(20) if i != 10]
    alone = [(i, i + 1) for i in range(8, 16)]
    assert sorted(calls) == sorted([(0, 8), (8, 16), (16, 20)] + alone)
    eight_to_sixteen = [c for c in calls if 8 <= c[0] < 16]
    assert eight_to_sixteen == [(8, 16)] + alone

    solve, calls = solve_spy(failing=10, error=ConfigurationError)
    with pytest.raises(ConfigurationError, match="draw 10 fails"):
        _run_batches(solve, 20, threads)
    assert calls.count((8, 16)) == 1
    assert all(stop - start > 1 for start, stop in calls)


def test_jackknife_failing_block_raises(monkeypatch):
    # Unlike a bootstrap draw, a jackknife block is not tolerated as a failure.
    space, basis, sample, y, x, _ = small_problem(7)
    model = fit_subspace_pca(space, basis, sample)

    def flaky(frame, design, weights, labels):
        if "jackknife block 3" in labels:
            raise GridPcrError("jackknife block 3 retained too few components")
        return _replicate_thetas(frame, design, weights, labels)

    monkeypatch.setattr(gridpcr.resampling, "_replicate_thetas", flaky)
    with pytest.raises(GridPcrError, match="jackknife block 3"):
        block_jackknife(model, design_of(model, y, x, 2), JackknifeSpec(r=8))


def test_jackknife_blocks_run_on_the_requested_workers(monkeypatch):
    # The fake helpers record themselves and start no thread, so the
    # caller runs every block; the replicates must not depend on the count.
    helpers = []

    class FakeHelper:
        def __init__(self, target):
            helpers.append(target)

        def start(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(gridpcr.util, "Thread", FakeHelper)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    space, basis, sample, y, x, _ = small_problem(7)
    model = fit_subspace_pca(space, basis, sample)
    design = design_of(model, y, x, 2)
    spec = JackknifeSpec(r=2 * BATCH + 4)  # three batches, one for each worker
    pooled = block_jackknife(model, design, spec, threads=3)
    assert len(helpers) == 2  # three workers: the caller and two helpers
    serial = block_jackknife(model, design, spec)
    assert len(helpers) == 2
    np.testing.assert_array_equal(pooled.replicates, serial.replicates)
    np.testing.assert_array_equal(pooled.cov, serial.cov)


def assert_tables_equal(table, direct):
    """Every field of two interval tables equal, the arrays byte for byte."""
    for name in ("point", "lower", "upper", "se"):
        assert getattr(table, name).tobytes() == getattr(direct, name).tobytes(), name
    for name in ("names", "level", "method", "completed"):
        assert getattr(table, name) == getattr(direct, name), name


def test_coefficient_intervals_match_the_direct_calls():
    space, basis, sample, y, x, _ = small_problem(3)
    model = fit_subspace_pca(space, basis, sample)
    one = design_of(model, y, x, 2)
    two = design_of(model, y, x, 2, treatment=np.arange(y.size) % 3 == 0)
    fit = fit_pcr(one)

    table, res = coefficient_intervals(model, one, fit, PluginSpec(0.9))
    se = np.sqrt(np.diag(plugin_cov(fit, model, one)))
    lower, upper = normal_ci(fit.theta, se, 0.9)
    direct = CiTable(coefficient_names(1, 2), fit.theta, lower, upper, se, 0.9, "plugin", 0)
    assert res is None
    assert_tables_equal(table, direct)

    spec = BootstrapSpec(kind="wild", b_reps=20, base_seed=7, level=0.9)
    table, res = coefficient_intervals(model, two, fit_pcr(two), spec)
    direct = bootstrap_theta(model, two, spec)
    assert_tables_equal(table, direct.table)
    assert res.draws.tobytes() == direct.draws.tobytes()

    for blocks, r in ((8, 8), (None, 6)):  # by default coefficients + 2
        table, res = coefficient_intervals(model, one, fit, JackknifeSpec(blocks, 0.9))
        direct = block_jackknife(model, one, JackknifeSpec(r=r, level=0.9))
        assert_tables_equal(table, direct.table)
        assert res.cov.tobytes() == direct.cov.tobytes()

    for spec in ("jackknife", None):
        with pytest.raises(ConfigurationError, match="intervals must be a PluginSpec"):
            coefficient_intervals(model, one, fit, spec)


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


def direct_eigs(frame, weights):
    """A replicate's eigenpairs from the full k x k weighted covariance of a frame."""
    left = frame[0]
    return _eig_from_scores(
        left - np.average(left, axis=0, weights=weights), weights=weights
    )


def direct_theta(frame, design, weights):
    """A replicate's coefficients through the full eigensolve in a frame."""
    left, ref = frame
    m = design.m
    coords = direct_eigs(frame, weights)[1]
    signs = np.sign(np.sum(coords[:m] * ref[:m], axis=1))
    signs[signs == 0] = 1.0
    scores = left @ (coords[:m] * signs[:, None]).T
    return fit_pcr(replace(design, scores=scores), weights).theta


def dense_frame(model):
    """The rank columns of the whitened scores and the point coords in them."""
    return model.white, model.coords


# Neither the draw counts nor the block count is a multiple of the batch.
BOOT_SPECS = (
    BootstrapSpec(kind="wild", b_reps=21, base_seed=3),
    BootstrapSpec(kind="nonparametric", b_reps=21, base_seed=5),
)
EIG_SPEC = BootstrapSpec(kind="nonparametric", b_reps=21, base_seed=4)
BLOCKS = 13
THETA_REPLICATES = BOOT_SPECS[0].b_reps + BOOT_SPECS[1].b_reps + BLOCKS
EIGENVALUES = 2  # the index of the eigenvalue bootstrap in RESAMPLERS


RESAMPLERS = (
    lambda model, design, threads: bootstrap_theta(
        model, design, BOOT_SPECS[0], threads).draws,
    lambda model, design, threads: bootstrap_theta(
        model, design, BOOT_SPECS[1], threads).draws,
    lambda model, design, threads: bootstrap_eigenvalues(model, EIG_SPEC, threads).draws,
    lambda model, design, threads: block_jackknife(
        model, design, JackknifeSpec(r=BLOCKS), threads).replicates,
)


def resampled(model, design):
    """Outputs of the resamplers: wild and nonparametric theta draws, eigenvalue
    draws, blocks; each the same bytes on 1, 2 and 3 pool workers."""
    outputs = []
    for run in RESAMPLERS:
        first, *others = (run(model, design, threads) for threads in (1, 2, 3))
        for other in others:
            assert other.shape == first.shape and other.tobytes() == first.tobytes()
        outputs.append(first)
    return outputs


def directly_solved(model, design, frame):
    """What ``resampled`` gives with each replicate's full eigensolve in ``frame``."""
    n = model.n
    j = model.n_components
    used = BLOCKS * (n // BLOCKS)
    blocks = []
    for block in range(BLOCKS):
        weights = np.zeros(n)
        weights[:used] = 1.0
        weights[block:used:BLOCKS] = 0.0
        blocks.append(direct_theta(frame, design, weights))
    thetas = [
        np.array([direct_theta(frame, design, gen_weights(spec, n, b))
                  for b in range(spec.b_reps)])
        for spec in BOOT_SPECS
    ]
    eigs = [direct_eigs(frame, gen_weights(EIG_SPEC, n, b))[0][:j]
            for b in range(EIG_SPEC.b_reps)]
    return [*thetas, np.array(eigs), np.array(blocks)]


def resampled_and_direct(model, design, frame):
    """(resampler output, its direct solve in ``frame``) for all three resamplers."""
    return zip(resampled(model, design), directly_solved(model, design, frame))


def assert_close_to_column_max(got, want):
    want = np.array(want)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def kl_grid_model(noise, two_arm=False):
    """A fit_subspace_pca of 60 KL rows of three components on a 10x12 grid."""
    space = AmbientSpace.unit_domain((10, 12))
    family = make_family(space, "synthetic2d", 3)
    rng = replicate_rng(9200, 0)
    factors = kl_factors(family, (3.0, 2.0, 1.0), 60, rng)
    rows = factors @ family.phis + noise * rng.standard_normal((60, space.size))
    basis = bspline_tensor_basis(space, 2, 2)
    model = fit_subspace_pca(space, basis, rows)
    x = rng.standard_normal((60, 1))
    y = 1.0 + x[:, 0] + factors[:, :2] @ [1.5, -1.0] + 0.3 * rng.standard_normal(60)
    return model, design_of(model, y, x, 2, np.arange(60) % 2 == 0 if two_arm else None)


def study_model():
    """A Monte Carlo fit of 60 rows of two KL components (Study.fit)."""
    config = ScenarioConfig(
        family="synthetic2d", dims=(8, 9), lambdas=(3.0, 1.0), alpha0=1.0,
        beta0=(1.0,), gamma0=(1.5, -1.0), n=60, seed=4,
    )
    study = Study.build(config, PipelineOptions(degree=2, interior_knots=2))
    _, _, sample, x, y, _ = generate_dataset(config, 0, study.family)
    model = study.fit(sample.factors)
    return model, design_of(model, y, x, 2)


@pytest.mark.parametrize(
    "make", [lambda: kl_grid_model(0.0), lambda: kl_grid_model(0.0, True), study_model],
    ids=["grid-sample", "grid-sample-two-arm", "study"],
)
def test_rank_deficient_replicates_match_the_dense_formula(make):
    # Noise-free KL rows have whitened scores of rank k < basis rank: the
    # replicates run in k columns and match the rank-column formula.
    model, design = make()
    left, ref = _replicate_frame(model)
    assert left.shape[1] < model.white.shape[1]
    assert ref.shape == (model.n_components, left.shape[1])
    for got, want in resampled_and_direct(model, design, dense_frame(model)):
        assert_close_to_column_max(got, want)


def test_full_rank_replicates_keep_the_dense_bytes():
    # Where the block of min(J, m + 4) vectors would span all k columns the
    # replicate solves the k x k covariance directly, with the parent's
    # bytes: the eigenvalue bootstrap of a full-rank fit (m = J = k) and
    # every resampler of a Monte Carlo fit (k = 2). The m + 4 < k case is
    # checked against the dense oracle in
    # test_replicates_solve_only_the_leading_pairs.
    model, design = kl_grid_model(0.05)
    assert model.n_components == model.white.shape[1]
    frame = _replicate_frame(model)
    assert frame[0] is model.white and frame[1] is model.coords
    np.testing.assert_array_equal(
        RESAMPLERS[EIGENVALUES](model, design, 1),
        directly_solved(model, design, frame)[EIGENVALUES],
    )
    model, design = study_model()
    frame = _replicate_frame(model)
    assert frame[0].shape[1] == 2
    for got, want in resampled_and_direct(model, design, frame):
        np.testing.assert_array_equal(got, want)


def eigh_widths(monkeypatch):
    """Spy on numpy.linalg.eigh; returns the list of solved matrix widths.

    A stacked call adds the width once for every matrix of its stack, so the
    list counts solves per draw however the draws are batched.
    """
    widths = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        widths.extend([a.shape[-1]] * int(np.prod(a.shape[:-2], dtype=int)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return widths


def test_replicates_solve_only_the_leading_pairs(monkeypatch):
    # A full-rank noisy fit (k = r = 25) with m = 2, one and two arms: each
    # replicate finds its 2 leading pairs on a block of m + 4 vectors, never
    # a 25-wide eigenproblem, within 1e-12 of the dense oracle.
    widths = eigh_widths(monkeypatch)
    for two_arm in (False, True):
        model, design = kl_grid_model(0.05, two_arm)
        k = model.white.shape[1]
        assert model.n_components == k and design.m == 2
        outputs = []
        for i, run in enumerate(RESAMPLERS):
            widths.clear()
            outputs.append(run(model, design, 1))
            # The eigenvalue bootstrap wants all J = k pairs, so m + 4 >= k.
            assert widths and max(widths) <= (k if i == EIGENVALUES else design.m + 4)
        for got, want in zip(outputs, directly_solved(model, design, dense_frame(model))):
            assert_close_to_column_max(got, want)
    truncated = replace(
        model, eigenvalues=model.eigenvalues[:3], coords=model.coords[:3]
    )
    widths.clear()
    # With J = 3 < k the eigenvalue bootstrap iterates on a block of 3.
    got = bootstrap_eigenvalues(truncated, EIG_SPEC).draws
    assert set(widths) == {3}
    frame = dense_frame(model)
    want = [direct_eigs(frame, gen_weights(EIG_SPEC, model.n, b))[0][:3]
            for b in range(EIG_SPEC.b_reps)]
    assert_close_to_column_max(got, want)


def isotropic_model(n=200, width=30):
    """A fit whose whitened scores are standard normal: no spectral gap."""
    space = AmbientSpace.unit_domain((6, 5))
    rng = replicate_rng(9300, 0)
    raw = rng.standard_normal((width, space.size))
    q = np.linalg.qr((raw * np.sqrt(space.weights)).T)[0].T
    basis = BasisSet(functions=q / np.sqrt(space.weights), provenance={})
    model = fit_subspace_pca(space, basis, rng.standard_normal((n, width)) @ basis.functions)
    x = rng.standard_normal((n, 1))
    return model, design_of(model, rng.standard_normal(n), x, 2)


def test_replicates_without_a_spectral_gap_take_the_direct_solve(monkeypatch):
    model, design = isotropic_model()
    k = model.white.shape[1]
    assert model.n_components == k == 30
    widths = eigh_widths(monkeypatch)
    outputs = [run(model, design, 1) for run in RESAMPLERS]
    # Each replicate (21 + 21 + 21 draws, 13 blocks) solved one k x k
    # problem, the theta replicates after two sweeps of subspace iteration
    # showed that its residual would not reach the target.
    assert widths.count(k) == THETA_REPLICATES + EIG_SPEC.b_reps
    assert widths.count(design.m + 4) == 2 * THETA_REPLICATES
    for got, want in zip(outputs, directly_solved(model, design, dense_frame(model))):
        np.testing.assert_array_equal(got, want)


def test_replicate_keeping_too_few_directions_fails_on_either_path(monkeypatch):
    # Weight on two rows leaves one positive direction, fewer than m = 2:
    # the full-rank fit finds it by iteration on 6 vectors, the Monte Carlo
    # fit (k = 2) by the direct solve, and both fail with the same message.
    widths = eigh_widths(monkeypatch)
    for (model, design), width in ((kl_grid_model(0.05), 6), (study_model(), 2)):
        weights = np.zeros(model.n)
        weights[:2] = 1.0
        widths.clear()
        with pytest.raises(
            GridPcrError,
            match="^replicate 0 retained 1 components, fewer than the 2 the design needs$",
        ):
            _replicate_thetas(_replicate_frame(model), design, weights[None], ["replicate 0"])
        assert set(widths) == {width}


def test_fit_and_replicates_solve_in_the_column_space(monkeypatch):
    widths = []

    def spy(scores, weights=None, **kwargs):
        # One width per solve: the point fit's, and each draw's of a batch.
        widths.extend([scores.shape[1]] * (len(weights) if np.ndim(weights) == 2 else 1))
        return _eig_from_scores(scores, weights, **kwargs)

    monkeypatch.setattr(gridpcr.decomp, "_eig_from_scores", spy)
    monkeypatch.setattr(gridpcr.resampling, "_eig_from_scores", spy)
    model, design = study_model()
    assert widths == [2]
    bootstrap_theta(model, design, BootstrapSpec(b_reps=3))
    block_jackknife(model, design, JackknifeSpec(r=8))
    assert widths == [2] * 12
    assert model.white.shape[1] == 25
