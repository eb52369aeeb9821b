"""Acceptance suite: one seeded check per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts both the numerical tolerance and its runtime budget. The bootstrap
coverage study dominates the runtime and is tagged ``slow``; skip it with
``-m "not slow"``.

Benchmark constants are desk-scale targets for the large-sample studies:
eigenvalue mean squared errors and selected component counts the pipeline
must land near, plus interval-coverage floors.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from gridpcr import (
    AmbientSpace,
    BasisSet,
    BootstrapSpec,
    JackknifeSpec,
    RegressionDesign,
    ScenarioConfig,
    block_jackknife,
    bootstrap_theta,
    bspline_tensor_basis,
    component_scores,
    diagnose_projection,
    eigenfunctions,
    fit_pcr,
    fit_subspace_pca,
    generate_dataset,
    gram,
    kl_sample,
    make_family,
    plugin_cov,
    project_scores,
    run_monte_carlo,
    select_pve,
    whiten,
)
from gridpcr.cli import main
from gridpcr.util import mix_seed, replicate_rng

LAMBDAS_2D = (3.5, 3.0, 2.5, 2.0, 1.5, 1.0)
GAMMA_2D = (1.5, 1.0, 2.0, 2.5, 1.5, 3.0)
BETAS = (1.0, 1.0, 1.0, 1.0)
DIMS_2D = (20, 24)
DIMS_3D = (12, 14, 10)

# Benchmark eigenvalue MSEs at n = 500 (3D) and n = 2000 (2D), and the
# factor-of-three band the suite enforces around them.
BENCH_MSE_2D_L1_N2000 = 1.25e-2
BENCH_MSE_3D_N500 = (1.43e-2, 0.83e-2)
FACTOR = 3.0

THREADS = min(4, os.cpu_count() or 1)


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def scenario_2d(n, seed, corr=0.0):
    return ScenarioConfig(
        family="synthetic2d",
        dims=DIMS_2D,
        lambdas=LAMBDAS_2D,
        alpha0=1.0,
        beta0=BETAS,
        gamma0=GAMMA_2D,
        corr=corr,
        noise_sd=1.0,
        n=n,
        seed=seed,
    )


def options_2d(config, **overrides):
    """``config`` fitted with the 2D spline: degree 3, 7 interior knots."""
    return replace(config, degree=3, interior_knots=7, **overrides)


def random_space(rng):
    naxes = int(rng.integers(2, 4))
    dims = tuple(int(v) for v in rng.integers(3, 7, size=naxes))
    if rng.random() < 0.5:
        return AmbientSpace.unit_domain(dims)
    return AmbientSpace.regular(dims, tuple(rng.uniform(0.3, 1.7, size=naxes)))


def test_orthonormality_suite():
    started = time.perf_counter()
    worst_gram = worst_whiten = 0.0
    for i in range(50):
        rng = replicate_rng(100, i)
        space = random_space(rng)
        if i % 3 == 0:
            degree = int(rng.integers(1, 3))
            basis = bspline_tensor_basis(space, degree, 1)
        else:
            k = int(rng.integers(2, min(space.size, 13)))
            funcs = rng.standard_normal((k, space.size))
            if i % 4 == 0:
                funcs = np.vstack([funcs, funcs[0] - 0.5 * funcs[-1]])
            basis = BasisSet(functions=funcs, provenance={})
        lmat = gram(space, basis)
        w = whiten(lmat)
        eye = w.factor @ lmat @ w.factor.T
        worst_whiten = max(worst_whiten, np.abs(eye - np.eye(w.rank)).max())
        n = int(rng.integers(w.rank + 2, w.rank + 20))
        model = fit_subspace_pca(space, basis, rng.standard_normal((n, space.size)))
        phi_gram = (
            eigenfunctions(space, basis, model) * space.weights
        ) @ eigenfunctions(space, basis, model).T
        dev = np.abs(phi_gram - np.eye(model.n_components)).max()
        worst_gram = max(worst_gram, dev)
    elapsed = time.perf_counter() - started
    ok = worst_gram <= 1e-8 and worst_whiten <= 1e-8 and elapsed < 30
    report(
        "orthonormality suite",
        ok,
        f"50 fixtures, max eigenfunction Gram dev {worst_gram:.2e}, "
        f"max whitener dev {worst_whiten:.2e}, {elapsed:.1f}s (< 30s)",
    )


def test_dense_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = replicate_rng(200, i)
        dims = tuple(int(v) for v in rng.integers(2, 9, size=2))
        space = AmbientSpace.unit_domain(dims)
        mix = rng.standard_normal((space.size, space.size))
        mix += 0.75 * np.sign(np.diag(mix).reshape(-1, 1)) * np.eye(space.size)
        basis = BasisSet(functions=mix, provenance={})
        n = int(rng.integers(5, 41))
        data = rng.standard_normal((n, space.size))
        model = fit_subspace_pca(space, basis, data)
        # dense route: eigendecompose the weighted empirical covariance
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / n
        root = np.sqrt(space.weights)
        sym = root[:, None] * cov * root[None, :]
        vals, vecs = np.linalg.eigh(sym)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        keep = vals > max(vals[0], 0.0) * 1e-12
        vals, vecs = vals[keep], vecs[:, keep]
        phis = (vecs / root[:, None]).T
        assert model.n_components == vals.size
        signs = np.sign(np.sum(phis * eigenfunctions(space, basis, model), axis=1))
        worst = max(worst, np.abs(model.eigenvalues - vals).max())
        worst = max(
            worst,
            np.abs(eigenfunctions(space, basis, model) - signs[:, None] * phis).max(),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 30
    report(
        "dense-oracle equivalence",
        ok,
        f"20 spanning-basis cases on grids <= 8x8, max eigenpair dev "
        f"{worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_projection_residual_identity():
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = replicate_rng(300, i)
        space = random_space(rng)
        k = int(rng.integers(1, max(2, space.size // 2)))
        basis = BasisSet(functions=rng.standard_normal((k, space.size)), provenance={})
        n = int(rng.integers(3, 31))
        data = rng.standard_normal((n, space.size))
        reportd = diagnose_projection(space, basis, data, 0.05)
        frame = whiten(gram(space, basis)).factor @ basis.rows()
        centered = data - data.mean(axis=0)
        proj = (centered * space.weights) @ frame.T @ frame
        resid_form = float(
            np.mean(np.sum((centered - proj) ** 2 * space.weights, axis=1))
        )
        total = float(np.mean(np.sum(centered**2 * space.weights, axis=1)))
        var_form = total - float(np.mean(np.sum(proj**2 * space.weights, axis=1)))
        worst = max(
            worst,
            abs(resid_form - var_form),
            abs(reportd.delta_hat - resid_form),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 30
    report(
        "projection residual identity",
        ok,
        f"20 inputs, residual vs variance-difference max gap {worst:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s",
    )


def test_component_count_selection_2d():
    started = time.perf_counter()
    table = run_monte_carlo(options_2d(scenario_2d(500, 13)), 100, THREADS)
    hits = table.mhat_counts.get(6, 0)
    elapsed = time.perf_counter() - started
    ok = hits >= 95 and elapsed < 300
    report(
        "explained-variance selection",
        ok,
        f"m=6 in {hits}/100 replicates at n=500 (need >= 95), "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_eigenvalue_mse_decay_2d():
    started = time.perf_counter()
    space = AmbientSpace.unit_domain(DIMS_2D)
    basis = bspline_tensor_basis(space, 3, 7)
    medians = []
    for n in (100, 500, 2000):
        config = scenario_2d(n, 17)
        errs = []
        for rep in range(100):
            _, family, factors, *_ = generate_dataset(config, rep)
            model = fit_subspace_pca(space, basis, factors @ family.phis)
            errs.append((model.eigenvalues[0] - LAMBDAS_2D[0]) ** 2)
        medians.append(float(np.median(errs)))
    elapsed = time.perf_counter() - started
    decreasing = medians[0] > medians[1] > medians[2]
    ratio = medians[2] / BENCH_MSE_2D_L1_N2000
    ok = decreasing and 1 / FACTOR <= ratio <= FACTOR and elapsed < 900
    report(
        "eigenvalue MSE decay",
        ok,
        f"median MSE(lambda1) {medians[0]:.3e} > {medians[1]:.3e} > "
        f"{medians[2]:.3e}; n=2000 at {ratio:.2f}x the "
        f"{BENCH_MSE_2D_L1_N2000:.2e} benchmark (need 1/3..3), "
        f"{elapsed:.0f}s (< 900s)",
    )


def test_projection_diagnostic_level_and_power():
    started = time.perf_counter()
    space = AmbientSpace.unit_domain(DIMS_2D)
    fam6 = make_family(space, "synthetic2d", 6)
    spanning = BasisSet(functions=fam6.phis, provenance={})
    level_rejects = 0
    for rep in range(100):
        rng = replicate_rng(41, rep)
        sample = kl_sample(fam6, np.array(LAMBDAS_2D), 500, rng)
        level_rejects += diagnose_projection(space, spanning, sample, 0.05).reject
    fam3 = make_family(space, "synthetic2d", 3)
    missing = BasisSet(functions=fam3.phis[:2], provenance={})
    lams3 = np.array([4.0, 2.0, 1.0])  # dropped component holds 1/7 of variance
    power_rejects = 0
    for rep in range(100):
        rng = replicate_rng(43, rep)
        sample = kl_sample(fam3, lams3, 500, rng)
        power_rejects += diagnose_projection(space, missing, sample, 0.05).reject
    elapsed = time.perf_counter() - started
    ok = level_rejects <= 10 and power_rejects >= 95 and elapsed < 300
    report(
        "diagnostic level and power",
        ok,
        f"spanning basis {level_rejects}/100 rejections (<= 10), missing "
        f"component {power_rejects}/100 (>= 95), {elapsed:.0f}s (< 300s)",
    )


def test_oracle_regression_recovery():
    started = time.perf_counter()
    theta0 = np.array([1.0, 0.8, -0.6, 1.5, -1.0, 0.5, 2.0])
    lams = np.array([3.0, 2.0, 1.0, 0.5])
    n = 60
    worst_oracle = worst_est = 0.0
    for case in range(100):
        rng = replicate_rng(57, case)
        dims = tuple(int(v) for v in rng.integers(8, 14, size=2))
        space = AmbientSpace.unit_domain(dims)
        basis = bspline_tensor_basis(space, 2, 2)
        frame = whiten(gram(space, basis)).factor @ basis.rows()
        q = np.linalg.qr(rng.standard_normal((frame.shape[0], 4)))[0]
        phis = q.T @ frame
        raw = rng.standard_normal((n, 4))
        qs = np.linalg.qr(raw - raw.mean(axis=0))[0]
        xi = np.sqrt(n) * qs * np.sqrt(lams)
        sample = xi @ phis
        x = rng.standard_normal((n, 2))
        y = np.column_stack([np.ones(n), x, xi]) @ theta0
        fit = fit_pcr(RegressionDesign(y=y, x=x, scores=xi))
        worst_oracle = max(worst_oracle, np.abs(fit.theta - theta0).max())
        model = fit_subspace_pca(space, basis, sample)
        scores = component_scores(model)[:, :4]
        flips = np.sign(
            np.sum(
                eigenfunctions(space, basis, model)[:4] * space.weights * phis, axis=1
            )
        )
        fit2 = fit_pcr(RegressionDesign(y=y, x=x, scores=scores))
        est = np.concatenate([fit2.theta[:3], flips * fit2.theta[3:]])
        worst_est = max(worst_est, np.abs(est - theta0).max())
    elapsed = time.perf_counter() - started
    ok = worst_oracle <= 1e-10 and worst_est <= 1e-6 and elapsed < 60
    report(
        "oracle regression recovery",
        ok,
        f"100 noiseless cases: oracle-score error {worst_oracle:.2e} "
        f"(tol 1e-10), estimated-score error {worst_est:.2e} (tol 1e-6), "
        f"{elapsed:.0f}s (< 60s)",
    )


@pytest.mark.slow
def test_bootstrap_coverage_2d():
    started = time.perf_counter()
    config = options_2d(
        scenario_2d(500, 0), intervals=BootstrapSpec(kind="wild", b_reps=300)
    )
    table = run_monte_carlo(config, 100, THREADS)
    watched = ["intercept", "x1", "x2", "x3", "x4", "z1", "z2", "z3", "z4", "z5", "z6"]
    rates = {}
    for name in watched:
        i = table.names.index(name)
        assert table.covered_reps[i] == table.completed
        rates[name] = table.coverage[i]
    elapsed = time.perf_counter() - started
    low = min(rates.values())
    ok = low >= 0.88 and max(rates.values()) <= 1.0 and elapsed < 3600
    report(
        "bootstrap interval coverage",
        ok,
        f"n=500, B=300, 100 replicates: coverage "
        f"{', '.join(f'{k}={v:.0%}' for k, v in rates.items())} "
        f"(floor 88%), {elapsed:.0f}s (< 3600s)",
    )


def test_3d_selection_and_mse():
    started = time.perf_counter()
    config = ScenarioConfig(
        family="quadratic_gauss3d",
        dims=DIMS_3D,
        lambdas=(2.0, 1.0),
        alpha0=1.0,
        beta0=BETAS,
        gamma0=(1.5, -1.0),
        corr=0.0,
        noise_sd=1.0,
        n=500,
        seed=7,
    )
    table = run_monte_carlo(replace(config, degree=2, interior_knots=2), 100, THREADS)
    hits = table.mhat_counts.get(2, 0)
    mse1 = table.mse[table.names.index("lambda1")]
    mse2 = table.mse[table.names.index("lambda2")]
    r1 = mse1 / BENCH_MSE_3D_N500[0]
    r2 = mse2 / BENCH_MSE_3D_N500[1]
    elapsed = time.perf_counter() - started
    # lambda2's benchmark carries the representation floor of a much coarser
    # reference basis; undershooting it is an improvement, so only the
    # upper bound binds there
    ok = (
        hits >= 95
        and 1 / FACTOR <= r1 <= FACTOR
        and r2 <= FACTOR
        and elapsed < 600
    )
    report(
        "3D selection and eigenvalue MSE",
        ok,
        f"m=2 in {hits}/100 (>= 95); MSE(lambda1) {mse1:.2e} = {r1:.2f}x "
        f"benchmark (1/3..3), MSE(lambda2) {mse2:.2e} = {r2:.2f}x benchmark "
        f"(<= 3), {elapsed:.0f}s (< 600s)",
    )


def test_se_methods_cross_validate():
    started = time.perf_counter()
    config = scenario_2d(2000, 31)
    space = AmbientSpace.unit_domain(DIMS_2D)
    basis = bspline_tensor_basis(space, 3, 7)
    plug, boot, jack = [], [], []
    for rep in range(20):
        _, family, factors, x, y, _ = generate_dataset(config, rep)
        model = fit_subspace_pca(space, basis, factors @ family.phis)
        m = select_pve(model, 0.95).m
        scores = component_scores(model)[:, :m]
        design = RegressionDesign(y=y, x=x, scores=scores)
        fit = fit_pcr(design)
        plug.append(np.sqrt(np.diag(plugin_cov(fit, model, design)))[1:5])
        res = bootstrap_theta(
            model, design,
            BootstrapSpec(kind="wild", b_reps=200, base_seed=mix_seed(31, rep)),
            threads=THREADS,
        )
        boot.append(res.table.se[1:5])
        jack.append(
            block_jackknife(model, design, JackknifeSpec(r=40)).table.se[1:5]
        )
    means = np.vstack(
        [np.mean(plug, axis=0), np.mean(boot, axis=0), np.mean(jack, axis=0)]
    )
    ratios = means.max(axis=0) / means.min(axis=0)
    elapsed = time.perf_counter() - started
    ok = ratios.max() <= 1.30 and elapsed < 1200
    report(
        "SE method agreement",
        ok,
        f"plugin/bootstrap/jackknife beta SEs over 20 reps at n=2000, worst "
        f"pairwise ratio {ratios.max():.3f} (<= 1.30), {elapsed:.0f}s (< 1200s)",
    )


def test_cli_byte_determinism(tmp_path):
    started = time.perf_counter()
    space = AmbientSpace.unit_domain((8, 9))
    fam = make_family(space, "synthetic2d", 2)
    rng = replicate_rng(900, 0)
    sample = kl_sample(fam, np.array([3.0, 1.0]), 30, rng)
    data = tmp_path / "s.hsg"
    from gridpcr import write_grid

    write_grid(data, sample.reshape(30, 8, 9))
    boot_bytes = []
    for tag, threads in (("a", "1"), ("b", "3"), ("c", "1")):
        out = tmp_path / tag
        rc = main([
            "bootstrap", "--data", str(data), "--degree", "2", "--knots", "2",
            "--target", "eigenvalues", "--reps", "10", "--seed", "5",
            "--threads", threads, "--out", str(out),
        ])
        assert rc == 0
        boot_bytes.append((out / "eigenvalues.csv").read_bytes())
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "n": 20, "reps": 3, "dims": [8, 9], "lambdas": [3.0, 1.0],
        "gamma0": [1.5, -1.0], "beta0": [1.0], "degree": 2, "knots": 2,
        "seed": 3,
    }))
    sim_bytes = []
    for tag, threads in (("sa", "1"), ("sb", "2")):
        out = tmp_path / tag
        rc = main([
            "simulate", "--config", str(cfg), "--threads", threads,
            "--out", str(out),
        ])
        assert rc == 0
        sim_bytes.append(
            (out / "metrics.csv").read_bytes() + (out / "mhat.csv").read_bytes()
        )
    elapsed = time.perf_counter() - started
    ok = (
        boot_bytes[0] == boot_bytes[1] == boot_bytes[2]
        and sim_bytes[0] == sim_bytes[1]
        and elapsed < 120
    )
    report(
        "CLI byte determinism",
        ok,
        f"bootstrap and simulate outputs identical across reruns and "
        f"--threads values, {elapsed:.0f}s (< 120s)",
    )
