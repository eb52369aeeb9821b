"""End-to-end command-line runs: exit codes, outputs, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridpcr
from gridpcr import (
    AmbientSpace,
    RegressionDesign,
    bspline_tensor_basis,
    component_scores,
    eigenfunctions,
    eigenvalue_se,
    fit_pcr,
    fit_subspace_pca,
    kl_sample,
    make_family,
    read_grid,
    read_manifest,
    read_table,
    write_grid,
    write_table,
)
from gridpcr.cli import main
from gridpcr.util import replicate_rng

DIMS = (8, 9)
LAMS = (3.0, 1.0)


def make_dataset(path, n=50, seed=0, noise=0.3):
    """Two-component sample plus a response table; returns the pieces."""
    space = AmbientSpace.unit_domain(DIMS)
    fam = make_family(space, "synthetic2d", 2)
    rng = replicate_rng(9400, seed)
    xi = rng.standard_normal((n, 2)) * np.sqrt(LAMS)
    sample = xi @ fam.phis
    write_grid(path, sample.reshape(n, *DIMS))
    x = rng.standard_normal((n, 2))
    y = 1.0 + x @ [1.0, -0.5] + xi @ [1.5, -1.0] + noise * rng.standard_normal(n)
    return space, fam, sample, x, y


def write_design(path, x, y):
    rows = [[y[i], x[i, 0], x[i, 1]] for i in range(len(y))]
    write_table(path, ["y", "x1", "x2"], rows)


def test_missing_data_exits_2(tmp_path, capsys):
    rc = main(["fit", "--data", str(tmp_path / "none.hsg"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_tri_without_mesh_exits_2(tmp_path, capsys):
    data = tmp_path / "s.hsg"
    make_dataset(data, n=10)
    rc = main(["fit", "--data", str(data), "--basis", "tri", "--out", str(tmp_path)])
    assert rc == 2
    assert "--mesh" in capsys.readouterr().err


def test_out_of_range_m_exits_2(tmp_path, capsys):
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    rc = main([
        "regress", "--data", str(data), "--degree", "2", "--knots", "2",
        "--table", str(table), "--response", "y", "--m", "99",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "m=99" in capsys.readouterr().err


def test_degenerate_design_exits_3(tmp_path, capsys):
    # four observations cannot identify intercept + three scores
    rng = replicate_rng(9401, 0)
    data = tmp_path / "s.hsg"
    write_grid(data, rng.standard_normal((4, *DIMS)))
    table = tmp_path / "d.csv"
    write_table(table, ["y"], [[v] for v in rng.standard_normal(4)])
    rc = main([
        "regress", "--data", str(data), "--degree", "2", "--knots", "2",
        "--table", str(table), "--response", "y", "--m", "3",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_fit_matches_library(tmp_path):
    data = tmp_path / "s.hsg"
    space, _, sample, _, _ = make_dataset(data)
    out = tmp_path / "o"
    rc = main([
        "fit", "--data", str(data), "--degree", "2", "--knots", "2",
        "--out", str(out),
    ])
    assert rc == 0
    basis = bspline_tensor_basis(space, 2, 2)
    model = fit_subspace_pca(space, basis, sample)
    header, rows = read_table(out / "eigenvalues.csv")
    assert header == ["component", "eigenvalue", "se", "cumulative_fraction"]
    got = np.array([[float(c) for c in row] for row in rows])
    assert got.shape[0] == model.n_components
    np.testing.assert_array_equal(got[:, 0], np.arange(1, model.n_components + 1))
    np.testing.assert_array_equal(got[:, 1], model.eigenvalues)
    np.testing.assert_array_equal(got[:, 2], eigenvalue_se(model))
    np.testing.assert_array_equal(
        got[:, 3], np.cumsum(model.eigenvalues) / model.total_variance
    )
    np.testing.assert_array_equal(read_grid(out / "mean.hsg").ravel(), model.mean)
    funcs = read_grid(out / "eigenfunctions.hsg")
    assert funcs.shape == (model.n_components, *DIMS)
    np.testing.assert_array_equal(
        funcs.reshape(model.n_components, -1), eigenfunctions(space, basis, model)
    )


def test_manifest_differs_only_in_timing(tmp_path):
    data = tmp_path / "s.hsg"
    make_dataset(data)
    out = tmp_path / "o"
    argv = ["fit", "--data", str(data), "--degree", "2", "--knots", "2", "--out", str(out)]
    assert main(argv) == 0
    first = read_manifest(out / "manifest.json")
    assert main(argv) == 0
    second = read_manifest(out / "manifest.json")
    assert first.pop("timing_seconds") != second.pop("timing_seconds")
    assert first == second
    assert set(first["outputs"]) == {"eigenvalues.csv", "mean.hsg", "eigenfunctions.hsg"}


def test_pve_reports_selection(tmp_path, capsys):
    data = tmp_path / "s.hsg"
    make_dataset(data, n=120)
    out = tmp_path / "o"
    rc = main([
        "pve", "--data", str(data), "--degree", "2", "--knots", "2",
        "--tau", "0.95", "--out", str(out),
    ])
    assert rc == 0
    assert "pve: m=2" in capsys.readouterr().out
    header, rows = read_table(out / "pve.csv")
    assert header == ["component", "eigenvalue", "cumulative_fraction"]
    assert float(rows[1][2]) > 0.95


def test_regress_matches_library(tmp_path):
    data = tmp_path / "s.hsg"
    space, _, sample, x, y = make_dataset(data, n=80)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    out = tmp_path / "o"
    rc = main([
        "regress", "--data", str(data), "--degree", "2", "--knots", "2",
        "--table", str(table), "--response", "y", "--m", "2",
        "--out", str(out),
    ])
    assert rc == 0
    model = fit_subspace_pca(space, bspline_tensor_basis(space, 2, 2), sample)
    scores = component_scores(model)[:, :2]
    fit = fit_pcr(RegressionDesign(y=y, x=x, scores=scores))
    header, rows = read_table(out / "coefficients.csv")
    assert header == ["term", "estimate", "lower", "upper", "se"]
    assert [r[0] for r in rows] == ["intercept", "x1", "x2", "z1", "z2"]
    np.testing.assert_array_equal([float(r[1]) for r in rows], fit.theta)
    for row in rows:
        assert float(row[2]) < float(row[1]) < float(row[3])


def test_bootstrap_bytes_stable_across_threads(tmp_path):
    data = tmp_path / "s.hsg"
    make_dataset(data, n=40)
    outs = []
    for tag, threads in (("a", "1"), ("b", "3")):
        out = tmp_path / tag
        rc = main([
            "bootstrap", "--data", str(data), "--degree", "2", "--knots", "2",
            "--target", "eigenvalues", "--reps", "12", "--seed", "5",
            "--threads", threads, "--out", str(out),
        ])
        assert rc == 0
        outs.append((out / "eigenvalues.csv").read_bytes())
    assert outs[0] == outs[1]
    out = tmp_path / "c"
    rc = main([
        "bootstrap", "--data", str(data), "--degree", "2", "--knots", "2",
        "--target", "eigenvalues", "--reps", "12", "--seed", "6",
        "--threads", "1", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "eigenvalues.csv").read_bytes() != outs[0]


def test_bootstrap_coefficients_need_table(tmp_path, capsys):
    data = tmp_path / "s.hsg"
    make_dataset(data, n=30)
    rc = main([
        "bootstrap", "--data", str(data), "--degree", "2", "--knots", "2",
        "--reps", "4", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "--table" in capsys.readouterr().err


def test_simulate_config_override(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "n": 25,
        "reps": 3,
        "dims": [8, 9],
        "lambdas": [3.0, 1.0],
        "gamma0": [1.5, -1.0],
        "beta0": [1.0],
        "degree": 2,
        "knots": 2,
        "seed": 3,
    }))
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    header, rows = read_table(out / "metrics.csv")
    assert header == ["parameter", "truth", "mse", "coverage", "covered_reps"]
    assert [r[0] for r in rows] == ["lambda1", "lambda2", "intercept", "x1", "z1", "z2"]
    _, mhat_rows = read_table(out / "mhat.csv")
    assert sum(int(r[1]) for r in mhat_rows) == 3
    manifest = read_manifest(out / "manifest.json")
    assert manifest["config"]["n"] == 25 and manifest["seed"] == 3


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"n": 10, "budget": 4}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("dims", 20), ("reps", "3"), ("noise_sd", None), ("n", "abc")],
)
def test_simulate_rejects_wrongly_typed_config_value(tmp_path, capsys, key, value):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err


def test_simulate_setting_that_fails_every_replicate_exits_2(tmp_path, capsys):
    # three blocks cannot cover seven coefficients in any replicate, so the
    # study stops at the first one with a usage error
    rc = main([
        "simulate", "--family", "quadratic_gauss3d", "--n", "100", "--reps", "4",
        "--inference", "jackknife", "--blocks", "3", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "jackknife needs more blocks than coefficients + 1" in err
    assert "replicates failed" not in err


def test_reproduce_eigen_table_smoke(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "reproduce", "--table", "5", "--reps", "2", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_table(out / "table5.csv")
    assert header == ["n", "lambda1_mse", "lambda2_mse", "mhat_mean"]
    assert [int(r[0]) for r in rows] == [100, 500, 2000]
    for row in rows:
        assert float(row[1]) >= 0 and float(row[2]) >= 0
        assert 1.0 <= float(row[3]) <= 2.0


def test_diagnose_auto_knots_refines_until_accept(tmp_path):
    # six bump components overwhelm a one-knot spline basis; refinement
    # projects onto nested richer spaces, so the residual can only shrink
    space = AmbientSpace.unit_domain((20, 24))
    fam = make_family(space, "synthetic2d", 6)
    rng = replicate_rng(9402, 0)
    sample = kl_sample(fam, np.array([3.5, 3.0, 2.5, 2.0, 1.5, 1.0]), 80, rng)
    data = tmp_path / "s.hsg"
    write_grid(data, sample.reshape(80, 20, 24))
    out = tmp_path / "o"
    rc = main([
        "diagnose", "--data", str(data), "--degree", "3", "--knots", "1",
        "--auto-knots", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_table(out / "diagnostic.csv")
    assert header[:4] == ["step", "knots", "rank", "delta_hat"]
    assert len(rows) >= 2
    deltas = [float(r[3]) for r in rows]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert [r[7] for r in rows[:-1]] == ["True"] * (len(rows) - 1)
    assert rows[-1][7] == "False"
    assert rows[0][1] == "1,1" and rows[1][1] == "3,3"


@pytest.mark.parametrize(
    "drop_tol, two_arm",
    [
        pytest.param("1e-10", False, id="1e-10"),
        pytest.param("1e-2", False, id="1e-2"),
        pytest.param("1e-10", True, id="1e-10-treatment"),
    ],
)
def test_point_estimates_agree_across_commands(tmp_path, drop_tol, two_arm):
    # regress, bootstrap and jackknife fit once at the given --drop-tol and
    # compute the point-estimate scores the same way, so their estimate
    # columns must be byte-identical, for one arm and for two
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data, n=60)
    table = tmp_path / "d.csv"
    common = [
        "--data", str(data), "--degree", "2", "--knots", "2",
        "--drop-tol", drop_tol, "--table", str(table), "--response", "y",
        "--m", "2",
    ]
    if two_arm:
        rows = [[y[i], x[i, 0], x[i, 1], i % 2] for i in range(len(y))]
        write_table(table, ["y", "x1", "x2", "a"], rows)
        common += ["--treatment", "a"]
    else:
        write_design(table, x, y)
    estimates = []
    for command, extra in (
        ("regress", []),
        ("bootstrap", ["--reps", "4", "--seed", "1"]),
        ("jackknife", []),
    ):
        out = tmp_path / command
        assert main([command, *common, *extra, "--out", str(out)]) == 0
        _, rows = read_table(out / "coefficients.csv")
        estimates.append([row[1] for row in rows])
    assert len(estimates[0]) == (10 if two_arm else 5)
    assert estimates[0] == estimates[1] == estimates[2]


def test_diagnose_rank_follows_drop_tol(tmp_path, capsys):
    data = tmp_path / "s.hsg"
    make_dataset(data)
    basis = ["--data", str(data), "--degree", "2", "--knots", "2"]
    ranks = {}
    for tol in ("1e-10", "1e-2"):
        rc = main(["fit", *basis, "--drop-tol", tol, "--out", str(tmp_path / "f")])
        assert rc == 0
        fit_rank = int(capsys.readouterr().out.split("basis rank=")[1].split(",")[0])
        out = tmp_path / "d"
        rc = main(["diagnose", *basis, "--drop-tol", tol, "--out", str(out)])
        assert rc == 0
        _, rows = read_table(out / "diagnostic.csv")
        assert int(rows[0][2]) == fit_rank
        ranks[tol] = fit_rank
    assert ranks["1e-2"] < ranks["1e-10"]


def test_warning_prints_as_one_line(tmp_path, capsys):
    data = tmp_path / "s.hsg"
    make_dataset(data)
    keep = np.zeros(DIMS)
    keep[: DIMS[0] // 2] = 1.0
    write_grid(tmp_path / "mask.hsg", keep)
    rc = main([
        "fit", "--data", str(data), "--degree", "2", "--knots", "2",
        "--mask", str(tmp_path / "mask.hsg"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert err == "warning: dropped 5 basis row(s) with no support on the domain\n"


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


def _cli_outputs(argv, out, blas_threads=None) -> dict:
    """Run the CLI in a fresh interpreter; output bytes by file, manifest aside.

    BLAS reads its thread count once at import, so each setting needs its
    own process. ``blas_threads=None`` leaves the BLAS default.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env.pop("GRIDPCR_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridpcr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridpcr.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


def test_outputs_identical_across_threads_with_default_blas(tmp_path):
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data, n=40)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    two_arm = tmp_path / "a.csv"
    rows = [[y[i], x[i, 0], x[i, 1], i % 2] for i in range(len(y))]
    write_table(two_arm, ["y", "x1", "x2", "a"], rows)
    basis = ["--data", str(data), "--degree", "2", "--knots", "2"]
    arms = [*basis, "--table", str(two_arm), "--response", "y",
            "--treatment", "a", "--m", "2"]
    commands = {
        "fit": ["fit", *basis],
        "bootstrap": ["bootstrap", *basis, "--table", str(table), "--response", "y",
                      "--covariates", "x1,x2", "--reps", "20", "--seed", "5"],
        "jackknife": ["jackknife", *basis, "--table", str(table), "--response", "y",
                      "--covariates", "x1,x2"],
        "regress-two-arm": ["regress", *arms],
        "simulate": ["simulate", "--n", "100", "--reps", "3", "--seed", "3"],
    }
    for name, argv in commands.items():
        one = _cli_outputs([*argv, "--threads", "1"], tmp_path / f"{name}-1")
        two = _cli_outputs([*argv, "--threads", "2"], tmp_path / f"{name}-2")
        assert one and one == two, name


def test_replicate_outputs_independent_of_blas_threads(tmp_path):
    argv = ["simulate", "--n", "100", "--reps", "2", "--inference", "bootstrap",
            "--boot-reps", "10", "--seed", "3", "--threads", "2"]
    one = _cli_outputs(argv, tmp_path / "blas-1", blas_threads=1)
    two = _cli_outputs(argv, tmp_path / "blas-2", blas_threads=2)
    assert one["metrics.csv"] == two["metrics.csv"]
