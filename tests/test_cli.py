"""End-to-end command-line runs: exit codes, outputs, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

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
from gridpcr.cli import build_parser, main
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


@pytest.mark.parametrize(
    "entry",
    ["regress", "run_replicate", "bootstrap_theta", "plugin_cov", "coefficient_element"],
)
def test_every_entry_point_checks_the_score_count_alike(tmp_path, capsys, entry):
    # The sample has two components, and each entry point is asked for three.
    message = "score count m=3 outside the retained range 1..2"
    data = tmp_path / "s.hsg"
    space, _, sample, x, y = make_dataset(data)
    if entry == "regress":
        table = tmp_path / "d.csv"
        write_design(table, x, y)
        rc = main([
            "regress", "--data", str(data), "--degree", "2", "--knots", "2",
            "--table", str(table), "--response", "y", "--m", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"
        return
    if entry == "run_replicate":
        config = gridpcr.ScenarioConfig(
            family="synthetic2d", dims=DIMS, lambdas=LAMS, alpha0=1.0,
            beta0=(1.0,), gamma0=(1.5, -1.0), n=50,
        )
        options = gridpcr.PipelineOptions(degree=2, interior_knots=2, m_override=3)
        with pytest.raises(gridpcr.ConformanceError) as excinfo:
            gridpcr.run_replicate(config, options, 0)
        assert type(excinfo.value) is gridpcr.ConformanceError
        assert str(excinfo.value) == message
        return
    basis = bspline_tensor_basis(space, 2, 2)
    model = fit_subspace_pca(space, basis, sample)
    design = RegressionDesign(y=y, x=x, scores=np.column_stack([component_scores(model), y]))
    calls = {
        "bootstrap_theta": lambda: gridpcr.bootstrap_theta(
            model, design, gridpcr.BootstrapSpec(b_reps=4)
        ),
        "plugin_cov": lambda: gridpcr.plugin_cov(fit_pcr(design), model, design),
        "coefficient_element": lambda: gridpcr.coefficient_element(
            fit_pcr(design), model, space, basis
        ),
    }
    with pytest.raises(gridpcr.ConformanceError) as excinfo:
        calls[entry]()
    assert str(excinfo.value) == message


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
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("level", ["0", "2"])
def test_regress_level_outside_unit_interval_exits_2(tmp_path, capsys, level):
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    out = tmp_path / "o"
    rc = main([
        "regress", "--data", str(data), "--degree", "2", "--knots", "2",
        "--table", str(table), "--response", "y", "--level", level,
        "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: level must lie in (0, 1), got {float(level)}\n"
    )
    assert not (out / "coefficients.csv").exists()


@pytest.mark.parametrize("command", ["regress", "bootstrap", "jackknife"])
def test_level_is_checked_before_the_fit(tmp_path, capsys, monkeypatch, command):
    def no_fit(*args, **kwargs):
        raise AssertionError("the sample was fitted before --level was checked")

    monkeypatch.setattr(gridpcr.cli, "fit_subspace_pca", no_fit)
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    rc = main([
        command, "--data", str(data), "--table", str(table), "--response", "y",
        "--level", "0", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: level must lie in (0, 1), got 0.0\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alpha", "0.5"], "alpha must lie in (0, 0.05], got 0.5"),
        (["--drop-tol", "2"], "drop_tol must lie in (0, 1), got 2.0"),
    ],
)
def test_diagnose_settings_are_checked_before_the_basis(
    tmp_path, capsys, monkeypatch, flags, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("the basis was built or a row read before a setting was checked")

    monkeypatch.setattr(gridpcr.cli, "_build_basis", no_work)
    monkeypatch.setattr(gridpcr.cli, "sample_mean", no_work)
    data = tmp_path / "s.hsg"
    make_dataset(data)
    rc = main(["diagnose", "--data", str(data), *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command",
    ["fit", "pve", "regress", "bootstrap", "bootstrap-eigenvalues", "jackknife"],
)
def test_drop_tol_is_checked_before_the_basis(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("the basis was built or --data opened before --drop-tol was checked")

    monkeypatch.setattr(gridpcr.cli, "_build_basis", no_work)
    monkeypatch.setattr(gridpcr.cli, "GridRows", no_work)
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    argv = {
        "fit": ["fit"],
        "pve": ["pve"],
        "bootstrap-eigenvalues": ["bootstrap", "--target", "eigenvalues"],
    }.get(command, [command, "--table", str(table), "--response", "y"])
    rc = main([*argv, "--data", str(data), "--drop-tol", "2", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: drop_tol must lie in (0, 1), got 2.0\n"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("row", [0, 5])
def test_fit_on_an_infinite_value_prints_only_its_error(
    tmp_path, capsys, monkeypatch, row, workers
):
    # The pass computes from the bad row before the finiteness rule rejects
    # it; numpy's invalid-value warnings would say nothing the error does not.
    sample = replicate_rng(9411, row).standard_normal((30, 12, 10))
    sample[row, 3, 4] = np.inf
    data = tmp_path / "s.hsg"
    header = b"HSG1" + bytes([1, 3]) + np.asarray(sample.shape, dtype="<u8").tobytes()
    data.write_bytes(header + sample.astype("<f8").tobytes())  # write_grid refuses inf
    monkeypatch.setattr(gridpcr.space, "ROW_CHUNK_VALUES", 4 * 12 * 10)
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: workers)
    rc = main(["fit", "--data", str(data), "--degree", "2", "--knots", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: sample contains non-finite values\n"


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("pve", ["--tau", "1.5"], "tau must lie in (0, 1), got 1.5"),
        ("regress", ["--tau", "1.5"], "tau must lie in (0, 1), got 1.5"),
        ("bootstrap", ["--tau", "0"], "tau must lie in (0, 1), got 0.0"),
        ("jackknife", ["--tau", "1"], "tau must lie in (0, 1), got 1.0"),
        ("regress", ["--m", "0"], "m=0 must be at least 1"),
        ("bootstrap", ["--m", "-1"], "m=-1 must be at least 1"),
        ("jackknife", ["--m", "0"], "m=0 must be at least 1"),
        ("jackknife", ["--blocks", "1"], "jackknife needs at least two blocks"),
        ("regress", ["--treatment", "a", "--blocks", "0"],
         "jackknife needs at least two blocks"),
        ("regress", ["--response", "nope"],
         "response column 'nope' not in ['y', 'x1', 'x2', 'a']"),
        ("bootstrap", ["--table", "{tmp}/missing.csv"],
         "[Errno 2] No such file or directory: '{tmp}/missing.csv'"),
        ("jackknife", ["--covariates", "x1,x3"],
         "column 'x3' not in header ['y', 'x1', 'x2', 'a']"),
        ("bootstrap", ["--table", "{tmp}/text.csv"],
         "column 'x1', row 3: 'n/a' is not numeric"),
        ("regress", ["--treatment", "x1"], "treatment column 'x1' must be binary"),
        ("jackknife", ["--table", "{tmp}/short.csv"],
         "table has 49 rows but the data file has 50"),
        ("jackknife", ["--m", "2", "--blocks", "3"],
         "jackknife needs more blocks than coefficients + 1 (r = 3, coefficients = 5)"),
        ("regress", ["--treatment", "a", "--m", "2", "--blocks", "4"],
         "jackknife needs more blocks than coefficients + 1 (r = 4, coefficients = 10)"),
        ("jackknife", ["--blocks", "30"],
         "jackknife with r = 30 blocks leaves fewer than two observations per "
         "block at n = 50"),
        ("jackknife", ["--m", "22"],
         "jackknife with r = 27 blocks leaves fewer than two observations per "
         "block at n = 50"),
        ("regress", ["--treatment", "a", "--m", "10"],
         "jackknife with r = 28 blocks leaves fewer than two observations per "
         "block at n = 50"),
    ],
)
def test_selection_is_checked_before_the_fit(
    tmp_path, capsys, monkeypatch, command, flags, message
):
    def no_fit(*args, **kwargs):
        raise AssertionError("the sample was fitted before a setting or the table was checked")

    monkeypatch.setattr(gridpcr.cli, "fit_subspace_pca", no_fit)
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data)
    rows = [[float(y[i]), float(x[i, 0]), float(x[i, 1]), i % 2] for i in range(len(y))]
    lines = ["y,x1,x2,a"] + [",".join(map(repr, row)) for row in rows]
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
    lines[3] = lines[3].replace(f",{rows[2][1]!r},", ",n/a,")
    (tmp_path / "text.csv").write_text("\n".join(lines) + "\n")
    argv = [command, "--data", str(data), "--out", str(tmp_path / "o")]
    if command != "pve":
        argv += ["--table", str(tmp_path / "d.csv"), "--response", "y",
                 "--covariates", "x1,x2"]
    rc = main(argv + [flag.format(tmp=tmp_path) for flag in flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"


def test_tau_is_not_checked_where_it_picks_nothing(tmp_path):
    # --m fixes the score count, and the eigenvalue bootstrap has none; a
    # one-arm regress has plug-in intervals and uses no --blocks.
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    design = ["--table", str(table), "--response", "y"]
    runs = [
        ["regress", *design, "--m", "2", "--blocks", "0"],
        ["bootstrap", "--target", "eigenvalues", "--reps", "4"],
    ]
    for i, argv in enumerate(runs):
        argv = [*argv, "--data", str(data), "--degree", "2", "--knots", "2",
                "--tau", "1.5", "--out", str(tmp_path / f"o{i}")]
        assert main(argv) == 0


def test_mask_and_data_rank_errors_keep_their_messages(tmp_path, capsys):
    data = tmp_path / "s.hsg"
    make_dataset(data, n=10)
    mask = tmp_path / "m.hsg"
    write_grid(mask, np.ones((3, 4)))
    argv = ["diagnose", "--data", str(data), "--mask", str(mask), "--out", str(tmp_path)]
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: mask shape (3, 4) does not match data grid (8, 9)\n"
    )
    write_grid(mask, np.ones(12))
    rc = main(["fit", "--data", str(mask), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: data file {str(mask)!r} holds a single grid; expected sample rows\n"
    )


def test_simulate_plugin_level_one_exits_2(tmp_path, capsys):
    rc = main([
        "simulate", "--n", "60", "--reps", "2", "--inference", "plugin",
        "--level", "1", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: level must lie in (0, 1), got 1.0\n"


def test_simulate_single_row_exits_2_before_any_replicate(
    tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(
        gridpcr.simulate, "run_replicate", lambda *a, **k: calls.append(a)
    )
    rc = main(["simulate", "--n", "1", "--reps", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: n must be at least 2 sample rows, got 1\n"
    assert not calls


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tau", "1.5"], "tau must lie in (0, 1), got 1.5"),
        (["--inference", "plugin", "--level", "1.5"],
         "level must lie in (0, 1), got 1.5"),
        (["--inference", "jackknife", "--level", "0"],
         "level must lie in (0, 1), got 0.0"),
        (["--inference", "bootstrap", "--level", "1"],
         "level must lie in (0, 1), got 1.0"),
        (["--inference", "bootstrap", "--boot-reps", "1"],
         "bootstrap needs at least two replicates"),
        (["--inference", "jackknife", "--blocks", "1"],
         "jackknife needs at least two blocks"),
    ],
)
def test_monte_carlo_settings_are_checked_before_the_study(
    tmp_path, capsys, monkeypatch, flags, message
):
    def no_study(*args, **kwargs):
        raise AssertionError("the study was built before its settings were checked")

    monkeypatch.setattr(gridpcr.simulate.Study, "build", no_study)
    argv = ["simulate", "--n", "60", "--reps", "2", *flags]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_thread_counts_below_one_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def no_study(*args, **kwargs):
        raise AssertionError("the study was built with a thread count below 1")

    monkeypatch.setattr(gridpcr.simulate.Study, "build", no_study)
    argv = ["simulate", "--n", "60", "--reps", "2"]
    out = tmp_path / "o"
    assert main([*argv, "--threads", "-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --threads must be at least 1, got -3\n"
    monkeypatch.setenv("GRIDPCR_THREADS", "0")
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: GRIDPCR_THREADS must be at least 1, got '0'\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["fit", "diagnose", "regress"])
def test_grid_commands_stream_the_sample(tmp_path, monkeypatch, command):
    # One grid row per chunk, so the 40-row sample spans 40 chunks. A
    # command holds a few rows at a time: never the sample, and for fit
    # never the J eigenfunctions either. Sixteen usable CPUs would be
    # enough workers to hold more, but a pass holds at most
    # space.PASS_BUFFERS chunk buffers.
    space = AmbientSpace.unit_domain((40, 36, 30))
    n = 40
    rng = replicate_rng(9410, 0)
    xi = rng.standard_normal((n, 2)) * np.sqrt(LAMS)
    sample = xi @ make_family(space, "quadratic_gauss3d", 2).phis
    sample += 0.1 * rng.standard_normal(sample.shape)
    data = tmp_path / "s.hsg"
    write_grid(data, sample.reshape(n, *space.dims))
    x = rng.standard_normal((n, 2))
    write_design(tmp_path / "d.csv", x, x.sum(axis=1) + xi @ [1.5, -1.0])
    sample_bytes = sample.nbytes
    del sample
    argv = [command, "--data", str(data), "--degree", "2", "--knots", "2",
            "--out", str(tmp_path / "o")]
    if command == "regress":
        argv += ["--table", str(tmp_path / "d.csv"), "--response", "y", "--m", "2"]
    monkeypatch.setattr(gridpcr.space, "ROW_CHUNK_VALUES", space.size)
    monkeypatch.setattr(gridpcr.util, "usable_cpus", lambda: 16)
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < sample_bytes / 4
    if command == "fit":
        j = len(read_table(tmp_path / "o" / "eigenvalues.csv")[1])
        assert j == n - 1
        assert peak < j * space.size * 8 / 2


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


@pytest.mark.parametrize(
    "command",
    ["fit", "pve", "diagnose", "regress", "bootstrap-coefficients",
     "bootstrap-eigenvalues", "jackknife", "simulate", "reproduce"],
)
def test_manifest_lists_exactly_the_outputs(tmp_path, command):
    data = tmp_path / "s.hsg"
    _, _, _, x, y = make_dataset(data)
    table = tmp_path / "d.csv"
    write_design(table, x, y)
    basis = ["--data", str(data), "--degree", "2", "--knots", "2"]
    design = ["--table", str(table), "--response", "y"]
    argv, seed = {
        "fit": (["fit", *basis], None),
        "pve": (["pve", *basis], None),
        "diagnose": (["diagnose", *basis], None),
        "regress": (["regress", *basis, *design], None),
        "bootstrap-coefficients": (
            ["bootstrap", *basis, *design, "--reps", "4", "--seed", "5"], 5
        ),
        "bootstrap-eigenvalues": (
            ["bootstrap", *basis, "--target", "eigenvalues", "--reps", "4",
             "--seed", "6"], 6
        ),
        "jackknife": (["jackknife", *basis, *design], None),
        "simulate": (["simulate", "--n", "60", "--reps", "2", "--seed", "3"], 3),
        "reproduce": (["reproduce", "--table", "5", "--reps", "2", "--seed", "1"], 1),
    }[command]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 0
    manifest = read_manifest(out / "manifest.json")
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert written and set(manifest["outputs"]) == written
    for name, digest in manifest["outputs"].items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert manifest["command"] == argv[0]
    assert manifest["seed"] == seed


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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("inference", ["none", "plugin", "bootstrap"])
def test_simulate_rejects_blocks_outside_the_jackknife(
    tmp_path, capsys, monkeypatch, source, inference
):
    def no_study(*args, **kwargs):
        raise AssertionError("the study was built before --blocks was checked")

    monkeypatch.setattr(gridpcr.simulate.Study, "build", no_study)
    argv = ["--inference", inference, "--blocks", "20"]
    if source == "config":
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"inference": inference, "blocks": 20}))
        argv = ["--config", str(cfg)]
    out = tmp_path / "o"
    assert main(["simulate", "--n", "60", "--reps", "2", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --blocks applies to --inference jackknife\n"
    assert not (out / "manifest.json").exists()


def test_simulate_config_rejects_an_unknown_inference(tmp_path, capsys, monkeypatch):
    # --inference has argparse choices; a --config value is checked where
    # its interval spec is built, before the study.
    def no_study(*args, **kwargs):
        raise AssertionError("the study was built before its settings were checked")

    monkeypatch.setattr(gridpcr.simulate.Study, "build", no_study)
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"inference": "delta", "reps": 2}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: inference must be plugin, bootstrap, jackknife, or None, got 'delta'\n"
    )


def test_simulate_config_reports_an_unknown_inference_before_its_blocks(
    tmp_path, capsys, monkeypatch
):
    # The --blocks rule reads the method, so an unknown method is reported
    # first, as it is without --blocks.
    def no_study(*args, **kwargs):
        raise AssertionError("the study was built before its settings were checked")

    monkeypatch.setattr(gridpcr.simulate.Study, "build", no_study)
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"inference": "delta", "blocks": 20, "reps": 2}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: inference must be plugin, bootstrap, jackknife, or None, got 'delta'\n"
    )


def test_a_cached_parser_keeps_no_config_between_commands(tmp_path):
    # The parser is built once per process; a --config run must leave
    # nothing behind for the next command to read.
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"n": 25, "reps": 2, "seed": 3, "corr": 0.5}))
    flags = [
        "simulate", "--dims", "8x9", "--lambdas", "3,1", "--gamma0", "1.5,-1",
        "--beta0", "1", "--degree", "2", "--knots", "2", "--n", "20", "--reps", "2",
        "--out", str(tmp_path / "o"),
    ]
    assert main([*flags[:-2], "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert main(flags) == 0
    after = read_manifest(tmp_path / "o" / "manifest.json")["config"]
    assert build_parser() is build_parser()
    build_parser.cache_clear()
    assert main(flags) == 0
    alone = read_manifest(tmp_path / "o" / "manifest.json")["config"]
    assert after == alone
    assert (alone["n"], alone["seed"], alone["corr"], alone["config"]) == (20, 0, 0.0, None)


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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("setting, text", [
    ("noise_sd", "nan"), ("lambdas", "nan,1"), ("gamma0", "1,1,inf,1,1,1"), ("alpha0", "nan"),
])
def test_simulate_nonfinite_setting_exits_2_before_any_replicate(
    tmp_path, capsys, monkeypatch, source, setting, text
):
    calls = []
    monkeypatch.setattr(
        gridpcr.simulate, "run_replicate", lambda *a, **k: calls.append(a)
    )
    settings = {setting: text}
    if setting == "lambdas":
        settings["gamma0"] = "1,1"
    if source == "flag":
        argv = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    else:
        cfg = tmp_path / "study.json"
        values = {
            key: [float(v) for v in value.split(",")] if "," in value else float(value)
            for key, value in settings.items()
        }
        cfg.write_text(json.dumps(values))  # NaN and Infinity, as json writes them
        argv = ["--config", str(cfg)]
    out = tmp_path / "o"
    rc = main(["simulate", "--family", "synthetic2d", "--reps", "2", *argv, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {setting} must be finite, got ")
    assert not calls
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_constant_sample_fits_no_components(tmp_path, capsys, masked):
    data = tmp_path / "constant.hsg"
    write_grid(data, np.ones((30, 12, 10)))
    flags = ["--data", str(data), "--degree", "2", "--knots", "2"]
    if masked:
        keep = np.ones((12, 10))
        keep[:3, :4] = 0.0
        write_grid(tmp_path / "mask.hsg", keep)
        flags += ["--mask", str(tmp_path / "mask.hsg")]
    assert main(["fit", *flags, "--out", str(tmp_path / "fit")]) == 0
    assert "components=0, total variance=0.0\n" in capsys.readouterr().out
    assert not (tmp_path / "fit" / "eigenfunctions.hsg").exists()
    _, rows = read_table(tmp_path / "fit" / "eigenvalues.csv")
    assert rows == []
    out = tmp_path / "boot"
    rc = main(["bootstrap", *flags, "--target", "eigenvalues", "--reps", "20", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: point estimate retains no components\n"
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize(
    "table, n, corr, flags, terms",
    [
        (2, 500, "0.5", ["--family", "synthetic2d", "--corr", "0.5"],
         ["intercept", "x1", "x2", "x3", "x4"]),
        (4, 100, "0.0", ["--family", "quadratic_gauss3d"],
         ["intercept", "x1", "x2", "x3", "x4", "z1", "z2"]),
    ],
)
def test_reproduce_rows_are_the_simulate_rows_of_the_same_study(
    tmp_path, table, n, corr, flags, terms
):
    # Both commands build every study through simulate.study_config, so a
    # table's rows at one n and corr are the simulate rows of that study.
    reps = ["--reps", "2", "--boot-reps", "20"]
    argv = ["reproduce", "--table", str(table), *reps, "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    argv = ["simulate", *flags, "--n", str(n), *reps, "--inference", "bootstrap",
            "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    _, rows = read_table(tmp_path / "r" / f"table{table}.csv")
    _, metrics = read_table(tmp_path / "s" / "metrics.csv")
    kept = [row[2:] for row in rows if row[:2] == [str(n), corr]]
    assert [row[0] for row in kept] == terms
    assert kept == [row[:4] for row in metrics if row[0] in terms]


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


def test_diagnose_auto_knots_computes_the_mean_once(tmp_path, monkeypatch):
    # Three steps share one mean; each step's report is the one it gets
    # when it computes the mean itself.
    space = AmbientSpace.unit_domain((20, 24))
    fam = make_family(space, "synthetic2d", 6)
    sample = kl_sample(
        fam, np.array([3.5, 3.0, 2.5, 2.0, 1.5, 1.0]), 80, replicate_rng(9402, 0)
    )
    data = tmp_path / "s.hsg"
    write_grid(data, sample.reshape(80, 20, 24))
    means, steps = [], []
    mean_of, diagnose = gridpcr.space.sample_mean, gridpcr.decomp.diagnose_projection

    def counted_mean(*args):
        means.append(1)
        return mean_of(*args)

    def recorded(space, basis, sample, *args, **kwargs):
        steps.append((basis, diagnose(space, basis, sample, *args, **kwargs)))
        return steps[-1][1]

    for module in (gridpcr.cli, gridpcr.decomp):
        monkeypatch.setattr(module, "sample_mean", counted_mean)
    monkeypatch.setattr(gridpcr.cli, "diagnose_projection", recorded)
    rc = main([
        "diagnose", "--data", str(data), "--degree", "3", "--knots", "0",
        "--auto-knots", "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    assert len(steps) == 3 and len(means) == 1
    for basis, report in steps:
        assert diagnose(space, basis, sample) == report


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


def test_outputs_identical_under_any_blas_and_pool_threads(tmp_path):
    # 48x48x24 grid values are three row chunks of 18 rows at n = 40, so
    # every pass over the sample and the sign pass run as several tasks.
    space = AmbientSpace.unit_domain((48, 48, 24))
    fam = make_family(space, "quadratic_gauss3d", 2)
    rng = replicate_rng(9401, 0)
    n = 40
    xi = rng.standard_normal((n, 2)) * np.sqrt(LAMS)
    sample = xi @ fam.phis + 0.1 * rng.standard_normal((n, space.size))
    data = tmp_path / "s.hsg"
    write_grid(data, sample.reshape(n, *space.dims))
    x = rng.standard_normal((n, 2))
    table = tmp_path / "d.csv"
    write_design(table, x, 1.0 + x @ [1.0, -0.5] + xi @ [1.5, -1.0] + rng.standard_normal(n))
    del sample
    basis = ["--data", str(data), "--degree", "3", "--knots", "3"]
    design = ["--table", str(table), "--response", "y"]
    commands = {
        "fit": ["fit", *basis],
        "diagnose": ["diagnose", *basis],
        "regress": ["regress", *basis, *design],
        "bootstrap": ["bootstrap", *basis, *design, "--reps", "20", "--seed", "5"],
        "jackknife": ["jackknife", *basis, *design],
        "simulate": ["simulate", "--n", "100", "--reps", "3", "--inference", "bootstrap",
                     "--boot-reps", "10", "--seed", "3"],
    }
    for name, argv in commands.items():
        digests = set()
        for blas in (1, 2, None):
            for threads in ("1", "2"):
                out = tmp_path / f"{name}-{blas}-{threads}"
                files = _cli_outputs([*argv, "--threads", threads], out, blas)
                digests.add(tuple(
                    (f, hashlib.sha256(b).hexdigest()) for f, b in sorted(files.items())
                ))
                for path in out.iterdir():
                    path.unlink()
        assert len(digests) == 1, name
