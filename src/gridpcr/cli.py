"""Command-line interface.

Subcommands: fit, diagnose, pve, regress, bootstrap, jackknife, simulate,
reproduce. ``main`` creates --out and runs the command, which writes its
output files there and returns its seed and their names; ``main`` then writes
the JSON manifest (config echo, seed, version, timing, output checksums). A
failing command leaves no manifest. Every command runs numpy's bundled
OpenBLAS on one thread, so identical flags and seeds produce byte-identical
outputs for any --threads, GRIDPCR_THREADS and OPENBLAS_NUM_THREADS on the
same machine and BLAS build; only the manifest's timing field varies
between runs. Another BLAS (MKL, Accelerate, a system OpenBLAS) is not
pinned, and needs its own thread variable set to 1 for the same promise.
The passes over the grid (the mean, projection and residual passes of fit
and diagnose and the eigenfunction sign pass) use the usable CPUs, within
a fixed buffer budget, with the same bytes for any worker count; --threads
sizes the replicate pools of bootstrap, jackknife and the Monte Carlo
studies. simulate and reproduce only read and check their flags: each
study, its family defaults and the tables reproduce reruns are defined in
``simulate`` (``study_config``, ``FAMILY_DEFAULTS``, ``TABLES``).

Exit codes: 0 success, 2 input/usage/format problems, 3 numerical or
assumption failures (the message names the violated assumption). Errors and
library warnings go to stderr as one ``error: <message>`` or
``warning: <message>`` line each.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
import warnings

import numpy as np

from .bases import (
    bspline_tensor_basis,
    mask_space,
    read_triangulation,
    refine_knots,
    tri_pl_basis,
)
from .decomp import (
    check_alpha,
    check_score_count,
    check_tau,
    component_scores,
    diagnose_projection,
    eigenfunction_chunks,
    eigenvalue_se,
    fit_subspace_pca,
    select_pve,
)
from .errors import (
    ConformanceError,
    ConfigurationError,
    FormatError,
    GridPcrError,
)
from .regression import RegressionDesign, coefficient_names, fit_pcr
from .resampling import (
    BootstrapSpec,
    JackknifeSpec,
    PluginSpec,
    bootstrap_eigenvalues,
    check_blocks,
    coefficient_intervals,
    jackknife_blocks,
)
from .simulate import (
    FAMILY_DEFAULTS,
    SCALES,
    STUDY_SIZES,
    TABLES,
    parse_knots,
    run_monte_carlo,
    study_config,
)
from .space import AmbientSpace, as_sample, check_drop_tol, sample_mean
from .storage import (
    GridRows,
    file_sha256,
    make_manifest,
    numeric_columns,
    read_config,
    read_grid,
    read_table,
    write_grid,
    write_grid_chunks,
    write_manifest,
    write_table,
)
from .util import _BLAS_PIN, default_threads

MAX_KNOT_REFINEMENTS = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            started = time.perf_counter()
            _threads(args)
            os.makedirs(args.out, exist_ok=True)
            with _BLAS_PIN:
                seed, names = args.func(args)
            checks = {name: file_sha256(_path(args, name)) for name in names}
            config = {k: v for k, v in vars(args).items() if k != "func"}
            manifest = make_manifest(
                args.command, config, seed, checks, time.perf_counter() - started
            )
            write_manifest(_path(args, "manifest.json"), manifest)
        except (FormatError, ConformanceError, ConfigurationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except GridPcrError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a library warning as one ``warning: <message>`` line."""
    print(f"warning: {message}", file=sys.stderr)


def _path(args, name: str) -> str:
    return os.path.join(args.out, name)


# Built on the first call and reused: parse_args keeps no state between
# calls, and one build costs a few ms, a large share of a short command.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridpcr",
        description="Subspace PCA and principal-component regression on grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit principal components of a grid sample")
    _data_flags(p)
    _basis_flags(p)
    _out_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="test the basis for projection adequacy")
    _data_flags(p)
    _basis_flags(p)
    _out_flags(p)
    p.add_argument("--alpha", type=float, default=0.05, help="test level in (0, 0.05]")
    p.add_argument(
        "--auto-knots",
        action="store_true",
        help="refine interior knots (k -> 2k+1, at most "
        f"{MAX_KNOT_REFINEMENTS} times) until the test stops rejecting",
    )
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("pve", help="select components by explained variance")
    _data_flags(p)
    _basis_flags(p)
    _out_flags(p)
    p.add_argument("--tau", type=float, default=0.95, help="explained-variance target")
    p.set_defaults(func=cmd_pve)

    for name, help_text in (
        ("regress", "regress a response on covariates and component scores"),
        ("bootstrap", "bootstrap the full estimation pipeline"),
        ("jackknife", "block-jackknife the full estimation pipeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        _data_flags(p)
        _basis_flags(p)
        _out_flags(p)
        _design_flags(p, required=name != "bootstrap")
        p.add_argument("--level", type=float, default=0.95, help="interval level")
        if name == "regress":
            p.add_argument(
                "--blocks",
                type=int,
                default=None,
                help="jackknife blocks for two-arm intervals (default: fewest allowed)",
            )
            p.set_defaults(func=cmd_regress)
        elif name == "bootstrap":
            p.add_argument("--reps", type=int, default=300, help="bootstrap replicates")
            p.add_argument(
                "--kind",
                choices=("wild", "nonparametric"),
                default="wild",
                help="weight scheme",
            )
            p.add_argument("--seed", type=int, default=0)
            p.add_argument(
                "--target",
                choices=("coefficients", "eigenvalues"),
                default="coefficients",
            )
            p.set_defaults(func=cmd_bootstrap)
        else:
            p.add_argument(
                "--blocks",
                type=int,
                default=None,
                help="number of jackknife blocks (default: fewest allowed)",
            )
            p.set_defaults(func=cmd_jackknife)

    p = sub.add_parser("simulate", help="run a Monte Carlo study of the pipeline")
    _out_flags(p)
    p.add_argument("--config", default=None, help="JSON file overriding the flags")
    p.add_argument("--family", choices=FAMILY_DEFAULTS, default="synthetic2d")
    p.add_argument("--dims", default=None, help="grid extents, e.g. 20x24")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--corr", type=float, default=0.0)
    p.add_argument("--noise-sd", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambdas", default=None, help="component variances, e.g. 3.5,3,2.5")
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--beta0", default="1,1,1,1")
    p.add_argument("--gamma0", default=None)
    p.add_argument("--tau", type=float, default=0.95)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--knots", default=None)
    p.add_argument(
        "--inference",
        choices=("none", "plugin", "bootstrap", "jackknife"),
        default="none",
    )
    p.add_argument("--boot-reps", type=int, default=300)
    p.add_argument("--kind", choices=("wild", "nonparametric"), default="wild")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--blocks", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="rerun one of the study tables")
    _out_flags(p)
    p.add_argument("--table", type=int, choices=TABLES, required=True)
    p.add_argument("--scale", choices=SCALES, default="desk")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--boot-reps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _data_flags(p):
    p.add_argument("--data", required=True, help="grid file stacking the sample rows")
    p.add_argument(
        "--spacing",
        default="unit",
        help="cell spacing: 'unit' (1/extent per axis), 'one', or comma floats",
    )
    p.add_argument("--mask", default=None, help="grid file; nonzero cells form the domain")


def _basis_flags(p):
    p.add_argument("--basis", choices=("bspline", "tri"), default="bspline")
    p.add_argument("--degree", type=int, default=3, help="B-spline degree per axis")
    p.add_argument(
        "--knots", default="7", help="interior knots per axis (int or comma list)"
    )
    p.add_argument("--mesh", default=None, help="mesh file for the tri basis")
    p.add_argument("--drop-tol", type=float, default=1e-10)


def _design_flags(p, required=True):
    p.add_argument("--table", required=required, help="CSV with the response and covariates")
    p.add_argument("--response", required=required, help="response column name")
    p.add_argument(
        "--covariates",
        default=None,
        help="comma-separated covariate columns (default: all other columns)",
    )
    p.add_argument("--treatment", default=None, help="binary treatment column name")
    p.add_argument("--m", type=int, default=None, help="score count (default: by --tau)")
    p.add_argument("--tau", type=float, default=0.95)


def _out_flags(p):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap for replicate loops (default: GRIDPCR_THREADS or 1)",
    )


def _threads(args) -> int:
    """The --threads worker cap, else GRIDPCR_THREADS, else 1; at least 1."""
    if args.threads is None:
        return default_threads()
    if args.threads < 1:
        raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
    return args.threads


def _parse_dims(text) -> tuple:
    """Grid extents from text such as 20x24 or 20,24, or from a list."""
    toks = text if isinstance(text, list) else text.lower().replace("x", ",").split(",")
    try:
        dims = tuple(int(tok) for tok in toks)
    except (TypeError, ValueError):
        raise ConfigurationError(f"cannot parse dims {text!r}") from None
    if not dims:
        raise ConfigurationError("dims must name at least one axis")
    return dims


def _parse_floats(text) -> tuple:
    """Floats from comma-separated text or from a list."""
    toks = text if isinstance(text, list) else str(text).split(",")
    try:
        return tuple(float(tok) for tok in toks if tok != "")
    except (TypeError, ValueError):
        raise ConfigurationError(f"cannot parse float list {text!r}") from None


@contextlib.contextmanager
def _load_space_sample(args):
    """The space of --data, --spacing and --mask, and --data open as rows.

    The sample is read a row chunk at a time by the fit or the diagnostic
    inside the block, so it is never held whole.
    """
    with GridRows(args.data) as sample:
        if len(sample.shape) < 2:
            raise FormatError(
                f"data file {args.data!r} holds a single grid; expected sample rows"
            )
        dims = sample.shape[1:]
        if args.spacing == "unit":
            space = AmbientSpace.unit_domain(dims)
        elif args.spacing == "one":
            space = AmbientSpace.regular(dims)
        else:
            space = AmbientSpace.regular(dims, _parse_floats(args.spacing))
        if args.mask is not None:
            mask = read_grid(args.mask)
            if mask.shape != dims:
                raise ConformanceError(
                    f"mask shape {mask.shape} does not match data grid {dims}"
                )
            space = mask_space(space, mask != 0)
        yield space, sample


def _basis_knots(args, space):
    """--knots per axis for the bspline basis; None for the mesh basis."""
    if args.basis != "bspline":
        return None
    return parse_knots(args.knots, len(space.dims))


def _build_basis(args, space, knots):
    if args.basis == "tri":
        if args.mesh is None:
            raise ConfigurationError("the tri basis needs --mesh")
        return tri_pl_basis(space, read_triangulation(args.mesh))
    return bspline_tensor_basis(space, args.degree, knots)


def _fit_model(args):
    """Fit the PCA of --data once, streaming the sample from the file.

    --drop-tol is checked before the file is opened.
    """
    check_drop_tol(args.drop_tol)
    with _load_space_sample(args) as (space, sample):
        basis = _build_basis(args, space, _basis_knots(args, space))
        return space, basis, fit_subspace_pca(space, basis, sample, args.drop_tol)


def cmd_fit(args):
    space, basis, model = _fit_model(args)
    ses = eigenvalue_se(model)
    cum = (
        np.cumsum(model.eigenvalues) / model.total_variance
        if model.total_variance > 0
        else np.zeros(model.n_components)
    )
    rows = [
        [j + 1, model.eigenvalues[j], ses[j], cum[j]]
        for j in range(model.n_components)
    ]
    header = ["component", "eigenvalue", "se", "cumulative_fraction"]
    write_table(_path(args, "eigenvalues.csv"), header, rows)
    write_grid(_path(args, "mean.hsg"), model.mean.reshape(space.dims))
    names = ["eigenvalues.csv", "mean.hsg"]
    if model.n_components:
        write_grid_chunks(
            _path(args, "eigenfunctions.hsg"),
            (model.n_components, *space.dims),
            eigenfunction_chunks(space, basis, model),
        )
        names.append("eigenfunctions.hsg")
    print(
        f"fit: n={model.n}, grid={'x'.join(map(str, space.dims))}, "
        f"basis rank={model.whitener.rank}, components={model.n_components}, "
        f"total variance={model.total_variance!r}"
    )
    return None, names


def cmd_diagnose(args):
    if args.auto_knots and args.basis != "bspline":
        raise ConfigurationError("--auto-knots applies to the bspline basis")
    check_alpha(args.alpha)
    check_drop_tol(args.drop_tol)
    rows = []
    with _load_space_sample(args) as (space, sample):
        knots = _basis_knots(args, space)
        basis = _build_basis(args, space, knots)
        # The mean does not depend on the basis: one read serves every step.
        mean = sample_mean(space, as_sample(space, sample))
        for step in range(MAX_KNOT_REFINEMENTS + 1):
            report = diagnose_projection(
                space, basis, sample, args.alpha, drop_tol=args.drop_tol, mean=mean
            )
            label = ",".join(map(str, knots)) if knots is not None else "mesh"
            rows.append(
                [
                    step,
                    label,
                    report.basis_rank,
                    report.delta_hat,
                    report.s2_hat,
                    report.t_stat,
                    report.critical,
                    report.reject,
                ]
            )
            print(
                f"diagnose[{step}]: knots={label} rank={report.basis_rank} "
                f"delta={report.delta_hat!r} t={report.t_stat!r} "
                f"{'REJECT' if report.reject else 'ok'}"
            )
            if not (args.auto_knots and report.reject):
                break
            knots = refine_knots(knots)
            basis = _build_basis(args, space, knots)
    write_table(
        _path(args, "diagnostic.csv"),
        ["step", "knots", "rank", "delta_hat", "s2_hat", "t_stat", "critical", "reject"],
        rows,
    )
    return None, ["diagnostic.csv"]


def cmd_pve(args):
    check_tau(args.tau)
    _, _, model = _fit_model(args)
    selection = select_pve(model, args.tau)
    rows = [
        [j + 1, model.eigenvalues[j], selection.cumulative[j]]
        for j in range(model.n_components)
    ]
    header = ["component", "eigenvalue", "cumulative_fraction"]
    write_table(_path(args, "pve.csv"), header, rows)
    print(f"pve: m={selection.m} at tau={selection.tau}")
    return None, ["pve.csv"]


def _check_selection(args) -> None:
    """Reject --m below 1, or --tau outside (0, 1) when it picks m, before the fit."""
    if args.m is None:
        check_tau(args.tau)
    elif args.m < 1:
        raise ConformanceError(f"m={args.m} must be at least 1")


def _read_design(args, n: int):
    """The response, covariates and treatment of --table, checked against n rows.

    Returns ``(y, x, treatment)``; the scores wait for the fit.
    """
    header, rows = read_table(args.table)
    if args.response not in header:
        raise FormatError(f"response column {args.response!r} not in {header}")
    if args.covariates is not None:
        names = [tok for tok in args.covariates.split(",") if tok]
    else:
        names = [h for h in header if h not in (args.response, args.treatment)]
    y = numeric_columns(header, rows, [args.response])[:, 0]
    x = numeric_columns(header, rows, names)
    treatment = None
    if args.treatment is not None:
        col = numeric_columns(header, rows, [args.treatment])[:, 0]
        if not np.all(np.isin(col, (0.0, 1.0))):
            raise ConformanceError(
                f"treatment column {args.treatment!r} must be binary"
            )
        treatment = col.astype(bool)
    if y.size != n:
        raise ConformanceError(
            f"table has {y.size} rows but the data file has {n}"
        )
    return y, x, treatment


def _write_ci_table(args, name, table) -> None:
    """Write the columns of one ``CiTable``."""
    columns = (table.names, table.point, table.lower, table.upper, table.se)
    rows = [list(row) for row in zip(*columns)]
    write_table(_path(args, name), ["term", "estimate", "lower", "upper", "se"], rows)


def _interval_spec(args):
    """The command's intervals at --level as a spec, built (so checked) from its flags.

    ``regress`` gives plug-in intervals for one arm, ignoring --blocks, and
    jackknife intervals for two; ``simulate`` gives the --inference method,
    None for "none", and no --seed: a study keys each replicate's bootstrap
    by its own seed.
    """
    method = args.inference if args.command == "simulate" else args.command
    if method == "regress":
        method = "plugin" if args.treatment is None else "jackknife"
    if method == "none":
        return None
    if method == "plugin":
        return PluginSpec(args.level)
    if method == "jackknife":
        return JackknifeSpec(args.blocks, args.level)
    if method != "bootstrap":  # a simulate --config value
        raise ConfigurationError(
            f"inference must be plugin, bootstrap, jackknife, or None, got {method!r}"
        )
    if args.command == "simulate":
        return BootstrapSpec(args.kind, args.boot_reps, level=args.level)
    return BootstrapSpec(args.kind, args.reps, args.seed, args.level)


def _coefficients(args):
    """The body of regress, bootstrap --target coefficients and jackknife.

    The interval settings, the selection and --drop-tol are checked before
    --data is opened, and the design table (against the row count in the
    --data header) before the sample is fitted, and so is the jackknife
    block count against the row count and, with --m, the coefficient count:
    --blocks when given, else, with --m, ``jackknife_blocks``' default.
    Only the choice of m and the score columns wait for the fit. Writes
    coefficients.csv and returns the design and ``coefficient_intervals``'
    table and result.
    """
    spec = _interval_spec(args)
    _check_selection(args)
    check_drop_tol(args.drop_tol)
    with _load_space_sample(args) as (space, sample):
        basis = _build_basis(args, space, _basis_knots(args, space))
        n = sample.shape[0]
        y, x, treatment = _read_design(args, n)
        if isinstance(spec, JackknifeSpec) and (spec.r is not None or args.m is not None):
            width = None
            if args.m is not None:
                width = len(coefficient_names(x.shape[1], args.m, treatment is not None))
            check_blocks(jackknife_blocks(spec, width), width, n)
        model = fit_subspace_pca(space, basis, sample, args.drop_tol)
    m = args.m if args.m is not None else select_pve(model, args.tau).m
    m = check_score_count(m, model)
    scores = component_scores(model)[:, :m]
    design = RegressionDesign(y=y, x=x, scores=scores, treatment=treatment)
    table, res = coefficient_intervals(
        model, design, fit_pcr(design), spec, threads=_threads(args)
    )
    _write_ci_table(args, "coefficients.csv", table)
    return design, table, res


def cmd_regress(args):
    design, table, _ = _coefficients(args)
    print(f"regress: m={design.m}, intervals={table.method}, level={args.level}")
    return None, ["coefficients.csv"]


def cmd_bootstrap(args):
    if args.target == "coefficients":
        if args.table is None or args.response is None:
            raise ConfigurationError("--target coefficients needs --table and --response")
        _, _, res = _coefficients(args)
        name = "coefficients.csv"
    else:
        spec = _interval_spec(args)
        res = bootstrap_eigenvalues(_fit_model(args)[2], spec, threads=_threads(args))
        name = "eigenvalues.csv"
        _write_ci_table(args, name, res.table)
    print(
        f"bootstrap: kind={args.kind}, completed={res.table.completed}/{args.reps}, "
        f"failures={len(res.failures)}"
    )
    return args.seed, [name]


def cmd_jackknife(args):
    design, table, res = _coefficients(args)
    print(f"jackknife: r={table.completed}, kept {res.kept} of {design.n} observations")
    return None, ["coefficients.csv"]


# JSON types each simulate --config key accepts: its flag's type, or, for
# list-valued keys, a list or the flag's text, both parsed like the flag.
_CONFIG_TYPES = {
    "family": str, "inference": str, "kind": str, "knots": (int, str, list),
    "n": int, "reps": int, "seed": int, "degree": int, "boot_reps": int,
    "blocks": int, "corr": (int, float), "noise_sd": (int, float),
    "alpha0": (int, float), "tau": (int, float), "level": (int, float),
    "dims": (str, list), "lambdas": (str, list), "beta0": (str, list),
    "gamma0": (str, list),
}


def _simulate_study(args):
    """``study_config`` of the simulate flags, each --config key overriding its flag."""
    if args.config is not None:
        for key, value in read_config(args.config).items():
            if key not in _CONFIG_TYPES:
                raise ConfigurationError(f"unknown configuration key {key!r}")
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
                raise ConfigurationError(
                    f"configuration key {key!r} has the wrong type: {value!r}"
                )
            setattr(args, key, value)
    intervals = _interval_spec(args)
    if args.blocks is not None and args.inference != "jackknife":
        raise ConfigurationError("--blocks applies to --inference jackknife")
    dims = None if args.dims is None else _parse_dims(args.dims)
    lambdas = None if args.lambdas is None else _parse_floats(args.lambdas)
    if lambdas is not None and args.gamma0 is None:
        raise ConfigurationError("custom lambdas need matching --gamma0 scores")
    return study_config(
        args.family,
        dims=dims,
        lambdas=lambdas,
        gamma0=None if args.gamma0 is None else _parse_floats(args.gamma0),
        alpha0=args.alpha0,
        beta0=_parse_floats(args.beta0),
        corr=args.corr,
        noise_sd=args.noise_sd,
        n=args.n,
        seed=args.seed,
        degree=args.degree,
        knots=args.knots,
        tau=args.tau,
        intervals=intervals,
    )


def cmd_simulate(args):
    config, options = _simulate_study(args)
    table = run_monte_carlo(config, args.reps, options, threads=_threads(args))
    write_table(
        _path(args, "metrics.csv"),
        ["parameter", "truth", "mse", "coverage", "covered_reps"],
        table.rows(),
    )
    write_table(
        _path(args, "mhat.csv"),
        ["m", "count"],
        [[m, c] for m, c in table.mhat_counts.items()],
    )
    print(
        f"simulate: {table.completed}/{args.reps} replicates, "
        f"mhat={table.mhat_counts}, failures={len(table.failures)}"
    )
    return args.seed, ["metrics.csv", "mhat.csv"]


def _study_rows(table, config, metrics) -> list:
    """The rows ``table`` keeps of one study's metrics, by its ``terms``."""
    if table.terms is None:
        j = config.n_components
        completed = max(metrics.completed, 1)
        mhat_mean = sum(m * c for m, c in metrics.mhat_counts.items()) / completed
        return [[config.n, *metrics.mse[:j], mhat_mean]]
    return [
        [config.n, config.corr, name, metrics.truth[i], metrics.mse[i], metrics.coverage[i]]
        for i, name in enumerate(metrics.names)
        if not name.startswith("lambda")
        and (not table.terms or name.startswith(table.terms))
    ]


def cmd_reproduce(args):
    table = TABLES[args.table]
    intervals = None if table.terms is None else BootstrapSpec(b_reps=args.boot_reps)
    rows = []
    for n in STUDY_SIZES:
        for corr in table.corrs:
            config, options = study_config(
                table.family,
                args.scale,
                n=n,
                corr=corr,
                seed=args.seed,
                treatment=table.treatment,
                intervals=intervals,
            )
            metrics = run_monte_carlo(config, args.reps, options, _threads(args))
            rows += _study_rows(table, config, metrics)
    header = ["n", "corr", "term", "truth", "mse", "coverage"]
    if table.terms is None:
        j = config.n_components
        header = ["n", *(f"lambda{k + 1}_mse" for k in range(j)), "mhat_mean"]
    name = f"table{args.table}.csv"
    write_table(_path(args, name), header, rows)
    print(f"reproduce: wrote {name}")
    return args.seed, [name]


if __name__ == "__main__":
    sys.exit(main())
