"""Command-line interface.

Subcommands: fit, diagnose, pve, regress, bootstrap, jackknife, simulate,
reproduce. Every run writes its output files plus a JSON manifest (config
echo, seed, version, timing, output checksums) into --out. Identical flags
and seeds produce byte-identical outputs for any --threads value; only the
manifest's timing field varies between runs. Replicate loops run BLAS on one
thread, so Monte Carlo outputs (simulate, reproduce) also do not depend on the
BLAS thread setting; point fits (fit, regress, and the point column of
bootstrap and jackknife) run on the default BLAS threads and can change with
OPENBLAS_NUM_THREADS.

Exit codes: 0 success, 2 input/usage/format problems, 3 numerical or
assumption failures (the message names the violated assumption). Errors and
library warnings go to stderr as one ``error: <message>`` or
``warning: <message>`` line each.
"""

from __future__ import annotations

import argparse
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
    component_scores,
    diagnose_projection,
    eigenfunctions,
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
from .regression import (
    RegressionDesign,
    coefficient_names,
    fit_pcr,
    plugin_cov,
)
from .resampling import (
    BootstrapSpec,
    block_jackknife,
    bootstrap_eigenvalues,
    bootstrap_theta,
    jackknife_spec,
    normal_ci,
)
from .simulate import (
    PipelineOptions,
    ScenarioConfig,
    TreatmentConfig,
    run_monte_carlo,
)
from .space import AmbientSpace
from .storage import (
    file_sha256,
    make_manifest,
    numeric_columns,
    read_config,
    read_grid,
    read_table,
    write_grid,
    write_manifest,
    write_table,
)
from .util import default_threads, mix_seed

MAX_KNOT_REFINEMENTS = 4

DESK_DIMS_2D = (20, 24)
DESK_DIMS_3D = (12, 14, 10)
PAPER_DIMS_2D = (79, 95)
PAPER_DIMS_3D = (79, 95, 66)
STUDY_SIZES = (100, 500, 2000)
LAMBDAS_2D = (3.5, 3.0, 2.5, 2.0, 1.5, 1.0)
GAMMA_2D = (1.5, 1.0, 2.0, 2.5, 1.5, 3.0)
LAMBDAS_3D = (2.0, 1.0)
GAMMA_3D = (1.5, -1.0)
BETA_DEFAULT = (1.0, 1.0, 1.0, 1.0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args) or 0
        except (FormatError, ConformanceError, ConfigurationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except GridPcrError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a library warning as one ``warning: <message>`` line."""
    print(f"warning: {message}", file=sys.stderr)


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
    p.add_argument(
        "--family", choices=("synthetic2d", "quadratic_gauss3d"), default="synthetic2d"
    )
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
    p.add_argument("--table", type=int, choices=range(1, 7), required=True)
    p.add_argument("--scale", choices=("desk", "paper"), default="desk")
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
    return args.threads if args.threads is not None else default_threads()


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


def _parse_knots(text, n_axes: int):
    toks = text if isinstance(text, list) else str(text).split(",")
    try:
        values = [int(tok) for tok in toks]
    except (TypeError, ValueError):
        raise ConfigurationError(f"cannot parse knot counts {text!r}") from None
    if len(values) == 1:
        return values[0]
    if len(values) != n_axes:
        raise ConfigurationError(
            f"{len(values)} knot counts given for {n_axes} axes"
        )
    return values


def _load_space_sample(args):
    arr = read_grid(args.data)
    if arr.ndim < 2:
        raise FormatError(
            f"data file {args.data!r} holds a single grid; expected sample rows"
        )
    dims = arr.shape[1:]
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
    return space, arr.reshape(arr.shape[0], -1)


def _build_basis(args, space, knots_override=None):
    if args.basis == "tri":
        if args.mesh is None:
            raise ConfigurationError("the tri basis needs --mesh")
        return tri_pl_basis(space, read_triangulation(args.mesh))
    knots = (
        knots_override
        if knots_override is not None
        else _parse_knots(args.knots, len(space.dims))
    )
    return bspline_tensor_basis(space, args.degree, knots)


def _fit_model(args):
    """Read the sample and fit the PCA once; the sample is freed on return."""
    space, sample = _load_space_sample(args)
    basis = _build_basis(args, space)
    return space, basis, fit_subspace_pca(space, basis, sample, args.drop_tol)


def _config_echo(args) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, (list, tuple)):
            out[key] = [v for v in value]
        else:
            out[key] = value
    return out


def _finish(args, seed, outputs: dict, started: float) -> None:
    checks = {name: file_sha256(path) for name, path in outputs.items()}
    manifest = make_manifest(
        args.command, _config_echo(args), seed, checks, time.perf_counter() - started
    )
    write_manifest(os.path.join(args.out, "manifest.json"), manifest)


def _outdir(args) -> None:
    os.makedirs(args.out, exist_ok=True)


def cmd_fit(args) -> int:
    started = time.perf_counter()
    _outdir(args)
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
    outputs = {}
    path = os.path.join(args.out, "eigenvalues.csv")
    write_table(path, ["component", "eigenvalue", "se", "cumulative_fraction"], rows)
    outputs["eigenvalues.csv"] = path
    path = os.path.join(args.out, "mean.hsg")
    write_grid(path, model.mean.reshape(space.dims))
    outputs["mean.hsg"] = path
    if model.n_components:
        path = os.path.join(args.out, "eigenfunctions.hsg")
        phis = eigenfunctions(space, basis, model)
        write_grid(path, phis.reshape(model.n_components, *space.dims))
        outputs["eigenfunctions.hsg"] = path
    _finish(args, None, outputs, started)
    print(
        f"fit: n={model.n}, grid={'x'.join(map(str, space.dims))}, "
        f"basis rank={model.whitener.rank}, components={model.n_components}, "
        f"total variance={model.total_variance!r}"
    )
    return 0


def cmd_diagnose(args) -> int:
    started = time.perf_counter()
    _outdir(args)
    space, sample = _load_space_sample(args)
    if args.auto_knots and args.basis != "bspline":
        raise ConfigurationError("--auto-knots applies to the bspline basis")
    knots = None
    if args.basis == "bspline":
        knots = _parse_knots(args.knots, len(space.dims))
        if isinstance(knots, int):
            knots = [knots] * len(space.dims)
    rows = []
    for step in range(MAX_KNOT_REFINEMENTS + 1):
        basis = _build_basis(args, space, knots_override=knots)
        report = diagnose_projection(
            space, basis, sample, args.alpha, drop_tol=args.drop_tol
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
    path = os.path.join(args.out, "diagnostic.csv")
    write_table(
        path,
        ["step", "knots", "rank", "delta_hat", "s2_hat", "t_stat", "critical", "reject"],
        rows,
    )
    _finish(args, None, {"diagnostic.csv": path}, started)
    return 0


def cmd_pve(args) -> int:
    started = time.perf_counter()
    _outdir(args)
    _, _, model = _fit_model(args)
    selection = select_pve(model, args.tau)
    rows = [
        [j + 1, model.eigenvalues[j], selection.cumulative[j]]
        for j in range(model.n_components)
    ]
    path = os.path.join(args.out, "pve.csv")
    write_table(path, ["component", "eigenvalue", "cumulative_fraction"], rows)
    _finish(args, None, {"pve.csv": path}, started)
    print(f"pve: m={selection.m} at tau={selection.tau}")
    return 0


def _load_design(args, model):
    header, rows = read_table(args.table)
    if args.response not in header:
        raise FormatError(f"response column {args.response!r} not in {header}")
    names = (
        [tok for tok in args.covariates.split(",") if tok]
        if args.covariates is not None
        else [
            h
            for h in header
            if h != args.response and h != args.treatment
        ]
    )
    y = numeric_columns(header, rows, [args.response])[:, 0]
    x = (
        numeric_columns(header, rows, names)
        if names
        else np.zeros((len(rows), 0))
    )
    treatment = None
    if args.treatment is not None:
        col = numeric_columns(header, rows, [args.treatment])[:, 0]
        if not np.all(np.isin(col, (0.0, 1.0))):
            raise ConformanceError(
                f"treatment column {args.treatment!r} must be binary"
            )
        treatment = col.astype(bool)
    if y.size != model.n:
        raise ConformanceError(
            f"table has {y.size} rows but the data file has {model.n}"
        )
    m = args.m if args.m is not None else select_pve(model, args.tau).m
    if not 1 <= m <= model.n_components:
        raise ConformanceError(
            f"m={m} outside the retained range 1..{model.n_components}"
        )
    scores = component_scores(model)[:, :m]
    return RegressionDesign(y=y, x=x, scores=scores, treatment=treatment)


def _write_ci_table(path, names, point, lower, upper, se):
    rows = [
        [names[i], point[i], lower[i], upper[i], se[i]] for i in range(len(names))
    ]
    write_table(path, ["term", "estimate", "lower", "upper", "se"], rows)


def _jackknife(args, model, design):
    """Block jackknife with --blocks blocks, or the default count."""
    return block_jackknife(
        model, design, jackknife_spec(design, args.blocks, args.level)
    )


def cmd_regress(args) -> int:
    started = time.perf_counter()
    _outdir(args)
    _, _, model = _fit_model(args)
    design = _load_design(args, model)
    if design.treatment is None:
        fit = fit_pcr(design)
        se = np.sqrt(np.diag(plugin_cov(fit, model, design)))
        point = fit.theta
        lower, upper = normal_ci(point, se, args.level)
        method = "plugin"
        names = coefficient_names(design.d, design.m)
    else:
        table = _jackknife(args, model, design).table
        names, point, lower, upper, se = (
            table.names, table.point, table.lower, table.upper, table.se
        )
        method = table.method
    path = os.path.join(args.out, "coefficients.csv")
    _write_ci_table(path, names, point, lower, upper, se)
    _finish(args, None, {"coefficients.csv": path}, started)
    print(f"regress: m={design.m}, intervals={method}, level={args.level}")
    return 0


def cmd_bootstrap(args) -> int:
    started = time.perf_counter()
    _outdir(args)
    if args.target == "coefficients" and (args.table is None or args.response is None):
        raise ConfigurationError("--target coefficients needs --table and --response")
    _, _, model = _fit_model(args)
    spec = BootstrapSpec(
        kind=args.kind, b_reps=args.reps, base_seed=args.seed, level=args.level
    )
    if args.target == "eigenvalues":
        res = bootstrap_eigenvalues(model, spec, threads=_threads(args))
        out_name = "eigenvalues.csv"
    else:
        design = _load_design(args, model)
        res = bootstrap_theta(model, design, spec, threads=_threads(args))
        out_name = "coefficients.csv"
    table = res.table
    path = os.path.join(args.out, out_name)
    _write_ci_table(path, table.names, table.point, table.lower, table.upper, table.se)
    _finish(args, args.seed, {out_name: path}, started)
    print(
        f"bootstrap: kind={args.kind}, completed={table.completed}/{args.reps}, "
        f"failures={len(res.failures)}"
    )
    return 0


def cmd_jackknife(args) -> int:
    started = time.perf_counter()
    _outdir(args)
    _, _, model = _fit_model(args)
    design = _load_design(args, model)
    res = _jackknife(args, model, design)
    table = res.table
    path = os.path.join(args.out, "coefficients.csv")
    _write_ci_table(path, table.names, table.point, table.lower, table.upper, table.se)
    _finish(args, None, {"coefficients.csv": path}, started)
    print(f"jackknife: r={table.completed}, kept {res.kept} of {design.n} observations")
    return 0


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


def _scenario_from_args(args) -> ScenarioConfig:
    if args.config is not None:
        for key, value in read_config(args.config).items():
            if key not in _CONFIG_TYPES:
                raise ConfigurationError(f"unknown configuration key {key!r}")
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
                raise ConfigurationError(
                    f"configuration key {key!r} has the wrong type: {value!r}"
                )
            setattr(args, key, value)
    if args.family == "synthetic2d":
        dims = DESK_DIMS_2D
        lambdas = LAMBDAS_2D
        gamma = GAMMA_2D
    else:
        dims = DESK_DIMS_3D
        lambdas = LAMBDAS_3D
        gamma = GAMMA_3D
    if args.dims is not None:
        dims = _parse_dims(args.dims)
    if args.lambdas is not None:
        lambdas = _parse_floats(args.lambdas)
        if args.gamma0 is None:
            raise ConfigurationError("custom lambdas need matching --gamma0 scores")
    if args.gamma0 is not None:
        gamma = _parse_floats(args.gamma0)
    beta = _parse_floats(args.beta0)
    return ScenarioConfig(
        family=args.family,
        dims=dims,
        lambdas=lambdas,
        alpha0=args.alpha0,
        beta0=beta,
        gamma0=gamma,
        corr=args.corr,
        noise_sd=args.noise_sd,
        n=args.n,
        seed=args.seed,
    )


def _pipeline_from_args(args, config: ScenarioConfig) -> PipelineOptions:
    degree = args.degree
    knots = args.knots
    if degree is None:
        degree = 3 if config.family == "synthetic2d" else 2
    if knots is None:
        knots = 7 if config.family == "synthetic2d" else 2
    else:
        knots = _parse_knots(knots, len(config.dims))
    inference = None if args.inference == "none" else args.inference
    return PipelineOptions(
        degree=degree,
        interior_knots=knots,
        tau=args.tau,
        inference=inference,
        b_reps=args.boot_reps,
        boot_kind=args.kind,
        level=args.level,
        r_blocks=args.blocks,
    )


def _write_metrics(args, table, started, name="metrics.csv") -> None:
    outputs = {}
    path = os.path.join(args.out, name)
    write_table(
        path, ["parameter", "truth", "mse", "coverage", "covered_reps"], table.rows()
    )
    outputs[name] = path
    path = os.path.join(args.out, "mhat.csv")
    write_table(
        path, ["m", "count"], [[m, c] for m, c in table.mhat_counts.items()]
    )
    outputs["mhat.csv"] = path
    _finish(args, args.seed, outputs, started)


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    _outdir(args)
    config = _scenario_from_args(args)
    options = _pipeline_from_args(args, config)
    table = run_monte_carlo(config, args.reps, options, threads=_threads(args))
    _write_metrics(args, table, started)
    print(
        f"simulate: {table.completed}/{args.reps} replicates, "
        f"mhat={table.mhat_counts}, failures={len(table.failures)}"
    )
    return 0


def _study_scenario(table_id: int, scale: str, n: int, corr: float, seed: int) -> ScenarioConfig:
    if table_id in (1, 2, 3):
        return ScenarioConfig(
            family="synthetic2d",
            dims=DESK_DIMS_2D if scale == "desk" else PAPER_DIMS_2D,
            lambdas=LAMBDAS_2D,
            alpha0=1.0,
            beta0=BETA_DEFAULT,
            gamma0=GAMMA_2D,
            corr=corr,
            noise_sd=1.0,
            n=n,
            seed=seed,
        )
    treatment = None
    if table_id == 6:
        treatment = TreatmentConfig(
            alpha=0.5, beta=(0.5, -0.5, 0.25, 0.0), gamma=(1.0, -0.5), prob=0.5
        )
    return ScenarioConfig(
        family="quadratic_gauss3d",
        dims=DESK_DIMS_3D if scale == "desk" else PAPER_DIMS_3D,
        lambdas=LAMBDAS_3D,
        alpha0=1.0,
        beta0=BETA_DEFAULT,
        gamma0=GAMMA_3D,
        corr=corr,
        noise_sd=1.0,
        n=n,
        seed=seed,
        treatment=treatment,
    )


def _study_options(table_id: int, args, inference) -> PipelineOptions:
    two_d = table_id in (1, 2, 3)
    return PipelineOptions(
        degree=3 if two_d else 2,
        interior_knots=7 if two_d else 2,
        inference=inference,
        b_reps=args.boot_reps,
        boot_kind="wild",
        level=0.95,
    )


def cmd_reproduce(args) -> int:
    started = time.perf_counter()
    _outdir(args)
    table_id = args.table
    threads = _threads(args)
    name = f"table{table_id}.csv"
    if table_id in (1, 5):
        # Eigenvalue recovery and selected component count by sample size.
        # The component sample does not involve the scalar covariates, so
        # the correlation settings share one run.
        rows = []
        j = 6 if table_id == 1 else 2
        for n in STUDY_SIZES:
            config = _study_scenario(table_id, args.scale, n, 0.0, args.seed)
            metrics = run_monte_carlo(
                config, args.reps, _study_options(table_id, args, None), threads
            )
            mhat_mean = sum(m * c for m, c in metrics.mhat_counts.items()) / max(
                metrics.completed, 1
            )
            rows.append(
                [n]
                + [metrics.mse[k] for k in range(j)]
                + [mhat_mean]
            )
        header = ["n"] + [f"lambda{k + 1}_mse" for k in range(j)] + ["mhat_mean"]
        path = os.path.join(args.out, name)
        write_table(path, header, rows)
        _finish(args, args.seed, {name: path}, started)
        print(f"reproduce: wrote {name}")
        return 0
    rows = []
    corrs = (0.0, 0.5) if table_id in (2, 3) else (0.0,)
    for n in STUDY_SIZES:
        for corr in corrs:
            config = _study_scenario(table_id, args.scale, n, corr, args.seed)
            metrics = run_monte_carlo(
                config, args.reps, _study_options(table_id, args, "bootstrap"), threads
            )
            for i, pname in enumerate(metrics.names):
                if pname.startswith("lambda"):
                    continue
                if table_id == 2 and pname.startswith("z"):
                    continue
                if table_id == 3 and not pname.startswith("z"):
                    continue
                rows.append(
                    [n, corr, pname, metrics.truth[i], metrics.mse[i], metrics.coverage[i]]
                )
    path = os.path.join(args.out, name)
    write_table(path, ["n", "corr", "term", "truth", "mse", "coverage"], rows)
    _finish(args, args.seed, {name: path}, started)
    print(f"reproduce: wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
