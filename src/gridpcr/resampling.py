"""Resampling inference for the subspace-PCA regression pipeline.

Every replicate reruns the estimation chain after the basis -- eigenfunctions,
component scores, regression -- under a reweighted empirical measure, so the
intervals account for eigenfunction estimation, not just regression noise.
Each replicate is one vector of observation weights: multinomial counts for a
nonparametric bootstrap draw, positive multipliers for a wild draw, and a 0/1
mask for a jackknife block. The basis Gram matrix and whitener do not depend
on observation weights, so replicates start from the fitted model's whitened
scores; this is an exact algebraic shortcut, not an approximation.

Replicate randomness is keyed by (base_seed, replicate index), making every
study reproducible for any worker count and any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .decomp import EigenModel, _eig_from_scores, component_scores
from .errors import (
    ConformanceError,
    ConfigurationError,
    GridPcrError,
    StudyError,
)
from .regression import RegressionDesign, coefficient_names, fit_pcr
from .util import norm_ppf, replicate_rng, run_indexed

BOOTSTRAP_KINDS = ("nonparametric", "wild")
MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class BootstrapSpec:
    """Configuration of a bootstrap study.

    ``kind`` chooses multinomial resampling or positive multiplier (wild)
    weights; wild multipliers are unit-mean, unit-variance exponential,
    which satisfies the positivity the theory requires.
    """

    kind: str = "wild"
    b_reps: int = 300
    base_seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        if self.kind not in BOOTSTRAP_KINDS:
            raise ConfigurationError(
                f"bootstrap kind must be one of {BOOTSTRAP_KINDS}, got {self.kind!r}"
            )
        if int(self.b_reps) < 2:
            raise ConfigurationError("bootstrap needs at least two replicates")
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError(f"level must lie in (0, 1), got {self.level}")
        object.__setattr__(self, "b_reps", int(self.b_reps))
        object.__setattr__(self, "base_seed", int(self.base_seed))


@dataclass(frozen=True)
class JackknifeSpec:
    """Configuration of a block-jackknife study: ``r`` disjoint blocks."""

    r: int
    level: float = 0.95

    def __post_init__(self):
        if int(self.r) < 2:
            raise ConfigurationError("jackknife needs at least two blocks")
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError(f"level must lie in (0, 1), got {self.level}")
        object.__setattr__(self, "r", int(self.r))


@dataclass(frozen=True)
class CiTable:
    """Per-parameter point estimates, interval bounds, and standard errors."""

    names: list
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    se: np.ndarray
    level: float
    method: str
    completed: int

    def __post_init__(self):
        k = len(self.names)
        for label, arr in (
            ("point", self.point),
            ("lower", self.lower),
            ("upper", self.upper),
            ("se", self.se),
        ):
            if np.asarray(arr).shape != (k,):
                raise ConformanceError(f"{label} must have one entry per name")
        if np.any(self.lower > self.upper):
            raise ConformanceError("interval bounds are not ordered")


@dataclass(frozen=True)
class BootstrapResult:
    """Completed bootstrap draws plus the percentile interval table."""

    draws: np.ndarray
    table: CiTable
    failures: list = field(default_factory=list)


@dataclass(frozen=True)
class JackknifeResult:
    """Block-jackknife replicates, covariance, and normal-interval table."""

    replicates: np.ndarray
    cov: np.ndarray
    table: CiTable
    kept: int


def gen_weights(spec: BootstrapSpec, n: int, replicate: int) -> np.ndarray:
    """Observation weights of one bootstrap replicate.

    Nonparametric: multinomial(n, 1/n) counts. Wild: i.i.d. exponential
    draws divided by their replicate mean, so each replicate's weights are
    strictly positive and average exactly one.
    """
    if n < 1:
        raise ConformanceError("need at least one observation to reweight")
    rng = replicate_rng(spec.base_seed, replicate)
    if spec.kind == "nonparametric":
        counts = rng.multinomial(n, np.full(n, 1.0 / n))
        return counts.astype(float)
    draws = rng.standard_exponential(n)
    return draws / draws.mean()


def _check_design(model: EigenModel, design: RegressionDesign) -> None:
    """Require ``design`` to hold the rows and component scores of ``model``.

    The point estimate fits the design's scores as given, while every
    replicate rebuilds them from the model's whitened scores; scores that
    differ (sign-flipped, say) would give intervals that miss their own
    point estimate.
    """
    if design.n != model.n:
        raise ConformanceError(
            f"design has {design.n} rows, but the model was fitted on {model.n}"
        )
    if not 1 <= design.m <= model.n_components:
        raise ConformanceError(
            f"score count m={design.m} outside 1..{model.n_components}"
        )
    ref = component_scores(model)[:, : design.m]
    if np.max(np.abs(design.scores - ref)) > 1e-12 * np.max(np.abs(ref)):
        raise ConformanceError(
            f"design scores are not the model's first {design.m} component scores"
        )


def _replicate_eigs(model: EigenModel, weights):
    """Eigenvalues and coords refitted under the observation weights.

    The weighted covariance is divided by n, not by the weight total:
    bootstrap weights sum to n, and a jackknife replicate's eigenvalues
    only feed its coords, which the scale does not change.
    """
    white = model.white
    centered = white - np.average(white, axis=0, weights=weights)
    return _eig_from_scores(centered, weights=weights)


def _replicate_theta(
    model: EigenModel, design: RegressionDesign, weights, label: str
) -> np.ndarray:
    """Coefficients of one replicate: refitted eigenfunctions, then regression.

    Replicate eigenvector signs are flipped to match the point estimate's.
    """
    m = design.m
    coords = _replicate_eigs(model, weights)[1]
    if coords.shape[0] < m:
        raise GridPcrError(
            f"{label} retained {coords.shape[0]} components, "
            f"fewer than the {m} the design needs"
        )
    signs = np.sign(np.sum(coords[:m] * model.coords[:m], axis=1))
    signs[signs == 0] = 1.0
    scores = model.white @ (coords[:m] * signs[:, None]).T
    return fit_pcr(replace(design, scores=scores), weights).theta


def percentile_ci(draws, level: float):
    """Percentile interval bounds from bootstrap draws.

    Quantiles use linear interpolation between order statistics (position
    (B - 1) q + 1); at least two finite draws per column are required.
    """
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must lie in (0, 1), got {level}")
    arr = np.asarray(draws, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] < 2:
        raise ConformanceError("need at least two draws for a percentile interval")
    if not np.all(np.isfinite(arr)):
        raise ConformanceError("draws contain non-finite values")
    half = 0.5 * (1.0 - level)
    lower, upper = np.quantile(arr, [half, 1.0 - half], axis=0, method="linear")
    return lower, upper


def run_tolerant(fn, count: int, threads: int, what: str):
    """Evaluate ``fn(i)`` for every i < count, tolerating a few failures.

    A replicate raising ``GridPcrError`` is recorded as (i, message). A
    ``ConfigurationError`` propagates at once: a setting that fails one
    replicate fails them all. Returns the results in index order and the failures; more than
    ``MAX_FAILURE_FRACTION`` of ``count`` failing raises ``StudyError``.
    """

    def one(i):
        try:
            return fn(i)
        except ConfigurationError:
            raise
        except GridPcrError as exc:
            return (i, str(exc))

    done, failures = [], []
    for res in run_indexed(one, count, threads):
        if isinstance(res, tuple):
            failures.append(res)
        else:
            done.append(res)
    if len(failures) > MAX_FAILURE_FRACTION * count:
        detail = "; ".join(f"replicate {i}: {msg}" for i, msg in failures[:5])
        raise StudyError(
            f"{len(failures)} of {count} {what} replicates failed "
            f"(tolerance {MAX_FAILURE_FRACTION:.0%}); first failures: {detail}",
            failures=failures,
        )
    return done, failures


def normal_ci(point, se, level: float):
    """Normal interval bounds point -/+ z se, z the (1 + level) / 2 quantile."""
    z = norm_ppf(0.5 * (1.0 + level))
    return point - z * se, point + z * se


def _bootstrap(spec: BootstrapSpec, fn, names: list, point, threads: int):
    """Run ``fn(b)`` for every replicate b and tabulate percentile intervals."""
    draws, failures = run_tolerant(fn, spec.b_reps, threads, "bootstrap")
    draws = np.array(draws).reshape(len(draws), len(names))
    lower, upper = percentile_ci(draws, spec.level)
    table = CiTable(
        names=names,
        point=point.copy(),
        lower=lower,
        upper=upper,
        se=draws.std(axis=0, ddof=1),
        level=spec.level,
        method=f"bootstrap-{spec.kind}",
        completed=draws.shape[0],
    )
    return BootstrapResult(draws=draws, table=table, failures=failures)


def bootstrap_theta(
    model: EigenModel,
    design: RegressionDesign,
    spec: BootstrapSpec,
    threads: int = 1,
) -> BootstrapResult:
    """Bootstrap the full pipeline and return percentile intervals for theta.

    ``model`` is the point fit of the sample whose rows ``design``
    describes, and the design's scores are the model's first m component
    scores. Each replicate re-estimates the eigenfunctions under its
    weights (signs aligned to the point estimate), rebuilds the scores, and
    refits the regression; m stays fixed at the design's. Failed replicates
    are tolerated up to 5% of the study and reported; beyond that the study
    errors out.
    """
    _check_design(model, design)
    return _bootstrap(
        spec,
        lambda b: _replicate_theta(
            model, design, gen_weights(spec, model.n, b), f"replicate {b}"
        ),
        coefficient_names(design.d, design.m, design.treatment is not None),
        fit_pcr(design).theta,
        threads,
    )


def bootstrap_eigenvalues(
    model: EigenModel,
    spec: BootstrapSpec,
    threads: int = 1,
) -> BootstrapResult:
    """Bootstrap the retained eigenvalues of the subspace fit.

    Replicate spectra are truncated or zero-padded to the point estimate's
    component count, so draw j always refers to the j-th largest variance.
    """
    j = model.n_components
    if j == 0:
        raise ConformanceError("point estimate retains no components")

    def one(b):
        lams = _replicate_eigs(model, gen_weights(spec, model.n, b))[0]
        out = np.zeros(j)
        take = min(j, lams.size)
        out[:take] = lams[:take]
        return out

    names = [f"lambda{k + 1}" for k in range(j)]
    return _bootstrap(spec, one, names, model.eigenvalues, threads)


def jackknife_spec(design: RegressionDesign, blocks, level: float) -> JackknifeSpec:
    """Jackknife spec with ``blocks`` blocks, or by default the fewest allowed.

    ``block_jackknife`` needs more blocks than coefficients + 1, so the
    default is the design's coefficient count plus two.
    """
    if blocks is None:
        arms = 1 if design.treatment is None else 2
        blocks = arms * (1 + design.d + design.m) + 2
    return JackknifeSpec(r=blocks, level=level)


def block_jackknife(
    model: EigenModel,
    design: RegressionDesign,
    spec: JackknifeSpec,
    threads: int = 1,
) -> JackknifeResult:
    """Grouped-jackknife covariance of theta from r systematic blocks.

    ``model`` and ``design`` are as for ``bootstrap_theta``. With k =
    floor(n / r), block l gives weight zero to observations {l, l + r,
    l + 2r, ...} (k of them) of the first r * k rows and to every trailing
    row beyond r * k, and weight one to the rest. Each replicate reruns the
    eigendecomposition and regression under those weights, as a bootstrap
    draw does; a failing block raises. The covariance is ((r - 1) / r)
    times the replicate scatter around the replicate mean, and intervals
    are normal around the full-sample point estimate. Blocks run on up to
    ``threads`` pool workers; the result does not depend on the count.
    """
    _check_design(model, design)
    point = fit_pcr(design).theta
    width = point.size
    if spec.r <= width + 1:
        raise ConfigurationError(
            f"jackknife needs more blocks than coefficients + 1 "
            f"(r = {spec.r}, coefficients = {width})"
        )
    n = design.n
    k = n // spec.r
    if k < 2:
        raise ConfigurationError(
            f"jackknife with r = {spec.r} blocks leaves fewer than two "
            f"observations per block at n = {n}"
        )
    used = spec.r * k

    def one(block):
        weights = np.zeros(n)
        weights[:used] = 1.0
        weights[block:used:spec.r] = 0.0
        return _replicate_theta(model, design, weights, f"jackknife block {block}")

    reps = np.array(run_indexed(one, spec.r, threads))
    center = reps.mean(axis=0)
    dev = reps - center
    cov = (spec.r - 1) / spec.r * (dev.T @ dev)
    se = np.sqrt(np.diag(cov))
    lower, upper = normal_ci(point, se, spec.level)
    table = CiTable(
        names=coefficient_names(design.d, design.m, design.treatment is not None),
        point=point.copy(),
        lower=lower,
        upper=upper,
        se=se,
        level=spec.level,
        method=f"jackknife-r{spec.r}",
        completed=spec.r,
    )
    return JackknifeResult(replicates=reps, cov=cov, table=table, kept=used - k)
