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

from dataclasses import dataclass, field

import numpy as np

from .decomp import EigenModel, _eig_from_scores, component_scores
from .errors import (
    ConformanceError,
    ConfigurationError,
    GridPcrError,
    StudyError,
)
from .regression import (
    RegressionDesign,
    coefficient_names,
    fit_pcr,
    fit_precision,
)
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


def _model_rows(name: str, arr: np.ndarray, n: int) -> np.ndarray:
    """Require one row of ``arr`` per fitted sample row."""
    if arr.shape[0] != n:
        raise ConformanceError(
            f"{name} has {arr.shape[0]} rows, but the model was fitted on {n}"
        )
    return arr


class _PreparedPipeline:
    """Point estimate and replicate refits of one fitted dataset.

    Everything a replicate needs is the fitted model's whitened scores: it
    re-centers them under its observation weights, re-eigendecomposes, and
    re-solves the regression; the grid is never read again.
    """

    def __init__(self, model, y=None, x=None, m=None, treatment=None):
        self.model = model
        self.white = model.white
        self.n = model.n
        self.y = None
        if y is not None:
            self.y = _model_rows("y", np.asarray(y, dtype=float).ravel(), self.n)
        arr = np.zeros((self.n, 0)) if x is None else np.asarray(x, dtype=float)
        if arr.size:
            self.x = _model_rows("x", np.atleast_1d(arr), self.n).reshape(self.n, -1)
        else:
            self.x = arr.reshape(self.n, 0)
        self.treatment = None
        if treatment is not None:
            self.treatment = _model_rows(
                "treatment", np.atleast_1d(np.asarray(treatment).astype(bool)), self.n
            )
        self.m = m
        self.point_fit = None
        if y is not None:
            if m is None or not 1 <= m <= model.n_components:
                raise ConformanceError(
                    f"score count m={m} outside 1..{model.n_components}"
                )
            self.point_fit = self.fit(None, component_scores(model)[:, :m])

    def fit(self, weights, scores):
        """Regression of every row under ``weights`` (uniform when None)."""
        design = RegressionDesign(
            y=self.y, x=self.x, scores=scores, treatment=self.treatment
        )
        if self.treatment is not None:
            return fit_precision(design, weights=weights)
        return fit_pcr(design, weights=weights)

    def eigs(self, weights):
        """Eigenvalues and coords refitted under the observation weights.

        The weighted covariance is divided by n, not by the weight total:
        bootstrap weights sum to n, and a jackknife replicate's eigenvalues
        only feed its coords, which the scale does not change.
        """
        centered = self.white - np.average(self.white, axis=0, weights=weights)
        return _eig_from_scores(centered, weights=weights)

    def align(self, coords: np.ndarray, m: int) -> np.ndarray:
        """Flip replicate eigenvector signs to match the point estimate."""
        ref = self.model.coords
        k = min(m, coords.shape[0], ref.shape[0])
        signs = np.sign(np.sum(coords[:k] * ref[:k], axis=1))
        signs[signs == 0] = 1.0
        out = coords[:k] * signs[:, None]
        return out

    def theta(self, weights, label: str) -> np.ndarray:
        """Coefficients of one replicate: refitted eigenfunctions, then regression."""
        coords = self.eigs(weights)[1]
        if coords.shape[0] < self.m:
            raise GridPcrError(
                f"{label} retained {coords.shape[0]} components, "
                f"fewer than the {self.m} the design needs"
            )
        coords = self.align(coords, self.m)
        return self.fit(weights, self.white @ coords.T).theta


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

    A replicate raising ``GridPcrError`` is recorded as (i, message).
    Returns the results in index order and the failures; more than
    ``MAX_FAILURE_FRACTION`` of ``count`` failing raises ``StudyError``.
    """

    def one(i):
        try:
            return fn(i)
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
    y,
    x,
    m: int,
    spec: BootstrapSpec,
    treatment=None,
    threads: int = 1,
) -> BootstrapResult:
    """Bootstrap the full pipeline and return percentile intervals for theta.

    ``model`` is the point fit of the sample whose rows ``y``, ``x`` and
    ``treatment`` describe. Each replicate re-estimates the eigenfunctions
    under its weights (signs aligned to the point estimate), rebuilds the
    scores, and refits the regression; ``m`` stays fixed at the point
    estimate's choice. Failed replicates are tolerated up to 5% of the study
    and reported; beyond that the study errors out.
    """
    prep = _PreparedPipeline(model, y=y, x=x, m=m, treatment=treatment)
    return _bootstrap(
        spec,
        lambda b: prep.theta(gen_weights(spec, prep.n, b), label=f"replicate {b}"),
        coefficient_names(prep.x.shape[1], m, treatment is not None),
        prep.point_fit.theta,
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
    prep = _PreparedPipeline(model)
    j = model.n_components
    if j == 0:
        raise ConformanceError("point estimate retains no components")

    def one(b):
        lams = prep.eigs(gen_weights(spec, prep.n, b))[0]
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
    y,
    x,
    m: int,
    spec: JackknifeSpec,
    treatment=None,
) -> JackknifeResult:
    """Grouped-jackknife covariance of theta from r systematic blocks.

    With k = floor(n / r), block l gives weight zero to observations {l,
    l + r, l + 2r, ...} (k of them) of the first r * k rows and to every
    trailing row beyond r * k, and weight one to the rest. Each replicate
    reruns the eigendecomposition and regression under those weights, as a
    bootstrap draw does; a failing block raises. The covariance is
    ((r - 1) / r) times the replicate scatter around the replicate mean, and
    intervals are normal around the full-sample point estimate.
    """
    prep = _PreparedPipeline(model, y=y, x=x, m=m, treatment=treatment)
    width = prep.point_fit.theta.size
    if spec.r <= width + 1:
        raise ConfigurationError(
            f"jackknife needs more blocks than coefficients + 1 "
            f"(r = {spec.r}, coefficients = {width})"
        )
    k = prep.n // spec.r
    if k < 2:
        raise ConfigurationError(
            f"jackknife with r = {spec.r} blocks leaves fewer than two "
            f"observations per block at n = {prep.n}"
        )
    used = spec.r * k
    reps = np.empty((spec.r, width))
    for block in range(spec.r):
        weights = np.zeros(prep.n)
        weights[:used] = 1.0
        weights[block:used:spec.r] = 0.0
        reps[block] = prep.theta(weights, label=f"jackknife block {block}")
    center = reps.mean(axis=0)
    dev = reps - center
    cov = (spec.r - 1) / spec.r * (dev.T @ dev)
    se = np.sqrt(np.diag(cov))
    point = prep.point_fit.theta
    lower, upper = normal_ci(point, se, spec.level)
    table = CiTable(
        names=coefficient_names(prep.x.shape[1], m, treatment is not None),
        point=point.copy(),
        lower=lower,
        upper=upper,
        se=se,
        level=spec.level,
        method=f"jackknife-r{spec.r}",
        completed=spec.r,
    )
    return JackknifeResult(replicates=reps, cov=cov, table=table, kept=used - k)
