"""Resampling inference for the subspace-PCA regression pipeline.

Every replicate reruns the estimation chain after the basis -- eigenfunctions,
component scores, regression -- under a reweighted empirical measure, so the
intervals account for eigenfunction estimation, not just regression noise.
Each replicate is one vector of observation weights: multinomial counts for a
nonparametric bootstrap draw, positive multipliers for a wild draw, and a 0/1
mask for a jackknife block. The basis Gram matrix and whitener do not depend
on observation weights, so replicates start from the fitted model's whitened
scores; this is an exact algebraic shortcut, not an approximation. When
those scores have rank k below the basis rank, as in every noise-free
Karhunen-Loeve simulation, each replicate works in their k-dimensional
numerical column space (``_replicate_frame``), which is exact up to rounding;
a Monte Carlo fit brings that space with it.

Replicates are solved in fixed batches of ``BATCH`` consecutive draws, one
pool task each: one stacked eigensolve (``decomp._eig_from_scores``), which
finds only the leading eigenpairs each draw uses, by subspace iteration from
the point fit, and one stacked least-squares fit (``fit_pcr``) per batch
(``_replicate_thetas``). A batch solver returns one result per draw of its
range, or raises the ``GridPcrError`` of a failing draw (too few
components, a degenerate design, an empty arm). ``solve_alone_on_failure``
then solves each draw of that range again on its own, so a failing draw
fails alone, with its own message, and the others keep the numbers they
have in a failure-free batch.

Replicate randomness is keyed by (base_seed, replicate index), and a batch is
a fixed range of indices, making every study reproducible for any worker
count and any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .decomp import (
    EigenModel,
    _eig_from_scores,
    check_score_count,
    column_space,
    component_scores,
)
from .errors import (
    ConformanceError,
    ConfigurationError,
    GridPcrError,
    StudyError,
)
from .regression import (
    RegressionDesign,
    RegressionFit,
    coefficient_names,
    fit_pcr,
    plugin_cov,
)
from .util import norm_ppf, replicate_rng, run_indexed

BOOTSTRAP_KINDS = ("nonparametric", "wild")
MAX_FAILURE_FRACTION = 0.05
# Draws per pool task and per stacked solve, chosen by measurement: 200 wild
# draws of bootstrap-2d input set 1 (n = 500, k = 121, p = 18) on two
# workers took 1.56, 0.72, 0.54, 0.49 and 0.52 ms per draw in batches of
# 1, 4, 8, 16 and 25, at a peak RSS of 46.3, 46.8, 48.0, 50.3 and 53.7 MiB.
# Monte Carlo replicates run in the same batches (simulate.run_monte_carlo).
BATCH = 8


def check_level(level: float) -> None:
    """Reject an interval level outside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must lie in (0, 1), got {level}")


def check_blocks(r: int, width: int | None = None, n: int | None = None) -> int:
    """The jackknife block count ``r`` as an int, checked.

    Rejects fewer than two blocks; given the coefficient count ``width``,
    a count not above width + 1; and given the row count ``n``, a count
    that leaves fewer than two rows per block.
    """
    r = int(r)
    if r < 2:
        raise ConfigurationError("jackknife needs at least two blocks")
    if width is not None and r <= width + 1:
        raise ConfigurationError(
            f"jackknife needs more blocks than coefficients + 1 "
            f"(r = {r}, coefficients = {width})"
        )
    if n is not None and n // r < 2:
        raise ConfigurationError(
            f"jackknife with r = {r} blocks leaves fewer than two "
            f"observations per block at n = {n}"
        )
    return r


@dataclass(frozen=True)
class PluginSpec:
    """Normal intervals at ``level`` from the plug-in covariance (one arm only)."""

    level: float = 0.95

    def __post_init__(self):
        check_level(self.level)


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
        check_level(self.level)
        object.__setattr__(self, "b_reps", int(self.b_reps))
        object.__setattr__(self, "base_seed", int(self.base_seed))


@dataclass(frozen=True)
class JackknifeSpec:
    """Configuration of a block-jackknife study: ``r`` disjoint blocks.

    ``r`` None asks for the fewest blocks allowed (``jackknife_blocks``).
    """

    r: int | None = None
    level: float = 0.95

    def __post_init__(self):
        if self.r is not None:
            object.__setattr__(self, "r", check_blocks(self.r))
        check_level(self.level)


def jackknife_blocks(spec: JackknifeSpec, width: int | None) -> int:
    """The block count of ``spec`` for ``width`` coefficients.

    ``spec.r`` when given, else the fewest allowed, coefficients + 2;
    ``width`` may be None when ``spec.r`` is given.
    """
    return width + 2 if spec.r is None else spec.r


@dataclass(frozen=True)
class CiTable:
    """Per-parameter point estimates, interval bounds, and standard errors.

    ``method`` names how the intervals were made and ``completed`` counts
    the replicates behind them (0 for plug-in intervals).
    """

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
    check_score_count(design.m, model)
    ref = component_scores(model)[:, : design.m]
    if np.max(np.abs(design.scores - ref)) > 1e-12 * np.max(np.abs(ref)):
        raise ConformanceError(
            f"design scores are not the model's first {design.m} component scores"
        )


def _replicate_frame(model: EigenModel):
    """The scores every replicate of ``model`` refits from, built once per study.

    Returns ``(left, ref)``: scores (n, k) whose k columns span the
    model's whitened scores, and ``ref``, the point estimate's coords in
    those columns. A replicate then solves a k x k eigenproblem, and its
    component scores ``left @ vecs.T`` equal ``model.white @ (vecs @
    right).T`` up to rounding. A model that carries its factored scores
    (a Monte Carlo ``Study`` fit) gives ``model.left`` and
    ``model.frame_coords``. Otherwise, when the model keeps fewer
    components than the basis rank, the whitened scores may have a rank k
    below it: ``column_space(model.white)`` gives ``left`` and ``right``,
    and ``ref = model.coords @ right.T``. When the model keeps as many
    components as the basis rank, the scores are full rank, no SVD is
    taken and the frame is ``(model.white, model.coords)``. The rows of
    ``ref`` also start each replicate's subspace iteration
    (``_replicate_thetas``), and give its eigenvector signs.
    """
    if model.right is not None or model.n_components == model.whitener.rank:
        return model.left, model.frame_coords
    left, right = column_space(model.white)
    return left, model.coords @ right.T


def _replicate_thetas(frame, design: RegressionDesign, weights, labels) -> list:
    """Coefficients of a batch of replicates: refitted eigenfunctions, then regression.

    ``frame`` is ``_replicate_frame`` of the point fit, ``weights`` holds
    one row of observation weights per draw (B, n), and ``labels`` is the
    subject of each draw's error message ("jackknife block l"; "the draw"
    for a bootstrap, whose ``run_tolerant`` adds the index). One stacked
    ``_eig_from_scores`` refits every draw's m leading eigenpairs from the
    point fit's ``ref``, and each draw's eigenvectors are flipped to match
    the signs of ``ref``; one stacked ``fit_pcr`` then fits the draws'
    scores. The weighted
    covariance is divided by n, not by the weight total: bootstrap weights
    sum to n, and a jackknife replicate's eigenvalues only feed its coords,
    which the scale does not change. Returns one theta per draw, or raises
    the ``GridPcrError`` of a failing draw (fewer than m components
    retained, a degenerate design, an empty arm).
    """
    left, ref = frame
    m = design.m
    flips = []
    for label, (_, vecs) in zip(labels, _eig_from_scores(left, weights, wanted=m, start=ref)):
        if vecs.shape[0] < m:
            raise GridPcrError(
                f"{label} retained {vecs.shape[0]} components, "
                f"fewer than the {m} the design needs"
            )
        signs = np.sign(np.sum(vecs[:m] * ref[:m], axis=1))
        signs[signs == 0] = 1.0
        flips.append(vecs[:m] * signs[:, None])
    scores = left @ np.swapaxes(np.array(flips), 1, 2)
    return [fit.theta for fit in fit_pcr(replace(design, scores=scores), weights)]


def percentile_ci(draws, level: float):
    """Percentile interval bounds from bootstrap draws.

    Quantiles use linear interpolation between order statistics (position
    (B - 1) q + 1); at least two finite draws per column are required.
    """
    check_level(level)
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


def solve_alone_on_failure(solve, indices) -> list:
    """Outcomes of the range ``indices``: ``solve(indices)``, or each index alone.

    ``solve`` returns one result per index of its range, or raises the
    ``GridPcrError`` of a failing index. Then each index of the range is
    solved again as a range of one, and an index that still fails gets
    that error as its outcome: a failing draw fails alone, with its own
    message. This is the one place where a raised error becomes an
    outcome. A ``ConfigurationError`` propagates at once: a setting that
    fails one replicate fails them all.
    """
    try:
        return solve(indices)
    except ConfigurationError:
        raise
    except GridPcrError as exc:
        if len(indices) == 1:
            return [exc]
    alone = (indices[k : k + 1] for k in range(len(indices)))
    return [solve_alone_on_failure(solve, one)[0] for one in alone]


def _run_batches(solve, count: int, threads: int) -> list:
    """Outcomes of every index below ``count``, solved in fixed ranges of ``BATCH``.

    Each range of ``BATCH`` consecutive indices is one ``run_indexed``
    task, so the ranges, and the outcomes, do not depend on ``threads``.
    ``solve(indices)`` returns one result per index of its range or raises,
    and ``solve_alone_on_failure`` turns a range's failure into the
    outcomes of its indices solved alone: a result, or the ``GridPcrError``
    that index fails with.
    """
    ranges = [range(i, min(count, i + BATCH)) for i in range(0, count, BATCH)]
    parts = run_indexed(
        lambda t: solve_alone_on_failure(solve, ranges[t]), len(ranges), threads
    )
    return [outcome for part in parts for outcome in part]


def run_tolerant(solve, count: int, threads: int, what: str):
    """Evaluate ``solve`` on every index below ``count``, tolerating a few failures.

    The indices run as ``_run_batches`` runs them: ``solve(indices)`` takes
    a fixed range of ``BATCH`` consecutive indices and returns one result
    per index, or raises. A ``GridPcrError`` outcome is recorded as (i,
    message). A ``ConfigurationError`` propagates at once. Returns the
    results in index order and the failures; more than
    ``MAX_FAILURE_FRACTION`` of ``count`` failing raises ``StudyError``.
    """
    done, failures = [], []
    for i, res in enumerate(_run_batches(solve, count, threads)):
        if isinstance(res, GridPcrError):
            failures.append((i, str(res)))
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
    check_level(level)
    z = norm_ppf(0.5 * (1.0 + level))
    return point - z * se, point + z * se


def _normal_table(names, point, se, level: float, method: str, completed: int):
    """The ``CiTable`` of normal intervals ``normal_ci(point, se, level)``."""
    lower, upper = normal_ci(point, se, level)
    return CiTable(
        names=names,
        point=point.copy(),
        lower=lower,
        upper=upper,
        se=se,
        level=level,
        method=method,
        completed=completed,
    )


def _bootstrap(spec: BootstrapSpec, n: int, solve, names: list, point, threads: int):
    """Solve every replicate in batches and tabulate percentile intervals.

    ``solve(weights, draws)`` returns one result per draw of the range
    ``draws``, whose ``gen_weights`` over n rows are the rows of ``weights``,
    or raises the ``GridPcrError`` of a failing draw.
    """
    draws, failures = run_tolerant(
        lambda b: solve(np.array([gen_weights(spec, n, i) for i in b]), b),
        spec.b_reps, threads, "bootstrap",
    )
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
    fit: RegressionFit | None = None,
) -> BootstrapResult:
    """Bootstrap the full pipeline and return percentile intervals for theta.

    ``model`` is the point fit of the sample whose rows ``design``
    describes, and the design's scores are the model's first m component
    scores. ``fit`` is ``fit_pcr(design)``, fitted here when not given.
    Each replicate re-estimates the eigenfunctions under its weights
    (signs aligned to the point estimate), rebuilds the scores, and refits
    the regression; m stays fixed at the design's. Replicates run in
    batches of ``BATCH`` on up to ``threads`` pool workers; the draws do
    not depend on the count. Failed replicates are tolerated up to 5% of
    the study and reported; beyond that the study errors out.
    """
    _check_design(model, design)
    frame = _replicate_frame(model)
    return _bootstrap(
        spec,
        model.n,
        lambda weights, draws: _replicate_thetas(
            frame, design, weights, ["the draw"] * len(draws)
        ),
        coefficient_names(design.d, design.m, design.treatment is not None),
        (fit_pcr(design) if fit is None else fit).theta,
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
    left, ref = _replicate_frame(model)

    def solve(weights, draws):
        out = np.zeros((len(draws), j))
        pairs = _eig_from_scores(left, weights, wanted=j, start=ref)
        for row, (lams, _) in zip(out, pairs):
            take = min(j, lams.size)
            row[:take] = lams[:take]
        return list(out)

    names = [f"lambda{k + 1}" for k in range(j)]
    return _bootstrap(spec, model.n, solve, names, model.eigenvalues, threads)


def block_jackknife(
    model: EigenModel,
    design: RegressionDesign,
    spec: JackknifeSpec,
    threads: int = 1,
    fit: RegressionFit | None = None,
) -> JackknifeResult:
    """Grouped-jackknife covariance of theta from r systematic blocks.

    ``model``, ``design`` and ``fit`` are as for ``bootstrap_theta``. r is
    ``jackknife_blocks`` of the spec, and ``check_blocks`` rejects it
    against the coefficient and row counts.
    With k = floor(n / r), block l gives weight zero to observations {l,
    l + r, l + 2r, ...} (k of them) of the first r * k rows and to every
    trailing row beyond r * k, and weight one to the rest. Each replicate
    reruns the eigendecomposition and regression under those weights, as a
    bootstrap draw does; the lowest failing block raises. The covariance
    is ((r - 1) / r) times the replicate scatter around the replicate mean,
    and intervals are normal around the full-sample point estimate. Blocks
    run in batches of ``BATCH`` on up to ``threads`` pool workers; the
    result does not depend on the count.
    """
    _check_design(model, design)
    point = (fit_pcr(design) if fit is None else fit).theta
    n = design.n
    r = check_blocks(jackknife_blocks(spec, point.size), point.size, n)
    k = n // r
    used = r * k
    frame = _replicate_frame(model)

    def solve(blocks):
        weights = np.zeros((len(blocks), n))
        weights[:, :used] = 1.0
        for row, block in zip(weights, blocks):
            row[block:used:r] = 0.0
        labels = [f"jackknife block {block}" for block in blocks]
        return _replicate_thetas(frame, design, weights, labels)

    reps = _run_batches(solve, r, threads)
    for rep in reps:
        if isinstance(rep, GridPcrError):
            raise rep
    reps = np.array(reps)
    center = reps.mean(axis=0)
    dev = reps - center
    cov = (r - 1) / r * (dev.T @ dev)
    table = _normal_table(
        coefficient_names(design.d, design.m, design.treatment is not None),
        point, np.sqrt(np.diag(cov)), spec.level, f"jackknife-r{r}", r,
    )
    return JackknifeResult(replicates=reps, cov=cov, table=table, kept=used - k)


def coefficient_intervals(
    model: EigenModel,
    design: RegressionDesign,
    fit: RegressionFit,
    spec,
    threads: int = 1,
):
    """Intervals for the coefficients of ``fit`` by the method ``spec`` names.

    ``fit`` is ``fit_pcr(design)``, the point estimate of every method, and
    ``model`` and ``design`` are as for ``bootstrap_theta``. A
    ``PluginSpec`` gives normal intervals from ``plugin_cov`` (one arm
    only); a ``BootstrapSpec`` the percentile intervals of
    ``bootstrap_theta``; a ``JackknifeSpec`` the normal intervals of
    ``block_jackknife``, with ``jackknife_blocks`` blocks. Replicates run
    on up to ``threads`` workers. Returns the ``CiTable`` and the
    ``BootstrapResult`` or ``JackknifeResult`` behind it, None for plug-in
    intervals, whose table counts no completed replicates.
    """
    if isinstance(spec, BootstrapSpec):
        res = bootstrap_theta(model, design, spec, threads, fit)
    elif isinstance(spec, JackknifeSpec):
        spec = replace(spec, r=jackknife_blocks(spec, fit.theta.size))
        res = block_jackknife(model, design, spec, threads, fit)
    elif isinstance(spec, PluginSpec):
        se = np.sqrt(np.diag(plugin_cov(fit, model, design)))
        names = coefficient_names(design.d, design.m)
        return _normal_table(names, fit.theta, se, spec.level, "plugin", 0), None
    else:
        raise ConfigurationError(
            f"intervals must be a PluginSpec, BootstrapSpec or JackknifeSpec, got {spec!r}"
        )
    return res.table, res
