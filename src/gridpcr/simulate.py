"""Scenario generation and Monte Carlo evaluation of the pipeline.

Samples follow a finite Karhunen-Loeve construction Z_i = sum_j
sqrt(lambda_j) U_ij phi_j with standard normal U and orthonormal phi_j from
one of two documented families: smooth Gaussian bumps on the unit square
(orthonormalized in a fixed order) and a quadratic/Gaussian radial pair on
the unit cube. Responses are linear in scalar AR(1) covariates and the
functional scores, with optional treatment-modifier blocks for two-arm
studies.

A study is defined here once. ``FAMILY_DEFAULTS`` holds each family's
grids, variances, score coefficients and spline, ``TABLES`` the six tables
of the paper's simulation study as ``StudyTable`` records, and one
``ScenarioConfig`` is one study: the data-generating process and the
pipeline fitted to it, with every setting left None taken from its family's
defaults. ``gridpcr simulate`` and ``gridpcr reproduce`` build every study
as one.

``run_monte_carlo`` repeats data generation and the full estimation chain
under replicate-keyed seeds and aggregates per-parameter mean squared errors,
interval coverage, and the distribution of the selected component count.
It builds the family, basis and whitener once per study, and each replicate
works from its n x J KL factors: a KL sample has rank J, and the projection
is linear, so every quantity the fit needs follows from the factors and the
family's own projection without forming the n x V sample. Replicates are
solved in fixed batches of ``resampling.BATCH`` consecutive indices: one
stacked fit, one regression and one plug-in covariance per batch and
selected m. A batch that holds a failing replicate raises its error, and
``resampling.solve_alone_on_failure`` solves each of its replicates again
alone, so the failing one fails with its own message.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .bases import bspline_tensor_basis
from .decomp import (
    check_tau,
    column_space,
    component_scores,
    model_from_white,
    select_pve,
)
from .errors import ConformanceError, ConfigurationError
from .regression import RegressionDesign, coefficient_names, fit_pcr, plugin_cov
from .resampling import (
    BootstrapSpec,
    JackknifeSpec,
    PluginSpec,
    coefficient_intervals,
    normal_ci,
    run_tolerant,
)
from .space import (
    AmbientSpace,
    Whitener,
    gram,
    project_scores,
    synthesize,
    whiten,
)
from .util import mix_seed, replicate_rng

# Study defaults per family: the desk and paper grids, the component
# variances and their true score coefficients, and the B-spline fitted to
# each replicate. ``ScenarioConfig`` takes every setting a study leaves unset
# from them, the grid from "desk".
FAMILY_DEFAULTS = {
    "synthetic2d": {
        "desk": (20, 24),
        "paper": (79, 95),
        "lambdas": (3.5, 3.0, 2.5, 2.0, 1.5, 1.0),
        "gamma0": (1.5, 1.0, 2.0, 2.5, 1.5, 3.0),
        "degree": 3,
        "interior_knots": 7,
    },
    "quadratic_gauss3d": {
        "desk": (12, 14, 10),
        "paper": (79, 95, 66),
        "lambdas": (2.0, 1.0),
        "gamma0": (1.5, -1.0),
        "degree": 2,
        "interior_knots": 2,
    },
}
# The grids every family defines.
SCALES = ("desk", "paper")

# Gaussian bumps (center, width) on the unit square; the 2D family takes the
# first J of these and orthonormalizes them in order. Widths stay >= 0.14 so
# moderate spline bases represent every orthonormalized function well.
BUMPS_2D = (
    ((0.25, 0.25), 0.20),
    ((0.75, 0.30), 0.18),
    ((0.30, 0.75), 0.18),
    ((0.72, 0.72), 0.16),
    ((0.50, 0.48), 0.26),
    ((0.15, 0.55), 0.15),
    ((0.60, 0.12), 0.17),
    ((0.85, 0.55), 0.14),
)
_GS_BREAKDOWN_TOL = 1e-8


def _reject_nonfinite(**settings) -> None:
    """Raise ``ConfigurationError`` for the first setting with a non-finite value.

    A NaN passes every range check (its comparisons are all false), and an
    infinite setting only fails once the replicates have run.
    """
    for name, value in settings.items():
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class TreatmentConfig:
    """Two-arm extension of a scenario: fair Bernoulli arms and modifier truth."""

    alpha: float
    beta: tuple
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        _reject_nonfinite(alpha=self.alpha, beta=self.beta, gamma=self.gamma)


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo study: a simulated data-generating process and its fit.

    ``dims`` (the family's desk grid), ``lambdas``, ``gamma0``, ``degree``
    and ``interior_knots`` left None take the family's
    ``FAMILY_DEFAULTS``. ``interior_knots`` is one count for every axis or
    one per axis, as ``parse_knots`` reads them, and is stored per axis,
    so every spelling of one study gives equal configs with equal hashes.

    ``intervals`` is None, for no intervals, or the spec of
    ``resampling.coefficient_intervals``' method, which checked its
    settings when it was built: plug-in intervals come from
    ``plugin_cov``, and a bootstrap or jackknife replicate calls the
    routine. Each replicate keys its bootstrap by ``mix_seed(seed,
    replicate)``, so a ``BootstrapSpec`` keeps ``base_seed`` 0. Settings
    that would fail every replicate are rejected here, before a study is
    built: the scenario, then the knot counts against its grid, then
    ``tau``, then ``intervals``.
    """

    family: str
    dims: tuple | None = None
    lambdas: tuple | None = None
    alpha0: float = 1.0
    beta0: tuple = (1.0, 1.0, 1.0, 1.0)
    gamma0: tuple | None = None
    corr: float = 0.0
    noise_sd: float = 1.0
    n: int = 100
    seed: int = 0
    treatment: TreatmentConfig | None = None
    degree: int | None = None
    interior_knots: tuple | None = None
    tau: float = 0.95
    intervals: PluginSpec | BootstrapSpec | JackknifeSpec | None = None

    def __post_init__(self):
        if self.family not in FAMILY_DEFAULTS:
            raise ConfigurationError(
                f"family must be one of {tuple(FAMILY_DEFAULTS)}, got {self.family!r}"
            )
        defaults = FAMILY_DEFAULTS[self.family]
        if self.dims is None:
            object.__setattr__(self, "dims", defaults["desk"])
        for name in ("lambdas", "gamma0", "degree", "interior_knots"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, defaults[name])
        dims = tuple(int(d) for d in self.dims)
        need = len(defaults["desk"])
        if len(dims) != need:
            raise ConfigurationError(f"family {self.family} needs a {need}-D grid")
        lams = tuple(float(v) for v in self.lambdas)
        if len(lams) == 0 or any(v <= 0 for v in lams):
            raise ConfigurationError("lambdas must be positive")
        if any(a <= b for a, b in zip(lams, lams[1:])):
            raise ConfigurationError("lambdas must be strictly decreasing")
        gamma = tuple(float(g) for g in self.gamma0)
        if len(gamma) != len(lams):
            raise ConfigurationError("gamma0 needs one score per component")
        beta = tuple(float(b) for b in self.beta0)
        _reject_nonfinite(
            lambdas=lams, alpha0=self.alpha0, beta0=beta, gamma0=gamma, noise_sd=self.noise_sd
        )
        if self.treatment is not None:
            if len(self.treatment.beta) != len(beta):
                raise ConfigurationError("modifier beta must match beta0 length")
            if len(self.treatment.gamma) != len(gamma):
                raise ConfigurationError("modifier gamma must match gamma0 length")
        if not -1.0 < self.corr < 1.0:
            raise ConfigurationError(f"corr must lie in (-1, 1), got {self.corr}")
        if self.noise_sd < 0:
            raise ConfigurationError("noise_sd must be nonnegative")
        if int(self.n) < 2:
            raise ConfigurationError(f"n must be at least 2 sample rows, got {self.n}")
        knots = tuple(parse_knots(self.interior_knots, len(dims)))
        check_tau(self.tau)
        spec = self.intervals
        if not isinstance(spec, (PluginSpec, BootstrapSpec, JackknifeSpec, type(None))):
            raise ConfigurationError(
                f"intervals must be None, a PluginSpec, BootstrapSpec or "
                f"JackknifeSpec, got {spec!r}"
            )
        if isinstance(spec, BootstrapSpec) and spec.base_seed != 0:
            raise ConfigurationError(
                f"a study keys each replicate's bootstrap by its own seed; "
                f"base_seed must be 0, got {spec.base_seed}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "beta0", beta)
        object.__setattr__(self, "gamma0", gamma)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "interior_knots", knots)

    @property
    def d(self) -> int:
        return len(self.beta0)

    @property
    def n_components(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class TrueFamily:
    """Orthonormal component functions of a scenario, sampled on the grid."""

    space: AmbientSpace
    phis: np.ndarray

    @property
    def n_components(self) -> int:
        return self.phis.shape[0]

    def gamma_element(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (self.n_components,):
            raise ConformanceError("one score per component required")
        return scores @ self.phis

    def inner(self, element: np.ndarray) -> np.ndarray:
        """Inner products <phi_j, element> of every component, shape (J,)."""
        return self.phis @ (element * self.space.weights)


def parse_knots(text, n_axes: int) -> list:
    """Interior knot counts per axis from one count or one per axis.

    ``text`` is comma-separated text, one count, or a list or tuple.
    """
    toks = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        values = [int(tok) for tok in toks]
    except (TypeError, ValueError):
        raise ConfigurationError(f"cannot parse knot counts {text!r}") from None
    if len(values) == 1:
        return values * n_axes
    if len(values) != n_axes:
        raise ConfigurationError(
            f"{len(values)} knot counts given for {n_axes} axes"
        )
    return values


@dataclass(frozen=True)
class StudyTable:
    """One table of the paper's simulation study, as ``gridpcr reproduce`` runs it.

    The table runs the ``family`` study at its defaults for every n of
    ``STUDY_SIZES`` and every correlation of ``corrs``, with the two-arm
    ``treatment`` block when one is given. ``terms`` are the name prefixes
    of the coefficient rows it keeps, every coefficient when empty, with
    wild bootstrap intervals. None keeps one row per study instead, of
    eigenvalue errors and the mean selected component count, and runs no
    intervals.
    """

    family: str
    terms: tuple | None
    corrs: tuple = (0.0,)
    treatment: TreatmentConfig | None = None


STUDY_SIZES = (100, 500, 2000)
# Tables 1 and 5 report the component sample alone, which does not involve
# the scalar covariates, so one correlation serves them.
TABLES = {
    1: StudyTable("synthetic2d", None),
    2: StudyTable("synthetic2d", ("intercept", "x"), corrs=(0.0, 0.5)),
    3: StudyTable("synthetic2d", ("z",), corrs=(0.0, 0.5)),
    4: StudyTable("quadratic_gauss3d", ()),
    5: StudyTable("quadratic_gauss3d", None),
    6: StudyTable(
        "quadratic_gauss3d",
        (),
        treatment=TreatmentConfig(alpha=0.5, beta=(0.5, -0.5, 0.25, 0.0), gamma=(1.0, -0.5)),
    ),
}


@dataclass(frozen=True)
class MetricsTable:
    """Aggregated Monte Carlo metrics, one entry per parameter.

    ``coverage`` entries are NaN when no intervals were produced;
    ``covered_reps`` counts the replicates entering each coverage average
    (components a replicate did not select are excluded there, while their
    squared error counts the estimate as zero). ``mhat_counts`` maps each
    observed selected component count to its frequency.
    """

    names: list
    truth: np.ndarray
    mse: np.ndarray
    coverage: np.ndarray
    covered_reps: np.ndarray
    mhat_counts: dict
    completed: int
    failures: list = field(default_factory=list)

    def rows(self) -> list:
        out = []
        for i, name in enumerate(self.names):
            out.append(
                [
                    name,
                    float(self.truth[i]),
                    float(self.mse[i]),
                    float(self.coverage[i]),
                    int(self.covered_reps[i]),
                ]
            )
        return out


def make_family(space: AmbientSpace, kind: str, n_components: int) -> TrueFamily:
    """Orthonormalize a documented closed-form family on a grid.

    synthetic2d: the first ``n_components`` Gaussian bumps of ``BUMPS_2D``.
    quadratic_gauss3d: 20 * r^2 and exp(-15 r^2) with r the distance to the
    cube center (at most two components). Gram-Schmidt runs in the listed
    order under the space inner product and refuses to continue when a raw
    function is numerically dependent on its predecessors.
    """
    if kind not in FAMILY_DEFAULTS:
        raise ConfigurationError(f"unknown family kind {kind!r}")
    need = len(FAMILY_DEFAULTS[kind]["desk"])
    if len(space.dims) != need:
        raise ConfigurationError(f"{kind} needs a {need}-D grid")
    axes = np.meshgrid(*space.centers(), indexing="ij")
    coords = [a.ravel() for a in axes]
    if kind == "synthetic2d":
        if not 1 <= n_components <= len(BUMPS_2D):
            raise ConfigurationError(
                f"synthetic2d offers up to {len(BUMPS_2D)} components"
            )
        raw = []
        for (cx, cy), width in BUMPS_2D[:n_components]:
            sq = (coords[0] - cx) ** 2 + (coords[1] - cy) ** 2
            raw.append(np.exp(-sq / (2.0 * width**2)))
    else:
        if not 1 <= n_components <= 2:
            raise ConfigurationError("quadratic_gauss3d offers up to 2 components")
        sq = sum((c - 0.5) ** 2 for c in coords)
        raw = [20.0 * sq, np.exp(-15.0 * sq)][:n_components]
    phis = _gram_schmidt(space, np.array(raw))
    return TrueFamily(space=space, phis=phis)


def _gram_schmidt(space: AmbientSpace, raw: np.ndarray) -> np.ndarray:
    out = np.empty_like(raw)
    w = space.weights
    for i, func in enumerate(raw):
        orig = float(np.sqrt(np.sum(func * func * w)))
        vec = func.copy()
        for prev in out[:i]:
            vec -= np.sum(vec * prev * w) * prev
        norm = float(np.sqrt(np.sum(vec * vec * w)))
        if orig == 0.0 or norm < _GS_BREAKDOWN_TOL * orig:
            raise ConfigurationError(
                f"family function {i + 1} is numerically dependent on its "
                "predecessors; orthonormalization broke down"
            )
        out[i] = vec / norm
    return out


def kl_factors(
    family: TrueFamily, lambdas, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw the (n, J) scaled factors sqrt(lambda_j) U_ij of n KL sample rows."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.shape != (family.n_components,):
        raise ConformanceError("one variance per family component required")
    if np.any(lams <= 0):
        raise ConfigurationError("variances must be positive")
    return rng.standard_normal((n, lams.size)) * np.sqrt(lams)


def kl_sample(
    family: TrueFamily, lambdas, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n mean-zero sample rows with variances ``lambdas`` along the family."""
    return kl_factors(family, lambdas, n, rng) @ family.phis


def ar_covariates(
    n: int, d: int, corr: float, rng: np.random.Generator
) -> np.ndarray:
    """Scalar covariates with AR(1)-structured correlation corr^|l - l'|."""
    if d == 0:
        return np.zeros((n, 0))
    if not -1.0 < corr < 1.0:
        raise ConfigurationError(f"corr must lie in (-1, 1), got {corr}")
    return rng.standard_normal((n, d)) @ _ar_factor(d, corr).T


@functools.lru_cache(maxsize=None)
def _ar_factor(d: int, corr: float) -> np.ndarray:
    """The Cholesky factor of the d x d AR(1) correlation corr^|l - l'|, read-only.

    Every replicate of a study draws its covariates with the same factor,
    so it is computed once per (d, corr).
    """
    omega = corr ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    root = np.linalg.cholesky(omega)
    root.flags.writeable = False
    return root


def gen_response(
    family: TrueFamily,
    factors,
    x,
    alpha0: float,
    beta0,
    gamma0,
    noise_sd: float,
    rng: np.random.Generator,
    treatment=None,
    modifier: TreatmentConfig | None = None,
) -> np.ndarray:
    """Linear response alpha + beta'X + <gamma, Z> (+ treatment block) + noise.

    The sample rows are Z_i = factors[i] @ family.phis (see
    ``generate_dataset``), so <gamma, Z_i> is factors[i] @ <phi, gamma>
    and no grid pass is made.
    """
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 2 or factors.shape[1] != family.n_components:
        raise ConformanceError("one factor per family component required")
    x = np.asarray(x, dtype=float).reshape(factors.shape[0], -1)
    beta0 = np.asarray(beta0, dtype=float)
    gamma_fn = family.gamma_element(gamma0)
    y = alpha0 + x @ beta0 + factors @ family.inner(gamma_fn)
    if modifier is not None:
        if treatment is None:
            raise ConformanceError("modifier truth needs a treatment indicator")
        a = np.asarray(treatment, dtype=float)
        mod_fn = family.gamma_element(np.asarray(modifier.gamma))
        y = y + a * (
            modifier.alpha
            + x @ np.asarray(modifier.beta)
            + factors @ family.inner(mod_fn)
        )
    if noise_sd > 0:
        y = y + noise_sd * rng.standard_normal(factors.shape[0])
    return y


def generate_dataset(
    config: ScenarioConfig, replicate: int, family: TrueFamily | None = None
):
    """One replicate's (space, family, factors, x, y, treatment).

    The sample is held as its (n, J) KL factors, column j scaled by
    sqrt(lambda_j): row i is ``factors[i] @ family.phis``, the bytes
    ``kl_sample`` returns, and the Monte Carlo harness never forms it.
    Arms are fair Bernoulli draws. ``family`` is the scenario's family when
    the caller has built it already; by default it is built here.
    Randomness is keyed by (config.seed, replicate), drawn as x, the
    factors, the treatment and the noise, so the same pair always
    reproduces the same dataset regardless of what else has run.
    """
    rng = replicate_rng(config.seed, replicate)
    if family is None:
        family = make_family(
            AmbientSpace.unit_domain(config.dims), config.family, config.n_components
        )
    x = ar_covariates(config.n, config.d, config.corr, rng)
    factors = kl_factors(family, config.lambdas, config.n, rng)
    treatment = None
    if config.treatment is not None:
        treatment = rng.random(config.n) < 0.5
    y = gen_response(
        family,
        factors,
        x,
        config.alpha0,
        config.beta0,
        config.gamma0,
        config.noise_sd,
        rng,
        treatment=treatment,
        modifier=config.treatment,
    )
    return family.space, family, factors, x, y, treatment


def _true_theta(config: ScenarioConfig) -> np.ndarray:
    base = np.concatenate([[config.alpha0], config.beta0, config.gamma0])
    if config.treatment is None:
        return base
    mod = np.concatenate(
        [[config.treatment.alpha], config.treatment.beta, config.treatment.gamma]
    )
    return np.concatenate([base, mod])


def _metric_names(config: ScenarioConfig) -> list:
    coef = coefficient_names(
        config.d, config.n_components, config.treatment is not None
    )
    lam = [f"lambda{j + 1}" for j in range(config.n_components)]
    return lam + coef


@dataclass(frozen=True)
class Study:
    """The parts of a Monte Carlo scenario that no replicate changes.

    ``family_white`` (J, rank) holds the whitened projection scores of
    ``family.phis`` and ``family_gram`` (J, J) their Gram matrix under the
    space inner product. Both are exact linear images of the family, so
    ``fit`` reproduces ``fit_subspace_pca`` on a KL sample up to rounding.
    ``family_frame`` is ``column_space(family_white)``, a pair ``(left,
    right)`` of shapes (J, k) and (k, rank) with k <= J: every sample's
    whitened scores lie in the k rows of ``right``, and ``frame_rows``
    (k, V) are those rows synthesized on the grid. A replicate works in
    that frame from fit to interval: its model keeps the n x k scores
    ``factors @ left`` with ``right``, solves a k x k eigenproblem, takes
    its signs from k grid rows, and no n x rank array is formed.
    """

    family: TrueFamily
    basis: object
    whitener: Whitener
    family_white: np.ndarray
    family_gram: np.ndarray
    family_frame: tuple
    frame_rows: np.ndarray

    @classmethod
    def build(cls, config: ScenarioConfig) -> "Study":
        space = AmbientSpace.unit_domain(config.dims)
        family = make_family(space, config.family, config.n_components)
        basis = bspline_tensor_basis(space, config.degree, config.interior_knots)
        whitener = whiten(gram(space, basis))
        family_white = project_scores(space, basis, family.phis) @ whitener.factor.T
        left, right = column_space(family_white)
        return cls(
            family=family,
            basis=basis,
            whitener=whitener,
            family_white=family_white,
            family_gram=(family.phis * space.weights) @ family.phis.T,
            family_frame=(left, right),
            frame_rows=synthesize(space, basis, right @ whitener.factor),
        )

    def fit(self, factors: np.ndarray):
        """``fit_subspace_pca`` of the sample rows ``factors @ family.phis``.

        The rows' whitened scores are ``factors @ family_white``, which is
        ``(factors @ left) @ right`` in ``family_frame``; their mean is the
        mean factor times the family, and the squared norm of a centered
        row f @ phis is f @ family_gram @ f. A stack of B replicates'
        factors (B, n, J) is fitted in one pass, each slice with the bytes
        of its own fit apart from the pointwise mean, and gives a list of B
        models.
        """
        center = factors.mean(axis=-2)
        dev = factors - center[..., None, :]
        total = np.mean(np.sum((dev @ self.family_gram) * dev, axis=-1), axis=-1)
        left, right = self.family_frame
        return model_from_white(
            self.family.space,
            self.basis,
            factors @ left,
            self.whitener,
            center @ self.family.phis,
            total,
            frame=(right, self.frame_rows),
        )


def _stacked_design(data, scores, members, m) -> RegressionDesign:
    """The regression design of the replicates ``members``, stacked in that order.

    ``data`` holds each replicate's (factors, x, y, treatment) and ``scores``
    its component scores, of which the first m columns are used, so every
    slice keeps the layout of a replicate's own design.
    """
    _, x, y, treatment = zip(*(data[i] for i in members))
    return RegressionDesign(
        y=np.array(y),
        x=np.array(x),
        scores=np.array([scores[i] for i in members])[:, :, :m],
        treatment=None if treatment[0] is None else np.array(treatment),
    )


def run_replicate(
    config: ScenarioConfig, replicates, study: Study | None = None
) -> list:
    """Generate a batch of datasets, run the estimation chain, and score each.

    ``replicates`` is a range of replicate indices; an int is a range of
    one. Returns one dict per index, with the selected component count,
    squared errors for every true parameter (eigenvalues first, then
    coefficients) and interval coverage indicators where inference was
    requested, or raises the ``GridPcrError`` of a failing replicate;
    ``run_monte_carlo`` then solves each replicate of the range alone.
    Eigen-block comparisons are sign-aligned to the true eigenfunctions;
    components beyond the selected count are scored as zero estimates and
    skipped for coverage. ``study`` is the scenario's ``Study``, built here
    when not given.

    Each dataset comes from its own ``generate_dataset`` call, and
    ``Study.fit`` fits them all in one stacked pass. Replicates that select
    the same m, and retain as many components, are regressed by one
    ``fit_pcr`` call and get their plug-in covariances from one
    ``plugin_cov`` call; a bootstrap or jackknife runs per replicate. Each
    replicate's numbers are those of a range of one.
    """
    if study is None:
        study = Study.build(config)
    if isinstance(replicates, int):
        replicates = range(replicates, replicates + 1)
    data = [generate_dataset(config, r, study.family)[2:] for r in replicates]
    models = study.fit(np.array([factors for factors, *_ in data]))
    groups = {}
    for i, model in enumerate(models):
        m = select_pve(model, config.tau).m
        groups.setdefault((m, model.n_components), []).append(i)
    truth = _true_theta(config)
    out = [None] * len(data)
    for (m, _), members in groups.items():
        scores = {i: component_scores(models[i]) for i in members}
        design = _stacked_design(data, scores, members, m)
        fits = fit_pcr(design)
        bounds = [None] * len(members)
        spec = config.intervals
        if isinstance(spec, PluginSpec):
            covs = plugin_cov(fits, [models[i] for i in members], design)
            bounds = [
                normal_ci(fit.theta, np.sqrt(np.diag(cov)), spec.level)
                for fit, cov in zip(fits, covs)
            ]
        elif spec is not None:
            for k, (i, fit) in enumerate(zip(members, fits)):
                _, x, y, treatment = data[i]
                if isinstance(spec, BootstrapSpec):
                    spec = replace(spec, base_seed=mix_seed(config.seed, replicates[i]))
                table = coefficient_intervals(
                    models[i],
                    RegressionDesign(y=y, x=x, scores=scores[i][:, :m], treatment=treatment),
                    fit, spec,
                )[0]
                bounds[k] = (table.lower, table.upper)
        for i, fit, bound in zip(members, fits, bounds):
            out[i] = _score(config, study, models[i], m, fit.theta, truth, bound)
    return out


def _score(config, study, model, m, theta, truth, bounds) -> dict:
    """One replicate's metrics from its model, selected m, coefficients and bounds.

    ``bounds`` is the (lower, upper) pair of the coefficient intervals, or
    None without inference.
    """
    # Sign alignment of estimated components to the true family, in whitened
    # coordinates: <phi_hat_j, phi_j> is coords[j] . (whitened scores of phi_j).
    j_true = config.n_components
    k = min(m, j_true)
    inner = np.sum(model.coords[:k] * study.family_white[:k], axis=1)
    signs = np.ones(j_true)
    signs[:k] = np.where(inner >= 0, 1.0, -1.0)

    lam_err = np.zeros(j_true)
    for j in range(j_true):
        est = model.eigenvalues[j] if j < model.n_components else 0.0
        lam_err[j] = (est - config.lambdas[j]) ** 2

    dest, src, sign = _fit_to_truth(config, signs, m, config.treatment is not None)
    est_theta = np.zeros(truth.size)
    est_theta[dest] = sign * theta[src]
    theta_err = (est_theta - truth) ** 2

    covered = np.full(truth.size, np.nan)
    if bounds is not None:
        lo, hi = sign * bounds[0][src], sign * bounds[1][src]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        covered[dest] = ((lo <= truth[dest]) & (truth[dest] <= hi)).astype(float)
    return {
        "m": m,
        "lam_err": lam_err,
        "theta_err": theta_err,
        "covered": covered,
    }


def _fit_to_truth(config: ScenarioConfig, signs, m: int, two_arm: bool):
    """Map the fit's coefficient layout onto the true parameter layout.

    Returns (destination, source, sign) arrays: true parameter ``dest[i]``
    is estimated by ``sign[i]`` times fit coefficient ``src[i]``. Each arm's
    block maps its intercept and covariates, then gamma for the first
    min(m, J) components, sign-aligned to the true family; true components
    beyond the selected count have no estimate and no interval.
    """
    d, j_true = config.d, config.n_components
    k = min(m, j_true)
    arms = range(2 if two_arm else 1)
    block = np.arange(1 + d + k)
    dest = np.concatenate([arm * (1 + d + j_true) + block for arm in arms])
    src = np.concatenate([arm * (1 + d + m) + block for arm in arms])
    sign = np.concatenate([np.ones(1 + d), signs[:k]] * len(arms))
    return dest, src, sign


def run_monte_carlo(
    config: ScenarioConfig, reps: int, threads: int = 1
) -> MetricsTable:
    """Repeat the scenario ``reps`` times and aggregate the metrics.

    The scenario's ``Study`` is built once and shared by every replicate.
    Replicates are keyed by (config.seed, replicate) and solved by
    ``run_replicate`` in fixed ranges of ``resampling.BATCH``, so results
    are bitwise-reproducible for any thread count. A range that raises is
    solved again replicate by replicate (``resampling.run_tolerant``), and
    replicate failures are tolerated up to 5% of the study and listed in
    the result; more than that raises ``StudyError``.
    """
    if reps < 1:
        raise ConfigurationError("need at least one replicate")
    study = Study.build(config)
    metrics, failures = run_tolerant(
        lambda indices: run_replicate(config, indices, study),
        reps,
        threads,
        "Monte Carlo",
    )
    j_true = config.n_components
    names = _metric_names(config)
    truth = np.concatenate([config.lambdas, _true_theta(config)])
    errs = np.array(
        [np.concatenate([r["lam_err"], r["theta_err"]]) for r in metrics]
    )
    mse = errs.mean(axis=0)
    cov_rows = np.array(
        [
            np.concatenate([np.full(j_true, np.nan), r["covered"]])
            for r in metrics
        ]
    )
    denom = np.sum(~np.isnan(cov_rows), axis=0)
    with np.errstate(invalid="ignore"):
        coverage = np.nansum(cov_rows, axis=0) / denom
    mhat_counts: dict = {}
    for r in metrics:
        mhat_counts[r["m"]] = mhat_counts.get(r["m"], 0) + 1
    return MetricsTable(
        names=names,
        truth=truth,
        mse=mse,
        coverage=coverage,
        covered_reps=denom,
        mhat_counts=dict(sorted(mhat_counts.items())),
        completed=len(metrics),
        failures=failures,
    )
