"""Scenario generation and Monte Carlo evaluation of the pipeline.

Samples follow a finite Karhunen-Loeve construction Z_i = sum_j
sqrt(lambda_j) U_ij phi_j with standard normal U and orthonormal phi_j from
one of two documented families: smooth Gaussian bumps on the unit square
(orthonormalized in a fixed order) and a quadratic/Gaussian radial pair on
the unit cube. Responses are linear in scalar AR(1) covariates and the
functional scores, with optional treatment-modifier blocks for two-arm
studies.

``run_monte_carlo`` repeats data generation and the full estimation chain
under replicate-keyed seeds and aggregates per-parameter mean squared errors,
interval coverage, and the distribution of the selected component count.
It builds the family, basis and whitener once per study, and each replicate
works from its n x J KL factors: a KL sample has rank J, and the projection
is linear, so every quantity the fit needs follows from the factors and the
family's own projection without forming the n x V sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import bspline_tensor_basis
from .decomp import EigenModel, component_scores, model_from_white, select_pve
from .errors import ConformanceError, ConfigurationError
from .regression import RegressionDesign, coefficient_names, fit_pcr, plugin_cov
from .resampling import (
    BootstrapSpec,
    block_jackknife,
    bootstrap_theta,
    jackknife_spec,
    normal_ci,
    run_tolerant,
)
from .space import AmbientSpace, Whitener, gram, project_scores, whiten
from .util import mix_seed, replicate_rng

FAMILY_KINDS = ("synthetic2d", "quadratic_gauss3d")

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


@dataclass(frozen=True)
class TreatmentConfig:
    """Two-arm extension of a scenario: Bernoulli arms and modifier truth."""

    alpha: float
    beta: tuple
    gamma: tuple
    prob: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.prob < 1.0:
            raise ConfigurationError("treatment probability must lie in (0, 1)")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated data-generating process."""

    family: str
    dims: tuple
    lambdas: tuple
    alpha0: float
    beta0: tuple
    gamma0: tuple
    corr: float = 0.0
    noise_sd: float = 1.0
    n: int = 100
    seed: int = 0
    treatment: TreatmentConfig | None = None

    def __post_init__(self):
        if self.family not in FAMILY_KINDS:
            raise ConfigurationError(
                f"family must be one of {FAMILY_KINDS}, got {self.family!r}"
            )
        dims = tuple(int(d) for d in self.dims)
        need = 2 if self.family == "synthetic2d" else 3
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
        if self.treatment is not None:
            if len(self.treatment.beta) != len(beta):
                raise ConfigurationError("modifier beta must match beta0 length")
            if len(self.treatment.gamma) != len(gamma):
                raise ConfigurationError("modifier gamma must match gamma0 length")
        if not -1.0 < self.corr < 1.0:
            raise ConfigurationError(f"corr must lie in (-1, 1), got {self.corr}")
        if self.noise_sd < 0:
            raise ConfigurationError("noise_sd must be nonnegative")
        if int(self.n) < 1:
            raise ConfigurationError("n must be positive")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "beta0", beta)
        object.__setattr__(self, "gamma0", gamma)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))

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
    kind: str

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


@dataclass(frozen=True)
class KLSample:
    """Sample rows held as scaled KL factors: row i is ``factors[i] @ phis``.

    ``factors`` is (n, J) with column j scaled by sqrt(lambda_j).
    ``np.asarray(sample)`` forms the (n, V) rows, the same bytes
    ``kl_sample`` returns, so a KLSample is accepted wherever a sample is;
    the Monte Carlo harness reads only ``factors``.
    """

    family: TrueFamily
    factors: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.factors @ self.family.phis, dtype=dtype)


@dataclass(frozen=True)
class PipelineOptions:
    """Estimation settings applied to every Monte Carlo replicate."""

    degree: int = 3
    interior_knots: int = 7
    tau: float = 0.95
    m_override: int | None = None
    inference: str | None = None
    b_reps: int = 300
    boot_kind: str = "wild"
    level: float = 0.95
    r_blocks: int | None = None

    def __post_init__(self):
        if self.inference not in (None, "plugin", "bootstrap", "jackknife"):
            raise ConfigurationError(
                f"inference must be plugin, bootstrap, jackknife, or None, "
                f"got {self.inference!r}"
            )


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


def scenario_space(config: ScenarioConfig) -> AmbientSpace:
    """Unit-domain space of a scenario (cell measure = product of 1/dim)."""
    return AmbientSpace.unit_domain(config.dims)


def make_family(space: AmbientSpace, kind: str, n_components: int) -> TrueFamily:
    """Orthonormalize a documented closed-form family on a grid.

    synthetic2d: the first ``n_components`` Gaussian bumps of ``BUMPS_2D``.
    quadratic_gauss3d: 20 * r^2 and exp(-15 r^2) with r the distance to the
    cube center (at most two components). Gram-Schmidt runs in the listed
    order under the space inner product and refuses to continue when a raw
    function is numerically dependent on its predecessors.
    """
    if kind not in FAMILY_KINDS:
        raise ConfigurationError(f"unknown family kind {kind!r}")
    axes = np.meshgrid(*space.centers(), indexing="ij")
    coords = [a.ravel() for a in axes]
    if kind == "synthetic2d":
        if len(space.dims) != 2:
            raise ConfigurationError("synthetic2d needs a 2-D grid")
        if not 1 <= n_components <= len(BUMPS_2D):
            raise ConfigurationError(
                f"synthetic2d offers up to {len(BUMPS_2D)} components"
            )
        raw = []
        for (cx, cy), width in BUMPS_2D[:n_components]:
            sq = (coords[0] - cx) ** 2 + (coords[1] - cy) ** 2
            raw.append(np.exp(-sq / (2.0 * width**2)))
    else:
        if len(space.dims) != 3:
            raise ConfigurationError("quadratic_gauss3d needs a 3-D grid")
        if not 1 <= n_components <= 2:
            raise ConfigurationError("quadratic_gauss3d offers up to 2 components")
        sq = sum((c - 0.5) ** 2 for c in coords)
        raw = [20.0 * sq, np.exp(-15.0 * sq)][:n_components]
    phis = _gram_schmidt(space, np.array(raw))
    return TrueFamily(space=space, phis=phis, kind=kind)


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
    omega = corr ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    root = np.linalg.cholesky(omega)
    return rng.standard_normal((n, d)) @ root.T


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

    The sample rows are Z_i = factors[i] @ family.phis (see ``KLSample``),
    so <gamma, Z_i> is factors[i] @ <phi, gamma> and no grid pass is made.
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
    """One replicate's (space, family, sample, x, y, treatment).

    ``sample`` is a ``KLSample``: its factors, not its grid rows. ``family``
    is the scenario's family when the caller has built it already; by
    default it is built here. Randomness is keyed by (config.seed,
    replicate), drawn as x, the factors, the treatment and the noise, so the
    same pair always reproduces the same dataset regardless of what else
    has run.
    """
    rng = replicate_rng(config.seed, replicate)
    if family is None:
        family = make_family(
            scenario_space(config), config.family, config.n_components
        )
    x = ar_covariates(config.n, config.d, config.corr, rng)
    factors = kl_factors(family, config.lambdas, config.n, rng)
    treatment = None
    if config.treatment is not None:
        treatment = rng.random(config.n) < config.treatment.prob
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
    return family.space, family, KLSample(family, factors), x, y, treatment


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
    """

    family: TrueFamily
    basis: object
    whitener: Whitener
    family_white: np.ndarray
    family_gram: np.ndarray

    @classmethod
    def build(cls, config: ScenarioConfig, options: PipelineOptions) -> "Study":
        space = scenario_space(config)
        family = make_family(space, config.family, config.n_components)
        basis = bspline_tensor_basis(space, options.degree, options.interior_knots)
        whitener = whiten(gram(space, basis))
        return cls(
            family=family,
            basis=basis,
            whitener=whitener,
            family_white=project_scores(space, basis, family.phis) @ whitener.factor.T,
            family_gram=(family.phis * space.weights) @ family.phis.T,
        )

    def fit(self, factors: np.ndarray) -> EigenModel:
        """``fit_subspace_pca`` of the sample rows ``factors @ family.phis``.

        The rows' whitened scores are ``factors @ family_white``, their mean
        is the mean factor times the family, and the squared norm of a
        centered row f @ phis is f @ family_gram @ f.
        """
        center = factors.mean(axis=0)
        dev = factors - center
        total = float(np.mean(np.sum((dev @ self.family_gram) * dev, axis=1)))
        return model_from_white(
            self.family.space,
            self.basis,
            factors @ self.family_white,
            self.whitener,
            center @ self.family.phis,
            total,
        )


def run_replicate(
    config: ScenarioConfig,
    options: PipelineOptions,
    replicate: int,
    study: Study | None = None,
) -> dict:
    """Generate one dataset, run the estimation chain, and score it.

    Returns the selected component count, squared errors for every true
    parameter (eigenvalues first, then coefficients), and interval coverage
    indicators where inference was requested. Eigen-block comparisons are
    sign-aligned to the true eigenfunctions; components beyond the selected
    count are scored as zero estimates and skipped for coverage. ``study``
    is the scenario's ``Study``, built here when not given.
    """
    if study is None:
        study = Study.build(config, options)
    _, _, sample, x, y, treatment = generate_dataset(config, replicate, study.family)
    model = study.fit(sample.factors)
    if options.m_override is not None:
        m = int(options.m_override)
        if not 1 <= m <= model.n_components:
            raise ConformanceError(
                f"m_override {m} outside 1..{model.n_components}"
            )
    else:
        m = select_pve(model, options.tau).m
    j_true = config.n_components
    scores = component_scores(model)[:, :m]
    design = RegressionDesign(y=y, x=x, scores=scores, treatment=treatment)
    fit = fit_pcr(design)

    # Sign alignment of estimated components to the true family, in whitened
    # coordinates: <phi_hat_j, phi_j> is coords[j] . (whitened scores of phi_j).
    k = min(m, j_true)
    inner = np.sum(model.coords[:k] * study.family_white[:k], axis=1)
    signs = np.ones(j_true)
    signs[:k] = np.where(inner >= 0, 1.0, -1.0)

    lam_err = np.zeros(j_true)
    for j in range(j_true):
        est = model.eigenvalues[j] if j < model.n_components else 0.0
        lam_err[j] = (est - config.lambdas[j]) ** 2

    truth = _true_theta(config)
    dest, src, sign = _fit_to_truth(config, signs, m, treatment is not None)
    est_theta = np.zeros(truth.size)
    est_theta[dest] = sign * fit.theta[src]
    theta_err = (est_theta - truth) ** 2

    covered = np.full(truth.size, np.nan)
    if options.inference is not None:
        lower, upper = _interval_bounds(config, options, model, fit, design, replicate)
        lo, hi = sign * lower[src], sign * upper[src]
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


def _interval_bounds(config, options, model, fit, design, replicate):
    """Lower/upper interval bounds in the fit's own coordinate layout."""
    if options.inference == "bootstrap":
        spec = BootstrapSpec(
            kind=options.boot_kind,
            b_reps=options.b_reps,
            base_seed=mix_seed(config.seed, replicate),
            level=options.level,
        )
        res = bootstrap_theta(model, design, spec)
        return res.table.lower, res.table.upper
    if options.inference == "jackknife":
        spec = jackknife_spec(design, options.r_blocks, options.level)
        res = block_jackknife(model, design, spec)
        return res.table.lower, res.table.upper
    cov = plugin_cov(fit, model, design)
    return normal_ci(fit.theta, np.sqrt(np.diag(cov)), options.level)


def run_monte_carlo(
    config: ScenarioConfig,
    reps: int,
    options: PipelineOptions | None = None,
    threads: int = 1,
) -> MetricsTable:
    """Repeat the scenario ``reps`` times and aggregate the metrics.

    The scenario's ``Study`` is built once and shared by every replicate.
    Replicates are keyed by (config.seed, replicate), so results are
    bitwise-reproducible for any thread count. Replicate failures are
    tolerated up to 5% of the study and listed in the result; more than
    that raises ``StudyError``.
    """
    if reps < 1:
        raise ConfigurationError("need at least one replicate")
    options = options or PipelineOptions()
    study = Study.build(config, options)
    metrics, failures = run_tolerant(
        lambda b: run_replicate(config, options, b, study),
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
