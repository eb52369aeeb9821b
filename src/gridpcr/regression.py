"""Least-squares regression on scalar covariates and component scores.

The response is modeled as alpha + beta' X + sum_j gamma_j <phi_j, Z> with
the phi_j estimated by subspace PCA. Coefficients are plain least squares on
the combined design; what is not plain is the covariance: estimating the
eigenfunctions perturbs the scores, and the influence-function covariance
here carries the explicit correction for that, reducing to the classical
sandwich when the correction vanishes.

A two-arm variant interacts every regressor with a binary treatment
indicator, giving a base block and a modifier block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import (
    EigenModel,
    centered_scores,
    check_gaps,
    check_score_count,
    component_scores,
)
from .errors import (
    ConfigurationError,
    ConformanceError,
    DegenerateDesignError,
)
from .space import synthesize

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class RegressionDesign:
    """Aligned regression inputs.

    ``y`` is (n,), ``x`` is (n, d) scalar covariates (d may be 0), ``scores``
    is (n, m) component scores, and ``treatment`` is an optional boolean arm
    indicator for two-arm fits. A batch of replicates stacks its draws'
    scores as (B, n, m), and ``fit_pcr`` fits them together: resampling
    draws share the rest, while Monte Carlo replicates stack ``y`` (B, n),
    ``x`` (B, n, d) and ``treatment`` (B, n) too.
    """

    y: np.ndarray
    x: np.ndarray
    scores: np.ndarray
    treatment: np.ndarray | None = None

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        stack = scores.shape[:-2] if scores.ndim == 3 else ()
        y = np.asarray(self.y, dtype=float)
        y = y if stack and y.ndim == 2 else y.ravel()
        n = y.shape[-1]
        x = np.asarray(self.x, dtype=float)
        if x.size == 0 and x.ndim < 3:
            x = x.reshape(n, 0)
        if x.ndim == 1:
            x = x[:, None]
        if scores.size == 0 and not stack:
            scores = scores.reshape(n, 0)
        if scores.ndim == 1:
            scores = scores[:, None]
        if n == 0:
            raise ConformanceError("design must contain at least one observation")
        if x.shape[-2] != n or scores.shape[-2] != n:
            raise ConformanceError(
                f"design rows disagree: y has {n}, x has {x.shape[-2]}, "
                f"scores has {scores.shape[-2]}"
            )
        for name, arr in (("y", y[..., None]), ("x", x)):
            if arr.shape[:-2] not in ((), stack):
                raise ConformanceError(
                    f"{name} stacks {arr.shape[:-2]} draws, but the scores {stack}"
                )
        for name, arr in (("y", y), ("x", x), ("scores", scores)):
            if not np.all(np.isfinite(arr)):
                raise ConformanceError(f"{name} contains non-finite values")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "scores", scores)
        if self.treatment is not None:
            a = np.asarray(self.treatment)
            if a.shape not in ((n,), stack + (n,)):
                raise ConformanceError("treatment must be one indicator per row")
            if a.dtype != bool and not np.all(np.isin(a, (0, 1))):
                raise ConformanceError("treatment must be binary")
            object.__setattr__(self, "treatment", a.astype(bool))

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def d(self) -> int:
        return self.x.shape[-1]

    @property
    def m(self) -> int:
        return self.scores.shape[-1]


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit of the combined design, one or two arms.

    ``theta`` is laid out as (alpha, beta_1..beta_d, gamma_1..gamma_m) for
    one arm; a two-arm fit appends a modifier block with the same layout.
    ``sigma_hat`` is the empirical second-moment matrix of the regressors
    whose condition number was checked against the nondegeneracy limit.
    """

    theta: np.ndarray
    sigma_hat: np.ndarray
    residuals: np.ndarray
    condition: float
    n: int
    d: int
    m: int

    @property
    def alpha(self) -> float:
        return float(self.theta[0])

    @property
    def beta(self) -> np.ndarray:
        return self.theta[1 : 1 + self.d]

    @property
    def gamma(self) -> np.ndarray:
        return self.theta[1 + self.d : self.block_size]

    @property
    def block_size(self) -> int:
        return 1 + self.d + self.m

    @property
    def base(self) -> np.ndarray:
        return self.theta[: self.block_size]

    @property
    def modifier(self) -> np.ndarray:
        """Treatment modifiers; empty for a one-arm fit."""
        return self.theta[self.block_size :]


def design_matrix(design: RegressionDesign) -> np.ndarray:
    """The regressor matrix: U = (1, X, scores), or (U, A * U) for two arms.

    Stacked scores (B, n, m) give one matrix per draw, (B, n, p).
    """
    return _regressors(design, 0)


def _regressors(design: RegressionDesign, extra: int) -> np.ndarray:
    """``design_matrix(design)`` in the first p of (..., n, p + extra) new columns.

    The columns are filled as contiguous rows of the transposed array, and
    the matrices come back as its transposed view.
    """
    q = 1 + design.d + design.m
    p = q if design.treatment is None else 2 * q
    u = np.empty(design.scores.shape[:-2] + (p + extra, design.n))
    u[..., 0, :] = 1.0
    u[..., 1 : 1 + design.d, :] = np.swapaxes(design.x, -1, -2)
    u[..., 1 + design.d : q, :] = np.swapaxes(design.scores, -1, -2)
    if design.treatment is not None:
        np.multiply(u[..., :q, :], design.treatment[..., None, :], out=u[..., q:p, :])
    return np.swapaxes(u, -1, -2)


def coefficient_names(d: int, m: int, treatment: bool = False) -> list:
    names = ["intercept"] + [f"x{i + 1}" for i in range(d)] + [
        f"z{j + 1}" for j in range(m)
    ]
    if treatment:
        names = names + ["treat"] + [f"treat:{nm}" for nm in names[1:]]
    return names


def _weights(design: RegressionDesign, weights) -> np.ndarray:
    """Observation weights of a fit: one nonnegative value per row, or all ones.

    A design with stacked scores takes one row of weights per draw, (B, n).
    """
    rows = design.scores.shape[:-1]
    w = np.ones(rows) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != rows or np.any(w < 0):
        raise ConformanceError("weights must be one nonnegative value per row")
    return w


def _fit(design: RegressionDesign, weights: np.ndarray):
    """Weighted least squares of y on ``design_matrix(design)``, for every draw.

    ``weights`` come checked from ``_weights``, and a design with unstacked
    scores is a stack of one draw. A Householder QR (Golub & Van Loan,
    *Matrix Computations*, 5.3) of each draw's weighted regressors,
    augmented with its weighted response, gives R and Q^T y at once: theta
    solves the triangular system, with an error that grows like the
    design's condition times eps, not like its square as with the normal
    equations. R has the singular values of the weighted design, so the
    condition of sigma_hat = R^T R / n is the squared ratio of its extreme
    ones. Returns the ``RegressionFit``, or one per draw of a stack; a
    condition above ``CONDITION_LIMIT`` (a numerically singular design)
    raises the ``DegenerateDesignError`` of the first such draw.
    """
    n = design.n
    w = weights.reshape(-1, n)
    aug = _regressors(design, 1).reshape(len(w), n, -1)
    p = aug.shape[2] - 1
    if n <= p:
        raise DegenerateDesignError(
            f"need more than {p} observations to fit {p} coefficients, got {n}"
        )
    aug[:, :, p] = design.y
    # numpy's qr factors a copy of its input, so each draw's weighted system
    # is formed and factored on its own: a batch holds one (B, n, p + 1)
    # array, the unweighted one the residuals are read from.
    r = np.array([
        np.linalg.qr(system * root[:, None], mode="r")
        for system, root in zip(aug, np.sqrt(w))
    ])
    tri, qty = r[:, :p, :p], r[:, :p, p:]
    sv = np.linalg.svd(tri, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = (sv[:, 0] / sv[:, -1]) ** 2
    for c in condition:
        if not c <= CONDITION_LIMIT:
            raise DegenerateDesignError(
                f"design second-moment matrix has condition {c:.3e} "
                f"(limit {CONDITION_LIMIT:.0e}); the nondegeneracy assumption fails"
            )
    theta = np.linalg.solve(tri, qty)
    residuals = design.y - (aug[:, :, :p] @ theta)[:, :, 0]
    sigma = np.swapaxes(tri, 1, 2) @ tri / n
    sigma = 0.5 * (sigma + np.swapaxes(sigma, 1, 2))
    fits = [
        RegressionFit(
            theta=theta[i, :, 0], sigma_hat=sigma[i], residuals=residuals[i],
            condition=float(condition[i]), n=n, d=design.d, m=design.m,
        )
        for i in range(len(w))
    ]
    return fits if design.scores.ndim == 3 else fits[0]


def fit_pcr(design: RegressionDesign, weights=None):
    """Least squares of y on (1, X, scores), per arm when the design has one.

    A design with a treatment indicator gets the two-arm fit of
    ``fit_precision``. ``weights`` reweights the empirical measure (used by
    resampling; None is unit weights); the stored residuals are always the
    unweighted y - U theta. Returns the ``RegressionFit``, or raises its
    ``DegenerateDesignError``. A design with stacked scores (B, n, m) takes
    (B, n) weights and returns one ``RegressionFit`` per draw, or raises
    the error of the first draw that fails; the caller that solves draws in
    batches (``resampling.solve_alone_on_failure``) refits each draw alone.
    """
    if design.treatment is not None:
        return fit_precision(design, weights)
    return _fit(design, _weights(design, weights))


def fit_precision(design: RegressionDesign, weights=None):
    """Two-arm least squares: y on (U, A * U) with U = (1, X, scores).

    Both treatment arms must carry positive weight, otherwise the modifier
    block is inestimable; arm sizes are weight totals (row counts when
    ``weights`` is None). The arms are checked before the fit, so an empty
    arm raises its own ``DegenerateDesignError``. Stacked scores are fitted
    and returned as by ``fit_pcr``, each draw's arms checked on its own
    weights.
    """
    if design.treatment is None:
        raise ConformanceError("two-arm fit needs a treatment indicator")
    w = _weights(design, weights)
    arms = np.broadcast_to(design.treatment, w.shape).reshape(-1, design.n).astype(float)
    for wi, a in zip(w.reshape(-1, design.n), arms):
        n_treat, n_control = float(wi @ a), float(wi @ (1.0 - a))
        if n_treat == 0 or n_control == 0:
            raise DegenerateDesignError(
                f"treatment arm sizes are {n_control:.15g} and {n_treat:.15g}; "
                "both arms must be populated for the modifier block"
            )
    return _fit(design, w)


def coefficient_element(fit: RegressionFit, model: EigenModel, space, basis):
    """The functional coefficient sum_j gamma_j phi_j as one grid row.

    It is synthesized from the model's coordinates; ``basis`` is the fit's.
    """
    check_score_count(fit.m, model)
    coef = (fit.gamma @ model.coords[: fit.m]) @ model.whitener.factor
    return synthesize(space, basis, coef[None, :])[0]


def plugin_cov(fit, model, design: RegressionDesign):
    """Influence-function covariance of the fitted coefficients.

    Each observation contributes sigma_hat^{-1} (U_i eps_i + L0(K_i)) where
    L0 collects the first-order effect of re-estimating the eigenfunctions
    from the same data: rank-one covariance perturbations K_i propagated
    through inverse spectral gaps into the scores. Population moments are
    replaced by empirical plug-ins. The result is the sample covariance of
    the influence vectors divided by n; with exact eigenfunctions and zero
    residual noise the correction vanishes and the classical sandwich is
    recovered. The design's rows must be the rows ``model`` was fitted on,
    and the fit single-arm: two-arm fits raise ``ConfigurationError``.

    A design with stacked rows (B, n, ...) takes a sequence of B fits and
    one of B models, all retaining the same number of components, and
    returns one covariance per draw, or raises the ``NearMultiplicityError``
    of the first draw whose gap check fails. Every draw is solved in one
    pass over the stack, with the bytes of its own call.
    """
    stacked = design.scores.ndim == 3
    fits, models = (list(fit), list(model)) if stacked else ([fit], [model])
    if design.treatment is not None or any(f.modifier.size for f in fits):
        raise ConfigurationError(
            "plugin intervals cover the single-arm fit; use bootstrap or "
            "jackknife for two-arm designs"
        )
    n, m, d = design.n, design.m, design.d
    for md in models:
        if md.n != n:
            raise ConformanceError("model and design have different row counts")
        if md.n_components != models[0].n_components:
            raise ConformanceError("stacked models retain different component counts")
        check_score_count(m, md)
        check_gaps(md, m)
    scores = design.scores.reshape(len(fits), n, m)
    eps = np.array([f.residuals for f in fits])
    xi = np.array([centered_scores(md) for md in models])
    raw = np.array([component_scores(md) for md in models])
    lams = np.array([md.eigenvalues for md in models])
    # Inverse spectral gaps, zero on the diagonal: gaps[j, k] = 1/(l_j - l_k).
    # check_gaps has ruled out a zero gap off the diagonal, and 1/inf is 0.
    diff = lams[:, :m, None] - lams[:, None, :]
    diff[:, np.arange(m), np.arange(m)] = np.inf
    gaps = 1.0 / diff
    # Every direction the correction pairs with: the mean, each covariate,
    # the residuals and each score, expressed by their projections onto the
    # retained eigenfunctions, one row each (2 + d + m rows).
    proj = np.concatenate(
        [raw.mean(axis=1, keepdims=True), np.swapaxes(design.x, -1, -2) @ raw / n,
         eps[:, None, :] @ raw / n, np.swapaxes(scores, -1, -2) @ raw / n],
        axis=1,
    )
    # paired[p, i, j] = <proj_p, L_{1j}(K_i)> for every i and j <= m, from
    # one stacked product: a (n, m) block per direction.
    paired = xi[:, None] @ np.swapaxes(gaps[:, None] * proj[:, :, None, :], -1, -2)
    paired *= xi[:, None, :, :m]
    # The correction's columns follow theta: the intercept and covariate
    # columns pair with gamma, and score column l adds the residual pairing.
    gamma = np.array([f.gamma for f in fits])
    q = paired @ gamma[:, None, :, None]
    q = np.negative(q, out=q)[..., 0]
    contributions = np.concatenate(
        [np.swapaxes(q[:, : 1 + d], -1, -2),
         paired[:, 1 + d] + np.swapaxes(q[:, 2 + d :], -1, -2)],
        axis=-1,
    )
    contributions += design_matrix(design).reshape(len(fits), n, -1) * eps[..., None]
    sigma_inv = np.linalg.inv(np.array([f.sigma_hat for f in fits]))
    influence = contributions @ sigma_inv
    influence -= influence.mean(axis=1, keepdims=True)
    cov = (np.swapaxes(influence, -1, -2) @ influence / n) / n
    return list(cov) if stacked else cov[0]


def sandwich_cov(fit: RegressionFit, design: RegressionDesign) -> np.ndarray:
    """Classical heteroscedasticity-robust (HC0) covariance, no score correction.

    It covers one- and two-arm fits: the bread is the fit's sigma_hat and
    the meat is built from ``design_matrix(design)``.
    """
    u = design_matrix(design)
    n = design.n
    meat = (u * fit.residuals[:, None] ** 2).T @ u / n
    sigma_inv = np.linalg.inv(fit.sigma_hat)
    return sigma_inv @ meat @ sigma_inv / n
