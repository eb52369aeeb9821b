"""Subspace PCA for gridded samples.

The estimator projects samples onto the span of a finite basis, whitens the
basis against its Gram matrix, and eigendecomposes the projected empirical
covariance in the whitened coordinates. Eigenfunctions are kept as
coordinates in that frame; ``eigenfunctions`` synthesizes them on the grid,
orthonormal under the space inner product regardless of how ill-conditioned
the raw basis was.

A residual-variance diagnostic quantifies what the projection misses, and an
explained-variance rule picks how many components to carry into regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConformanceError,
    ConfigurationError,
    GridPcrError,
    NearMultiplicityError,
    SelectionInfeasibleError,
)
from .space import (
    DEFAULT_DROP_TOL,
    AmbientSpace,
    Whitener,
    _project_scores,
    as_sample,
    gram,
    row_chunks,
    synthesize,
    whiten,
)
from .util import norm_ppf

RETAIN_REL_TOL = 1e-12
DEFAULT_GAP_REL_TOL = 1e-6
_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class EigenModel:
    """Fitted subspace principal components.

    Attributes
    ----------
    eigenvalues : ndarray, shape (J,)
        Retained variances, strictly positive and nonincreasing.
    coords : ndarray, shape (J, rank)
        Coordinates of each eigenfunction in the whitened frame; the grid
        rows are ``eigenfunctions(space, basis, model)``. Signs follow the
        largest-|entry|-positive convention on the grid.
    white : ndarray, shape (n, rank)
        Uncentered whitened projection scores of the fitted sample rows.
        Component scores, plug-in covariances and every resampling
        replicate derive from these and ``coords`` without the grid.
    mean : ndarray, shape (V,)
        Pointwise sample mean.
    whitener : Whitener
        Whitening factor of the basis Gram matrix used for the fit.
    total_variance : float
        Mean squared distance of the sample to its mean (full space, not
        just the projected part); sum(eigenvalues) <= total_variance.
    """

    eigenvalues: np.ndarray
    coords: np.ndarray
    white: np.ndarray
    mean: np.ndarray
    whitener: Whitener
    total_variance: float

    @property
    def n(self) -> int:
        """Number of fitted sample rows."""
        return self.white.shape[0]

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True)
class DiagnosticReport:
    """Result of the projection-adequacy test.

    ``delta_hat`` is the mean squared residual outside the basis span,
    ``t_stat`` its studentized version; ``reject`` means the basis is judged
    inadequate at level ``alpha``.
    """

    delta_hat: float
    s2_hat: float
    t_stat: float
    critical: float
    alpha: float
    reject: bool
    n: int
    basis_rank: int


@dataclass(frozen=True)
class PveSelection:
    """Component count chosen by explained variance.

    ``m`` is the smallest count whose eigenvalues sum past ``tau`` times the
    total sample variance (strict inequality); ``cumulative`` holds the
    explained fraction after each component.
    """

    m: int
    tau: float
    cumulative: np.ndarray


def fit_subspace_pca(
    space: AmbientSpace, basis, sample, drop_tol: float = DEFAULT_DROP_TOL
) -> EigenModel:
    """Fit principal components of a sample through a projection basis.

    Stages: whiten the basis Gram matrix (dropping numerically dependent
    directions), form the projected empirical covariance in whitened
    coordinates, eigendecompose, and flip each eigenvector whose grid row's
    largest-|value| entry (the first of tied maxima) is negative. Components
    with eigenvalue <= 1e-12 * largest are discarded, so a constant sample
    yields zero components. The sample and the eigenfunctions' grid rows
    pass through in row chunks; no grid row is kept.
    """
    data = as_sample(space, sample)
    whitener = whiten(gram(space, basis), drop_tol)
    white = _project_scores(space, basis, data) @ whitener.factor.T
    mean = data.mean(axis=0)
    dev_sq = np.empty(data.shape[0])
    for chunk in row_chunks(space, data.shape[0]):
        dev_sq[chunk] = _sq_norms(space, data[chunk] - mean)
    return model_from_white(
        space, basis, white, whitener, mean, float(dev_sq.mean())
    )


def model_from_white(
    space: AmbientSpace,
    basis,
    white: np.ndarray,
    whitener: Whitener,
    mean: np.ndarray,
    total_variance: float,
) -> EigenModel:
    """The fitted model of a sample given its whitened projection scores.

    ``white`` holds the uncentered scores (n, rank) of the sample rows in
    ``whitener``'s frame of ``basis``; ``mean`` and ``total_variance`` are
    the sample's pointwise mean and mean squared distance to it. The
    scores are centered and eigendecomposed, and each eigenvector is
    flipped so that its grid row's largest-|value| entry is positive; the
    rows are synthesized a chunk at a time. Every fit after its projection
    goes through here: ``fit_subspace_pca`` and the Monte Carlo harness.
    """
    if white.shape[0] < 2:
        raise ConformanceError("subspace fit needs at least two sample rows")
    lams, coords = _eig_from_scores(white - white.mean(axis=0))
    for chunk in row_chunks(space, coords.shape[0]):
        phis = synthesize(space, basis, coords[chunk] @ whitener.factor)
        peaks = phis[np.arange(phis.shape[0]), np.argmax(np.abs(phis), axis=1)]
        coords[chunk][peaks < 0] *= -1.0
    return EigenModel(
        eigenvalues=lams,
        coords=coords,
        white=white,
        mean=mean,
        whitener=whitener,
        total_variance=total_variance,
    )


def eigenfunctions(space: AmbientSpace, basis, model: EigenModel) -> np.ndarray:
    """Grid rows (J, V) of the fitted eigenfunctions; ``basis`` is the fit's."""
    return synthesize(space, basis, model.coords @ model.whitener.factor)


def _eig_from_scores(centered, weights=None):
    """Eigendecompose the (optionally weighted) covariance of whitened scores.

    ``centered`` is (n, rank), already centered under the same weights.
    Returns nonincreasing positive eigenvalues and eigenvector rows, signs
    not yet normalized. Shared by the direct fit and resampling replicates.
    """
    n = centered.shape[0]
    if weights is None:
        cov = centered.T @ centered / n
    else:
        cov = (centered * np.asarray(weights)[:, None]).T @ centered / n
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    top = vals[0] if vals.size else 0.0
    keep = (vals > 0.0) & (vals > RETAIN_REL_TOL * max(top, 0.0))
    j = int(np.count_nonzero(keep))
    return vals[:j].copy(), vecs[:, :j].T.copy()


def _sq_norms(space: AmbientSpace, rows: np.ndarray) -> np.ndarray:
    """Squared norms of grid rows under the space inner product."""
    return np.einsum("ij,ij,j->i", rows, rows, space.weights)


def component_scores(model: EigenModel) -> np.ndarray:
    """Uncentered component scores <phi_j, Z_i> of the fitted rows, every j.

    Equal to ``(sample * weights) @ eigenfunctions(...).T`` because each
    eigenfunction is ``coords @ frame`` and the whitened scores are the
    sample's inner products with the frame.
    """
    return model.white @ model.coords.T


def select_pve(model: EigenModel, tau: float = 0.95) -> PveSelection:
    """Smallest component count explaining more than ``tau`` of total variance.

    The comparison is strict: m is the first index with
    sum_{j<=m} eigenvalue_j > tau * total_variance. When even all retained
    components fall short (a sign the projection basis misses real
    variance), ``SelectionInfeasibleError`` reports the achieved fraction.
    """
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")
    if model.total_variance <= 0.0:
        raise ConfigurationError("selection needs positive total variance")
    cum = np.cumsum(model.eigenvalues) / model.total_variance
    above = np.flatnonzero(cum > tau)
    if above.size == 0:
        achieved = float(cum[-1]) if cum.size else 0.0
        raise SelectionInfeasibleError(
            f"retained components explain only {achieved:.6f} <= tau = {tau}; "
            "the projection basis may be inadequate",
            achieved=achieved,
        )
    return PveSelection(m=int(above[0]) + 1, tau=float(tau), cumulative=cum)


def diagnose_projection(
    space: AmbientSpace,
    basis,
    sample,
    alpha: float = 0.05,
    drop_tol: float = DEFAULT_DROP_TOL,
) -> DiagnosticReport:
    """Test whether the basis span captures the sample's variation.

    delta_hat is computed two ways -- mean squared residual after projecting
    centered rows onto the whitened frame, and total variance minus projected
    variance -- and the two must agree to 1e-8; the studentized statistic
    sqrt(n) * delta_hat / sqrt(s2_hat + 1/n) is compared against the normal
    quantile at 1 - alpha. Levels are restricted to (0, 0.05] because the
    statistic is one-sided and only small levels are meaningful for it.
    The basis is whitened at ``drop_tol`` exactly as ``fit_subspace_pca``
    whitens it, so both report the same basis rank.
    """
    if not 0.0 < alpha <= 0.05:
        raise ConfigurationError(f"alpha must lie in (0, 0.05], got {alpha}")
    data = as_sample(space, sample)
    n = data.shape[0]
    if n < 2:
        raise ConformanceError("projection diagnostic needs at least two rows")
    whitener = whiten(gram(space, basis), drop_tol)
    factor = whitener.factor
    mean = data.mean(axis=0)
    white = _project_scores(space, basis, data, center=mean) @ factor.T
    resid_sq = np.empty(n)
    dev_sq = np.empty(n)
    for chunk in row_chunks(space, n):
        dev = data[chunk] - mean
        dev_sq[chunk] = _sq_norms(space, dev)
        dev -= synthesize(space, basis, white[chunk] @ factor)
        resid_sq[chunk] = _sq_norms(space, dev)
    delta_resid = float(resid_sq.mean())
    total = float(dev_sq.mean())
    delta_var = total - float(np.mean(np.sum(white * white, axis=1)))
    if abs(delta_resid - delta_var) > 1e-8 * max(1.0, total):
        raise GridPcrError(
            "residual and variance-difference forms of delta_hat disagree: "
            f"{delta_resid} vs {delta_var}"
        )
    s2 = float(np.mean((resid_sq - delta_resid) ** 2))
    t_stat = float(np.sqrt(n) * delta_resid / np.sqrt(s2 + 1.0 / n))
    critical = norm_ppf(1.0 - alpha)
    return DiagnosticReport(
        delta_hat=delta_resid,
        s2_hat=s2,
        t_stat=t_stat,
        critical=critical,
        alpha=float(alpha),
        reject=bool(t_stat > critical),
        n=n,
        basis_rank=whitener.rank,
    )


def centered_scores(model: EigenModel) -> np.ndarray:
    """Scores of the fitted rows against eigenfunctions after centering."""
    return (model.white - model.white.mean(axis=0)) @ model.coords.T


def eigenvalue_se(model: EigenModel) -> np.ndarray:
    """Plug-in standard errors of the retained eigenvalues.

    The asymptotic variance of eigenvalue j is the variance of its squared
    centered score, so the estimate is sd(score_j^2) / sqrt(n) with the
    plug-in (population-style) standard deviation.
    """
    xi = centered_scores(model)
    return np.std(xi**2, axis=0, ddof=0) / np.sqrt(xi.shape[0])


def gap_tolerance(model: EigenModel, gap_tol=None) -> float:
    if gap_tol is None:
        top = model.eigenvalues[0] if model.n_components else 0.0
        return DEFAULT_GAP_REL_TOL * float(top)
    if gap_tol <= 0:
        raise ConfigurationError("gap tolerance must be positive")
    return float(gap_tol)


def check_gaps(model: EigenModel, m: int, gap_tol=None) -> None:
    """Require separated eigenvalues for spectral-gap expansions.

    Components 1..m must be separated from every retained component by more
    than the tolerance (default 1e-6 times the leading eigenvalue).
    """
    tol = gap_tolerance(model, gap_tol)
    lams = model.eigenvalues
    for j in range(m):
        for k in range(model.n_components):
            if k != j and abs(lams[j] - lams[k]) <= tol:
                raise NearMultiplicityError(
                    f"eigenvalues {j + 1} and {k + 1} differ by "
                    f"{abs(lams[j] - lams[k]):.3e} <= gap tolerance {tol:.3e}; "
                    "the spectral-gap expansion is unstable"
                )
