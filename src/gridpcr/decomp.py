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

import functools
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
    _negative_peaks,
    _weighted_scores,
    as_sample,
    gram,
    row_chunks,
    run_pass,
    sample_mean,
    sample_pass,
    sample_rows,
    synthesize,
    synthesize_tiles,
    synthesized_negative_peaks,
    whiten,
)
from .util import norm_ppf

RETAIN_REL_TOL = 1e-12
DEFAULT_GAP_REL_TOL = 1e-6
_IDENTITY_TOL = 1e-8
# Subspace-iteration sweeps of a replicate eigensolve before the direct solve.
_MAX_SWEEPS = 8
# The total variance T of a fit comes from its one read by the shifted-data
# formula T = mean_i |x_i - x_0|^2 - B, B = |mean - x_0|^2, with x_0 the
# sample's first row (Chan, Golub & LeVeque, "Algorithms for computing the
# sample variance", Am. Stat. 37, 1983). Cancellation makes its relative
# rounding grow like (1 + 2 B / T) eps. Up to B = 16 T that is at most 33
# eps, some 7e-15, far inside the 1e-12 relative agreement the outputs are
# held to. Beyond it (a first row far from the rest: with row 0 100 sd out
# at n = 2000, B / T is about 1700 and the formula was off by 4.7e-13) the
# sample is read again and the deviations from the mean are summed as a
# two-pass formula sums them.
_SHIFT_LIMIT = 16.0


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
    left : ndarray, shape (n, k)
        Uncentered whitened projection scores of the fitted sample rows,
        factored as ``white = left @ right``. Without ``right``, ``left``
        is ``white`` itself (k = rank). Component scores, plug-in
        covariances and every resampling replicate derive from ``left``
        and ``coords`` without the grid.
    mean : ndarray, shape (V,)
        Pointwise sample mean.
    whitener : Whitener
        Whitening factor of the basis Gram matrix used for the fit.
    total_variance : float
        Mean squared distance of the sample to its mean (full space, not
        just the projected part); sum(eigenvalues) <= total_variance.
    right : ndarray, shape (k, rank), or None
        Orthonormal rows spanning the whitened scores, for a fit that
        knows them in advance (a Monte Carlo ``Study``, k <= J), else
        None.
    """

    eigenvalues: np.ndarray
    coords: np.ndarray
    left: np.ndarray
    mean: np.ndarray
    whitener: Whitener
    total_variance: float
    right: np.ndarray | None = None

    @functools.cached_property
    def white(self) -> np.ndarray:
        """Uncentered whitened scores (n, rank), formed on first read."""
        return self.left if self.right is None else self.left @ self.right

    @property
    def frame_coords(self) -> np.ndarray:
        """``coords`` in the k columns of ``left``: (J, k)."""
        return self.coords if self.right is None else self.coords @ self.right.T

    @property
    def n(self) -> int:
        """Number of fitted sample rows."""
        return self.left.shape[0]

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
    with eigenvalue <= 1e-12 * largest, or at the rounding level of the
    centering (``model_from_white``), are discarded, so a constant sample
    yields zero components. The sample, an array or an open
    ``storage.GridRows``, is read once in row chunks (``space.sample_pass``),
    after its first row x_0: each chunk gives its projection scores and its
    rows' squared distances to x_0, which check them finite (a non-finite
    x_0 makes every distance non-finite), and is added into the mean in row
    order, so the mean is bitwise ``mean(axis=0)``. The total variance
    follows by the shifted-data formula, or from a second read when the
    mean lies far from x_0 (``_SHIFT_LIMIT``). The pass and the sign pass
    run on the usable CPUs, within ``space.run_pass``'s buffer budget, with
    the same bytes for any worker count. No grid row of the sample or of the eigenfunctions is
    kept beyond x_0 and the mean. BLAS keeps numpy's default thread count
    here, and the products outside the passes can change in the last bits
    with it; the CLI pins numpy's bundled OpenBLAS to one thread.
    """
    data = as_sample(space, sample)
    n = data.shape[0]
    whitener = whiten(gram(space, basis), drop_tol)
    first = sample_rows(space, data, slice(0, 1), np.empty(space.size))[0]
    mean = np.zeros(space.size)
    scores = np.empty((n, basis.n_functions))
    shifted_sq = np.empty(n)

    def project(chunk, rows, buf, work):
        x = work[: rows.shape[0]]
        scores[chunk] = _weighted_scores(space, basis, rows, out=x)
        shifted_sq[chunk] = _sq_norms(space, np.subtract(rows, first, out=x))

    sample_pass(space, data, project, (shifted_sq,), buffers=2, total=mean)
    mean /= n
    far = float(_sq_norms(space, (mean - first)[None])[0])
    del first, project
    total = float(shifted_sq.mean()) - far
    if not far <= _SHIFT_LIMIT * total:
        total = _total_variance(space, data, mean)
    return model_from_white(space, basis, scores @ whitener.factor.T, whitener, mean, total)


def _total_variance(space: AmbientSpace, sample, mean) -> float:
    """Mean squared distance of a checked sample's rows to ``mean``, by a row pass."""
    dev_sq = np.empty(sample.shape[0])

    def exact(chunk, rows, buf):
        dev_sq[chunk] = _sq_norms(space, np.subtract(rows, mean, out=buf[: rows.shape[0]]))

    sample_pass(space, sample, exact, (dev_sq,))
    return float(dev_sq.mean())


def model_from_white(
    space: AmbientSpace,
    basis,
    scores: np.ndarray,
    whitener: Whitener,
    mean: np.ndarray,
    total_variance,
    frame=None,
):
    """The fitted model of a sample given its whitened projection scores.

    ``scores`` holds the uncentered scores (n, rank) of the sample rows in
    ``whitener``'s frame of ``basis``; ``mean`` and ``total_variance`` are
    the sample's pointwise mean and mean squared distance to it. The
    scores are centered and eigendecomposed, eigenvalues at the rounding
    level of the centering are dropped (so a constant sample has no
    components), and each eigenvector is flipped so that its grid row's
    largest-|value| entry is positive; the rows are synthesized a row
    chunk at a time (``space.run_pass``), each chunk a tile at a time
    (``space.synthesized_negative_peaks``). Every fit after its projection
    goes through here: ``fit_subspace_pca`` and the Monte Carlo harness.
    ``frame``, when given, is a pair ``(right,
    rows)``: k orthonormal rows (k, rank) that span the whitened scores,
    and their grid rows ``synthesize(space, basis, right @
    whitener.factor)`` (k, V). ``scores`` are then the sample's
    coordinates (n, k) in ``right``: the k x k eigenproblem is solved, the
    signs are read from the eigenvectors times ``rows`` with nothing
    synthesized, and the model keeps the scores factored. B samples of n
    rows each may come as one stack: scores (B, n, k), means (B, V) and
    total variances (B,). They are centered and solved together, each
    slice with the bytes of its own fit, and a list of B models is
    returned.
    """
    if scores.shape[-2] < 2:
        raise ConformanceError("subspace fit needs at least two sample rows")
    solved = _eig_from_scores(scores - scores.mean(axis=-2, keepdims=True))
    stacked = scores.ndim == 3
    if not stacked:
        scores, mean, total_variance = scores[None], [mean], [total_variance]
        solved = [solved]
    # The mean of n rows w_i, summed one row at a time, is off by up to about
    # n eps mean_i |w_i| in norm, and every centered row carries that error:
    # a covariance eigenvalue below (n eps)^2 mean_i |w_i|^2 can be that
    # rounding alone, as every eigenvalue of a constant sample is.
    n = scores.shape[1]
    floors = (n * np.finfo(float).eps) ** 2 * np.einsum("bij,bij->b", scores, scores) / n
    models = []
    for (lams, coords), left, mu, total, floor in zip(
        solved, scores, mean, total_variance, floors
    ):
        j = int(np.count_nonzero(lams > floor))
        lams, coords = lams[:j], coords[:j]
        right = None
        if frame is None:

            def fix_signs(chunk, buf):
                coef = coords[chunk] @ whitener.factor
                coords[chunk][synthesized_negative_peaks(space, basis, coef, buf)] *= -1.0

            run_pass(space, coords.shape[0], fix_signs)
        else:
            right, rows = frame
            coords[_negative_peaks(coords @ rows)] *= -1.0
            coords = coords @ right
        models.append(EigenModel(
            eigenvalues=lams,
            coords=coords,
            left=left,
            mean=mu,
            whitener=whitener,
            total_variance=float(total),
            right=right,
        ))
    return models if stacked else models[0]


def eigenfunctions(space: AmbientSpace, basis, model: EigenModel) -> np.ndarray:
    """Grid rows (J, V) of the fitted eigenfunctions; ``basis`` is the fit's."""
    return synthesize(space, basis, model.coords @ model.whitener.factor)


def eigenfunction_chunks(space: AmbientSpace, basis, model: EigenModel):
    """The rows of ``eigenfunctions`` one row chunk at a time.

    For a TensorBasis each chunk is bitwise equal to the same rows of
    ``eigenfunctions``; a dense basis multiplies a few coefficient rows at
    a time, which can move the last bit.
    """
    coef = model.coords @ model.whitener.factor
    for chunk in row_chunks(space, model.n_components):
        yield synthesize(space, basis, coef[chunk])


def _eig_from_scores(scores, weights=None, *, wanted=None, start=None):
    """Eigenpairs of the weighted covariance of whitened scores: one fit, or a batch.

    With ``weights`` None or one value per row, ``scores`` is (n, k),
    already centered under the same weights: the k x k covariance is formed
    and fully solved (``_direct_pairs``). This is the point fit's solve. A
    stack of B centered samples (B, n, k) with ``weights`` None is solved
    the same way, slice by slice, and gives one pair per sample.

    A batch of B resampling replicates passes a (B, n) stack of ``weights``,
    ``wanted``, the count m of leading pairs each draw uses, and ``start``,
    the point fit's eigenvector rows (J, k); ``scores`` are then the
    replicate frame's uncentered scores. With a block of b = min(k, J, m +
    4) < k vectors, ``_leading_pairs`` iterates every draw of the batch at
    once from ``start[:b]`` and returns, for each draw that converges, those
    of its m leading pairs that pass the retention rule; they agree with the
    direct solve up to rounding. A draw that does not converge within
    ``_MAX_SWEEPS`` sweeps, and every draw when b >= k, takes the direct
    solve of its own weighted covariance, centered at its weighted mean.
    Returns one (eigenvalues, eigenvector rows) pair per draw.
    """
    if weights is None or np.ndim(weights) == 1:
        return _direct_pairs(scores, weights)
    pairs = [None] * len(weights)
    if min(start.shape[0], wanted + 4) < scores.shape[1]:
        pairs = _leading_pairs(scores, weights, start[: wanted + 4], wanted)
    return [
        _direct_pairs(scores - np.average(scores, axis=0, weights=w), w)
        if pair is None else pair
        for w, pair in zip(weights, pairs)
    ]


def _direct_pairs(centered, weights):
    """The retained eigenpairs of the full k x k covariance of ``centered``.

    Returns nonincreasing positive eigenvalues and eigenvector rows, signs
    not yet normalized. Unweighted centered scores may come as a stack (B,
    n, k); each slice's covariance is formed and solved with the bytes of
    its own call, and a list of B pairs is returned.
    """
    n = centered.shape[-2]
    if weights is None:
        cov = np.swapaxes(centered, -1, -2) @ centered / n
    else:
        cov = (centered * np.asarray(weights)[:, None]).T @ centered / n
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    vals, vecs = np.linalg.eigh(cov)
    if cov.ndim == 2:
        return _retained(vals[::-1], vecs[:, ::-1])
    return [_retained(v[::-1], u[:, ::-1]) for v, u in zip(vals, vecs)]


def _retained(vals, vecs):
    """The pairs of nonincreasing ``vals`` and columns ``vecs`` that pass retention."""
    top = vals[0] if vals.size else 0.0
    keep = (vals > 0.0) & (vals > RETAIN_REL_TOL * max(top, 0.0))
    j = int(np.count_nonzero(keep))
    return vals[:j].copy(), vecs[:, :j].T.copy()


def _leading_pairs(scores, weights, start, wanted):
    """The ``wanted`` leading eigenpairs of each draw's weighted covariance.

    Subspace iteration with Rayleigh-Ritz (Golub & Van Loan, *Matrix
    Computations*, 8.2.4; Saad, *Numerical Methods for Large Eigenvalue
    Problems*, ch. 5) on a block of b vectors per draw, started from the b
    rows of ``start``. ``scores`` (n, k) are centered once, at their
    unweighted mean; draw i's weighted mean is then a shift d_i = w_i
    centered / sum(w_i), and its covariance (centered - d_i)^T W_i
    (centered - d_i) / n is applied as two skinny products that serve the
    blocks of all draws still iterating, side by side, with the shift
    subtracted after each. It is never formed, nor is any (B, n, k) copy
    of the scores. Each sweep orthonormalizes every draw's block, applies
    the covariances and solves the b x b Rayleigh-Ritz problems, all
    stacked; the first sweep works on the covariance times ``start``. A
    draw stops when every wanted Ritz pair's residual norm is at most 4 eps
    sqrt(k) times its largest Ritz value, which its block approaches at the
    rate of its (b + 1)-th eigenvalue over its m-th. Its sweep count depends
    only on its own data. Returns one entry per draw: its retained pairs,
    or None after ``_MAX_SWEEPS`` sweeps without convergence, or sooner,
    from the second sweep on, when its residual's decay over the last
    sweep, repeated for the sweeps left, would not reach the target.
    """
    n, k = scores.shape
    b = start.shape[0]
    centered = scores - scores.mean(axis=0)
    shift = weights @ centered / weights.sum(axis=1)[:, None]
    scale = weights.T / n
    tol = 4.0 * np.finfo(float).eps * np.sqrt(k)

    def cov_times(live, cq, q):
        """The live draws' covariances times their blocks q (A, k, b).

        ``cq`` is ``centered @ q`` for each draw, (n, A, b).
        """
        y = (cq - np.einsum("ak,akb->ab", shift[live], q)) * scale[:, live, None]
        z = (centered.T @ y.reshape(n, -1)).reshape(k, live.size, b).transpose(1, 0, 2)
        return z - shift[live][:, :, None] * y.sum(axis=0)[:, None, :]

    pairs = [None] * len(weights)
    live = np.arange(len(weights))
    blocks = np.broadcast_to(start.T, (live.size, k, b))
    z = cov_times(live, (centered @ start.T)[:, None, :], blocks)
    last = None
    for remaining in range(_MAX_SWEEPS - 1, -1, -1):
        q = np.linalg.qr(z)[0]
        cq = (centered @ q.transpose(1, 0, 2).reshape(k, -1)).reshape(n, live.size, b)
        z = cov_times(live, cq, q)
        h = np.swapaxes(q, 1, 2) @ z
        vals, rot = np.linalg.eigh(0.5 * (h + np.swapaxes(h, 1, 2)))
        vals, lead = vals[:, : -wanted - 1 : -1], rot[:, :, : -wanted - 1 : -1]
        top = np.maximum(vals[:, 0], 0.0)
        resid = z @ lead - q @ (lead * vals[:, None, :])
        worst, target = np.einsum("akj,akj->aj", resid, resid).max(axis=1), (tol * top) ** 2
        done = worst <= target
        vecs = q[done] @ lead[done]
        for draw, lams, rows in zip(live[done], vals[done], vecs):
            pairs[draw] = _retained(lams, rows)
        # A draw gives up early when the decay of its last sweep, kept up
        # for the sweeps left, would not reach its target: no spectral gap.
        going = ~done
        if last is not None:
            with np.errstate(over="ignore"):
                going &= (worst < last) & (worst * (worst / last) ** remaining <= target)
        if not going.any():
            break
        live, z, last = live[going], z[going], worst[going]
    return pairs


def column_space(a: np.ndarray):
    """Factor ``a`` (n, r) as ``left @ right`` in its numerical column space.

    A thin SVD ``a = U S V^T`` keeps the k directions with s_i > max(n, r)
    * eps * s_0, the default tolerance of ``numpy.linalg.matrix_rank``
    (Golub & Van Loan, *Matrix Computations*, 5.4.1); the directions below
    it are rounding in ``a`` itself. Returns ``left = U_k S_k`` (n, k) and
    ``right = V_k^T`` (k, r), whose rows are orthonormal, so a covariance
    of ``a``'s rows is ``right^T`` times the covariance of ``left``'s rows
    times ``right``.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = int(np.count_nonzero(s > max(a.shape) * np.finfo(float).eps * s[0]))
    return u[:, :k] * s[:k], vt[:k]


def _sq_norms(space: AmbientSpace, rows: np.ndarray, cols=slice(None)) -> np.ndarray:
    """Squared norms of grid rows, or of their values ``cols``, under the space inner product."""
    return np.einsum("ij,ij,j->i", rows, rows, space.weights[cols])


def _residual_sq_norms(space: AmbientSpace, basis, dev, coef, buf) -> np.ndarray:
    """Squared norms of ``dev - synthesize(space, basis, coef)``, tile by tile.

    Each tile of the synthesized rows (``space.synthesize_tiles``, carved
    from ``buf``) is subtracted from its columns of ``dev`` and reduced
    while it is in cache; the norms add up over the tiles.
    """
    out = np.zeros(dev.shape[0])
    for cols, tile in synthesize_tiles(space, basis, coef, buf):
        out += _sq_norms(space, np.subtract(dev[:, cols], tile, out=tile), cols)
    return out


def component_scores(model: EigenModel) -> np.ndarray:
    """Uncentered component scores <phi_j, Z_i> of the fitted rows, every j.

    Equal to ``(sample * weights) @ eigenfunctions(...).T`` because each
    eigenfunction is ``coords @ frame`` and the whitened scores are the
    sample's inner products with the frame. They are formed in the k
    columns of ``model.left``, as ``left @ (coords @ right.T).T``.
    """
    return model.left @ model.frame_coords.T


def check_tau(tau: float) -> None:
    """Reject an explained-variance target outside (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")


def check_alpha(alpha: float) -> None:
    """Reject a diagnostic level outside (0, 0.05]."""
    if not 0.0 < alpha <= 0.05:
        raise ConfigurationError(f"alpha must lie in (0, 0.05], got {alpha}")


def check_score_count(m: int, model: EigenModel) -> int:
    """The score count ``m`` as an int, rejected unless 1 <= m <= retained components."""
    m = int(m)
    if not 1 <= m <= model.n_components:
        raise ConformanceError(
            f"score count m={m} outside the retained range 1..{model.n_components}"
        )
    return m


def select_pve(model: EigenModel, tau: float = 0.95) -> PveSelection:
    """Smallest component count explaining more than ``tau`` of total variance.

    The comparison is strict: m is the first index with
    sum_{j<=m} eigenvalue_j > tau * total_variance. When even all retained
    components fall short (a sign the projection basis misses real
    variance), ``SelectionInfeasibleError`` reports the achieved fraction.
    """
    check_tau(tau)
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
    *,
    mean=None,
) -> DiagnosticReport:
    """Test whether the basis span captures the sample's variation.

    delta_hat is computed two ways -- mean squared residual after projecting
    centered rows onto the whitened frame, and total variance minus projected
    variance -- and the two must agree to 1e-8; the studentized statistic
    sqrt(n) * delta_hat / sqrt(s2_hat + 1/n) is compared against the normal
    quantile at 1 - alpha. Levels are restricted to (0, 0.05] because the
    statistic is one-sided and only small levels are meaningful for it.
    The basis is whitened at ``drop_tol`` exactly as ``fit_subspace_pca``
    whitens it, so both report the same basis rank. The sample passes
    through twice, for its mean (``space.sample_mean``) and for the
    residuals, each projection synthesized and reduced a tile at a time:
    on the usable CPUs, with the same bytes for any worker count, and with
    numpy's default BLAS threads, which can move the last bits of the
    scores; the CLI pins numpy's bundled OpenBLAS to one thread. ``mean``,
    when given, is the sample's ``sample_mean``, so that a caller that
    diagnoses one sample through several bases reads it for the mean once.
    """
    check_alpha(alpha)
    data = as_sample(space, sample)
    n = data.shape[0]
    if n < 2:
        raise ConformanceError("projection diagnostic needs at least two rows")
    whitener = whiten(gram(space, basis), drop_tol)
    factor = whitener.factor
    if mean is None:
        mean = sample_mean(space, data)
    white = np.empty((n, whitener.rank))
    resid_sq = np.empty(n)
    dev_sq = np.empty(n)

    def residuals(chunk, rows, buf, work):
        k = rows.shape[0]
        dev = np.subtract(rows, mean, out=buf[:k])
        dev_sq[chunk] = _sq_norms(space, dev)
        white[chunk] = _weighted_scores(space, basis, dev, out=work[:k]) @ factor.T
        resid_sq[chunk] = _residual_sq_norms(space, basis, dev, white[chunk] @ factor, work)

    sample_pass(space, data, residuals, (dev_sq,), buffers=2)
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
    left = model.left
    return (left - left.mean(axis=0)) @ model.frame_coords.T


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
    close = np.abs(lams[:m, None] - lams) <= tol
    np.fill_diagonal(close, False)
    if close.any():
        j, k = np.argwhere(close)[0]
        raise NearMultiplicityError(
            f"eigenvalues {j + 1} and {k + 1} differ by "
            f"{abs(lams[j] - lams[k]):.3e} <= gap tolerance {tol:.3e}; "
            "the spectral-gap expansion is unstable"
        )
