"""Discretized Hilbert spaces of gridded data.

An element of the space is a real function sampled on a rectangular grid and
stored flat in row-major order; a sample is a stack of such rows. The inner
product is the weighted dot product ``<a, b> = sum_v w_v a_v b_v`` with
nonnegative cell weights, typically the product of grid spacings. Cells can
be masked out of the domain by zeroing their weight, so irregular regions of
a bounding grid are ordinary elements of a smaller space.

A basis reaches the grid through three maps: ``gram``, ``project_scores``
(grid rows to basis coordinates) and ``synthesize`` (basis coordinates to
grid rows). Each accepts a dense basis (a ``BasisSet`` or a raw (N, V)
array) or a factored tensor-product basis (``bases.TensorBasis``), which
they contract one axis at a time without forming its (N, V) rows. Passes
over a sample go through it in row chunks of at most ``ROW_CHUNK_VALUES``
grid values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConformanceError, ConfigurationError, EmptyBasisError

DEFAULT_DROP_TOL = 1e-10
# Grid values per row chunk of a pass over a sample: 8 MiB of float64. On a
# 2-vCPU x86 VM, fit and diagnose on the 79x95x66 grid ran about 10% faster
# than with 32 MiB chunks.
ROW_CHUNK_VALUES = 2**20


@dataclass(frozen=True)
class AmbientSpace:
    """Grid geometry plus the quadrature weights defining the inner product.

    Parameters
    ----------
    dims : tuple of int
        Grid extent per axis, all positive.
    weights : ndarray, shape (prod(dims),)
        Nonnegative cell weights, not all zero. Masked cells carry weight 0.
    mask : ndarray of bool, optional
        Domain membership per cell. When given, every cell outside the mask
        must have weight exactly 0.
    """

    dims: tuple
    weights: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d <= 0 for d in dims):
            raise ConfigurationError(f"grid dims must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape != (int(np.prod(dims)),):
            raise ConformanceError(
                f"weights length {w.size} does not match grid size {np.prod(dims)}"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ConformanceError("weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise ConformanceError("weights must not all be zero")
        object.__setattr__(self, "weights", w)
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool).ravel()
            if m.shape != w.shape:
                raise ConformanceError("mask length does not match grid size")
            if np.any(w[~m] != 0.0):
                raise ConformanceError("cells outside the mask must have weight 0")
            object.__setattr__(self, "mask", m)

    @classmethod
    def regular(cls, dims, spacing=None) -> "AmbientSpace":
        """Uniform grid with weights = product of per-axis spacings.

        Spacing defaults to 1 on every axis, so inner products on integer
        grids coincide with plain dot products.
        """
        dims = tuple(int(d) for d in dims)
        if spacing is None:
            spacing = [1.0] * len(dims)
        elif np.isscalar(spacing):
            spacing = [float(spacing)] * len(dims)
        if len(spacing) != len(dims):
            raise ConfigurationError("one spacing per axis required")
        if any(s <= 0 for s in spacing):
            raise ConfigurationError("spacings must be positive")
        cell = float(np.prod([float(s) for s in spacing]))
        return cls(dims=dims, weights=np.full(int(np.prod(dims)), cell))

    @classmethod
    def unit_domain(cls, dims) -> "AmbientSpace":
        """Grid over the unit cube: spacing 1/dim per axis."""
        dims = tuple(int(d) for d in dims)
        return cls.regular(dims, [1.0 / d for d in dims])

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))

    def centers(self) -> list:
        """Per-axis cell-center coordinates on the unit interval.

        Cell i of an axis with extent d sits at (i + 0.5) / d, so families
        defined by closed forms on the unit cube are grid-size invariant.
        """
        return [(np.arange(d) + 0.5) / d for d in self.dims]

    def inner(self, a, b) -> float:
        a = as_element(self, a)
        b = as_element(self, b)
        return float(np.dot(a * self.weights, b))

    def norm(self, a) -> float:
        a = as_element(self, a)
        return float(np.sqrt(np.dot(a * self.weights, a)))


def as_element(space: AmbientSpace, x) -> np.ndarray:
    """Validate one element: shaped like the grid (or already flat), finite."""
    arr = np.asarray(x, dtype=float)
    if arr.shape == space.dims:
        arr = arr.ravel()
    if arr.shape != (space.size,):
        raise ConformanceError(
            f"element shape {np.shape(x)} does not conform to grid {space.dims}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConformanceError("element contains non-finite values")
    return arr


def as_sample(space: AmbientSpace, x) -> np.ndarray:
    """Validate a sample: n rows, each conforming to the grid, finite."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == len(space.dims) + 1 and arr.shape[1:] == space.dims:
        arr = arr.reshape(arr.shape[0], -1)
    if arr.ndim != 2 or arr.shape[1] != space.size:
        raise ConformanceError(
            f"sample shape {np.shape(x)} does not conform to grid {space.dims}"
        )
    if arr.shape[0] == 0:
        raise ConformanceError("sample must contain at least one row")
    # One row chunk at a time, so the check needs no n x V temporary.
    for chunk in row_chunks(space, arr.shape[0]):
        if not np.all(np.isfinite(arr[chunk])):
            raise ConformanceError("sample contains non-finite values")
    return arr


def _chunk_rows(space: AmbientSpace) -> int:
    return max(1, ROW_CHUNK_VALUES // space.size)


def row_chunks(space: AmbientSpace, n: int):
    """Slices covering n sample rows, at most ``ROW_CHUNK_VALUES`` values each."""
    step = _chunk_rows(space)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def kron_rows(factors) -> np.ndarray:
    """Dense rows of a tensor product: all products of per-axis rows.

    Rows and columns are in row-major order of the per-axis indices.
    """
    rows = factors[0]
    for axis_rows in factors[1:]:
        rows = (rows[:, None, :, None] * axis_rows[None, :, None, :]).reshape(
            rows.shape[0] * axis_rows.shape[0], rows.shape[1] * axis_rows.shape[1]
        )
    return rows


def _factored(basis) -> bool:
    """True for a ``bases.TensorBasis`` (tested by attribute: bases imports
    this module)."""
    return hasattr(basis, "factors")


def basis_rows(basis) -> np.ndarray:
    """Dense (N, V) rows of a BasisSet, a TensorBasis or a raw array.

    A TensorBasis is expanded with the outer-product construction, zeroed
    outside its support and cut to its kept rows; this costs N x V memory
    and serves dense callers and tests, not the fitting code.
    """
    if _factored(basis):
        rows = kron_rows(basis.factors)
        if basis.support is not None:
            rows = np.where(basis.support, rows, 0.0)
        return rows if basis.kept is None else rows[basis.kept]
    rows = getattr(basis, "functions", basis)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ConformanceError("basis must be a nonempty (N, V) array")
    if not np.all(np.isfinite(rows)):
        raise ConformanceError("basis contains non-finite values")
    return rows


def _dense(space: AmbientSpace, basis):
    """Dense rows of a dense basis, or None for a TensorBasis; either way
    the basis width must match the grid."""
    rows = None if _factored(basis) else basis_rows(basis)
    width = basis.shape[1] if rows is None else rows.shape[1]
    if width != space.size:
        raise ConformanceError(
            f"basis width {width} does not conform to grid {space.dims}"
        )
    return rows


def _mode_products(x: np.ndarray, mats) -> np.ndarray:
    """Multiply every trailing axis of x by a matrix, the last axis first.

    x is (k, n_0, ..., n_{K-1}) and ``mats[a]`` is (m_a, n_a); returns the
    (k, m_0 * ... * m_{K-1}) array of sum over i_a of
    prod_a mats[a][j_a, i_a] x[:, i_0, ..., i_{K-1}] (Kolda & Bader's
    mode-n products), each axis as one (batched) matrix product.
    """
    shape = list(x.shape)
    out = x.reshape(int(np.prod(shape[:-1])), shape[-1]) @ mats[-1].T
    shape[-1] = mats[-1].shape[0]
    for a in range(len(mats) - 2, -1, -1):
        lead = int(np.prod(shape[: a + 1]))
        out = mats[a] @ out.reshape(lead, shape[a + 1], int(np.prod(shape[a + 2 :])))
        shape[a + 1] = mats[a].shape[0]
    return out.reshape(shape[0], int(np.prod(shape[1:])))


def gram(space: AmbientSpace, basis) -> np.ndarray:
    """Gram matrix of basis rows under the space inner product.

    Returns the symmetric PSD matrix G[l, l'] = <psi_l, psi_l'>. Symmetry is
    enforced exactly by averaging the product with its transpose, which only
    removes floating-point asymmetry. For a TensorBasis the weight tensor is
    contracted with each axis's row products B_a[l] * B_a[l'] in turn, which
    is exact for any weights (masks and non-uniform spacing included).
    """
    rows = _dense(space, basis)
    if rows is not None:
        g = (rows * space.weights) @ rows.T
        return 0.5 * (g + g.T)
    g = space.weights.reshape(space.dims)
    for rows in basis.factors:
        g = np.tensordot(g, rows[:, None, :] * rows[None, :, :], axes=([0], [2]))
    # g's axes are now (l_0, l'_0, l_1, l'_1, ...).
    twice = 2 * len(basis.factors)
    g = g.transpose(list(range(0, twice, 2)) + list(range(1, twice, 2)))
    side = int(np.prod([f.shape[0] for f in basis.factors]))
    g = g.reshape(side, side)
    if basis.kept is not None:
        g = g[np.ix_(basis.kept, basis.kept)]
    return 0.5 * (g + g.T)


@dataclass(frozen=True)
class Whitener:
    """Linear map taking raw basis coordinates to an orthonormal frame.

    ``factor`` has shape (rank, N): row a of ``factor @ rows`` is the a-th
    orthonormal frame function, and ``factor @ G @ factor.T = I_rank`` for
    the Gram matrix G it was built from. ``spectrum`` holds the retained
    Gram eigenvalues in decreasing order.
    """

    factor: np.ndarray
    spectrum: np.ndarray
    drop_tol: float
    dropped: int = field(default=0)

    @property
    def rank(self) -> int:
        return self.factor.shape[0]


def whiten(gram_matrix, drop_tol: float = DEFAULT_DROP_TOL) -> Whitener:
    """Build the whitening factor of a Gram matrix.

    Eigendirections with eigenvalue <= drop_tol * max_eigenvalue are dropped
    as numerically dependent; dropping every direction raises
    ``EmptyBasisError``. Eigenvector signs are fixed so each retained
    direction has a positive entry of largest magnitude, making the factor
    deterministic.
    """
    g = np.asarray(gram_matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ConformanceError("gram matrix must be square")
    if not np.all(np.isfinite(g)):
        raise ConformanceError("gram matrix contains non-finite values")
    if not (0.0 < drop_tol < 1.0):
        raise ConfigurationError(f"drop_tol must lie in (0, 1), got {drop_tol}")
    vals, vecs = np.linalg.eigh(0.5 * (g + g.T))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    top = vals[0] if vals.size else 0.0
    keep = vals > drop_tol * max(top, 0.0)
    keep &= vals > 0.0
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise EmptyBasisError(
            "all Gram eigenvalues fall below the drop tolerance; "
            "the basis spans nothing in this space"
        )
    vals = vals[:rank]
    vecs = vecs[:, :rank]
    vecs = _fix_signs(vecs)
    factor = (vecs / np.sqrt(vals)).T
    return Whitener(
        factor=factor,
        spectrum=vals,
        drop_tol=float(drop_tol),
        dropped=g.shape[0] - rank,
    )


def _fix_signs(columns: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-|entry| coordinate is positive."""
    idx = np.argmax(np.abs(columns), axis=0)
    signs = np.sign(columns[idx, np.arange(columns.shape[1])])
    signs[signs == 0] = 1.0
    return columns * signs


def project_scores(space: AmbientSpace, basis, sample, center=None) -> np.ndarray:
    """Inner products of (optionally centered) sample rows with basis rows.

    Returns the (n, N) matrix S[i, l] = <psi_l, Z_i - center>. With
    ``center=None`` the rows are used as they are. The sample is validated
    once and then passed through in row chunks; a TensorBasis is applied by
    mode-n products with its factors, the last axis first.
    """
    data = as_sample(space, sample)
    if center is not None:
        center = as_element(space, center)
    return _project_scores(space, basis, data, center)


def _project_scores(space: AmbientSpace, basis, data, center=None) -> np.ndarray:
    """``project_scores`` of a sample that ``as_sample`` has already checked
    and a center that is None or a flat element of the space."""
    rows = _dense(space, basis)
    out = np.empty((data.shape[0], basis.n_functions if rows is None else rows.shape[0]))
    buf = np.empty((min(data.shape[0], _chunk_rows(space)), space.size))
    for chunk in row_chunks(space, data.shape[0]):
        x = buf[: chunk.stop - chunk.start]
        if center is None:
            np.multiply(data[chunk], space.weights, out=x)
        else:
            np.multiply(np.subtract(data[chunk], center, out=x), space.weights, out=x)
        if rows is not None:
            out[chunk] = x @ rows.T
            continue
        scores = _mode_products(x.reshape(x.shape[0], *space.dims), basis.factors)
        out[chunk] = scores if basis.kept is None else scores[:, basis.kept]
    return out


def synthesize(space: AmbientSpace, basis, coef) -> np.ndarray:
    """Grid elements from basis coordinates: (k, N) -> (k, V).

    Row i of the result is sum_l coef[i, l] psi_l, i.e. ``coef @
    basis_rows(basis)``; a TensorBasis computes it by mode-n products with
    its factors and zeroes the cells outside its support.
    """
    coef = np.asarray(coef, dtype=float)
    rows = _dense(space, basis)
    n_rows = basis.n_functions if rows is None else rows.shape[0]
    if coef.ndim != 2 or coef.shape[1] != n_rows:
        raise ConformanceError(
            f"coefficients {coef.shape} do not match {n_rows} basis rows"
        )
    if rows is not None:
        return coef @ rows
    sizes = [f.shape[0] for f in basis.factors]
    full = coef
    if basis.kept is not None:
        full = np.zeros((coef.shape[0], int(np.prod(sizes))))
        full[:, basis.kept] = coef
    out = _mode_products(
        full.reshape(coef.shape[0], *sizes), [f.T for f in basis.factors]
    )
    if basis.support is not None:
        out[:, ~basis.support] = 0.0
    return out
