"""Discretized Hilbert spaces of gridded data.

An element of the space is a real function sampled on a rectangular grid and
stored flat in row-major order; a sample is a stack of such rows. The inner
product is the weighted dot product ``<a, b> = sum_v w_v a_v b_v`` with
nonnegative cell weights, typically the product of grid spacings. Cells can
be masked out of the domain by zeroing their weight, so irregular regions of
a bounding grid are ordinary elements of a smaller space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConformanceError, ConfigurationError, EmptyBasisError

DEFAULT_DROP_TOL = 1e-10


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
    if not np.all(np.isfinite(arr)):
        raise ConformanceError("sample contains non-finite values")
    return arr


def basis_rows(basis) -> np.ndarray:
    """Accept a BasisSet or a raw (N, V) array of sampled basis functions."""
    rows = getattr(basis, "functions", basis)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ConformanceError("basis must be a nonempty (N, V) array")
    if not np.all(np.isfinite(rows)):
        raise ConformanceError("basis contains non-finite values")
    return rows


def gram(space: AmbientSpace, basis) -> np.ndarray:
    """Gram matrix of basis rows under the space inner product.

    Returns the symmetric PSD matrix G[l, l'] = <psi_l, psi_l'>. Symmetry is
    enforced exactly by averaging the product with its transpose, which only
    removes floating-point asymmetry.
    """
    rows = basis_rows(basis)
    if rows.shape[1] != space.size:
        raise ConformanceError(
            f"basis width {rows.shape[1]} does not conform to grid {space.dims}"
        )
    g = (rows * space.weights) @ rows.T
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
    ``center=None`` the rows are used as they are.
    """
    rows = basis_rows(basis)
    if rows.shape[1] != space.size:
        raise ConformanceError(
            f"basis width {rows.shape[1]} does not conform to grid {space.dims}"
        )
    data = as_sample(space, sample)
    if center is not None:
        data = data - as_element(space, center)
    return (data * space.weights) @ rows.T
