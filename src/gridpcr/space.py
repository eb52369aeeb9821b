"""Discretized Hilbert spaces of gridded data.

An element of the space is a real function sampled on a rectangular grid and
stored flat in row-major order; a sample is a stack of such rows. The inner
product is the weighted dot product ``<a, b> = sum_v w_v a_v b_v`` with
nonnegative cell weights, typically the product of grid spacings. Cells can
be masked out of the domain by zeroing their weight, so irregular regions of
a bounding grid are ordinary elements of a smaller space.

A basis reaches the grid through three maps: ``gram``, ``project_scores``
(grid rows to basis coordinates) and ``synthesize_tiles`` (basis
coordinates to grid rows, a tile of columns at a time); ``synthesize`` is
the single tile of the whole rows. Each checks once that the basis width
conforms to the grid and hands the work to the basis, through the
protocol that ``bases.BasisSet`` and ``bases.TensorBasis`` share (see
``bases``); how a basis stores its rows is its own affair. Every pass over
a sample goes through ``sample_pass`` in row chunks of at most
``ROW_CHUNK_VALUES`` grid values; the sample is an array or an open
``storage.GridRows``, which is read one chunk at a time. The pass checks
the rows finite through sums its tasks form from them anyway and reads
the rows again, to find the first bad one, only when one of those sums is
not finite or a read failed.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConformanceError, ConfigurationError, EmptyBasisError, FormatError
from .storage import GridRows, read_grid
from .util import pool_size, run_indexed

DEFAULT_DROP_TOL = 1e-10
# Grid values per row chunk of a pass over a sample: 8 MiB of float64. On a
# 2-vCPU x86 VM, fit and diagnose on the 79x95x66 grid ran about 10% faster
# than with 32 MiB chunks.
ROW_CHUNK_VALUES = 2**20
# Chunk buffers one pass holds at most, 32 MiB at the size above: passes
# that use two buffers per worker run on two workers at most, passes that
# use one on four, however many CPUs there are, so the peak memory of fit
# and diagnose does not grow with the CPU count.
PASS_BUFFERS = 4
# Grid values per tile of rows synthesized only to be reduced (the sign
# pass, the residual pass), 1 MiB of float64, carved from a pass buffer.
# On a 2-vCPU x86 VM the sign pass over 99 eigenfunctions of the 79x95x66
# grid took a median 34 ms with these tiles, against 44 ms with 2**16, 39
# ms with 2**18, 47 ms with 2**19, 75 ms with 2**15 and 46 ms for whole row
# chunks (7 runs each).
TILE_VALUES = 2**17
# Rows whose max and -min agree within this fraction of the larger are
# synthesized whole for the sign rule, since one of several tiles may
# differ from the single tile of synthesize in the last bits (see
# synthesize_tiles). The two differ only in the rounding of the last
# product, a sum of N_0 terms weighted by a partition of unity (B-spline
# factors, hat functions): a few N_0 eps of the terms' size, some 1e-14 of
# the peak, six orders inside this margin.
PEAK_TIE_REL = 1e-8


@dataclass(frozen=True)
class AmbientSpace:
    """Grid geometry plus the quadrature weights defining the inner product.

    Parameters
    ----------
    dims : tuple of int
        Grid extent per axis, all positive.
    weights : ndarray, shape (prod(dims),)
        Nonnegative cell weights, not all zero. The domain is the cells of
        positive weight; masked cells carry weight 0.
    """

    dims: tuple
    weights: np.ndarray

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


def as_sample(space: AmbientSpace, x):
    """Validate a sample's shape: n rows, each conforming to the grid.

    ``x`` is an array or an open ``storage.GridRows``. An array comes back
    flat as (n, V); a ``GridRows`` comes back as it is. Only the shape is
    checked here; the values are checked finite by every pass that reads
    them (``sample_pass``).
    """
    if isinstance(x, GridRows):
        shape = tuple(x.shape)
        if shape[1:] not in (space.dims, (space.size,)):
            raise ConformanceError(
                f"sample shape {shape} does not conform to grid {space.dims}"
            )
        return x
    arr = np.asarray(x, dtype=float)
    if arr.ndim == len(space.dims) + 1 and arr.shape[1:] == space.dims:
        arr = arr.reshape(arr.shape[0], -1)
    if arr.ndim != 2 or arr.shape[1] != space.size:
        raise ConformanceError(
            f"sample shape {np.shape(x)} does not conform to grid {space.dims}"
        )
    if arr.shape[0] == 0:
        raise ConformanceError("sample must contain at least one row")
    return arr


def _chunk_rows(space: AmbientSpace) -> int:
    return max(1, ROW_CHUNK_VALUES // space.size)


def row_chunks(space: AmbientSpace, n: int):
    """Slices covering n sample rows, at most ``ROW_CHUNK_VALUES`` values each."""
    step = _chunk_rows(space)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def chunk_buffer(space: AmbientSpace, n: int) -> np.ndarray:
    """A work buffer for one row chunk of an n-row sample."""
    return np.empty((min(n, _chunk_rows(space)), space.size))


def sample_rows(space: AmbientSpace, sample, chunk: slice, buf):
    """The rows ``chunk`` of a checked sample, read but not checked finite.

    ``sample`` is what ``as_sample`` returned and ``buf`` a
    ``chunk_buffer`` (or any C-contiguous array with room for the rows).
    Array rows come as a view of the array; a file's rows are read into
    ``buf`` by ``storage.read_grid``.
    """
    if not isinstance(sample, GridRows):
        return sample[chunk]
    out = buf.reshape(-1)[: (chunk.stop - chunk.start) * space.size]
    return read_grid(sample, chunk.start, out.reshape(-1, space.size))


def _scan_rows(space: AmbientSpace, sample) -> None:
    """Read a sample's row chunks in order, raising at the first bad one."""
    buf = chunk_buffer(space, sample.shape[0])
    for chunk in row_chunks(space, sample.shape[0]):
        if not np.all(np.isfinite(sample_rows(space, sample, chunk, buf))):
            raise ConformanceError("sample contains non-finite values")


def run_pass(space: AmbientSpace, n: int, task, buffers: int = 1, total=None) -> None:
    """Run ``task(chunk, *bufs)`` for every row chunk of a pass over an n-row sample.

    The tasks are independent and may finish in any order; each writes
    only its own rows of the result, so the bytes do not depend on the
    worker count. With ``total``, a (V,) array, each task returns its
    chunk's grid rows and they are added into ``total`` one row at a time
    in row order (``_add_rows``): a task waits, holding its buffers, until
    the chunks before it are in. A task that raises still waits for its
    turn and passes it on, so no task waits for ever, and ``run_indexed``
    then raises the error of the lowest failing chunk. The worker count is
    worked out once, here: ``util.pool_size`` of the row chunks (every
    usable CPU at most), capped so that the pass holds at most
    ``PASS_BUFFERS`` chunk buffers whatever the CPU count. Every worker
    holds ``buffers`` of them while it runs a task. They are allocated
    here, in the caller's thread, so that worker threads allocate no
    chunk-sized array (glibc would keep such arrays in per-thread arenas).
    Tasks are handed out in row order, so a waiting task's predecessors
    are all running or done.
    """
    items = list(row_chunks(space, n))
    workers = min(pool_size(len(items)), max(1, PASS_BUFFERS // buffers))
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put([chunk_buffer(space, n) for _ in range(buffers)])
    turn = threading.Condition()
    added = [0]  # chunks whose turn has passed

    def one(i):
        bufs = free.get()
        rows = None
        try:
            rows = task(items[i], *bufs)
        finally:
            if total is not None:
                with turn:
                    turn.wait_for(lambda: added[0] == i)
                    try:
                        if rows is not None:
                            _add_rows(total, rows)
                    finally:
                        added[0] = i + 1
                        turn.notify_all()
            free.put(bufs)

    # ``workers`` is at most the items and the usable CPUs, so run_indexed's
    # pool_size under this cap is ``workers`` again: a worker per buffer set.
    run_indexed(one, len(items), workers)


def sample_pass(space: AmbientSpace, sample, task, sums=(), buffers=1, total=None) -> None:
    """Run ``task(chunk, rows, *bufs)`` on the rows of every chunk of a checked sample.

    Each chunk's rows are read (``sample_rows``, into the first of the
    task's ``buffers`` chunk buffers for a file) and handed to the task,
    which fills its chunk's part of the results, in a ``run_pass`` over
    the sample; with ``total`` the rows, left as read, are added into it
    in row order. Then the one finiteness rule of the package: the rows
    are checked finite through ``sums``, arrays the tasks filled with sums
    of their rows, and ``total``, which are not finite when a row is not.
    Only when one of them is not finite, or a chunk raised ``FormatError``
    (a file cut short), are the rows read again in order (``_scan_rows``),
    into a buffer allocated here, after the pass, so that the first
    non-finite chunk or the cut, whichever comes first, raises, for any
    worker count. Finite rows can overflow a sum too; they pass. The tasks
    and the row sum run with numpy's invalid-value warnings off on the
    thread that runs them: a non-finite row gives its error, not warnings.
    """

    def read(chunk, buf, *rest):
        rows = sample_rows(space, sample, chunk, buf)
        with np.errstate(invalid="ignore"):
            task(chunk, rows, buf, *rest)
        return rows

    try:
        run_pass(space, sample.shape[0], read, buffers, total)
    except FormatError:
        _scan_rows(space, sample)
        raise
    if not all(np.all(np.isfinite(a)) for a in (*sums, total) if a is not None):
        _scan_rows(space, sample)


def sample_mean(space: AmbientSpace, sample) -> np.ndarray:
    """Pointwise mean of a checked sample, bitwise equal to ``mean(axis=0)``.

    One ``sample_pass`` adds the rows into the sum in row order, the order
    of numpy's sum for every column, and the sum is its finiteness check
    (finite rows whose sum overflows give an infinite mean, as numpy's
    does).
    """
    total = np.zeros(space.size)
    sample_pass(space, sample, lambda *_: None, total=total)
    total /= sample.shape[0]
    return total


def _add_rows(total: np.ndarray, rows) -> None:
    """Add sample rows into ``total`` one row at a time.

    This is the order in which ``data.mean(axis=0)`` adds them, so a mean
    summed this way over any row chunks is bitwise equal to it; a sum of
    each chunk first is not. An inf and a -inf add to NaN without a
    warning; ``sample_pass`` then reports the non-finite row.
    """
    with np.errstate(invalid="ignore"):
        for row in rows:
            total += row


def _conform(space: AmbientSpace, basis) -> None:
    """Raise unless the basis rows are as wide as the grid."""
    width = basis.shape[1]
    if width != space.size:
        raise ConformanceError(
            f"basis width {width} does not conform to grid {space.dims}"
        )


def gram(space: AmbientSpace, basis) -> np.ndarray:
    """Gram matrix of basis rows under the space inner product.

    Returns the symmetric PSD matrix G[l, l'] = <psi_l, psi_l'>. Symmetry is
    enforced exactly by averaging the basis's product with its transpose,
    which only removes floating-point asymmetry.
    """
    _conform(space, basis)
    g = basis.gram(space.weights)
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


def check_drop_tol(drop_tol: float) -> None:
    """Reject a Gram drop tolerance outside (0, 1)."""
    if not 0.0 < drop_tol < 1.0:
        raise ConfigurationError(f"drop_tol must lie in (0, 1), got {drop_tol}")


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
    check_drop_tol(drop_tol)
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
    vecs[:, _negative_peaks(vecs.T)] *= -1.0
    factor = (vecs / np.sqrt(vals)).T
    return Whitener(
        factor=factor,
        spectrum=vals,
        drop_tol=float(drop_tol),
        dropped=g.shape[0] - rank,
    )


def _negative_peaks(rows: np.ndarray) -> np.ndarray:
    """Whether each row's largest-|value| entry (the first of ties) is negative.

    This is the one sign rule of the package: a whitener's eigenvectors and
    a model's eigenfunctions are flipped where it holds, so that their
    largest-|value| entry is positive. A row's peak is negative exactly
    when -min > max; only rows with -min == max need the position of the
    first extreme entry.
    """
    high, low = rows.max(axis=1), rows.min(axis=1)
    negative = -low > high
    tied = np.flatnonzero(-low == high)
    if tied.size:
        ties = rows[tied]
        negative[tied] = ties[np.arange(tied.size), np.argmax(np.abs(ties), axis=1)] < 0
    return negative


def project_scores(space: AmbientSpace, basis, sample) -> np.ndarray:
    """Inner products of sample rows with basis rows.

    Returns the (n, N) matrix S[i, l] = <psi_l, Z_i>. The sample (an array
    or a row source) is validated once and then goes through one
    ``sample_pass``; each chunk writes only its own rows of S, and its
    scores are its finiteness check.
    """
    data = as_sample(space, sample)
    _conform(space, basis)
    out = np.empty((data.shape[0], basis.n_functions))

    def project(chunk, rows, buf):
        out[chunk] = _weighted_scores(space, basis, rows, out=buf[: rows.shape[0]])

    sample_pass(space, data, project, (out,))
    return out


def _weighted_scores(space: AmbientSpace, basis, rows, out=None) -> np.ndarray:
    """Basis scores <psi_l, row> of a chunk of grid rows, width unchecked.

    The weighted rows are formed in ``out`` (which may be ``rows`` itself)
    or, without it, in a temporary.
    """
    return basis.scores(np.multiply(rows, space.weights, out=out))


def synthesize(space: AmbientSpace, basis, coef, out=None) -> np.ndarray:
    """Grid elements from basis coordinates: (k, N) -> (k, V).

    Row i of the result is sum_l coef[i, l] psi_l, i.e. ``coef @
    basis.rows()``: the single tile of ``synthesize_tiles`` that fills
    ``out`` (a C-contiguous (k, V) array, or a new one), computed by the
    basis without its dense rows when it keeps none.
    """
    coef = np.asarray(coef, dtype=float)
    _conform(space, basis)
    if coef.ndim != 2 or coef.shape[1] != basis.n_functions:
        raise ConformanceError(
            f"coefficients {coef.shape} do not match {basis.n_functions} basis rows"
        )
    if out is None:
        out = np.empty((coef.shape[0], space.size))
    if coef.shape[0]:  # a basis sizes its tiles by dividing by k
        next(basis.synthesize_tiles(coef, out, out.size))
    return out


def synthesize_tiles(space: AmbientSpace, basis, coef, buf):
    """The rows ``synthesize(space, basis, coef)`` a tile of columns at a time.

    Yields ``(cols, tile)``: ``tile`` (k, width) holds the values ``cols``
    (a slice of the flattened row) of every row, about ``TILE_VALUES``
    values in all, so that a pass can reduce it while it is in cache. The
    tiles are carved from the front of ``buf`` (a chunk buffer with room
    for the k rows), and each one overwrites the last. Rows of at most
    ``TILE_VALUES`` values in all make a single tile, the product
    ``synthesize`` makes, bitwise; smaller tiles can differ from it in the
    last bits, because BLAS may order the sums of a product of another
    shape differently.
    """
    _conform(space, basis)
    return basis.synthesize_tiles(np.asarray(coef, dtype=float), buf, TILE_VALUES)


def synthesized_negative_peaks(space: AmbientSpace, basis, coef, buf) -> np.ndarray:
    """``_negative_peaks(synthesize(space, basis, coef))``, one tile at a time.

    Each row's max and min are gathered tile by tile (``synthesize_tiles``,
    in ``buf``), and the sign rule is applied to the pair: a row's peak has
    the sign of the peak of (max, min) unless -min == max. Only such a row
    needs the position of its first extreme entry, and one of several
    tiles may differ from ``synthesize``'s single tile in the last bits, so
    every row whose -min and max agree within ``PEAK_TIE_REL`` is
    synthesized whole, into ``buf``, for ``_negative_peaks``.
    """
    k = coef.shape[0]
    high, low = np.full(k, -np.inf), np.full(k, np.inf)
    for _, tile in synthesize_tiles(space, basis, coef, buf):
        np.maximum(high, tile.max(axis=1), out=high)
        np.minimum(low, tile.min(axis=1), out=low)
    negative = _negative_peaks(np.stack([high, low], axis=1))
    tied = np.flatnonzero(np.abs(high + low) <= PEAK_TIE_REL * np.maximum(high, -low))
    if tied.size:
        whole = synthesize(space, basis, coef[tied], out=buf[: tied.size])
        negative[tied] = _negative_peaks(whole)
    return negative
