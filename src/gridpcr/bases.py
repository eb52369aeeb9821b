"""Projection bases sampled on grids.

Two constructions are provided: tensor-product B-splines on the full
rectangular grid, and continuous piecewise-linear hat functions on a simplex
mesh for irregular (masked) domains. The mesh basis is a ``BasisSet`` whose
rows are basis functions sampled at grid cell centers; the B-spline basis is
a ``TensorBasis`` that keeps only its per-axis factors. Both answer one
protocol, which keeps their storage formats to themselves: ``n_functions``,
``shape`` (N, V), ``gram(weights)``, ``scores(weighted_rows)``,
``synthesize_tiles(coef, buf, values)`` (the grid rows ``coef @ rows()``
a tile of columns at a time, carved from ``buf``; a tile of every column
is the whole product) and ``rows()``, the dense oracle for tests. Fitting
code reaches a basis only through ``space.gram``, ``space.project_scores``,
``space.synthesize`` and ``space.synthesize_tiles``.

Coordinates: basis constructions and mesh vertices live in unit-cube
coordinates, with grid cell i of an axis of extent d at (i + 0.5) / d (see
``AmbientSpace.centers``). This keeps closed-form families and meshes
independent of grid resolution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConformanceError,
    ConfigurationError,
    CoverageError,
    EmptyBasisError,
    FormatError,
)
from .space import ROW_CHUNK_VALUES, AmbientSpace
from .util import atomic_write_text

NEGLIGIBLE_ROW_TOL = 1e-12
_BARY_TOL = 1e-9


@dataclass(frozen=True)
class BasisSet:
    """Basis functions sampled on a grid: row l is psi_l at the cell centers.

    The rows are stored dense, and each map of the basis protocol is one
    matrix product with them. ``provenance`` records how the rows were
    built (construction kind and its parameters); it travels with the basis
    for manifests and reports.
    """

    functions: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = np.asarray(self.functions, dtype=float)
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            raise ConformanceError("basis functions must form a nonempty (N, V) array")
        if not np.all(np.isfinite(rows)):
            raise ConformanceError("basis functions contain non-finite values")
        object.__setattr__(self, "functions", rows)

    @property
    def n_functions(self) -> int:
        return self.functions.shape[0]

    @property
    def shape(self) -> tuple:
        return self.functions.shape

    def gram(self, weights) -> np.ndarray:
        """Products <psi_l, psi_l'> under the cell weights (V,), unsymmetrized."""
        return (self.functions * weights) @ self.functions.T

    def scores(self, weighted_rows) -> np.ndarray:
        """Products (k, N) of weighted grid rows (k, V) with the basis rows."""
        return weighted_rows @ self.functions.T

    def synthesize_tiles(self, coef, buf, values):
        """Grid rows ``coef @ rows()`` as ``(cols, tile)`` pairs: blocks of
        columns of about ``values`` values each, carved from ``buf`` in turn."""
        k, width = coef.shape[0], self.functions.shape[1]
        step = max(1, min(values, buf.size) // k)
        for lo in range(0, width, step):
            cols = slice(lo, min(lo + step, width))
            tile = buf.reshape(-1)[: k * (cols.stop - lo)].reshape(k, -1)
            yield cols, np.matmul(coef, self.functions[:, cols], out=tile)

    def rows(self) -> np.ndarray:
        return self.functions


@dataclass(frozen=True)
class TensorBasis:
    """Tensor-product basis kept as its per-axis factors.

    Row l of the basis, with l the row-major index of per-axis indices
    (l_0, ..., l_{K-1}), is the product over axes a of ``factors[a][l_a]``
    sampled on the grid, set to 0 outside ``support``. ``factors[a]`` is
    (N_a, d_a) for an axis of d_a cells; ``kept`` lists the rows kept, in
    order (None when none is dropped); ``support`` marks the cells with
    positive weight (None when every cell has). The dense (N, V) rows are
    never stored: ``rows()`` builds them on request, while ``gram``,
    ``scores`` and ``synthesize_tiles`` contract the factors one axis at a
    time.
    """

    factors: tuple
    kept: np.ndarray | None = None
    support: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def n_functions(self) -> int:
        if self.kept is not None:
            return int(self.kept.size)
        return int(np.prod([f.shape[0] for f in self.factors]))

    @property
    def shape(self) -> tuple:
        return (self.n_functions, int(np.prod([f.shape[1] for f in self.factors])))

    def gram(self, weights) -> np.ndarray:
        """Products <psi_l, psi_l'> under the cell weights (V,), unsymmetrized:
        the weight tensor contracted with each axis's row products
        B_a[l] * B_a[l'] in turn, exact for any weights."""
        g = weights.reshape([f.shape[1] for f in self.factors])
        for rows in self.factors:
            g = np.tensordot(g, rows[:, None, :] * rows[None, :, :], axes=([0], [2]))
        # g's axes are now (l_0, l'_0, l_1, l'_1, ...).
        twice = 2 * len(self.factors)
        g = g.transpose(list(range(0, twice, 2)) + list(range(1, twice, 2)))
        side = int(np.prod([f.shape[0] for f in self.factors]))
        g = g.reshape(side, side)
        return g if self.kept is None else g[np.ix_(self.kept, self.kept)]

    def scores(self, weighted_rows) -> np.ndarray:
        """Products (k, N) of weighted grid rows (k, V) with the basis rows,
        by mode-n products with the factors, the last axis first."""
        x = weighted_rows.reshape(-1, *[f.shape[1] for f in self.factors])
        scores = _mode_products(x, self.factors)
        return scores if self.kept is None else scores[:, self.kept]

    def synthesize_tiles(self, coef, buf, values):
        """Grid rows ``coef @ rows()`` by mode-n products with the factors,
        zero outside the support, as ``(cols, tile)`` pairs: one tile of
        whole slabs of the leading axis at a time, about ``values`` values
        each, carved from ``buf`` in turn. Every axis but the leading one is
        contracted once; each tile then multiplies by its slabs' columns of
        the leading factor, a batched product that on a 1-axis grid is one
        matrix-vector product per row."""
        k = coef.shape[0]
        first, rest = self.factors[0], self.factors[1:]
        x = self._coef_tensor(coef)
        x = x.reshape(k * first.shape[0], *x.shape[2:])
        slab = int(np.prod([f.shape[1] for f in rest]))
        y = _mode_products(x, [f.T for f in rest]) if rest else x
        y = y.reshape(k, first.shape[0], slab)
        step = max(1, min(values, buf.size) // (k * slab))
        for lo in range(0, first.shape[1], step):
            hi = min(lo + step, first.shape[1])
            tile = buf.reshape(-1)[: k * (hi - lo) * slab].reshape(k, hi - lo, slab)
            tile = np.matmul(first.T[lo:hi], y, out=tile).reshape(k, -1)
            cols = slice(lo * slab, hi * slab)
            if self.support is not None:
                tile[:, ~self.support[cols]] = 0.0
            yield cols, tile

    def _coef_tensor(self, coef) -> np.ndarray:
        """Coefficients (k, N) as a (k, N_0, ..., N_{K-1}) tensor, dropped rows 0."""
        sizes = [f.shape[0] for f in self.factors]
        full = coef
        if self.kept is not None:
            full = np.zeros((coef.shape[0], int(np.prod(sizes))))
            full[:, self.kept] = coef
        return full.reshape(coef.shape[0], *sizes)

    def rows(self) -> np.ndarray:
        """The dense (N, V) rows: the outer-product construction, zeroed
        outside the support and cut to the kept rows. This costs N x V
        memory and serves tests, not the fitting code."""
        rows = _kron_rows(self.factors)
        if self.support is not None:
            rows = np.where(self.support, rows, 0.0)
        return rows if self.kept is None else rows[self.kept]


def _kron_rows(factors) -> np.ndarray:
    """Dense rows of a tensor product: all products of per-axis rows.

    Rows and columns are in row-major order of the per-axis indices.
    """
    rows = factors[0]
    for axis_rows in factors[1:]:
        rows = (rows[:, None, :, None] * axis_rows[None, :, None, :]).reshape(
            rows.shape[0] * axis_rows.shape[0], rows.shape[1] * axis_rows.shape[1]
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
    lead = int(np.prod(shape[:-1]))
    shape[-1] = mats[-1].shape[0]
    y = x.reshape(lead, x.shape[-1]) @ mats[-1].T
    for a in range(len(mats) - 2, -1, -1):
        lead = int(np.prod(shape[: a + 1]))
        rest = int(np.prod(shape[a + 2 :]))
        y = y.reshape(lead, shape[a + 1], rest)
        shape[a + 1] = mats[a].shape[0]
        y = mats[a] @ y
    return y.reshape(shape[0], int(np.prod(shape[1:])))


@dataclass(frozen=True)
class KnotVector:
    """Clamped nondecreasing knot sequence for one axis.

    Supports len(knots) - degree - 1 B-spline functions; the endpoints must
    repeat degree + 1 times (clamped), so the basis sums to one on the whole
    knot range.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        degree = int(self.degree)
        if degree < 0:
            raise ConfigurationError(f"degree must be nonnegative, got {degree}")
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2 * (degree + 1):
            raise ConfigurationError(
                "knot vector needs at least 2 * (degree + 1) entries"
            )
        if np.any(np.diff(knots) < 0):
            raise ConfigurationError("knots must be nondecreasing")
        if knots[degree] != knots[0] or knots[-degree - 1] != knots[-1]:
            raise ConfigurationError("knot vector must be clamped at both ends")
        if knots[0] >= knots[-1]:
            raise ConfigurationError("knot range must have positive length")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "knots", knots)

    @property
    def n_functions(self) -> int:
        return self.knots.size - self.degree - 1

    @classmethod
    def uniform(cls, degree: int, interior: int, lo: float = 0.0, hi: float = 1.0):
        """Clamped knots with ``interior`` equally spaced interior knots."""
        if interior < 0:
            raise ConfigurationError(f"interior knot count must be >= 0, got {interior}")
        inside = np.linspace(lo, hi, interior + 2)[1:-1]
        knots = np.concatenate(
            [np.full(degree + 1, lo), inside, np.full(degree + 1, hi)]
        )
        return cls(degree=degree, knots=knots)


def bspline_values(kv: KnotVector, x) -> np.ndarray:
    """Evaluate all B-splines of a knot vector at points x.

    Cox-de Boor recursion, vectorized over points; returns (n_functions,
    len(x)). Points at the right end of the knot range are assigned to the
    last nonempty span so the partition of unity holds on the closed range.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = kv.knots
    if x.size and (x.min() < t[0] or x.max() > t[-1]):
        raise ConformanceError(
            f"evaluation points must lie in [{t[0]}, {t[-1]}]"
        )
    degree = kv.degree
    n_spans = t.size - 1
    values = np.zeros((n_spans, x.size))
    for i in range(n_spans):
        if t[i + 1] > t[i]:
            hit = (x >= t[i]) & (x < t[i + 1])
            values[i, hit] = 1.0
    at_end = x == t[-1]
    if np.any(at_end):
        last = max(i for i in range(n_spans) if t[i + 1] > t[i])
        values[last, at_end] = 1.0
    for d in range(1, degree + 1):
        nxt = np.zeros((t.size - d - 1, x.size))
        for i in range(t.size - d - 1):
            if t[i + d] > t[i]:
                nxt[i] += (x - t[i]) / (t[i + d] - t[i]) * values[i]
            if t[i + d + 1] > t[i + 1]:
                nxt[i] += (t[i + d + 1] - x) / (t[i + d + 1] - t[i + 1]) * values[i + 1]
        values = nxt
    return values


def bspline_tensor_basis(space: AmbientSpace, degrees, interior_knots) -> TensorBasis:
    """Tensor-product B-spline basis sampled at the grid cell centers.

    ``degrees`` and ``interior_knots`` are scalars or per-axis sequences.
    Each axis gets interior_knots + degree + 1 functions on uniform clamped
    knots over [0, 1]; rows are all products across axes, in row-major order
    of the per-axis indices. Rows sum to one at every cell inside the domain.
    The basis is kept factored (see ``TensorBasis``); its ``rows()`` builds
    the dense rows when they are wanted.
    """
    degrees = _per_axis(space, degrees, "degrees")
    interior = _per_axis(space, interior_knots, "interior_knots")
    if any(d < 0 for d in degrees):
        raise ConfigurationError("degrees must be nonnegative")
    if any(k < 0 for k in interior):
        raise ConfigurationError("interior knot counts must be nonnegative")
    for axis, (extent, degree) in enumerate(zip(space.dims, degrees)):
        if extent < degree + 1:
            raise ConfigurationError(
                f"axis {axis} has {extent} cells, fewer than degree + 1 = {degree + 1}"
            )
    factors = tuple(
        bspline_values(KnotVector.uniform(degree, inside), centers)
        for centers, degree, inside in zip(space.centers(), degrees, interior)
    )
    provenance = {
        "kind": "bspline",
        "degrees": list(degrees),
        "interior_knots": list(interior),
    }
    support = space.weights > 0
    support = None if np.all(support) else support
    keep = _tensor_keep(factors, support)
    kept = None
    if not np.all(keep):
        _warn_dropped(keep, provenance, stacklevel=3)
        kept = np.flatnonzero(keep)
    return TensorBasis(
        factors=factors, kept=kept, support=support, provenance=provenance
    )


def _tensor_keep(factors, support) -> np.ndarray:
    """Rows of a factored basis whose peak |value| on the domain is not negligible.

    The peaks equal those of the dense rows bit for bit. Without a mask a
    row's peak is the product of its per-axis peaks, because rounding is
    monotone; with a mask the dense rows are built one slab of the first
    axis at a time, at most ``ROW_CHUNK_VALUES`` values per slab.
    """
    if support is None:
        peak = None
        for rows in factors:
            axis_peak = np.max(np.abs(rows), axis=1, initial=0.0)
            peak = axis_peak if peak is None else np.outer(peak, axis_peak).ravel()
    else:
        first, rest = factors[0], factors[1:]
        n_rows = int(np.prod([f.shape[0] for f in factors]))
        width = int(np.prod([f.shape[1] for f in rest]))
        step = max(1, ROW_CHUNK_VALUES // (n_rows * width))
        inside = support.reshape(first.shape[1], width)
        peak = np.zeros(n_rows)
        for lo in range(0, first.shape[1], step):
            slab = _kron_rows((first[:, lo : lo + step],) + rest)
            slab = np.where(inside[lo : lo + step].ravel(), slab, 0.0)
            np.maximum(peak, np.max(np.abs(slab), axis=1, initial=0.0), out=peak)
    return peak >= NEGLIGIBLE_ROW_TOL


def _warn_dropped(keep: np.ndarray, provenance: dict, stacklevel: int) -> None:
    """Warn about rows without support on the domain and record them.

    ``stacklevel`` counts from this function to the caller of the public
    basis constructor, so the warning points at user code.
    """
    if not np.any(keep):
        raise EmptyBasisError("every basis row vanishes on the domain")
    dropped = int(np.count_nonzero(~keep))
    warnings.warn(
        f"dropped {dropped} basis row(s) with no support on the domain",
        stacklevel=stacklevel,
    )
    provenance["dropped_rows"] = np.flatnonzero(~keep).tolist()


def refine_knots(interior_knots) -> list:
    """One dyadic refinement step: k -> 2k + 1 interior knots per axis.

    Halves every knot span, so the refined spline space contains the original
    and the achievable projection error cannot increase.
    """
    return [2 * int(k) + 1 for k in np.atleast_1d(interior_knots)]


def _per_axis(space: AmbientSpace, value, name: str) -> list:
    if np.isscalar(value):
        return [int(value)] * len(space.dims)
    out = [int(v) for v in value]
    if len(out) != len(space.dims):
        raise ConfigurationError(f"{name} needs one entry per axis")
    return out


def mask_space(space: AmbientSpace, mask) -> AmbientSpace:
    """Restrict a space to the cells where ``mask`` is true.

    Weights outside the mask are zeroed, so masked cells contribute nothing
    to any inner product. A mask that leaves no cell of positive weight is
    an empty domain and is rejected.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape == space.dims:
        m = m.ravel()
    if m.shape != (space.size,):
        raise ConformanceError(
            f"mask shape {np.shape(mask)} does not conform to grid {space.dims}"
        )
    weights = np.where(m, space.weights, 0.0)
    if not np.any(weights > 0):
        raise ConfigurationError("mask removes every cell: empty domain")
    return AmbientSpace(dims=space.dims, weights=weights)


@dataclass(frozen=True)
class Triangulation:
    """Conforming simplex mesh in unit-cube coordinates (2D or 3D).

    ``vertices`` is (n_vertices, ndim); ``cells`` is (n_cells, ndim + 1) with
    zero-based vertex indices. Construction validates that cells are
    positively oriented with nonzero volume and that the mesh is conforming:
    cells meet only along shared vertices, edges, or (3D) faces, with no
    hanging nodes and no overlapping interiors.
    """

    vertices: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        cells = np.asarray(self.cells, dtype=int)
        if verts.ndim != 2 or verts.shape[1] not in (2, 3):
            raise ConformanceError("vertices must be (n, 2) or (n, 3)")
        if not np.all(np.isfinite(verts)):
            raise ConformanceError("vertices contain non-finite values")
        ndim = verts.shape[1]
        if cells.ndim != 2 or cells.shape[1] != ndim + 1 or cells.shape[0] == 0:
            raise ConformanceError(f"cells must be (n, {ndim + 1}) vertex indices")
        if cells.min(initial=0) < 0 or cells.max(initial=-1) >= verts.shape[0]:
            raise ConformanceError("cell vertex index out of range")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        self._validate()

    @property
    def ndim(self) -> int:
        return self.vertices.shape[1]

    def _validate(self):
        verts, cells = self.vertices, self.cells
        scale = max(float(np.ptp(verts, axis=0).max()), 1e-30)
        uniq = {tuple(np.round(v / scale, 12)) for v in verts}
        if len(uniq) != verts.shape[0]:
            raise ConformanceError("duplicate vertex coordinates in mesh")
        for k, cell in enumerate(cells):
            if len(set(cell.tolist())) != cell.size:
                raise ConformanceError(f"cell {k} repeats a vertex")
            edges = verts[cell[1:]] - verts[cell[0]]
            vol = np.linalg.det(edges)
            if vol <= 1e-12 * scale ** self.ndim:
                raise ConformanceError(
                    f"cell {k} is degenerate or negatively oriented (signed volume {vol:.3e})"
                )
        # Duplicate cells share their sorted vertex tuple; report the first
        # cell that has a duplicate and its first duplicate.
        first, duplicates = {}, []
        for k, key in enumerate(map(tuple, np.sort(cells, axis=1).tolist())):
            a = first.setdefault(key, k)
            if a != k:
                duplicates.append((a, k))
        if duplicates:
            a, b = min(duplicates)
            raise ConformanceError(f"cells {a} and {b} are duplicates")
        vertex_sets = [set(c.tolist()) for c in cells]
        # Hanging nodes and overlaps: a vertex foreign to a cell may not lie
        # inside it or strictly inside its boundary facets.
        bary = barycentric_coordinates(self, verts)
        for k in range(len(cells)):
            inside = np.all(bary[k] >= -_BARY_TOL, axis=1)
            for v in np.flatnonzero(inside):
                if v in vertex_sets[k]:
                    continue
                if np.all(bary[k][v] > _BARY_TOL):
                    raise ConformanceError(
                        f"vertex {v} lies inside cell {k}: overlapping cells"
                    )
                if np.count_nonzero(bary[k][v] > _BARY_TOL) >= 2:
                    raise ConformanceError(
                        f"vertex {v} hangs on the boundary of cell {k}"
                    )


def barycentric_coordinates(tri: Triangulation, points) -> np.ndarray:
    """Barycentric coordinates of each point w.r.t. each cell.

    Returns (n_cells, n_points, ndim + 1); a point lies in a cell when all
    its coordinates there are >= 0 (up to tolerance), and the coordinates
    sum to one by construction.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != tri.ndim:
        raise ConformanceError(f"points must be (n, {tri.ndim})")
    out = np.empty((tri.cells.shape[0], pts.shape[0], tri.ndim + 1))
    for k, cell in enumerate(tri.cells):
        origin = tri.vertices[cell[0]]
        edges = (tri.vertices[cell[1:]] - origin).T
        rest = np.linalg.solve(edges, (pts - origin).T).T
        out[k, :, 1:] = rest
        out[k, :, 0] = 1.0 - rest.sum(axis=1)
    return out


def tri_pl_basis(space: AmbientSpace, tri: Triangulation) -> BasisSet:
    """Continuous piecewise-linear hat basis on a simplex mesh.

    Row v is the hat function of mesh vertex v evaluated at the grid cell
    centers (unit-cube coordinates). Every unmasked cell center must be
    covered by some mesh cell; uncovered centers raise ``CoverageError``
    listing the offending grid indices. On shared mesh facets the adjacent
    cells give identical values, so the basis is continuous.
    """
    if len(space.dims) != tri.ndim:
        raise ConformanceError(
            f"mesh dimension {tri.ndim} does not match grid dimension {len(space.dims)}"
        )
    axes = space.centers()
    mesh_pts = np.stack(
        [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
    )
    active = np.flatnonzero(space.weights > 0)
    bary = barycentric_coordinates(tri, mesh_pts[active])
    inside = np.all(bary >= -_BARY_TOL, axis=2)
    rows = np.zeros((tri.vertices.shape[0], space.size))
    covered = np.zeros(active.size, dtype=bool)
    for k, cell in enumerate(tri.cells):
        hit = inside[k] & ~covered
        if not np.any(hit):
            continue
        coords = np.clip(bary[k][hit], 0.0, None)
        coords /= coords.sum(axis=1, keepdims=True)
        rows[np.ix_(cell, active[hit])] = coords.T
        covered[hit] = True
    if not np.all(covered):
        missing = active[~covered]
        idx = [tuple(int(i) for i in np.unravel_index(m, space.dims)) for m in missing]
        raise CoverageError(
            f"{missing.size} unmasked grid cell(s) not covered by the mesh, "
            f"first at grid index {idx[0]}",
            uncovered=idx,
        )
    provenance = {
        "kind": "tri_pl",
        "n_vertices": int(tri.vertices.shape[0]),
        "n_cells": int(tri.cells.shape[0]),
    }
    # Only columns of cells inside the domain were written, and hat values
    # are nonnegative, so a row's peak is its largest entry.
    keep = rows.max(axis=1, initial=0.0) >= NEGLIGIBLE_ROW_TOL
    if not np.all(keep):
        _warn_dropped(keep, provenance, stacklevel=3)
        rows = rows[keep]
        provenance["kept_vertices"] = np.flatnonzero(keep).tolist()
    return BasisSet(functions=rows, provenance=provenance)


def read_triangulation(path) -> Triangulation:
    """Read the text mesh format.

    Layout: a header line ``TRI <ndim> <nvert> <ncell>``, then ``nvert``
    vertex lines of ``ndim`` floats, then ``ncell`` cell lines of
    ``ndim + 1`` zero-based vertex indices. Blank lines are ignored.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [
            (i + 1, line.split()) for i, line in enumerate(handle) if line.strip()
        ]
    if not lines:
        raise FormatError("empty mesh file", offset=0)
    lineno, header = lines[0]
    if len(header) != 4 or header[0] != "TRI":
        raise FormatError(
            f"line {lineno}: expected header 'TRI <ndim> <nvert> <ncell>'",
            offset=lineno,
        )
    try:
        ndim, nvert, ncell = (int(tok) for tok in header[1:])
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header field", offset=lineno)
    if ndim not in (2, 3):
        raise FormatError(f"line {lineno}: ndim must be 2 or 3, got {ndim}", offset=lineno)
    body = lines[1:]
    if len(body) != nvert + ncell:
        raise FormatError(
            f"expected {nvert} vertex and {ncell} cell lines, found {len(body)}",
            offset=lineno,
        )
    vertices = np.empty((nvert, ndim))
    for row, (lineno, toks) in enumerate(body[:nvert]):
        if len(toks) != ndim:
            raise FormatError(f"line {lineno}: expected {ndim} coordinates", offset=lineno)
        try:
            vertices[row] = [float(t) for t in toks]
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric coordinate", offset=lineno)
    cells = np.empty((ncell, ndim + 1), dtype=int)
    for row, (lineno, toks) in enumerate(body[nvert:]):
        if len(toks) != ndim + 1:
            raise FormatError(
                f"line {lineno}: expected {ndim + 1} vertex indices", offset=lineno
            )
        try:
            cells[row] = [int(t) for t in toks]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex index", offset=lineno)
    return Triangulation(vertices=vertices, cells=cells)


def write_triangulation(path, tri: Triangulation) -> None:
    """Write the text mesh format (see ``read_triangulation``); atomic."""
    out = [f"TRI {tri.ndim} {tri.vertices.shape[0]} {tri.cells.shape[0]}"]
    out += [" ".join(repr(float(x)) for x in v) for v in tri.vertices]
    out += [" ".join(str(int(i)) for i in c) for c in tri.cells]
    atomic_write_text(path, "\n".join(out) + "\n")
