"""B-spline and triangulation bases."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from gridpcr import (
    AmbientSpace,
    ConfigurationError,
    ConformanceError,
    CoverageError,
    EmptyBasisError,
    FormatError,
    Triangulation,
)
from gridpcr.bases import (
    KnotVector,
    barycentric_coordinates,
    bspline_tensor_basis,
    bspline_values,
    mask_space,
    read_triangulation,
    refine_knots,
    tri_pl_basis,
    write_triangulation,
)


def scipy_rows(kv, x):
    t = np.asarray(kv.knots)
    rows = np.empty((kv.n_functions, x.size))
    for i in range(kv.n_functions):
        c = np.zeros(kv.n_functions)
        c[i] = 1.0
        rows[i] = BSpline(t, c, kv.degree, extrapolate=False)(x)
    return np.nan_to_num(rows)


def test_knot_vector_validation():
    kv = KnotVector.uniform(2, 3)
    np.testing.assert_allclose(kv.knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1])
    assert kv.n_functions == 6
    with pytest.raises(ConfigurationError):
        KnotVector.uniform(-1, 2)
    with pytest.raises(ConfigurationError):
        KnotVector.uniform(2, -1)
    with pytest.raises(ConfigurationError):
        KnotVector(degree=1, knots=(0.0, 0.0, 1.0, 0.5, 1.0, 1.0))  # not sorted
    with pytest.raises(ConfigurationError):
        KnotVector(degree=2, knots=(0.0, 0.0, 0.5, 1.0, 1.0))  # not clamped


def test_bspline_values_match_scipy():
    x = np.linspace(0.0, 1.0, 53)
    for degree in (0, 1, 2, 3, 4):
        for interior in (0, 1, 2, 5):
            kv = KnotVector.uniform(degree, interior)
            ours = bspline_values(kv, x)
            ref = scipy_rows(kv, x)
            # scipy reports the closed right endpoint as outside the domain
            np.testing.assert_allclose(ours[:, :-1], ref[:, :-1], atol=1e-14)
            assert ours[:, -1].sum() == pytest.approx(1.0)


def test_bspline_partition_of_unity_and_support():
    x = np.linspace(0.0, 1.0, 101)
    kv = KnotVector.uniform(3, 6)
    rows = bspline_values(kv, x)
    np.testing.assert_allclose(rows.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(rows >= 0)


def test_bspline_rejects_points_outside_domain():
    kv = KnotVector.uniform(2, 2)
    with pytest.raises(ConformanceError):
        bspline_values(kv, np.array([-0.01]))
    with pytest.raises(ConformanceError):
        bspline_values(kv, np.array([1.01]))


def test_tensor_basis_matches_outer_product():
    space = AmbientSpace.unit_domain((6, 5))
    basis = bspline_tensor_basis(space, 2, (1, 2))
    cen = space.centers()
    r0 = bspline_values(KnotVector.uniform(2, 1), cen[0])
    r1 = bspline_values(KnotVector.uniform(2, 2), cen[1])
    ref = np.einsum("ax,by->abxy", r0, r1).reshape(r0.shape[0] * r1.shape[0], -1)
    np.testing.assert_array_equal(basis.rows(), ref)
    assert basis.provenance["kind"] == "bspline"
    assert basis.provenance["degrees"] == [2, 2]
    assert basis.provenance["interior_knots"] == [1, 2]


def test_tensor_basis_needs_enough_grid_points():
    space = AmbientSpace.unit_domain((3, 8))
    with pytest.raises(ConfigurationError):
        bspline_tensor_basis(space, 3, 0)  # needs degree+1 = 4 points on axis 0


def test_refine_knots_doubles():
    assert refine_knots([3, 5]) == [7, 11]
    assert refine_knots([0]) == [1]


def test_mask_space_and_masked_basis():
    space = AmbientSpace.unit_domain((8, 8))
    mask = np.ones((8, 8), dtype=bool)
    mask[:4, :4] = False
    masked = mask_space(space, mask)
    assert masked.weights[~mask.ravel()].sum() == 0
    assert masked.weights.sum() == pytest.approx(48 / 64)
    with pytest.raises(ConfigurationError):
        mask_space(space, np.zeros((8, 8), dtype=bool))

    with pytest.warns(UserWarning):
        basis = bspline_tensor_basis(masked, 1, 6)
    # rows supported only on the masked-out corner are dropped
    assert basis.rows().shape[0] < 64
    assert basis.provenance["dropped_rows"]
    assert np.all(basis.rows()[:, ~mask.ravel()] == 0)


def unit_square_mesh():
    vertices = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    cells = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Triangulation(vertices=vertices, cells=cells)


def test_triangulation_validation():
    unit_square_mesh()  # conforming mesh passes
    verts = np.array([[0, 0], [1, 0], [0, 1], [0, 0]], dtype=float)
    with pytest.raises(ConformanceError):
        Triangulation(vertices=verts, cells=np.array([[0, 1, 2]]))  # duplicate vertex
    verts = verts[:3]
    with pytest.raises(ConformanceError):
        Triangulation(vertices=verts, cells=np.array([[0, 2, 1]]))  # negative orientation
    with pytest.raises(ConformanceError):
        Triangulation(vertices=verts, cells=np.array([[0, 1, 3]]))  # index range
    with pytest.raises(ConformanceError):
        Triangulation(vertices=verts, cells=np.array([[0, 1, 1]]))  # repeated vertex


def test_triangulation_names_the_first_duplicate_pair():
    # Two groups of duplicates, {1, 2} and {0, 5, 6}, each cell positively
    # oriented: the report names the smallest cell with a duplicate, then
    # its smallest duplicate.
    vertices = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    cells = np.array([[0, 1, 4], [1, 2, 4], [4, 1, 2], [2, 3, 4], [3, 0, 4],
                      [1, 4, 0], [4, 0, 1]])
    with pytest.raises(ConformanceError, match=r"^cells 0 and 5 are duplicates$"):
        Triangulation(vertices=vertices, cells=cells)
    with pytest.raises(ConformanceError, match=r"^cells 1 and 2 are duplicates$"):
        Triangulation(vertices=vertices, cells=cells[:5])


def test_triangulation_rejects_hanging_node():
    # vertex 4 sits on the shared edge of cells (0,1,2) and (0,2,3): nonconforming
    vertices = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float
    )
    cells = np.array([[0, 1, 2], [0, 2, 3], [1, 2, 4]])
    with pytest.raises(ConformanceError):
        Triangulation(vertices=vertices, cells=cells)


def test_triangulation_rejects_overlap():
    vertices = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.4, 0.2]], dtype=float
    )
    cells = np.array([[0, 1, 2], [0, 1, 4]])  # 4 is interior to cell 0
    with pytest.raises(ConformanceError):
        Triangulation(vertices=vertices, cells=cells)


def test_barycentric_coordinates_oracle():
    tri = unit_square_mesh()
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    bary = barycentric_coordinates(tri, pts)
    assert bary.shape == (4, 20, 3)
    # reproduces the point and sums to one wherever evaluated
    for c in range(4):
        corners = tri.vertices[tri.cells[c]]
        np.testing.assert_allclose(bary[c].sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(bary[c] @ corners, pts, atol=1e-10)


def test_tri_pl_basis_hat_functions():
    space = AmbientSpace.unit_domain((9, 9))
    basis = tri_pl_basis(space, unit_square_mesh())
    assert basis.functions.shape == (5, 81)
    np.testing.assert_allclose(basis.functions.sum(axis=0), 1.0, atol=1e-10)
    assert np.all(basis.functions >= 0)
    assert basis.provenance["kind"] == "tri_pl"
    # hat property: each function is 1 at its own vertex's nearest cell corner
    centers = space.centers()
    grid = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1).reshape(-1, 2)
    for v in range(5):
        nearest = np.argmin(((grid - unit_square_mesh().vertices[v]) ** 2).sum(axis=1))
        assert basis.functions[v, nearest] == basis.functions[:, nearest].max()


def test_tri_pl_basis_coverage_error():
    space = AmbientSpace.unit_domain((6, 6))
    vertices = np.array([[0, 0], [0.5, 0], [0, 0.5]], dtype=float)
    mesh = Triangulation(vertices=vertices, cells=np.array([[0, 1, 2]]))
    with pytest.raises(CoverageError) as err:
        tri_pl_basis(space, mesh)
    assert len(err.value.uncovered) > 0


def test_tri_pl_basis_respects_mask():
    space = AmbientSpace.unit_domain((6, 6))
    mask = np.zeros((6, 6), dtype=bool)
    mask[:3, :3] = True  # only the lower-left quadrant is active
    masked = mask_space(space, mask)
    vertices = np.array([[0, 0], [0.55, 0], [0.55, 0.55], [0, 0.55]], dtype=float)
    mesh = Triangulation(vertices=vertices, cells=np.array([[0, 1, 2], [0, 2, 3]]))
    basis = tri_pl_basis(masked, mesh)
    assert np.all(basis.functions[:, ~mask.ravel()] == 0)

    # the hat of the corner vertex (1, 1) vanishes on the quadrant
    with pytest.warns(UserWarning, match="dropped 1 basis row") as caught:
        basis = tri_pl_basis(masked, unit_square_mesh())
    assert caught[0].filename == __file__
    assert basis.provenance["kept_vertices"] == [0, 1, 3, 4]
    assert basis.provenance["dropped_rows"] == [2]
    assert basis.functions.shape == (4, 36)


def test_triangulation_file_round_trip(tmp_path):
    mesh = unit_square_mesh()
    path = tmp_path / "m.tri"
    write_triangulation(str(path), mesh)
    back = read_triangulation(str(path))
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.cells, mesh.cells)

    text = path.read_text().splitlines()
    assert text[0].startswith("TRI 2 5 4")


def test_triangulation_file_errors(tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("NOT a mesh\n")
    with pytest.raises(FormatError):
        read_triangulation(str(path))
    path.write_text("TRI 2 2 1\n0 0\n1 0\n0 1 2\n")  # vertex count wrong
    with pytest.raises((FormatError, ConformanceError)):
        read_triangulation(str(path))
    path.write_text("TRI 2 3 1\n0 0\n1 0\nx y\n0 1 2\n")
    with pytest.raises(FormatError) as err:
        read_triangulation(str(path))
    assert err.value.offset == 4  # 1-based line number of the bad vertex


def test_empty_basis_after_mask_total_drop():
    space = AmbientSpace.unit_domain((5, 5))
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = True
    masked = mask_space(space, mask)
    # degree-3 rows need 4 grid points of support per axis; a single active
    # cell keeps at least one row alive, so use a mesh far away instead
    vertices = np.array([[0.6, 0.6], [0.9, 0.6], [0.6, 0.9]], dtype=float)
    mesh = Triangulation(vertices=vertices, cells=np.array([[0, 1, 2]]))
    with pytest.raises((EmptyBasisError, CoverageError)):
        tri_pl_basis(masked, mesh)
