"""Principal components on an irregular (disk-shaped) domain.

Masks a rectangular grid down to a disk, then fits the same ensemble
through two bases: a tensor spline whose all-masked rows are dropped, and
piecewise-linear hat functions on a triangulation of the square. The
projection diagnostic flags the coarse mesh; refining it helps.
"""

import warnings

import numpy as np

from gridpcr import (
    AmbientSpace,
    Triangulation,
    bspline_tensor_basis,
    diagnose_projection,
    fit_subspace_pca,
    kl_sample,
    make_family,
    mask_space,
    tri_pl_basis,
)
from gridpcr.util import replicate_rng


def square_mesh(k):
    """Structured triangulation of the unit square: k x k cells, 2 triangles each."""
    xs = np.linspace(0.0, 1.0, k + 1)
    verts = np.array([[x, y] for x in xs for y in xs])
    tris = []
    for i in range(k):
        for j in range(k):
            v00 = i * (k + 1) + j
            v01 = v00 + 1
            v10 = v00 + (k + 1)
            v11 = v10 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return Triangulation(vertices=verts, cells=np.array(tris))


full = AmbientSpace.unit_domain((24, 24))
cx, cy = np.meshgrid(*full.centers(), indexing="ij")
disk = (cx - 0.5) ** 2 + (cy - 0.5) ** 2 <= 0.45**2
space = mask_space(full, disk)
print(f"domain: {int(disk.sum())} of {disk.size} cells inside the disk")

lambdas = np.array([3.0, 2.0, 1.0])
family = make_family(space, "synthetic2d", 3)
rng = replicate_rng(2025, 2)
sample = kl_sample(family, lambdas, 300, rng)

# spline route: basis functions supported only on masked cells are dropped
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    spline = bspline_tensor_basis(space, 3, 7)
dropped = spline.provenance.get("dropped_rows", [])
print(f"spline basis: {spline.n_functions} functions, {len(dropped)} dropped")
model = fit_subspace_pca(space, spline, sample)
print(f"spline eigenvalues: {np.round(model.eigenvalues[:3], 3)} (truth {lambdas})")

# hat-function route on triangulations of two resolutions; vertices outside
# the disk carry no support and are dropped the same way
for k in (8, 16):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        basis = tri_pl_basis(space, square_mesh(k))
    report = diagnose_projection(space, basis, sample, alpha=0.05)
    model = fit_subspace_pca(space, basis, sample)
    print(
        f"mesh {k}x{k}: rank={report.basis_rank}, "
        f"eigenvalues {np.round(model.eigenvalues[:3], 3)}, "
        f"delta_hat={report.delta_hat:.2e}, "
        f"{'REJECT' if report.reject else 'ok'}"
    )
