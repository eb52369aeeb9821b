"""Recover the components of a synthetic image ensemble.

Draws a Karhunen-Loeve sample on a 20x24 grid from six orthonormal bump
functions, fits principal components through a cubic spline basis, and
compares the recovered spectrum and eigenfunctions to the construction.
"""

import numpy as np

from gridpcr import (
    AmbientSpace,
    bspline_tensor_basis,
    eigenfunctions,
    eigenvalue_se,
    fit_subspace_pca,
    kl_sample,
    make_family,
    select_pve,
)
from gridpcr.util import replicate_rng

lambdas = np.array([3.5, 3.0, 2.5, 2.0, 1.5, 1.0])
n = 500

space = AmbientSpace.unit_domain((20, 24))
family = make_family(space, "synthetic2d", 6)
rng = replicate_rng(2025, 0)
sample = kl_sample(family, lambdas, n, rng)

# a 10x10 cubic tensor basis is far smaller than the 480-cell grid but
# rich enough to carry the six bumps
basis = bspline_tensor_basis(space, 3, 7)
model = fit_subspace_pca(space, basis, sample)
ses = eigenvalue_se(model)
# the model keeps whitened coordinates; synthesize the grid rows to compare
phis = eigenfunctions(space, basis, model)

print(f"n={n}, grid=20x24, basis rank={model.whitener.rank}")
print(f"retained components: {model.n_components}")
print()
print("  j   truth   estimate      se    |<phi_j, phihat_j>|")
for j in range(6):
    inner = abs(np.sum(phis[j] * family.phis[j] * space.weights))
    print(
        f"  {j + 1}   {lambdas[j]:5.2f}   {model.eigenvalues[j]:8.4f}"
        f"   {ses[j]:5.3f}   {inner:.6f}"
    )

selection = select_pve(model, 0.95)
print()
print(f"explained-variance rule at tau=0.95 selects m={selection.m}")
print(f"cumulative fractions: {np.round(selection.cumulative[:6], 4)}")
