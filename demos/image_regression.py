"""Regress a scalar response on scalar covariates and an image.

The response is linear in two scalar covariates and the inner product of
the image with a fixed coefficient function. Fitting on estimated
component scores recovers the coefficients; three interval methods --
plug-in covariance, wild bootstrap, block jackknife -- give matching
standard errors.
"""

import numpy as np

from gridpcr import (
    BootstrapSpec,
    JackknifeSpec,
    RegressionDesign,
    block_jackknife,
    bootstrap_theta,
    bspline_tensor_basis,
    coefficient_element,
    coefficient_names,
    component_scores,
    eigenfunctions,
    fit_pcr,
    fit_subspace_pca,
    generate_dataset,
    plugin_cov,
    scenario_space,
    select_pve,
    ScenarioConfig,
)

config = ScenarioConfig(
    family="synthetic2d",
    dims=(20, 24),
    lambdas=(3.5, 3.0, 2.5, 2.0, 1.5, 1.0),
    alpha0=1.0,
    beta0=(1.0, -0.5),
    gamma0=(1.5, 1.0, 2.0, 2.5, 1.5, 3.0),
    noise_sd=1.0,
    n=500,
    seed=11,
)
space, family, sample, x, y, _ = generate_dataset(config, 0)

basis = bspline_tensor_basis(space, 3, 7)
model = fit_subspace_pca(space, basis, sample.factors @ family.phis)
m = select_pve(model, 0.95).m
scores = component_scores(model)[:, :m]
design = RegressionDesign(y=y, x=x, scores=scores)
fit = fit_pcr(design)

se_plugin = np.sqrt(np.diag(plugin_cov(fit, model, design)))
boot = bootstrap_theta(model, design, BootstrapSpec(kind="wild", b_reps=300, base_seed=1))
jack = block_jackknife(model, design, JackknifeSpec(r=20))

# sign-align the estimated components to the construction before comparing
phis = eigenfunctions(space, basis, model)
flips = [
    1.0 if np.sum(phis[j] * family.phis[j] * space.weights) >= 0 else -1.0
    for j in range(m)
]
truth = np.concatenate([[config.alpha0], config.beta0, config.gamma0[:m]])
aligned = np.concatenate([fit.theta[:3], np.array(flips) * fit.theta[3:]])

print(f"selected m={m} of {model.n_components} retained components")
print()
print("  term        truth   estimate   se(plugin)  se(boot)  se(jack)")
for i, name in enumerate(coefficient_names(design.d, m)):
    print(
        f"  {name:10s} {truth[i]:6.2f}   {aligned[i]:8.4f}"
        f"     {se_plugin[i]:.4f}    {boot.table.se[i]:.4f}    {jack.table.se[i]:.4f}"
    )

# the score coefficients assemble a coefficient function on the grid
gamma_hat = coefficient_element(fit, model, space, basis)
gamma_true = family.gamma_element(np.array(config.gamma0))
err = np.sqrt(np.sum((gamma_hat - gamma_true) ** 2 * space.weights))
rel = err / np.sqrt(np.sum(gamma_true**2 * space.weights))
print()
print(f"coefficient-function error: {err:.4f} ({rel:.1%} of its norm)")
