"""Exact invariances of the estimator, checked end to end.

Golden outputs show that a change did not move the numbers; they cannot
show that the numbers are right. An invariance holds to rounding on any
data, so a fault in the estimator or in how a study is set up breaks it.
Each check names its invariance and the reason it holds.
"""

from gridpcr import read_table
from gridpcr.cli import main


def test_reproduce_table3_blocks_do_not_depend_on_the_covariate_correlation(tmp_path):
    # Covariates x -> x T, T invertible. A study's AR(1) covariates are its
    # standard normal draws times the Cholesky factor of their correlation,
    # and every other draw of a replicate follows them from the same
    # stream. So the corr = 0.5 design [1, x T, z] spans the columns of the
    # corr = 0 design [1, x, z], the responses differ by a vector in that
    # span, and the score coefficients and their bootstrap draws do not
    # change: table 3's two corr blocks agree to rounding.
    out = tmp_path / "o"
    argv = ["reproduce", "--table", "3", "--reps", "4", "--boot-reps", "20"]
    assert main([*argv, "--out", str(out)]) == 0
    _, rows = read_table(out / "table3.csv")
    blocks = {
        corr: {(n, term): (float(mse), coverage)
               for n, c, term, _, mse, coverage in rows if c == corr}
        for corr in ("0.0", "0.5")
    }
    assert len(rows) == 36
    assert blocks["0.0"].keys() == blocks["0.5"].keys()
    for key, (mse, coverage) in blocks["0.0"].items():
        other_mse, other_coverage = blocks["0.5"][key]
        assert abs(mse - other_mse) <= 1e-12 * max(abs(mse), abs(other_mse)), key
        assert coverage == other_coverage, key
