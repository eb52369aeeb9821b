"""Subspace PCA and principal-component regression for gridded data.

Samples are functions on rectangular (optionally masked) grids, treated as
elements of a weighted inner-product space. The package fits principal
components through an arbitrary projection basis, tests the basis for
adequacy, selects components by explained variance, regresses scalar
responses on component scores alongside ordinary covariates, and quantifies
uncertainty by influence-function plug-in, full-pipeline bootstrap, or block
jackknife. A Monte Carlo harness and a small CLI wrap the same pipeline.
"""

from .bases import (
    BasisSet,
    KnotVector,
    TensorBasis,
    Triangulation,
    bspline_tensor_basis,
    bspline_values,
    mask_space,
    read_triangulation,
    refine_knots,
    tri_pl_basis,
    write_triangulation,
)
from .decomp import (
    DiagnosticReport,
    EigenModel,
    PveSelection,
    component_scores,
    centered_scores,
    diagnose_projection,
    eigenfunctions,
    eigenvalue_se,
    fit_subspace_pca,
    model_from_white,
    select_pve,
)
from .errors import (
    ConformanceError,
    ConfigurationError,
    CoverageError,
    DegenerateDesignError,
    EmptyBasisError,
    FormatError,
    GridPcrError,
    NearMultiplicityError,
    SelectionInfeasibleError,
    StudyError,
)
from .regression import (
    RegressionDesign,
    RegressionFit,
    coefficient_element,
    coefficient_names,
    design_matrix,
    fit_pcr,
    fit_precision,
    plugin_cov,
    sandwich_cov,
)
from .resampling import (
    BootstrapResult,
    BootstrapSpec,
    CiTable,
    JackknifeResult,
    JackknifeSpec,
    block_jackknife,
    bootstrap_eigenvalues,
    bootstrap_theta,
    gen_weights,
    percentile_ci,
)
from .simulate import (
    BUMPS_2D,
    KLSample,
    MetricsTable,
    PipelineOptions,
    ScenarioConfig,
    Study,
    TreatmentConfig,
    TrueFamily,
    ar_covariates,
    gen_response,
    generate_dataset,
    kl_factors,
    kl_sample,
    make_family,
    run_monte_carlo,
    run_replicate,
    scenario_space,
)
from .space import (
    AmbientSpace,
    Whitener,
    as_element,
    as_sample,
    basis_rows,
    gram,
    project_scores,
    synthesize,
    whiten,
)
from .storage import (
    make_manifest,
    numeric_columns,
    read_config,
    read_grid,
    read_manifest,
    read_table,
    write_grid,
    write_manifest,
    write_table,
)
from .util import norm_ppf, replicate_rng

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
