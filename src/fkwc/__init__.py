"""Nonparametric k-sample tests for equality of covariance operators of
functional data, built on functional-data-depth ranks."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .exceptions import (
    DataError,
    FkwcError,
    InfeasibleError,
    NumericalError,
    ParameterError,
)
from .fdata import (
    FunctionalDataset,
    Grid,
    differentiate,
    load_csv,
    save_csv,
)
from .depths import (
    DepthSpec,
    DepthVector,
    MEDIAN_HEURISTIC,
    RankVector,
    compute_depth,
    depth_ranks,
    halfspace_depth_2d,
    ksd_depth,
    ltr_depth,
    mbd,
    mfhd,
    ranks_with_tiebreak,
    rp_depth,
    spatial_depth,
)
from .testing import (
    MCResult,
    TestConfig,
    TestResult,
    fkwc_test,
    kw_statistic,
    percentile_statistic,
    steel_mc,
    wilcoxon_rank_sum,
)
from .power import (
    LocalAlternativeSpec,
    PowerResult,
    RankProbability,
    SupportDensity,
    density_from_callable,
    density_from_histogram,
    density_from_samples,
    local_tau,
    mc_rank_prob,
    noncentral_chisq_sf,
    power_from_local,
    power_from_pairwise,
    predicted_power,
    required_sample_size,
    tau_from_pairwise,
)
from .sim import (
    ProcessModel,
    StudyResult,
    StudySpec,
    fourier_basis,
    generate,
    run_study,
    save_study_csv,
    scenario_eigenvalues,
    scenario_models,
    squared_exponential_kernel,
)

# the submodules are bound here by the imports above but are not public names
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
