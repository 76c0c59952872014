"""Age-dependent random connection model: sampling, counting, verification."""

from .model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    PointConfig,
    add_point,
    config_from_csv,
    config_to_csv,
    connects,
    derive_seed,
    down_neighbors,
    sample_config,
    torus_dist,
    up_neighbors,
)
from .cliques import count_cliques_centered, count_cliques_upto
from .trees import (
    BlockSums,
    DirectedTreeSpec,
    TreeSpecError,
    block_sums,
    count_trees,
    cox_grimmett,
    d_in,
    parse_tree_spec,
    tree_edge,
    tree_path,
    tree_star,
    tree_wedge,
    validate_tree,
)
from .theory import (
    RateExponents,
    RegimeError,
    SigmaEstimate,
    c_plus,
    gamma_diagnostics,
    lambda_down,
    lambda_up,
    rate_exponents,
    s_wedge,
    sigma_palm,
)
from .harness import (
    CliqueStatistic,
    ExperimentPlan,
    ReplicateResult,
    TreeStatistic,
    covariance_matrix,
    ks_distance_normal,
    run_replicates,
    standardize,
    variance_scaling,
    wasserstein1_distance_normal,
)

__version__ = "0.1.0"
