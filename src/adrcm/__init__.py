"""Age-dependent random connection model: sampling, counting, verification."""

from .model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    PointConfig,
    config_to_csv,
    derive_seed,
    sample_config,
)
from .cliques import count_cliques_upto
from .trees import (
    BlockSums,
    DirectedTreeSpec,
    TreeSpecError,
    block_sums,
    count_trees,
    parse_tree_spec,
)
from .theory import (
    RegimeError,
    SigmaEstimate,
    gamma_diagnostics,
    lambda_down,
    lambda_up,
    sigma_palm,
)
from .harness import (
    CliqueStatistic,
    ExperimentPlan,
    ReplicateResult,
    TreeStatistic,
    ks_distance_normal,
    run_replicates,
    standardize,
    variance_scaling,
    wasserstein1_distance_normal,
)

__version__ = "0.1.0"
