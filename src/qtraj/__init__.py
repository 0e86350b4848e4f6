"""qtraj: forward-backward stochastic trajectories for amplified quadrature
measurement, with analytic Husimi-density oracles and chi-squared
verification."""

from .model import (
    MeasurementConfig,
    ReferenceMoments,
    Setting,
    SuperpositionSpec,
    conditional_p_given_x,
    marginal_p,
    marginal_p_amplified_scaled,
    marginal_x,
    q_sup,
    reference_moments,
    scaled_x_marginal,
)
from .sampler import RngStream, sample_fringe, sample_gaussian_mixture
from .engine import TrajectoryBatch, iter_chunk_batches, run_backward, run_forward, simulate
from .stats import (
    BinnedCounts,
    Chi2Report,
    Grid3,
    accumulate_counts,
    analytic_bin_probs,
    bin_counts,
    chi2_time_averaged,
    iter_bin_probs,
    moment_summary,
    two_sample_chi2,
)
from .analysis import (
    BornEstimate,
    PostselectionReport,
    PostselectOracle,
    born_fraction,
    born_oracle,
    conditional_p_distribution,
    postselect,
    postselect_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "MeasurementConfig",
    "ReferenceMoments",
    "Setting",
    "SuperpositionSpec",
    "conditional_p_given_x",
    "marginal_p",
    "marginal_p_amplified_scaled",
    "marginal_x",
    "q_sup",
    "reference_moments",
    "scaled_x_marginal",
    "RngStream",
    "sample_fringe",
    "sample_gaussian_mixture",
    "TrajectoryBatch",
    "iter_chunk_batches",
    "run_backward",
    "run_forward",
    "simulate",
    "BinnedCounts",
    "Chi2Report",
    "Grid3",
    "accumulate_counts",
    "analytic_bin_probs",
    "bin_counts",
    "chi2_time_averaged",
    "iter_bin_probs",
    "moment_summary",
    "two_sample_chi2",
    "BornEstimate",
    "PostselectionReport",
    "PostselectOracle",
    "born_fraction",
    "born_oracle",
    "conditional_p_distribution",
    "postselect",
    "postselect_oracle",
    "__version__",
]
