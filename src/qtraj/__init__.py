"""qtraj: forward-backward stochastic trajectories for amplified quadrature
measurement, with analytic Husimi-density oracles and chi-squared
verification.

Importing qtraj sets OPENBLAS_NUM_THREADS to 1 unless it is already set, so
every qtraj process (the ``qtraj`` console script, ``python -m qtraj.cli``,
or a script whose first numpy import comes through qtraj) runs OpenBLAS with
one thread.  An explicit count, such as
``OPENBLAS_NUM_THREADS=4 qtraj verify ...``, is kept.
An OpenBLAS loaded before qtraj was imported, as numpy's is in a process
that imported numpy first, keeps the thread count it started with: OpenBLAS
reads the variable only when it loads.
"""

import os as _os

# Before the first import of numpy: the OpenBLAS bundled with numpy and the
# one bundled with scipy each start a helper thread as they load, and both
# busy-wait through the rest of the import (about 0.13 s of CPU in all on a
# 2-CPU machine, where three runnable threads then share two CPUs).  qtraj
# gives BLAS no work a helper would speed up: its only parallelism is the
# process pool, and its long sums are pairwise np.sum.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
