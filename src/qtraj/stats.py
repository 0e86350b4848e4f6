"""Histogram verification: (x, p, t) binning, per-bin Simpson integrals of
the analytic density, the time-averaged chi-squared statistic, and a sparse
dump of the counts alone, since the run's config fixes every bin probability.

The comparison grid is a shared uniform lattice (bin edges are exact float
multiples of dx, dp) with an active window per stored time slice covering
the occupied region (packet centers +- n_sigma standard deviations), so
early slices are not charged for the full amplified extent.  Counts are
plain integers and merge by addition, which makes the reduction exactly
associative: worker count can never change a bin.  Each chunk is binned
where it was simulated, so a pool worker sends back only that chunk's
counts (uint16: a chunk has at most CHUNK_ROWS rows), never its paths,
and BinnedCounts.merge widens them to int64.

Per-bin analytic probabilities use composite Simpson per axis.  The density
is a separable law A(x) E(p) - B(x) C(p): model.separable_q returns its two
profile pairs (the two hills and the fringe along x, the envelope and the
fringe carrier along p), and model.fringe_bin_probs, which knows nothing of
the physics, evaluates two 1-D Simpson integrals per axis and combines them
by outer products.

The verification statistic follows the binned-comparison recipe: with
p_ijk the analytic bin probability and N_ijk the trajectory count,

    chi2_bar = (1/N_t) sum over significant bins of
               (p_ijk - N_ijk/N_s)^2 / (p_ijk / N_s)

where bins whose expected population N_s * p_ijk falls below MIN_COUNT
are discarded; judging on the expected rather than the observed count keeps
the discarded set deterministic and the statistic unbiased.
With k the mean number of significant bins per time step, a correct model
gives chi2_bar ~ k; the PASS band is k +- 3 sqrt(2k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.special import chdtrc

from . import model
from .atomic import fmt17, write_csv
from .engine import CHUNK_ROWS, map_chunks
# perfbench's tracer wraps stats.iter_chunk_batches by name; the import keeps it resolvable.
from .engine import iter_chunk_batches  # noqa: F401

__all__ = [
    "MIN_COUNT",
    "JACKKNIFE_BLOCKS",
    "Grid3",
    "BinnedCounts",
    "Chi2Report",
    "MomentStats",
    "bin_counts",
    "accumulate_counts",
    "analytic_bin_probs",
    "chi2_time_averaged",
    "chi2_counts_vs_probs",
    "jackknife_mean_var",
    "jackknife_replicates",
    "jackknife_se",
    "moment_summary",
    "two_sample_chi2",
    "write_histogram_csv",
]


# A bin takes part in a chi-squared comparison only when it expects at least
# this many entries, the usual validity rule: below it the Gaussian
# approximation of a bin's Poisson count fails.
MIN_COUNT = 10

# The number of delete-one-block jackknife blocks behind every standard error.
JACKKNIFE_BLOCKS = 100

# Most cells, summed over the slice windows, that Grid3.auto lays out.  The
# paper-scale grid holds 2.25e7; desk resolution at g t_f = 12 would hold 3.8e9.
_MAX_GRID_CELLS = 2**28


def _slice_extents(spec, cfg, step, n_sigma):
    """Occupied (x, p) half-extent at a stored step: centers + n_sigma widths."""
    t = step * cfg.dt
    sx2, sp2, gx1 = model.packet(spec, cfg.sign * t)
    mom = model.reference_moments(spec, t, cfg)
    ext_x = gx1 + n_sigma * math.sqrt(sx2)
    ext_p = abs(mom.mean_p) + n_sigma * math.sqrt(sp2)
    return ext_x, ext_p


@dataclass(frozen=True)
class Grid3:
    """(x, p, t) comparison grid: shared edges plus per-slice active windows.

    x_edges and p_edges are strictly increasing uniform edges; t_steps are
    engine step indices; windows[s] = (ix0, ix1, ip0, ip1) bounds the active
    bins of slice s as half-open index ranges into the shared bin lattice.
    """

    x_edges: np.ndarray
    p_edges: np.ndarray
    t_steps: tuple
    dt: float
    windows: tuple = None

    def __post_init__(self):
        for name, edges in (("x_edges", self.x_edges), ("p_edges", self.p_edges)):
            if len(edges) < 2 or np.any(np.diff(edges) <= 0):
                raise ValueError(f"{name} must be strictly increasing with >= 2 entries")
            steps = np.diff(edges)
            if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
                raise ValueError(f"{name} must be uniform")
        if self.area <= 0:
            raise ValueError("bin area must be positive")
        if self.windows is None:
            full = (0, len(self.x_edges) - 1, 0, len(self.p_edges) - 1)
            object.__setattr__(self, "windows", tuple(full for _ in self.t_steps))
        elif len(self.windows) != len(self.t_steps):
            raise ValueError("need one window per time slice")

    @property
    def dx(self):
        return float(self.x_edges[1] - self.x_edges[0])

    @property
    def dp(self):
        return float(self.p_edges[1] - self.p_edges[0])

    @property
    def area(self):
        return self.dx * self.dp

    @classmethod
    def auto(cls, spec, cfg, dx, dp, t_steps=None, n_sigma=6.0):
        """Lattice covering packet centers +- n_sigma widths at every slice.

        A non-finite extent or extent/width ratio, or a lattice whose windows
        hold more than _MAX_GRID_CELLS cells in total, is refused with
        ValueError before any array is built.
        """
        if t_steps is None:
            t_steps = tuple(range(cfg.n_steps + 1))
        t_steps = tuple(int(s) for s in t_steps)
        exts = [_slice_extents(spec, cfg, s, n_sigma) for s in t_steps]
        ratios = [(ex / dx, ep / dp) for ex, ep in exts]
        if not all(math.isfinite(v) for pair in ratios for v in pair):
            raise ValueError("the (x, p) grid extent in bin widths is not finite")
        half = [(math.ceil(rx), math.ceil(rp)) for rx, rp in ratios]
        cells = sum(4 * kxt * kpt for kxt, kpt in half)
        if cells > _MAX_GRID_CELLS:
            raise ValueError(
                f"the (x, p) grid windows hold {cells:,} cells, more than the "
                f"bound of {_MAX_GRID_CELLS:,} (2**28); shorten the horizon or coarsen the grid"
            )
        kx = max(kxt for kxt, _ in half)
        kp = max(kpt for _, kpt in half)
        return cls(
            x_edges=np.arange(-kx, kx + 1) * dx,
            p_edges=np.arange(-kp, kp + 1) * dp,
            t_steps=t_steps,
            dt=cfg.dt,
            windows=tuple((kx - kxt, kx + kxt, kp - kpt, kp + kpt) for kxt, kpt in half),
        )


@dataclass
class BinnedCounts:
    """Per-slice integer histograms on the grid's active windows."""

    grid: Grid3
    counts: list
    out_of_grid: np.ndarray
    n_samples: int

    def merge(self, other):
        a, b = self.grid, other.grid
        if a is not b and not (
            a.t_steps == b.t_steps
            and a.windows == b.windows
            and np.array_equal(a.x_edges, b.x_edges)
            and np.array_equal(a.p_edges, b.p_edges)
        ):
            raise ValueError("cannot merge counts from different grids")
        # Chunk counts may arrive narrow; the total is int64 whatever they were.
        self.counts = [mine.astype(np.int64, copy=False) for mine in self.counts]
        for mine, theirs in zip(self.counts, other.counts, strict=True):
            mine += theirs
        self.out_of_grid += other.out_of_grid
        self.n_samples += other.n_samples
        return self

    def out_of_grid_fraction(self):
        return float(self.out_of_grid.sum()) / (self.n_samples * len(self.counts))


def _bin_slice(xs, ps, grid, window):
    # Indices stay floats until the window mask has dropped every value that
    # is out of range or not finite, so no such value is cast to an integer.
    ix0, ix1, ip0, ip1 = window
    nx, npb = ix1 - ix0, ip1 - ip0
    ix = np.floor((xs - grid.x_edges[0]) / grid.dx) - ix0
    ip = np.floor((ps - grid.p_edges[0]) / grid.dp) - ip0
    ok = (ix >= 0) & (ix < nx) & (ip >= 0) & (ip < npb)
    flat = (ix[ok] * npb + ip[ok]).astype(np.int64)
    counts = np.bincount(flat, minlength=nx * npb).reshape(nx, npb)
    return counts, len(xs) - len(flat)


def bin_counts(batch, grid):
    """Histogram a trajectory batch on the grid (integer counts per slice)."""
    counts = []
    out = np.zeros(len(grid.t_steps), dtype=np.int64)
    for s, (step, window) in enumerate(zip(grid.t_steps, grid.windows)):
        c, o = _bin_slice(batch.x_at(step), batch.p_at(step), grid, window)
        counts.append(c)
        out[s] = o
    return BinnedCounts(grid=grid, counts=counts, out_of_grid=out, n_samples=batch.n_samples)


# No bin of one chunk can hold more than CHUNK_ROWS rows: uint16 at 16384.
_CHUNK_COUNT_DTYPE = np.min_scalar_type(CHUNK_ROWS)


def _bin_chunk(batch, grid):
    """bin_counts of one chunk, narrowed so that a pool worker ships fewer bytes."""
    binned = bin_counts(batch, grid)
    binned.counts = [c.astype(_CHUNK_COUNT_DTYPE) for c in binned.counts]
    return binned


def accumulate_counts(spec, cfg, grid, workers=1):
    """Bin every chunk where it was simulated and merge the counts in chunk order.

    No full path array is ever materialized: on the pool path each worker
    bins the chunk it simulated and only the chunk's counts cross the pipe.
    """
    store = tuple(sorted(set(grid.t_steps) | {0, cfg.n_steps}))
    part = partial(_bin_chunk, grid=grid)
    total = None
    for chunk_counts in map_chunks(spec, cfg, part, workers, store):
        total = chunk_counts if total is None else total.merge(chunk_counts)
    return total


def analytic_bin_probs(spec, cfg, grid, nodes_per_bin=3):
    """Per-bin integrals of the analytic density, one array per slice.

    nodes_per_bin (odd, >= 3) sets the Simpson resolution per axis per bin;
    each slice is model.separable_q integrated by model.fringe_bin_probs.
    """
    return [
        model.fringe_bin_probs(
            grid.x_edges,
            grid.p_edges,
            *model.separable_q(spec, cfg.sign * (step * cfg.dt)),
            nodes_per_bin,
            window,
        )
        for step, window in zip(grid.t_steps, grid.windows)
    ]


class MomentStats(NamedTuple):
    mean: float
    var: float
    se_mean: float
    se_var: float


@dataclass(frozen=True)
class Chi2Report:
    """Time-averaged chi-squared comparison of counts against analytic bins."""

    chi2_bar: float
    k: float
    n_valid: int
    per_slice: tuple
    n_samples: int
    n_out_of_grid: int

    @property
    def band_lo(self):
        return self.k - 3.0 * math.sqrt(2.0 * self.k)

    @property
    def band_hi(self):
        return self.k + 3.0 * math.sqrt(2.0 * self.k)

    @property
    def passed(self):
        return self.band_lo <= self.chi2_bar <= self.band_hi

    def to_dict(self):
        return {
            "chi2_bar": self.chi2_bar,
            "k": self.k,
            "n_valid": self.n_valid,
            "band": [self.band_lo, self.band_hi],
            "passed": bool(self.passed),
            "n_samples": self.n_samples,
            "min_count": MIN_COUNT,
            "n_out_of_grid": self.n_out_of_grid,
            "per_slice": [
                {"t": t, "chi2": c, "k": kk} for (t, c, kk) in self.per_slice
            ],
        }


def chi2_counts_vs_probs(counts, probs, n_samples):
    """One-slice statistic over the significant bins.

    A bin is significant when its expected population n_samples * p_ijk
    reaches MIN_COUNT.  Gating on the expected rather than the observed count
    keeps the bin set deterministic and the statistic unbiased (selecting
    on observed fluctuations inflates chi2_bar by several percent of k,
    enough to leave the acceptance band).  Returns (chi2, k) with k the
    number of significant bins.
    """
    counts = np.asarray(counts)
    probs = np.asarray(probs)
    if counts.shape != probs.shape:
        raise ValueError(f"shape mismatch: counts {counts.shape} vs probs {probs.shape}")
    sig = probs * n_samples >= MIN_COUNT
    k = int(sig.sum())
    if k == 0:
        return 0.0, 0
    p = probs[sig]
    f = counts[sig] / n_samples
    chi2 = float(np.sum((p - f) ** 2 / (p / n_samples)))
    return chi2, k


def chi2_time_averaged(binned, probs):
    """Time-averaged statistic of BinnedCounts over every stored slice, with PASS band."""
    grid, n_samples = binned.grid, binned.n_samples
    per_slice = []
    total_chi2 = 0.0
    total_k = 0
    for step, counts, p in zip(grid.t_steps, binned.counts, probs, strict=True):
        c, k = chi2_counts_vs_probs(counts, p, n_samples)
        per_slice.append((float(step * grid.dt), c, k))
        total_chi2 += c
        total_k += k
    n_t = len(per_slice)
    if total_k == 0:
        raise ValueError("no significant bins anywhere; grid or sample size too small")
    return Chi2Report(
        chi2_bar=total_chi2 / n_t,
        k=total_k / n_t,
        n_valid=total_k,
        per_slice=tuple(per_slice),
        n_samples=n_samples,
        n_out_of_grid=int(binned.out_of_grid.sum()),
    )


def jackknife_replicates(values):
    """(mean, var, mean_del, var_del): the sample mean and variance and their
    delete-one-block replicates (empty arrays with fewer than two blocks).

    Totals are accumulated from per-block partial sums with math.fsum, so
    the result does not depend on how blocks were distributed to workers.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    n_blocks = min(JACKKNIFE_BLOCKS, n)
    bounds = np.linspace(0, n, n_blocks + 1).astype(np.int64)
    s1 = np.add.reduceat(values, bounds[:-1])
    s2 = np.add.reduceat(values * values, bounds[:-1])
    tot1 = math.fsum(s1)
    tot2 = math.fsum(s2)
    mean = tot1 / n
    var = tot2 / n - mean * mean
    if n_blocks < 2:
        return mean, var, np.empty(0), np.empty(0)
    rest = n - np.diff(bounds)
    mean_del = (tot1 - s1) / rest
    var_del = (tot2 - s2) / rest - mean_del**2
    return mean, var, mean_del, var_del


def jackknife_se(replicates):
    """Delete-block jackknife standard error from the replicates (nan for < 2)."""
    k = len(replicates)
    if k < 2:
        return float("nan")
    return math.sqrt((k - 1) / k * np.sum((replicates - replicates.mean()) ** 2))


def jackknife_mean_var(values):
    """MomentStats(mean, var, se_mean, se_var) with delete-block jackknife errors."""
    mean, var, mean_del, var_del = jackknife_replicates(values)
    return MomentStats(mean, var, jackknife_se(mean_del), jackknife_se(var_del))


def moment_summary(batch, step):
    """Sample mean and variance of x and p at a stored step, with jackknife SEs."""
    return {"x": jackknife_mean_var(batch.x_at(step)), "p": jackknife_mean_var(batch.p_at(step))}


def two_sample_chi2(counts1, counts2):
    """Two-sample homogeneity chi-squared over shared bins.

    Returns (stat, dof, p_value); bins with fewer than MIN_COUNT combined
    entries are dropped from the comparison.
    """
    c1 = np.asarray(counts1, dtype=float).ravel()
    c2 = np.asarray(counts2, dtype=float).ravel()
    if c1.shape != c2.shape:
        raise ValueError("histograms must share their binning")
    n1, n2 = c1.sum(), c2.sum()
    if n1 == 0 or n2 == 0:
        raise ValueError("empty histogram")
    use = (c1 + c2) >= MIN_COUNT
    k1 = math.sqrt(n2 / n1)
    k2 = math.sqrt(n1 / n2)
    stat = float(np.sum((k1 * c1[use] - k2 * c2[use]) ** 2 / (c1[use] + c2[use])))
    dof = int(use.sum()) - 1
    if dof < 1:
        raise ValueError("not enough populated bins for a two-sample comparison")
    return stat, dof, float(chdtrc(dof, stat))


def write_histogram_csv(path, binned):
    """Sparse histogram dump: one row per occupied bin, counts only.

    Columns: t, x_lo, x_hi, p_lo, p_hi, count, each edge the text of a
    lattice edge.  Zero-count bins are omitted to keep dumps tractable.
    """
    grid = binned.grid
    # Edge text is formatted once per lattice edge; bin i spans edges i and i + 1.
    xe, pe = fmt17(grid.x_edges), fmt17(grid.p_edges)

    def blocks():
        for counts, step, window in zip(binned.counts, grid.t_steps, grid.windows, strict=True):
            i, j = np.nonzero(counts)
            ix, ip = i + window[0], j + window[2]
            t = fmt17([step * grid.dt]).repeat(len(i))
            yield t, xe[ix], xe[ix + 1], pe[ip], pe[ip + 1], counts[i, j]

    write_csv(path, ("t", "x_lo", "x_hi", "p_lo", "p_hi", "count"), blocks())
