"""Histogram verification: (x, p, t) binning, per-bin Simpson integrals of
the analytic density, the time-averaged chi-squared statistic, and a sparse
dump of the counts alone, since the run's config fixes every bin probability.

Every (x, p) histogram in qtraj is counted by one rule, lattice_counts: a
value v lies in bin floor((v - edges[0]) / step), and a pair outside the
window, or not finite, is dropped.  verify's slices and postselect's q+
histogram both count by it.  Its edges meet one rule, lattice_edges (at
least 2, strictly increasing, equally spaced), where they enter: when a
Grid3 is built, and where analysis takes the q+ edges.

The comparison grid is a shared uniform lattice (bin edges are exact float
multiples of dx, dp) with an active window per stored time slice covering
the occupied region (packet centers +- n_sigma standard deviations), so
early slices are not charged for the full amplified extent.  Counts are
plain integers and merge by addition, which makes the reduction exactly
associative: worker count can never change a bin.  Each chunk is binned
where it was simulated, so a pool worker sends back only that chunk's
occupied bins, as (flat index, count) pairs per slice, never its paths or
its dense windows.  accumulate_counts allocates one window per slice once and
adds each chunk's pairs into it.  Out-of-grid rows are never tallied: a
slice's are the run's rows that its counts do not hold.  Every count is held
in the narrowest unsigned dtype its values need: a window starts as uint8
and widens only before an add whose largest sum it cannot hold, so its final
dtype follows its final counts alone, whatever the chunk or worker count.

The counts-only histogram.csv is one slice of atomic.write_counts_csv per
stored time: the slice's time, its window of the lattice's edge text and its
counts.

Per-bin analytic probabilities use composite Simpson per axis.  The density
is a separable law A(x) E(p) - B(x) C(p): model.separable_q returns its two
profile pairs (the two hills and the fringe along x, the envelope and the
fringe carrier along p), and model.separable_bins, which knows nothing of
the physics, evaluates two 1-D Simpson integrals per axis.
iter_bin_probs yields each slice as those four per-axis integrals, a
model.SeparableBins, never as a dense window.  The chi-squared takes any
probabilities that read as an array and forms them one band of x rows at a
time, about _BAND_CELLS bins, through np.asarray: a SeparableBins is never
formed whole, so verify holds no slice-sized float array, whatever the grid.
analytic_bin_probs forms every slice densely, for callers that index the
probabilities.

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
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.special import chdtrc

from . import model
from .atomic import fmt17, write_counts_csv
from .engine import map_chunks
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
    "lattice_counts",
    "lattice_edges",
    "accumulate_counts",
    "analytic_bin_probs",
    "iter_bin_probs",
    "chi2_time_averaged",
    "chi2_counts_vs_probs",
    "block_moments",
    "jackknife_bounds",
    "jackknife_mean_var",
    "jackknife_moments",
    "jackknife_se",
    "merge_moments",
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

# Bins whose probabilities the chi-squared forms at once, as whole rows along
# the first axis (at least one): 2**14 cells are 128 KiB of float64, so a
# band's few arrays stay small beside the binned counts.
_BAND_CELLS = 1 << 14

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

    x_edges and p_edges are edges that lattice_edges admits; t_steps are
    engine step indices; windows[s] = (ix0, ix1, ip0, ip1) bounds the active
    bins of slice s as half-open index ranges into the shared bin lattice.
    """

    x_edges: np.ndarray
    p_edges: np.ndarray
    t_steps: tuple
    dt: float
    windows: tuple = None

    def __post_init__(self):
        lattice_edges(self.x_edges, self.p_edges)
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

        An empty t_steps, a non-finite extent or extent/width ratio, or a
        lattice whose windows hold more than _MAX_GRID_CELLS cells in total,
        is refused with ValueError before any array is built.
        """
        if t_steps is None:
            t_steps = tuple(range(cfg.n_steps + 1))
        t_steps = tuple(int(s) for s in t_steps)
        if not t_steps:
            raise ValueError("t_steps must name at least one stored step")
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
    """Per-slice integer histograms on the grid's active windows.

    Each slice's counts may have its own unsigned dtype: accumulate_counts
    holds each in the narrowest one its largest count needs.  A slice's
    out-of-grid rows are the n_samples its counts do not hold.
    """

    grid: Grid3
    counts: list
    n_samples: int

    @property
    def out_of_grid(self):
        """Per-slice int64 rows outside the slice's window, or not finite."""
        return np.array([self.n_samples - int(c.sum()) for c in self.counts], dtype=np.int64)


def lattice_edges(x_edges, p_edges):
    """(x_edges, p_edges) as float64 arrays, each refused with ValueError
    unless it is a uniform lattice: at least 2 entries, strictly increasing,
    its steps finite and equal to within 1e-9 of the largest.

    This is the one edge rule, checked where edges enter: Grid3, and the q+
    histogram's edges in analysis, never once per binned slice.
    """
    edges = np.asarray(x_edges, dtype=float), np.asarray(p_edges, dtype=float)
    for name, steps in zip(("x_edges", "p_edges"), map(np.diff, edges)):
        if not (len(steps) and np.all(np.isfinite(steps)) and steps.min() > 0.0
                and steps.max() - steps.min() <= 1e-9 * steps.max()):
            raise ValueError(f"{name} must be >= 2 strictly increasing, equally spaced edges")
    return edges


def lattice_counts(xs, ps, x_edges, p_edges, window=None):
    """Counts of the pairs (xs, ps) on the lattice of lattice_edges, as an
    (x bins, p bins) array over window = (ix0, ix1, ip0, ip1), the half-open
    bin ranges kept along each axis (every bin by default).

    This is the one (x, p) counting rule.  A value v lies in bin
    floor((v - edges[0]) / (edges[1] - edges[0])), each bin [e_i, e_i+1),
    so a value on the last edge lies beyond the lattice.  A pair outside
    the window, or not finite, is dropped.  The counts are in
    np.min_scalar_type(len(xs)), which holds any bin.
    """
    # Indices stay floats until the window mask has dropped every value that
    # is out of range or not finite, so no such value is cast to an integer.
    ix0, ix1, ip0, ip1 = window or (0, len(x_edges) - 1, 0, len(p_edges) - 1)
    nx, npb = ix1 - ix0, ip1 - ip0
    ix = np.floor((xs - x_edges[0]) / (x_edges[1] - x_edges[0])) - ix0
    ip = np.floor((ps - p_edges[0]) / (p_edges[1] - p_edges[0])) - ip0
    ok = (ix >= 0) & (ix < nx) & (ip >= 0) & (ip < npb)
    flat = (ix[ok] * npb + ip[ok]).astype(np.int64)
    # No bin holds more than the rows binned: narrowed at once, the int64
    # window is the only one held at its full width.
    counts = np.bincount(flat, minlength=nx * npb).astype(np.min_scalar_type(len(xs)))
    return counts.reshape(nx, npb)


def bin_counts(batch, grid):
    """Histogram a trajectory batch on the grid (integer counts per slice).

    Each slice's counts are in np.min_scalar_type(batch.n_samples), the
    narrowest unsigned dtype that holds any bin of the batch: uint16 for one
    chunk.
    """
    edges = grid.x_edges, grid.p_edges
    counts = [lattice_counts(batch.x_at(step), batch.p_at(step), *edges, window)
              for step, window in zip(grid.t_steps, grid.windows)]
    return BinnedCounts(grid=grid, counts=counts, n_samples=batch.n_samples)


def _bin_chunk(batch, grid):
    """bin_counts of one chunk as each slice's occupied bins, so that a pool
    worker ships (flat index, count) pairs rather than whole windows.

    Returns a list of one (index, count) pair of arrays per slice, each in
    the narrowest unsigned dtype it needs: the indices in
    np.min_scalar_type of the window's last flat index (uint16 up to 65,536
    cells), the counts in that of their largest value (uint8 when no bin of
    the slice passes 255).  Out-of-grid rows need no separate tally: they
    are the rows the counts do not hold.
    """
    pairs = []
    for counts in bin_counts(batch, grid).counts:
        flat = counts.ravel()
        idx = np.flatnonzero(flat != 0)  # a bool mask scans faster than the counts
        values = flat[idx]
        pairs.append((idx.astype(np.min_scalar_type(flat.size - 1)),
                      values.astype(np.min_scalar_type(values.max(initial=0)))))
    return pairs


def accumulate_counts(spec, cfg, grid, workers=1):
    """Bin every chunk where it was simulated and add the counts in chunk order.

    No full path array is ever materialized: on the pool path each worker
    bins the chunk it simulated and only the chunk's occupied bins cross the
    pipe.  The totals are one window per slice, allocated once as uint8.
    Before an add whose largest sum the window cannot hold, that window
    alone is widened to np.min_scalar_type of the sum.  Counts only grow, so
    each window ends in the dtype of its largest final count, for any chunk
    or worker count.  Each chunk's indices are unique within a slice, so
    storing its sums at them is exact.  The run's rows are cfg.n_samples,
    so each slice's out-of-grid rows follow from its totals.
    """
    totals = [np.zeros((ix1 - ix0, ip1 - ip0), dtype=np.uint8)
              for ix0, ix1, ip0, ip1 in grid.windows]
    chunks = map_chunks(spec, cfg, partial(_bin_chunk, grid=grid), workers, grid.t_steps)
    for pairs in chunks:
        for s, (total, (idx, counts)) in enumerate(zip(totals, pairs, strict=True)):
            sums = np.add(total.ravel()[idx], counts, dtype=np.uint64)
            peak = sums.max(initial=0)
            if peak > np.iinfo(total.dtype).max:
                total = totals[s] = total.astype(np.min_scalar_type(peak))
            total.ravel()[idx] = sums
    return BinnedCounts(grid=grid, counts=totals, n_samples=cfg.n_samples)


def iter_bin_probs(spec, cfg, grid, nodes_per_bin=3):
    """Per-bin integrals of the analytic density, yielded one slice at a time.

    Each slice is a model.SeparableBins of model.separable_q over the
    slice's window: four per-axis vectors, whose np.asarray is the slice's
    (x, p) array of probabilities.  nodes_per_bin (odd, >= 3) sets the
    Simpson resolution per axis per bin.
    """
    for step, window in zip(grid.t_steps, grid.windows):
        yield model.separable_bins(
            grid.x_edges,
            grid.p_edges,
            *model.separable_q(spec, cfg.sign * (step * cfg.dt)),
            nodes_per_bin,
            window,
        )


def analytic_bin_probs(spec, cfg, grid, nodes_per_bin=3):
    """iter_bin_probs as a list of dense arrays, one per slice, all held at once."""
    return [np.asarray(bins) for bins in iter_bin_probs(spec, cfg, grid, nodes_per_bin)]


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

    probs has the shape of counts and reads as an array: an ndarray, or a
    model.SeparableBins.  It is formed one band at a time, as
    np.asarray(probs[lo:hi]) over whole rows along the first axis, at most
    _BAND_CELLS bins (at least one row): a view of an ndarray, and of a
    SeparableBins just those rows' probabilities.
    A bin is significant when its expected population n_samples * p_ijk
    reaches MIN_COUNT.  Gating on the expected rather than the observed count
    keeps the bin set deterministic and the statistic unbiased (selecting
    on observed fluctuations inflates chi2_bar by several percent of k,
    enough to leave the acceptance band).  Returns (chi2, k) with k the
    number of significant bins.  The bands' terms are joined in bin order
    and summed once, so the banding moves no bit of chi2.
    """
    counts = np.asarray(counts)
    if counts.shape != np.shape(probs):
        raise ValueError(f"shape mismatch: counts {counts.shape} vs probs {np.shape(probs)}")
    step = max(_BAND_CELLS // max(math.prod(counts.shape[1:]), 1), 1)
    terms = []
    for lo in range(0, len(counts), step):
        band = np.asarray(probs[lo : lo + step])
        sig = band * n_samples >= MIN_COUNT
        p = band[sig]
        f = counts[lo : lo + step][sig] / n_samples
        terms.append((p - f) ** 2 / (p / n_samples))
    k = sum(map(len, terms))
    if k == 0:
        return 0.0, 0
    return float(np.sum(np.concatenate(terms))), k


def chi2_time_averaged(binned, probs):
    """Time-averaged statistic of BinnedCounts over every stored slice, with PASS band.

    probs holds or yields one entry per slice, each read as
    chi2_counts_vs_probs reads it: a dense array (analytic_bin_probs) or a
    model.SeparableBins (iter_bin_probs).  Each slice is released before the
    next is drawn, so a lazy probs is held one slice at a time.
    """
    grid, n_samples = binned.grid, binned.n_samples
    per_slice = []
    total_chi2 = 0.0
    total_k = 0
    slices = iter(probs)
    for step, counts in zip(grid.t_steps, binned.counts, strict=True):
        # Drawn by hand and deleted after use: a zip over probs would hold this
        # slice while the next is built.
        p = next(slices, None)
        if p is None:
            raise ValueError("fewer probability arrays than stored time slices")
        c, k = chi2_counts_vs_probs(counts, p, n_samples)
        del p
        per_slice.append((float(step * grid.dt), c, k))
        total_chi2 += c
        total_k += k
    if next(slices, None) is not None:
        raise ValueError("more probability arrays than stored time slices")
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


def jackknife_bounds(n_rows):
    """Row bounds of the jackknife blocks of n_rows rows: min(JACKKNIFE_BLOCKS,
    n_rows) blocks, cut at np.linspace(0, n_rows, blocks + 1).

    They follow from n_rows alone, so a chunk of a run knows the blocks of
    its rows before any other chunk has run.
    """
    return np.linspace(0, n_rows, min(JACKKNIFE_BLOCKS, n_rows) + 1).astype(np.int64)


def block_moments(values, counts):
    """{block: (n, mean, m2)} of values cut into consecutive blocks of
    counts[block] rows: each block's row count, mean and sum of squared
    deviations m2, blocks of no row left out.

    The corrected two-pass algorithm (Chan, Golub and LeVeque, "Algorithms
    for computing the sample variance", Am. Stat. 37, 1983) sums deviations
    from a first-pass mean, so m2 keeps every digit the rows hold however
    far their mean lies from zero.
    """
    values = np.asarray(values, dtype=float)
    blocks = np.flatnonzero(counts)
    n = np.asarray(counts)[blocks]
    if len(n) == 0:
        return {}
    starts = np.cumsum(n) - n
    mean = np.add.reduceat(values, starts) / n
    dev = values - np.repeat(mean, n)
    shift = np.add.reduceat(dev, starts)
    m2 = np.add.reduceat(dev * dev, starts) - shift * shift / n
    return dict(zip(blocks.tolist(), zip(n.tolist(), (mean + shift / n).tolist(), m2.tolist())))


_NO_ROWS = (0, 0.0, 0.0)


def merge_moments(a, b):
    """The (n, mean, m2) of the rows of a and b together, by the pairwise
    update of Chan, Golub and LeVeque; an empty side returns the other."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    if not na or not nb:
        return b if not na else a
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def jackknife_moments(blocks):
    """(mean, var, mean_del, var_del) of rows held as the (n, mean, m2) of
    their blocks, in block order: the sample mean and variance and their
    delete-one-block replicates (empty arrays with fewer than two blocks).

    Blocks that hold no row drop out, and if none holds one, ValueError.
    The totals are the blocks merged in order; replicate b merges the
    blocks before b with those after it, so no moment is ever subtracted.
    """
    blocks = [block for block in blocks if block[0]]
    if not blocks:
        raise ValueError("jackknife needs at least one row; the blocks hold none")
    before = list(accumulate(blocks, merge_moments, initial=_NO_ROWS))
    after = list(accumulate(reversed(blocks), lambda rest, block: merge_moments(block, rest),
                            initial=_NO_ROWS))[::-1]
    n, mean, m2 = before[-1]
    if len(blocks) < 2:
        return mean, m2 / n, np.empty(0), np.empty(0)
    deleted = [merge_moments(head, tail) for head, tail in zip(before, after[1:])]
    return (mean, m2 / n, np.array([mean_b for _, mean_b, _ in deleted]),
            np.array([m2_b / n_b for n_b, _, m2_b in deleted]))


def jackknife_se(replicates):
    """Delete-block jackknife standard error from the replicates (nan for < 2)."""
    k = len(replicates)
    if k < 2:
        return float("nan")
    return math.sqrt((k - 1) / k * np.sum((replicates - replicates.mean()) ** 2))


def jackknife_mean_var(values):
    """MomentStats(mean, var, se_mean, se_var) with delete-block jackknife
    errors, the blocks cut on the array's own rows."""
    blocks = block_moments(values, np.diff(jackknife_bounds(len(values))))
    mean, var, mean_del, var_del = jackknife_moments(blocks.values())
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
    Each slice's window of edge text goes to atomic.write_counts_csv.
    """
    grid = binned.grid
    xe, pe = fmt17(grid.x_edges), fmt17(grid.p_edges)
    per_slice = zip(binned.counts, grid.t_steps, grid.windows, strict=True)
    slices = (((fmt17([s * grid.dt])[0],), xe[x0 : x1 + 1], pe[p0 : p1 + 1], c)
              for c, s, (x0, x1, p0, p1) in per_slice)
    write_counts_csv(path, ("t", "x_lo", "x_hi", "p_lo", "p_hi", "count"), slices)
