"""Forward-backward trajectory integration.

The amplified quadrature is integrated backward from a future boundary draw,
the attenuated quadrature forward from a present-time draw conditioned on
where the backward path landed, which links the two into a loop:

    backward (from t_f):  dq/dt- = -|g| q + sqrt(2|g|) xi,  q(t_f) ~ P(q, t_f)
    forward  (from 0):    dq/dt  = -|g| q + sqrt(2|g|) xi,  q(0) ~ P(q | q_amp(0))

Both are Ornstein-Uhlenbeck relaxations toward unit variance.  Each is
advanced with the exact OU transition over a gap tau, model.ou_kernel:

    q(t + tau) = q(t) e^(-g tau) + sqrt(1 - e^(-2 g tau)) z,   z ~ N(0, 1)

It has no discretization error for any tau, so the sampled slices follow
the analytic laws and the oracle, which integrates the same kernel as
x_0 | x_f, exactly.  A run therefore draws one normal per row per gap
between stored steps and crosses each gap in one transition: a run that
stores every step advances dt at a time, and an endpoint-only run
(store_steps = ()) crosses all of t_f at once.  Every store holds the
loop's two ends, step 0 (the present link) and n_steps (the future
boundary), whether or not the caller lists them.  Paths are stored
slice-major: a batch's (rows, steps) arrays are views of (steps, rows)
buffers, so each stored time slice is one contiguous column that the
recurrence and the binning read at unit stride.

Work is partitioned into fixed 16384-row chunks, each owning its own
counter-based stream (seed, chunk_index) with a fixed draw layout:
the boundary draw, backward noise block, the linking conditional's
rejection rounds, forward noise block.  The boundary is a mixture pick and
normal per row under measure-x and fringe rejection rounds under measure-p;
every rejection round takes its uniforms for all rows of the chunk, live or
not.  Each noise block holds one normal per row per gap between stored
steps, the backward block in descending gap order.  Row i of a run is
therefore a pure function of (seed, i, config, spec, store_steps), and
results are bit-identical for every worker count.  A pool holds at most one
process per chunk, so a one-chunk run never starts one.  A caller that
needs only a reduction of each chunk passes it to map_chunks as part: the
chunk is reduced where it was simulated: pool workers bin their own chunks
for verify and send back only the occupied bins, count outcome signs for
born, and reduce the selected (x(0), p(0)) rows to their histogram and the
moments of each jackknife block for postselect, and only those reductions,
never paths, cross the pipe to the parent.  Each batch knows its first_row
in the run, so a part can place its rows in blocks fixed by the run.  The
simulate command writes each chunk's paths as it arrives, so no command
gathers a run's paths; simulate is the in-memory form of a whole run, for
library callers.

A pool worker writes every chunk's paths into its one pair of flat float64
buffers, len(store) x CHUNK_ROWS values each, rather than faulting new
memory in per chunk.  That is safe because the worker pickles each result
into its result queue before it takes its next chunk, so no result, paths
or part, can see a later chunk's values.  In process each chunk gets new
arrays: its batch can outlive the next chunk, gathered by simulate or
yielded by iter_chunk_batches.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from . import model
from .model import MeasurementConfig, Setting, SuperpositionSpec
from .sampler import (
    RngStream,
    sample_fringe,
    sample_gaussian_mixture,
    sample_mixture_with_dip,
    standard_normal_it,
)

__all__ = [
    "CHUNK_ROWS",
    "TrajectoryBatch",
    "run_backward",
    "run_forward",
    "simulate",
    "iter_chunk_batches",
    "map_chunks",
    "n_chunks",
]

CHUNK_ROWS = 16384

# Largest float64 spacing, in vacuum widths (1, the narrowest packet), at
# which a run may store its coordinates, taken at its model.reach.  At
# g t_f 3 and r 2 (3,000 rows, seed 3) the rounding moved var_x_cond from its
# x1 = 1e4 value by 1e-6 at spacing 2**-12 (x1 = 1e11), 1.1e-5 at 2**-8
# (1e12) and 8e-4 at 2**-2 (1e14); at 32 (1e16) it read 0.203, not 0.0232.
_MAX_REACH_ULP = 2.0**-10


@dataclass
class TrajectoryBatch:
    """Linked backward (amplified) and forward (attenuated) paths.

    amplified[i, k] and attenuated[i, k] hold the stored slices listed in
    stored_steps (all steps by default); column for step n_steps is the
    future boundary draw, column for step 0 the present-time link.  Paths
    are stored slice-major at every worker count: both arrays are
    F-contiguous, so each column, one time slice of every row, is a
    contiguous run of memory, and a row is strided.
    boundary_hill records which mixture hill seeded each boundary draw
    (sign of the draw itself when the boundary is fringe-shaped).
    first_row is the run's index of the batch's first row: a chunk's
    chunk_index * CHUNK_ROWS, 0 for a whole run.
    """

    spec: SuperpositionSpec
    cfg: MeasurementConfig
    stored_steps: tuple
    amplified: np.ndarray
    attenuated: np.ndarray
    boundary_hill: np.ndarray
    first_row: int = 0

    @property
    def n_samples(self):
        return self.amplified.shape[0]

    def column(self, step):
        try:
            return self.stored_steps.index(step)
        except ValueError:
            raise KeyError(f"step {step} is not stored (stored: {self.stored_steps})")

    def amplified_at(self, step):
        return self.amplified[:, self.column(step)]

    def attenuated_at(self, step):
        return self.attenuated[:, self.column(step)]

    def x_at(self, step):
        """Physical x at a step (amplified under measure-x, else attenuated)."""
        if self.cfg.setting is Setting.X:
            return self.amplified_at(step)
        return self.attenuated_at(step)

    def p_at(self, step):
        if self.cfg.setting is Setting.P:
            return self.amplified_at(step)
        return self.attenuated_at(step)

    def times_stored(self):
        return np.asarray(self.stored_steps) * self.cfg.dt

    @staticmethod
    def concat(batches):
        """The batches' rows in one batch: the first batch with every other
        batch's paths and hill labels appended."""
        return replace(
            batches[0],
            amplified=np.concatenate([b.amplified for b in batches], axis=0),
            attenuated=np.concatenate([b.attenuated for b in batches], axis=0),
            boundary_hill=np.concatenate([b.boundary_hill for b in batches]),
        )

    def chunks(self):
        """Yield the batch cut at the run's chunk bounds, the multiples of
        CHUNK_ROWS in run rows, as batches of views: of a whole run, the
        batches that map_chunks hands its part."""
        first, n = self.first_row, self.n_samples
        cuts = range((first // CHUNK_ROWS + 1) * CHUNK_ROWS, first + n, CHUNK_ROWS)
        bounds = [0, *(cut - first for cut in cuts), n]
        for lo, hi in zip(bounds, bounds[1:]):
            yield replace(
                self, amplified=self.amplified[lo:hi], attenuated=self.attenuated[lo:hi],
                boundary_hill=self.boundary_hill[lo:hi], first_row=first + lo)


def _normalize_store(spec, cfg, store_steps):
    """The ascending steps a run stores: store_steps plus the loop's two ends.

    Step 0 (the present link) and n_steps (the future boundary) are always
    added, since the run cannot go without them; None stores every step.
    A step outside [0, n_steps] is refused, and so is a run whose
    model.reach float64 spaces more than _MAX_REACH_ULP apart, since its
    coordinates could not hold a unit spread.  Every simulation entry
    calls this before it draws, so each refuses such a run with ValueError.
    """
    reach = model.reach(spec.x1, spec.r, cfg.t_f)
    if math.ulp(reach) > _MAX_REACH_ULP:
        raise ValueError(f"coordinates reach {reach:.3g}, where float64 spaces them "
                         f"{math.ulp(reach):.3g} apart, over {_MAX_REACH_ULP:.3g} vacuum widths")
    if store_steps is None:
        return tuple(range(cfg.n_steps + 1))
    steps = {int(s) for s in store_steps}
    if any(s < 0 or s > cfg.n_steps for s in steps):
        raise ValueError(f"store_steps must lie in [0, {cfg.n_steps}]")
    return tuple(sorted(steps | {0, cfg.n_steps}))


def _relax(start, cfg, gen, steps, out=None):
    """OU paths from start at steps[0] through the monotone steps.

    Each gap between consecutive steps is crossed in one exact transition,
    with one normal per row per gap.  The normals are drawn row-major,
    (rows, gaps), and laid out gap-major in one scaled transpose copy into
    a (steps, rows) buffer, filled through a reversed view when the steps
    descend; the result is the buffer's .T view, so column k holds the
    value at the k-th smallest step and every column is contiguous.  The
    buffer is new, or the front of the flat float64 array out, which every
    value of the result overwrites.
    """
    kernels = [model.ou_kernel(abs(b - a) * cfg.dt) for a, b in zip(steps, steps[1:])]
    z = standard_normal_it(gen, (len(start), len(kernels)))
    shape = (len(steps), len(start))
    buf = np.empty(shape) if out is None else out[: shape[0] * shape[1]].reshape(shape)
    slices = buf[::-1] if steps[0] > steps[-1] else buf
    slices[0] = start
    scale = np.array([math.sqrt(var) for _, var in kernels])
    np.multiply(z.T, scale[:, None], out=slices[1:])
    for k, (decay, _) in enumerate(kernels):
        slices[k + 1] += decay * slices[k]
    return buf.T


def run_backward(spec, cfg, rng, n_rows=None, store_steps=None, out=None):
    """Integrate the amplified quadrature from its future boundary down to 0.

    Under measure-x the boundary is the two-hill marginal (means +-G(t_f) x1,
    per-hill variance sigma_x^2(t_f)); under measure-p it is the
    fringe-modulated p-marginal at t_f.  Returns (paths, hill_labels) with
    paths[:, j] at the j-th stored step, in ascending order (store_steps as
    in simulate, so column 0 is the link and the last column the boundary).
    rng must be a numpy Generator, as the boundary sampler requires; to link
    the pair, compose this and run_forward with one Generator, as
    _simulate_chunk does.  out, when given, is a flat float64 array of at
    least rows x stored steps values whose front the paths are written into.
    """
    n = cfg.n_samples if n_rows is None else n_rows
    steps = _normalize_store(spec, cfg, store_steps)
    if cfg.setting is Setting.X:
        mu, sigma_f = model.boundary_hill(spec, cfg)
        boundary, hills = sample_gaussian_mixture(spec.c1_sq, mu, -mu, sigma_f, rng, size=n)
    else:
        sigma_f, amp_f, freq_f = model.fringe_p(spec, cfg.sign * cfg.t_f)
        boundary, _ = sample_fringe(sigma_f, amp_f, freq_f, rng, size=n)
        hills = np.where(boundary >= 0.0, 1, -1).astype(np.int8)
    return _relax(boundary, cfg, rng, steps[::-1], out), hills


def run_forward(spec, cfg, amplified_present, rng, store_steps=None, out=None):
    """Integrate the attenuated quadrature from its linked present-time draw.

    amplified_present is the step-0 value of the backward path for each row;
    the forward initial condition is drawn from the t = 0 conditional of the
    complementary quadrature given that value.  Columns are laid out as in
    run_backward.  rng must be a numpy Generator, as the linking sampler
    requires: compose run_backward and this with one Generator, the one the
    backward pass drew from, so the two directions never share uniforms.
    out is as in run_backward.
    """
    amplified_present = np.asarray(amplified_present, dtype=float)
    n = amplified_present.shape[0]
    steps = _normalize_store(spec, cfg, store_steps)
    sigma_p, amp0, freq = model.fringe_p(spec, 0.0)
    if cfg.setting is Setting.X:
        amp = model.conditional_fringe_amp(spec, amplified_present)
        present, _ = sample_fringe(sigma_p, amp, freq, rng, size=n)
    else:
        # Where Q(x, p, 0) carries no fringe term (amp0 = 0, also when it
        # underflows) the factor is 1 and every proposal is accepted.
        sx2, _, _ = model.packet(spec, 0.0)
        fringe = np.sin(freq * amplified_present) if amp0 > 0.0 else np.zeros(n)
        amp = partial(model.conditional_fringe_amp, spec)
        present, _ = sample_mixture_with_dip(
            spec.c1_sq, spec.x1, math.sqrt(sx2), fringe, amp, rng, size=n
        )
    return _relax(present, cfg, rng, steps, out)


def n_chunks(n_samples):
    return (n_samples + CHUNK_ROWS - 1) // CHUNK_ROWS


def _simulate_chunk(spec, cfg, chunk_index, store_steps, part=None, paths=(None, None)):
    """One chunk's batch, or part(batch); paths optionally holds the flat
    (amplified, attenuated) buffers the batch's paths are written into."""
    rows = min(CHUNK_ROWS, cfg.n_samples - chunk_index * CHUNK_ROWS)
    gen = RngStream(cfg.seed, chunk_index).generator()
    amp_out, att_out = paths
    amp, hills = run_backward(spec, cfg, gen, n_rows=rows, store_steps=store_steps, out=amp_out)
    att = run_forward(spec, cfg, amp[:, 0], gen, store_steps=store_steps, out=att_out)
    batch = TrajectoryBatch(spec, cfg, store_steps, amp, att, hills, chunk_index * CHUNK_ROWS)
    return batch if part is None else part(batch)


# A pool worker's own (amplified, attenuated) path buffers, reused by every
# chunk the worker runs; the parent process never sets them.
_worker_paths = (np.empty(0), np.empty(0))


def _pool_chunk(spec, cfg, chunk_index, store_steps, part=None):
    """_simulate_chunk in a pool worker, on the worker's one pair of path buffers.

    A worker pickles each result into its result queue before it takes its
    next call, so no result, paths or part, can see a later chunk's values.
    """
    global _worker_paths
    size = len(store_steps) * CHUNK_ROWS
    if _worker_paths[0].size != size:
        _worker_paths = (np.empty(size), np.empty(size))
    return _simulate_chunk(spec, cfg, chunk_index, store_steps, part, _worker_paths)


def iter_chunk_batches(spec, cfg, store_steps=None):
    """Yield the per-chunk TrajectoryBatch objects of a run in chunk order, in process."""
    store = _normalize_store(spec, cfg, store_steps)
    return (_simulate_chunk(spec, cfg, i, store) for i in range(n_chunks(cfg.n_samples)))


def map_chunks(spec, cfg, part=None, workers=1, store_steps=None):
    """Yield part(batch) for every chunk in chunk order (the batch when part is None).

    part runs where its chunk was simulated: in a pool worker only its
    (picklable) result crosses the pipe, so a caller that needs a reduction
    of each chunk never holds the chunk's paths.  This is the one place that
    chooses between running in process and running a pool.  workers is first
    capped at the chunk count, and that one number picks in process (at most
    1) or a pool, sizes the pool, and bounds the chunks in flight at
    workers + 2.  A pool worker reuses its one pair of path buffers for every
    chunk (_pool_chunk); in process every chunk's paths are new arrays.
    A store or reach that _normalize_store refuses is refused before any
    chunk is simulated or any pool starts.
    """
    store = _normalize_store(spec, cfg, store_steps)
    chunks = range(n_chunks(cfg.n_samples))
    # A pool never holds more processes than the run has chunks: the fork start
    # method starts every one of max_workers at once.
    workers = min(workers, len(chunks))
    if workers <= 1:
        # Every batch passes through iter_chunk_batches, looked up by name at call
        # time, so a wrapper of it (perfbench's tracer) sees each chunk's paths.
        batches = iter_chunk_batches(spec, cfg, store_steps=store)
        yield from batches if part is None else map(part, batches)
        return
    # Windowed submission: chunk order and at most workers + 2 in flight keep memory flat and
    # reduction order fixed; done, rebound every round, is the only hold on a yielded result.
    with ProcessPoolExecutor(max_workers=workers) as ex:
        submit = partial(ex.submit, _pool_chunk, spec, cfg, store_steps=store, part=part)
        todo = iter(chunks)
        pending = deque(map(submit, islice(todo, workers + 2)))
        while pending:
            done = pending.popleft().result()
            pending.extend(map(submit, islice(todo, 1)))
            yield done


def simulate(spec, cfg, workers=1, store_steps=None):
    """Run the linked backward/forward simulation for the whole sample set.

    Composition of run_backward then run_forward per fixed-size chunk;
    measure-p swaps the quadrature roles throughout.  store_steps limits
    which time slices are kept; steps 0 and n_steps are always kept, so ()
    stores the loop's two ends alone.  The run draws one normal per row per
    gap between the stored steps: two stores with different interior steps
    sample the same law from different noise.
    The boundary column is shared by every store.  This gathers the whole
    run in memory; the commands take each chunk from map_chunks instead.
    """
    return TrajectoryBatch.concat(list(map_chunks(spec, cfg, None, workers, store_steps)))
