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
(store_steps = (0, n_steps)) crosses all of t_f at once.  Paths are stored
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
results are bit-identical for every worker count.  A caller that needs only
a reduction of each chunk passes it to map_chunks as part: the chunk is
reduced where it was simulated: pool workers bin their own chunks for
verify, count outcome signs for born, and keep the selected (x(0), p(0))
rows and their histogram for postselect, and only those reductions, never
paths, cross the pipe to the parent.  The simulate command writes each
chunk's paths as it arrives, so no command gathers a run's paths; simulate
is the in-memory form of a whole run, for library callers.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import model
from .model import MeasurementConfig, Setting, SuperpositionSpec
from .sampler import (
    RngStream,
    resolve_rng,
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
    """

    spec: SuperpositionSpec
    cfg: MeasurementConfig
    stored_steps: tuple
    amplified: np.ndarray
    attenuated: np.ndarray
    boundary_hill: np.ndarray

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
        first = batches[0]
        return TrajectoryBatch(
            spec=first.spec,
            cfg=first.cfg,
            stored_steps=first.stored_steps,
            amplified=np.concatenate([b.amplified for b in batches], axis=0),
            attenuated=np.concatenate([b.attenuated for b in batches], axis=0),
            boundary_hill=np.concatenate([b.boundary_hill for b in batches]),
        )


def _normalize_store(cfg, store_steps):
    if store_steps is None:
        return tuple(range(cfg.n_steps + 1))
    steps = tuple(sorted(set(int(s) for s in store_steps)))
    if any(s < 0 or s > cfg.n_steps for s in steps):
        raise ValueError(f"store_steps must lie in [0, {cfg.n_steps}]")
    if 0 not in steps or cfg.n_steps not in steps:
        raise ValueError("store_steps must include 0 and n_steps (link and boundary)")
    return steps


def _relax(start, cfg, gen, steps):
    """OU paths from start at steps[0] through the monotone steps.

    Each gap between consecutive steps is crossed in one exact transition,
    with one normal per row per gap.  The normals are drawn row-major,
    (rows, gaps), and laid out gap-major in one scaled transpose copy into
    a (steps, rows) buffer, filled through a reversed view when the steps
    descend; the result is the buffer's .T view, so column k holds the
    value at the k-th smallest step and every column is contiguous.
    """
    kernels = [model.ou_kernel(abs(b - a) * cfg.dt) for a, b in zip(steps, steps[1:])]
    z = standard_normal_it(gen, (len(start), len(kernels)))
    buf = np.empty((len(steps), len(start)))
    slices = buf[::-1] if steps[0] > steps[-1] else buf
    slices[0] = start
    scale = np.array([math.sqrt(var) for _, var in kernels])
    np.multiply(z.T, scale[:, None], out=slices[1:])
    for k, (decay, _) in enumerate(kernels):
        slices[k + 1] += decay * slices[k]
    return buf.T


def run_backward(spec, cfg, rng, n_rows=None, store_steps=None):
    """Integrate the amplified quadrature from its future boundary down to 0.

    Under measure-x the boundary is the two-hill marginal (means +-G(t_f) x1,
    per-hill variance sigma_x^2(t_f)); under measure-p it is the
    fringe-modulated p-marginal at t_f.  Returns (paths, hill_labels) with
    paths[:, j] at the j-th stored step, in ascending order (store_steps as
    in simulate).
    """
    gen = resolve_rng(rng)
    n = cfg.n_samples if n_rows is None else n_rows
    steps = _normalize_store(cfg, store_steps)
    if cfg.setting is Setting.X:
        mu, sigma_f = model.boundary_hill(spec, cfg)
        boundary, hills = sample_gaussian_mixture(spec.c1_sq, mu, -mu, sigma_f, gen, size=n)
    else:
        sigma_f, amp_f, freq_f = model.fringe_p(spec, cfg.sign * cfg.t_f)
        boundary, _ = sample_fringe(sigma_f, amp_f, freq_f, gen, size=n)
        hills = np.where(boundary >= 0.0, 1, -1).astype(np.int8)
    return _relax(boundary, cfg, gen, steps[::-1]), hills


def run_forward(spec, cfg, amplified_present, rng, store_steps=None):
    """Integrate the attenuated quadrature from its linked present-time draw.

    amplified_present is the step-0 value of the backward path for each row;
    the forward initial condition is drawn from the t = 0 conditional of the
    complementary quadrature given that value.  Columns are laid out as in
    run_backward.
    """
    gen = resolve_rng(rng)
    amplified_present = np.asarray(amplified_present, dtype=float)
    n = amplified_present.shape[0]
    steps = _normalize_store(cfg, store_steps)
    sigma_p, amp0, freq = model.fringe_p(spec, 0.0)
    if cfg.setting is Setting.X:
        amp = model.conditional_fringe_amp(spec, amplified_present)
        present, _ = sample_fringe(sigma_p, amp, freq, gen, size=n)
    else:
        # Where Q(x, p, 0) carries no fringe term (amp0 = 0, also when it
        # underflows) the factor is 1 and every proposal is accepted.
        sx2, _, _ = model.packet(spec, 0.0)
        fringe = np.sin(freq * amplified_present) if amp0 > 0.0 else np.zeros(n)
        amp = partial(model.conditional_fringe_amp, spec)
        present, _ = sample_mixture_with_dip(
            spec.c1_sq, spec.x1, math.sqrt(sx2), fringe, amp, gen, size=n
        )
    return _relax(present, cfg, gen, steps)


def n_chunks(n_samples):
    return (n_samples + CHUNK_ROWS - 1) // CHUNK_ROWS


def _simulate_chunk(spec, cfg, chunk_index, store_steps, part=None):
    rows = min(CHUNK_ROWS, cfg.n_samples - chunk_index * CHUNK_ROWS)
    gen = RngStream(cfg.seed, chunk_index).generator()
    amp, hills = run_backward(spec, cfg, gen, n_rows=rows, store_steps=store_steps)
    att = run_forward(spec, cfg, amp[:, 0], gen, store_steps=store_steps)
    batch = TrajectoryBatch(spec, cfg, store_steps, amp, att, hills)
    return batch if part is None else part(batch)


def iter_chunk_batches(spec, cfg, store_steps=None):
    """Yield the per-chunk TrajectoryBatch objects of a run in chunk order, in process."""
    store = _normalize_store(cfg, store_steps)
    return (_simulate_chunk(spec, cfg, i, store) for i in range(n_chunks(cfg.n_samples)))


def map_chunks(spec, cfg, part=None, workers=1, store_steps=None):
    """Yield part(batch) for every chunk in chunk order (the batch when part is None).

    part runs where its chunk was simulated: in a pool worker only its
    (picklable) result crosses the pipe, so a caller that needs a reduction
    of each chunk never holds the chunk's paths.  This is the one place that
    chooses between running in process and running a pool.
    """
    store = _normalize_store(cfg, store_steps)
    chunks = range(n_chunks(cfg.n_samples))
    if workers <= 1 or len(chunks) <= 1:
        # Every batch passes through iter_chunk_batches, looked up by name at call
        # time, so a wrapper of it (perfbench's tracer) sees each chunk's paths.
        batches = iter_chunk_batches(spec, cfg, store_steps=store)
        yield from batches if part is None else map(part, batches)
        return
    # Windowed submission: chunk order and at most workers + 2 in flight keep memory flat and
    # reduction order fixed; done, rebound every round, is the only hold on a yielded result.
    with ProcessPoolExecutor(max_workers=workers) as ex:
        submit = partial(ex.submit, _simulate_chunk, spec, cfg, store_steps=store, part=part)
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
    which time slices are kept (it must retain 0 and n_steps), and the run
    draws one normal per row per gap between them: two stores with
    different interior steps sample the same law from different noise.
    The boundary column is shared by every store.  This gathers the whole
    run in memory; the commands take each chunk from map_chunks instead.
    """
    return TrajectoryBatch.concat(list(map_chunks(spec, cfg, None, workers, store_steps)))
