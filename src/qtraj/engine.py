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
x_0 | x_f, exactly.  A run that
stores every step advances one step (tau = dt) at a time; an endpoint-only
run (store_steps = (0, n_steps)) crosses all of t_f in one transition.

Work is partitioned into fixed 16384-row chunks, each owning its own
counter-based stream (seed, chunk_index) with a fixed draw layout:
boundary pick, boundary normal, backward noise block, the linking
conditional's rejection rounds, forward noise block.  The noise blocks hold
n_steps normals per row, or one per row on an endpoint-only run.  Row i of
a run is therefore a pure function of (seed, i, config, spec) and of
whether the run is endpoint-only, and results are bit-identical for every
worker count.
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
    "n_chunks",
]

CHUNK_ROWS = 16384


@dataclass
class TrajectoryBatch:
    """Linked backward (amplified) and forward (attenuated) paths.

    amplified[i, k] and attenuated[i, k] hold the stored slices listed in
    stored_steps (all steps by default); column for step n_steps is the
    future boundary draw, column for step 0 the present-time link.
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


def _n_strides(cfg, stride):
    if stride < 1 or cfg.n_steps % stride:
        raise ValueError(f"stride must divide n_steps = {cfg.n_steps}, got {stride}")
    return cfg.n_steps // stride


def run_backward(spec, cfg, rng, n_rows=None, stride=1):
    """Integrate the amplified quadrature from its future boundary down to 0.

    Under measure-x the boundary is the two-hill marginal (means +-G(t_f) x1,
    per-hill variance sigma_x^2(t_f)); under measure-p it is the
    fringe-modulated p-marginal at t_f.  Returns (paths, hill_labels) with
    paths[:, j] at physical step j * stride, for j = 0..n_steps / stride.
    """
    gen = resolve_rng(rng)
    n = cfg.n_samples if n_rows is None else n_rows
    m = _n_strides(cfg, stride)
    paths = np.empty((n, m + 1))
    if cfg.setting is Setting.X:
        mu, sigma_f = model.boundary_hill(spec, cfg)
        boundary, hills = sample_gaussian_mixture(
            spec.c1_sq, mu, -mu, sigma_f, gen, size=n, return_components=True
        )
    else:
        sigma_f, amp_f, freq_f = model.fringe_params_amplified_p(spec, cfg.t_f, cfg)
        boundary = sample_fringe(sigma_f, amp_f, freq_f, 0.0, gen, size=n)
        hills = np.where(boundary >= 0.0, 1, -1).astype(np.int8)
    paths[:, m] = boundary
    decay, var = model.ou_kernel(cfg.g, stride * cfg.dt)
    z = math.sqrt(var) * standard_normal_it(gen, (n, m))
    for k in range(m):
        paths[:, m - k - 1] = decay * paths[:, m - k] + z[:, k]
    return paths, hills


def run_forward(spec, cfg, amplified_present, rng, stride=1):
    """Integrate the attenuated quadrature from its linked present-time draw.

    amplified_present is the step-0 value of the backward path for each row;
    the forward initial condition is drawn from the t = 0 conditional of the
    complementary quadrature given that value.  Columns are laid out as in
    run_backward.
    """
    gen = resolve_rng(rng)
    amplified_present = np.asarray(amplified_present, dtype=float)
    n = amplified_present.shape[0]
    m = _n_strides(cfg, stride)
    paths = np.empty((n, m + 1))
    sigma_p, amp0, freq = model.fringe_params_initial_p(spec)
    if cfg.setting is Setting.X:
        amp = model.conditional_fringe_amp(spec, amplified_present)
        paths[:, 0] = sample_fringe(sigma_p, amp, freq, 0.0, gen, size=n)
    else:
        sx2, _, _ = model.packet(spec, 0.0)
        dip = amp0 * np.sin(freq * amplified_present)
        paths[:, 0] = sample_mixture_with_dip(
            spec.c1_sq, spec.x1, math.sqrt(sx2), dip, gen, size=n
        )
    decay, var = model.ou_kernel(cfg.g, stride * cfg.dt)
    z = math.sqrt(var) * standard_normal_it(gen, (n, m))
    for k in range(m):
        paths[:, k + 1] = decay * paths[:, k] + z[:, k]
    return paths


def n_chunks(n_samples):
    return (n_samples + CHUNK_ROWS - 1) // CHUNK_ROWS


def _normalize_store(cfg, store_steps):
    if store_steps is None:
        return tuple(range(cfg.n_steps + 1))
    steps = tuple(sorted(set(int(s) for s in store_steps)))
    if any(s < 0 or s > cfg.n_steps for s in steps):
        raise ValueError(f"store_steps must lie in [0, {cfg.n_steps}]")
    if 0 not in steps or cfg.n_steps not in steps:
        raise ValueError("store_steps must include 0 and n_steps (link and boundary)")
    return steps


def _simulate_chunk(spec, cfg, chunk_index, store_steps):
    rows = min(CHUNK_ROWS, cfg.n_samples - chunk_index * CHUNK_ROWS)
    gen = RngStream(cfg.seed, chunk_index).generator()
    # Endpoint-only storage crosses the whole horizon in one exact transition.
    stride = cfg.n_steps if store_steps == (0, cfg.n_steps) else 1
    amp, hills = run_backward(spec, cfg, gen, n_rows=rows, stride=stride)
    att = run_forward(spec, cfg, amp[:, 0], gen, stride=stride)
    if len(store_steps) != amp.shape[1]:
        amp, att = amp[:, store_steps], att[:, store_steps]
    return TrajectoryBatch(spec, cfg, store_steps, amp, att, hills)


def iter_chunk_batches(spec, cfg, workers=1, store_steps=None):
    """Yield per-chunk TrajectoryBatch objects in fixed chunk order."""
    store = _normalize_store(cfg, store_steps)
    chunks = range(n_chunks(cfg.n_samples))
    if workers <= 1 or len(chunks) <= 1:
        yield from (_simulate_chunk(spec, cfg, i, store) for i in chunks)
        return
    # Windowed submission: chunk order and at most workers + 2 in flight keep memory flat and
    # reduction order fixed; done, rebound every round, is the only hold on a yielded chunk.
    with ProcessPoolExecutor(max_workers=workers) as ex:
        submit = partial(ex.submit, _simulate_chunk, spec, cfg, store_steps=store)
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
    which time slices are kept (it must retain 0 and n_steps).  Keeping
    exactly those two crosses t_f in one transition each way, which draws
    different noise from a run that keeps any interior step; the boundary
    column is shared.
    """
    chunks = list(iter_chunk_batches(spec, cfg, workers=workers, store_steps=store_steps))
    return TrajectoryBatch.concat(chunks)
