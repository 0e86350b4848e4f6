"""Reproducible random streams and the boundary-distribution samplers.

Every trajectory chunk owns a counter-based Philox stream keyed by
(master_seed, stream_id), so the variate sequence is a pure function of
those two integers: independent of worker count, scheduling and platform.
Gaussians are produced by inverse transform (one uniform per normal) rather
than ziggurat rejection, which keeps stream consumption fixed and makes the
draw layout auditable.

Two one-dimensional families cover every boundary in the simulation:

  * two-Gaussian mixtures (the future marginal of the amplified variable),
  * fringe-modulated Gaussians  rho(v) ~ exp(-v^2/2s^2) (1 - a sin(f v + phi)),
    sampled exactly by rejection with the bare Gaussian as proposal and
    acceptance (1 - a sin(.)) / (1 + a), valid whenever a <= 1.

The linking conditional for a measure-p run needs one more shape, a hill
mixture with a sinusoidally weighted dip at the origin; it is sampled by
rejection from the hill mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "RngStream",
    "sample_gaussian_mixture",
    "sample_fringe",
    "sample_mixture_with_dip",
]

# Half an ulp of the [0, 1) lattice: shifts rng.random() into the open
# interval so ndtri never sees an exact 0.
_U_SHIFT = 2.0 ** -54

_MAX_REJECTION_ROUNDS = 128


@dataclass(frozen=True)
class RngStream:
    """A counter-based random stream: (master_seed, stream_id) -> sequence."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or not isinstance(self.stream_id, int):
            raise ValueError("master_seed and stream_id must be integers")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        key = np.array(
            [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.stream_id],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


def uniform_open(rng, size=None):
    """Uniforms on the open interval (0, 1), one lattice step off the ends."""
    return rng.random(size) + _U_SHIFT


def standard_normal_it(rng, size=None):
    """Standard normals by inverse transform: one uniform per variate."""
    return ndtri(uniform_open(rng, size))


def resolve_rng(rng):
    """The numpy Generator behind rng (an RngStream starts a fresh one)."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"rng must be an RngStream or numpy Generator, got {type(rng)}")


def sample_gaussian_mixture(w1, mu1, mu2, sigma, rng, size=1, return_components=False):
    """Draw from w1*N(mu1, sigma^2) + (1 - w1)*N(mu2, sigma^2).

    Consumes exactly two uniforms per sample (component pick, then the
    inverse-transform normal).  With return_components=True also returns the
    int8 array of picks (+1 for component 1, -1 for component 2).
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"mixture weight w1 must lie in [0, 1], got {w1}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    gen = resolve_rng(rng)
    pick = uniform_open(gen, size) < w1
    z = standard_normal_it(gen, size)
    values = np.where(pick, mu1, mu2) + sigma * z
    if return_components:
        return values, np.where(pick, 1, -1).astype(np.int8)
    return values


def sample_fringe(sigma, fringe_amp, fringe_freq, phase, rng, size=1, return_rounds=False):
    """Exact rejection sampling of the fringe-modulated Gaussian.

    Target density ~ exp(-v^2/(2 sigma^2)) * (1 - fringe_amp sin(fringe_freq v
    + phase)).  fringe_amp may be a scalar or a per-sample array; values
    outside [0, 1] are a model violation and rejected.  Mean acceptance is
    1/(1 + fringe_amp) for phase 0, never below 1/2.

    Each round draws a fixed 2*size uniforms whether or not individual slots
    have already accepted, so the stream consumption (and therefore every
    sample) depends only on the stream state, never on scheduling.  With
    return_rounds=True also returns the 1-based round each slot accepted on
    (the mean acceptance rate is 1/mean(rounds)).
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    amp = np.asarray(fringe_amp, dtype=float)
    if np.any(amp < 0.0) or np.any(amp > 1.0):
        raise ValueError("fringe_amp must lie in [0, 1]")
    gen = resolve_rng(rng)
    values = np.zeros(size)
    rounds = np.zeros(size, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    for round_no in range(1, _MAX_REJECTION_ROUNDS + 1):
        prop = sigma * standard_normal_it(gen, size)
        u = uniform_open(gen, size)
        accept_p = (1.0 - amp * np.sin(fringe_freq * prop + phase)) / (1.0 + amp)
        take = alive & (u < accept_p)
        values[take] = prop[take]
        rounds[take] = round_no
        alive &= ~take
        if not alive.any():
            return (values, rounds) if return_rounds else values
    raise RuntimeError("fringe rejection sampler failed to terminate")


def sample_mixture_with_dip(w1, mu, sigma, dip, rng, size=1):
    """Sample  w1 N(mu, s^2) + w2 N(-mu, s^2) - dip * N(0, s^2)  (normalized).

    This is the x | p linking conditional of a measure-p run: a two-hill
    mixture with a central dip of signed weight dip (|dip| bounded by
    2 sqrt(w1 w2) e^(-mu^2/s^2 * 1/2), which keeps the density nonnegative).
    Proposal: the bare hill mixture; the acceptance ratio uses the log-space
    hill/dip quotient so arbitrarily separated hills stay finite.
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"mixture weight w1 must lie in [0, 1], got {w1}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    w2 = 1.0 - w1
    dip = np.broadcast_to(np.asarray(dip, dtype=float), (size,)).copy()
    fw = 2.0 * math.sqrt(w1 * w2)
    dip_cap = fw * math.exp(-mu * mu / (2.0 * sigma * sigma))
    if np.any(np.abs(dip) > dip_cap * (1.0 + 1e-12)):
        raise ValueError("dip weight exceeds the nonnegativity bound")
    gen = resolve_rng(rng)
    # sup over x of dip * N(0,s^2)(x) / mixture(x), per sample; <= 1 always.
    if fw > 0.0:
        with np.errstate(divide="ignore"):
            log_bound = np.log(np.abs(dip)) + mu * mu / (2.0 * sigma * sigma) - math.log(fw)
        bound = np.exp(np.minimum(log_bound, 0.0))
        bound[np.isnan(bound)] = 0.0
    else:
        bound = np.zeros(size)
    envelope = 1.0 + bound
    values = np.zeros(size)
    alive = np.ones(size, dtype=bool)
    log_w1 = math.log(w1) if w1 > 0.0 else -np.inf
    log_w2 = math.log(w2) if w2 > 0.0 else -np.inf
    for _ in range(_MAX_REJECTION_ROUNDS):
        pick = uniform_open(gen, size) < w1
        prop = np.where(pick, mu, -mu) + sigma * standard_normal_it(gen, size)
        u = uniform_open(gen, size)
        # dip * phi0(prop) / mixture(prop), in log space.
        upos = prop * mu / (sigma * sigma)
        log_ratio = mu * mu / (2.0 * sigma * sigma) - np.logaddexp(
            log_w1 + upos, log_w2 - upos
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.sign(dip) * np.exp(np.log(np.abs(dip)) + log_ratio)
        t[dip == 0.0] = 0.0
        take = alive & (u * envelope < 1.0 - t)
        values[take] = prop[take]
        alive &= ~take
        if not alive.any():
            return values
    raise RuntimeError("mixture-with-dip rejection sampler failed to terminate")
