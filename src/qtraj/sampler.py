"""Reproducible random streams and the boundary-distribution samplers.

Every trajectory chunk owns a counter-based Philox stream keyed by
(master_seed, stream_id), so the variate sequence is a pure function of
those two integers: independent of worker count, scheduling and platform.
Gaussians are produced by inverse transform (one uniform per normal) rather
than ziggurat rejection, which keeps stream consumption fixed and makes the
draw layout auditable.

Two one-dimensional families cover every boundary in the simulation:

  * two-Gaussian mixtures (the future marginal of the amplified variable),
  * fringe-modulated Gaussians  rho(v) ~ exp(-v^2/2s^2) (1 - a sin(f v)),
    sampled exactly by rejection with the bare Gaussian as proposal and
    acceptance (1 - a sin(.)) / (1 + a), valid whenever a <= 1.

Both links at t = 0 sample the one factor 1 - amp(x) sin(freq p) of
Q(x, p, 0) = hills(x) env(p) (1 - amp(x) sin(freq p)), with the roles of x
and p swapped.  p | x is the fringe-modulated Gaussian with a = amp(x);
x | p is the hill mixture times 1 - fringe amp(x), fringe = sin(freq p) per
slot, sampled by rejection from the hill mixture as sample_gaussian_mixture
draws it.  The factor carves a dip at the origin, or a bump where the
fringe is negative; the sampler is handed amp and never derives it.

Both rejection samplers run on one loop, _reject.  Every round consumes a
full block of uniforms per draw (normal, then acceptance; pick, normal,
then acceptance for the dip sampler) for every slot, accepted or not, so
stream use is fixed by the round count alone.  Only the slots still live
are transformed and tested, so the work per call is the sum of the rounds
the slots took, not size times the largest.
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


def _require_finite(**params):
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _mixture_from_uniforms(w1, mu1, mu2, sigma, u_pick, u_normal):
    """w1*N(mu1, sigma^2) + (1 - w1)*N(mu2, sigma^2) from a pick and a normal uniform.

    Returns (values, pick), pick True where component 1 was chosen.
    """
    pick = u_pick < w1
    return np.where(pick, mu1, mu2) + sigma * ndtri(u_normal), pick


def sample_gaussian_mixture(w1, mu1, mu2, sigma, rng, size=1):
    """Draw from w1*N(mu1, sigma^2) + (1 - w1)*N(mu2, sigma^2).

    Consumes exactly two uniforms per sample (component pick, then the
    inverse-transform normal).  Returns (values, picks), picks the int8
    array of components (+1 for component 1, -1 for component 2).
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"mixture weight w1 must lie in [0, 1], got {w1}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    _require_finite(mu1=mu1, mu2=mu2)
    gen = resolve_rng(rng)
    u_pick = uniform_open(gen, size)
    values, pick = _mixture_from_uniforms(w1, mu1, mu2, sigma, u_pick, uniform_open(gen, size))
    return values, np.where(pick, 1, -1).astype(np.int8)


def _reject(name, size, gen, n_blocks, transform):
    """The rejection loop shared by every sampler here.

    Every round draws n_blocks blocks of size uniforms, one uniform per slot
    per block, whether or not that slot has already accepted, so the stream
    consumption (and therefore every sample) depends only on the stream
    state, never on scheduling: a call uses n_blocks * size * max(rounds)
    words.  Only the live slots' uniforms are transformed: the round calls
    transform(live, *blocks), with live the indices of the slots not yet
    accepted and each block cut down to those slots, which returns
    (proposals, accepted) for them.  So the transform work is sum(rounds),
    not size * max(rounds).  A slot keeps its first accepted proposal.
    Returns (values, rounds), rounds holding the 1-based round each slot
    accepted on (the mean acceptance rate is 1/mean(rounds)).
    """
    values = np.zeros(size)
    rounds = np.zeros(size, dtype=np.int64)
    live = np.arange(size)
    blocks = np.empty((n_blocks, size))
    for round_no in range(1, _MAX_REJECTION_ROUNDS + 1):
        for block in blocks:
            gen.random(out=block)
        prop, accepted = transform(live, *(block[live] + _U_SHIFT for block in blocks))
        took = live[accepted]
        values[took] = prop[accepted]
        rounds[took] = round_no
        live = live[~accepted]
        if live.size == 0:
            return values, rounds
    raise RuntimeError(f"{name} rejection sampler failed to terminate")


def sample_fringe(sigma, fringe_amp, fringe_freq, rng, size=1, return_rounds=False):
    """Exact rejection sampling of the fringe-modulated Gaussian.

    Target density ~ exp(-v^2/(2 sigma^2)) * (1 - fringe_amp sin(fringe_freq
    v)).  fringe_amp may be a scalar or a per-sample array; values outside
    [0, 1] are a model violation and rejected.  Mean acceptance is
    1/(1 + fringe_amp), never below 1/2.  Each round consumes a normal
    uniform, then an acceptance uniform, per slot.  With return_rounds=True
    also returns the round each slot accepted on (see _reject).
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    amp = np.broadcast_to(np.asarray(fringe_amp, dtype=float), (size,))
    _require_finite(fringe_amp=amp, fringe_freq=fringe_freq)
    if np.any(amp < 0.0) or np.any(amp > 1.0):
        raise ValueError("fringe_amp must lie in [0, 1]")

    def transform(live, u_normal, u_accept):
        a = amp[live]
        prop = sigma * ndtri(u_normal)
        return prop, u_accept < (1.0 - a * np.sin(fringe_freq * prop)) / (1.0 + a)

    values, rounds = _reject("fringe", size, resolve_rng(rng), 2, transform)
    return (values, rounds) if return_rounds else values


def sample_mixture_with_dip(w1, mu, sigma, fringe, amp, rng, size=1):
    """Sample  [w1 N(mu, s^2) + w2 N(-mu, s^2)] * (1 - fringe * amp(x))  (normalized).

    This is the x | p linking conditional of a measure-p run: the hill
    mixture times the t = 0 fringe factor, with fringe = sin(freq p) per
    slot in [-1, 1] and amp the x -> fringe amplitude law (values in [0, 1],
    model.conditional_fringe_amp for the hills of a SuperpositionSpec).
    Proposal: the bare hill mixture, drawn as sample_gaussian_mixture draws
    it, accepted when u (1 + |fringe|) < 1 - fringe amp(x).  Each round
    consumes a pick, a normal and an acceptance uniform per slot.
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"mixture weight w1 must lie in [0, 1], got {w1}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    fringe = np.broadcast_to(np.asarray(fringe, dtype=float), (size,))
    _require_finite(mu=mu, fringe=fringe)
    if np.any(np.abs(fringe) > 1.0):
        raise ValueError("fringe must lie in [-1, 1]")
    envelope = 1.0 + np.abs(fringe)

    def transform(live, u_pick, u_normal, u_accept):
        prop, _ = _mixture_from_uniforms(w1, mu, -mu, sigma, u_pick, u_normal)
        return prop, u_accept * envelope[live] < 1.0 - fringe[live] * amp(prop)

    return _reject("mixture-with-dip", size, resolve_rng(rng), 3, transform)[0]
