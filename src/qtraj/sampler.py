"""Reproducible random streams and the boundary-distribution samplers.

Every trajectory chunk owns a counter-based Philox stream keyed by
(master_seed, stream_id), so the variate sequence is a pure function of
those two integers: independent of worker count, scheduling and platform.
Every sampler draws from a numpy Generator, RngStream.generator() for a
stream, and refuses anything else: callers that compose draws thread one
Generator through them, so no two draws replay the same uniforms.
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
stream use is fixed by the round count alone.  Round 1 draws all blocks in
one call and transforms them whole, as every slot is live then; later
rounds transform and test only the slots still live, so the work per call
is the sum of the rounds the slots took, not size times the largest.  The
words drawn, and their order, are the same either way.  The round cap
follows the call's worst slot acceptance (_round_cap), which each sampler
knows from its parameters without scanning its slots: at least 1/2 for the
fringe sampler, as amp <= 1, and (1 - max|fringe| amp_0) / (1 + max|fringe|)
with amp_0 in closed form for the dip sampler, so the slow x | p link of
close packets gets the rounds it needs.
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

# The round cap of a sampler whose every slot accepts at least half its
# proposals: a slot is then left live with probability at most 2**-128.
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


def uniform_open(rng, size):
    """An array of uniforms on the open interval (0, 1), one lattice step off the ends."""
    u = rng.random(size)
    u += _U_SHIFT
    return u


def standard_normal_it(rng, size):
    """An array of standard normals by inverse transform: one uniform per
    variate, transformed in place."""
    u = uniform_open(rng, size)
    return ndtri(u, out=u)


def resolve_rng(rng):
    """rng itself, which must be a numpy Generator (an RngStream is refused:
    each call would restart its stream, so composed draws would replay it)."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy Generator, e.g. RngStream(seed, stream)"
                        f".generator(), got {type(rng)}")
    return rng


def _require_weight(w1):
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"mixture weight w1 must lie in [0, 1], got {w1}")


def _require_sigma(sigma):
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


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
    _require_weight(w1)
    _require_sigma(sigma)
    _require_finite(mu1=mu1, mu2=mu2)
    gen = resolve_rng(rng)
    u_pick = uniform_open(gen, size)
    values, pick = _mixture_from_uniforms(w1, mu1, mu2, sigma, u_pick, uniform_open(gen, size))
    return values, np.where(pick, 1, -1).astype(np.int8)


def _round_cap(worst_acceptance):
    """Rounds that leave a slot accepting with probability worst_acceptance
    live with probability at most 2**-_MAX_REJECTION_ROUNDS, as
    _MAX_REJECTION_ROUNDS rounds do at acceptance 1/2: never fewer than
    _MAX_REJECTION_ROUNDS and never more than its square, so an acceptance
    at or near 0 still ends in RuntimeError.
    """
    if worst_acceptance >= 0.5:
        scale = 1.0
    elif worst_acceptance > 0.0:
        scale = min(math.log(0.5) / math.log1p(-worst_acceptance), _MAX_REJECTION_ROUNDS)
    else:
        scale = _MAX_REJECTION_ROUNDS
    return math.ceil(_MAX_REJECTION_ROUNDS * scale)


def _reject(name, size, gen, n_blocks, transform, worst_acceptance):
    """The rejection loop shared by every sampler here.

    Every round draws n_blocks blocks of size uniforms, one uniform per slot
    per block, whether or not that slot has already accepted, so the stream
    consumption (and therefore every sample) depends only on the stream
    state, never on scheduling: a call uses n_blocks * size * max(rounds)
    words.  transform(live, *blocks) returns (proposals, accepted) for the
    slots live indexes, each block cut down to those slots.  Round 1, where
    every slot is live, passes live = slice(None) and the whole blocks, so it
    gathers nothing; later rounds pass the indices of the slots not yet
    accepted, so the transform work is sum(rounds), not size * max(rounds).
    A slot keeps its first accepted proposal.  Returns (values, rounds),
    rounds holding the 1-based round each slot accepted on (the mean
    acceptance rate is 1/mean(rounds)).  worst_acceptance, a floor under
    every slot's acceptance probability that the caller knows from its
    parameters, sets the round cap (_round_cap), past which the call raises
    RuntimeError; a call that ends within k rounds draws the same words
    under any cap of k or more.
    """
    blocks = np.empty((n_blocks, size))
    for round_no in range(1, _round_cap(worst_acceptance) + 1):
        gen.random(out=blocks)
        if round_no == 1:
            blocks += _U_SHIFT
            values, accepted = transform(slice(None), *blocks)
            rounds = accepted.astype(np.int64)
            live = np.flatnonzero(~accepted)
        else:
            prop, accepted = transform(live, *(block[live] + _U_SHIFT for block in blocks))
            took = live[accepted]
            values[took] = prop[accepted]
            rounds[took] = round_no
            live = live[~accepted]
        if live.size == 0:
            return values, rounds
    raise RuntimeError(f"{name} rejection sampler failed to terminate")


def sample_fringe(sigma, fringe_amp, fringe_freq, rng, size=1):
    """Exact rejection sampling of the fringe-modulated Gaussian.

    Target density ~ exp(-v^2/(2 sigma^2)) * (1 - fringe_amp sin(fringe_freq
    v)).  fringe_amp may be a scalar or a per-sample array; values outside
    [0, 1] are a model violation and rejected.  Mean acceptance is
    1/(1 + fringe_amp), never below 1/2, so the round cap is
    _MAX_REJECTION_ROUNDS for every call.  Each round consumes a normal
    uniform, then an acceptance uniform, per slot.  Returns (values, rounds),
    rounds the round each slot accepted on (see _reject).
    """
    _require_sigma(sigma)
    amp = np.broadcast_to(np.asarray(fringe_amp, dtype=float), (size,))
    _require_finite(fringe_amp=amp, fringe_freq=fringe_freq)
    if np.any(amp < 0.0) or np.any(amp > 1.0):
        raise ValueError("fringe_amp must lie in [0, 1]")

    def transform(live, u_normal, u_accept):
        a = amp[live]
        prop = sigma * ndtri(u_normal)
        return prop, u_accept < (1.0 - a * np.sin(fringe_freq * prop)) / (1.0 + a)

    return _reject("fringe", size, resolve_rng(rng), 2, transform, 0.5)


def sample_mixture_with_dip(w1, mu, sigma, fringe, amp, rng, size=1):
    """Sample  [w1 N(mu, s^2) + w2 N(-mu, s^2)] * (1 - fringe * amp(x))  (normalized).

    This is the x | p linking conditional of a measure-p run: the hill
    mixture times the t = 0 fringe factor, with fringe = sin(freq p) per
    slot in [-1, 1] and amp the hill pair's own x -> fringe amplitude law,
    2 sqrt(w1 w2) / (w1 e^v + w2 e^-v) with v = x mu / s^2
    (model.conditional_fringe_amp for the hills of a SuperpositionSpec).
    Proposal: the bare hill mixture, drawn as sample_gaussian_mixture draws
    it, accepted when u (1 + |fringe|) < 1 - fringe amp(x).  Each round
    consumes a pick, a normal and an acceptance uniform per slot.  Returns
    (values, rounds) as sample_fringe does.

    A slot accepts with probability (1 - fringe amp_0) / (1 + |fringe|),
    amp_0 the mean of amp under the hill mixture, which falls to about 0.02
    where amp_0 nears 1 (close packets).  The round cap follows the call's
    worst slot, (1 - max|fringe| amp_0) / (1 + max|fringe|) (see _round_cap).
    For this amp the hills times amp are amp_0 N(x; 0, s^2), so amp_0 =
    2 sqrt(w1 w2) e^(-mu^2 / (2 s^2)) in closed form.
    """
    _require_weight(w1)
    _require_sigma(sigma)
    fringe = np.broadcast_to(np.asarray(fringe, dtype=float), (size,))
    _require_finite(mu=mu, fringe=fringe)
    if np.any(np.abs(fringe) > 1.0):
        raise ValueError("fringe must lie in [-1, 1]")
    envelope = 1.0 + np.abs(fringe)
    amp_0 = 2.0 * math.sqrt(w1 * (1.0 - w1)) * math.exp(-mu * mu / (2.0 * sigma * sigma))
    s_max = float(np.max(np.abs(fringe), initial=0.0))
    worst = (1.0 - s_max * amp_0) / (1.0 + s_max)

    def transform(live, u_pick, u_normal, u_accept):
        prop, _ = _mixture_from_uniforms(w1, mu, -mu, sigma, u_pick, u_normal)
        return prop, u_accept * envelope[live] < 1.0 - fringe[live] * amp(prop)

    return _reject("mixture-with-dip", size, resolve_rng(rng), 3, transform, worst)
