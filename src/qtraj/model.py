"""Analytic phase-space distributions for the amplified two-component state.

The prepared state is a superposition of two squeezed wavepackets displaced
to +x1 and -x1 along the position quadrature, with the relative phase fixed
so that the second amplitude is i*|c2|.  In the scaling used throughout
(x = a + a^dag, p = (a - a^dag)/i, vacuum variance 1) its Husimi density
after a time t of quadrature amplification is

    Q(x, p, t) = exp(-p^2 / (2*sp2)) / (2*pi*sx*sp) * {
          w1 * exp(-(x - G*x1)^2 / (2*sx2))
        + w2 * exp(-(x + G*x1)^2 / (2*sx2))
        - 2*sqrt(w1*w2) * exp(-(x^2 + (G*x1)^2) / (2*sx2))
             * sin(p*G*x1 / sx2) }

with G = exp(g*t), sx2 = 1 + exp(+2*(g*t - r)), sp2 = 1 + exp(-2*(g*t - r)).
A positive gain g amplifies x and squeezes p; measuring p flips the sign of
g.  With the i*|c2| phase choice the closed form above integrates to one
exactly for every r and x1 (the cross term in the state norm vanishes
identically).  Integrating out x leaves the p-fringe
N(p; 0, sp2) (1 - amp sin(freq p)), with amp = 2|c1 c2| e^(-(G x1)^2 / (2 sx2))
and freq = G x1 / sx2, whose p-moments are (mean, sp2 - mean^2).  This
module is the one place each law is written: `packet` the packet widths and
centres, `fringe_p` the fringe, `fringe_p_moments` its p-moments, `window`
the stretch of x and p that holds both packets, and `reach` how far a run's
coordinates may go.

Everything here is a pure function of its value arguments.  Every law takes
its time as one scalar, the signed gt = g*t, negative under measure p (the
setting enters Q only as the sign of the gain); only boundary_hill and
reference_moments, which describe a run, take a MeasurementConfig.  The
coordinates x and p accept scalars or numpy arrays and broadcast.  Ratios
of near-underflowing exponentials (the fringe amplitude of the conditional)
are formed in log space so they stay finite for arbitrarily separated
wavepackets.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "R_MAX",
    "Setting",
    "SuperpositionSpec",
    "MeasurementConfig",
    "ReferenceMoments",
    "q_sup",
    "q_sup_terms",
    "marginal_x",
    "marginal_p",
    "marginal_p_amplified_scaled",
    "scaled_x_marginal",
    "conditional_p_given_x",
    "conditional_fringe_amp",
    "fringe_p",
    "fringe_p_moments",
    "reference_moments",
    "packet",
    "WINDOW_WIDTHS",
    "window",
    "reach",
    "boundary_hill",
    "ou_kernel",
    "gauss_pdf",
    "hills",
    "separable_q",
    "simpson_weights",
    "bin_lattice",
    "bin_integrals",
    "SeparableBins",
    "separable_bins",
]

# Squeezing cap: sp2 = 1 + e^(2r) ~ 403 at r = 6 already behaves like an
# eigenstate for every regime exercised here, and keeps e^(2r) products
# far from overflow.
R_MAX = 6.0

# Largest float64 spacing, in vacuum widths (1, the narrowest packet), at
# which a run may form its coordinates, taken at its reach.  At g t_f 3 and
# r 2 (3,000 rows, seed 3) the rounding moved var_x_cond from its x1 = 1e4
# value by 1e-6 at spacing 2**-12 (x1 = 1e11), 1.1e-5 at 2**-8 (1e12) and
# 8e-4 at 2**-2 (1e14); at 32 (1e16) it read 0.203, not 0.0232.
_MAX_REACH_ULP = 2.0**-10

# Half-width, in packet widths, of the window that shows or bins a packet:
# verify's grid, postselect's q+ edges and marginal's curves all use it.
WINDOW_WIDTHS = 6.0


class Setting(enum.Enum):
    """Which quadrature the amplifier measures (sign of the gain)."""

    X = "x"
    P = "p"


def _as_farray(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return arr


@dataclass(frozen=True)
class SuperpositionSpec:
    """Prepared state: weights, displacement and squeezing of the two packets.

    c1_sq : probability weight |c1|^2 of the +x1 packet, in [0, 1].
    x1    : half separation of the packet centers (quadrature units).
    r     : squeezing parameter, 0 <= r <= R_MAX.  r = 0 gives the coherent
            "cat" family with x1 = 2*alpha0.
    mixture : if True, the incoherent 50/50-style mixture of the same two
            packets: identical hills, no interference fringe anywhere.

    The relative phase is pinned to c2 = i*|c2|; any other phase only shifts
    the fringe.
    """

    c1_sq: float = 0.5
    x1: float = 1.0
    r: float = 2.0
    mixture: bool = False

    def __post_init__(self):
        for name in ("c1_sq", "x1", "r"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if not 0.0 <= self.c1_sq <= 1.0:
            raise ValueError(f"c1_sq must lie in [0, 1], got {self.c1_sq}")
        if self.x1 < 0.0:
            raise ValueError(f"x1 must be >= 0, got {self.x1}")
        if not 0.0 <= self.r <= R_MAX:
            raise ValueError(f"r must lie in [0, {R_MAX}], got {self.r}")

    @classmethod
    def cat(cls, alpha0):
        """Equal-weight coherent-state cat |alpha0>, |-alpha0>: r = 0, x1 = 2*alpha0."""
        return cls(c1_sq=0.5, x1=2.0 * alpha0, r=0.0)

    @property
    def c2_sq(self):
        return 1.0 - self.c1_sq

    @property
    def fringe_weight(self):
        """2*|c1||c2|, the bare fringe amplitude (0 for the mixture)."""
        if self.mixture:
            return 0.0
        return 2.0 * math.sqrt(self.c1_sq * self.c2_sq)


@dataclass(frozen=True)
class MeasurementConfig:
    """Amplifier run, times in units of 1/|g|: setting, g*t_f, g*dt, samples, seed."""

    setting: Setting = Setting.X
    t_f: float = 3.0
    dt: float = 0.1
    n_samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.t_f) and self.t_f > 0.0):
            raise ValueError(f"t_f must be > 0, got {self.t_f}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        steps = self.t_f / self.dt
        if not steps < sys.maxsize:
            raise ValueError(f"t_f/dt = {steps} steps is more than a range can hold")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
            raise ValueError(
                f"t_f/dt must be a whole number of steps >= 1, got {steps}"
            )
        if self.t_f > 300.0:
            raise ValueError(f"t_f = {self.t_f} overflows the gain factor e^(t_f)")
        if not isinstance(self.n_samples, int) or self.n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {self.n_samples}")
        try:
            if isinstance(self.seed, bool):
                raise TypeError
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        object.__setattr__(self, "seed", seed & 0xFFFFFFFFFFFFFFFF)

    @classmethod
    def from_gtf(cls, gtf, n_steps=30, setting=Setting.X, n_samples=1, seed=0):
        """Run with horizon g*t_f = gtf cut into n_steps equal steps."""
        return cls(
            setting=setting,
            t_f=float(gtf),
            dt=float(gtf) / int(n_steps),
            n_samples=n_samples,
            seed=seed,
        )

    @property
    def n_steps(self):
        return int(round(self.t_f / self.dt))

    @property
    def sign(self):
        """Sign of the gain: +1.0 amplifies x (measure x), -1.0 amplifies p."""
        return 1.0 if self.setting is Setting.X else -1.0


@dataclass(frozen=True)
class ReferenceMoments:
    """Exact antinormally ordered moments of Q(x, p, t) for the full state."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float


def packet(spec, gt):
    """Scalar (sx2, sp2, gx1) at signed time gt: per-packet x variance
    1 + e^(2(gt - r)), p-envelope variance 1 + e^(-2(gt - r)) and hill
    center e^(gt) x1."""
    gt = float(gt)
    sx2 = float(1.0 + np.exp(2.0 * (gt - spec.r)))
    sp2 = float(1.0 + np.exp(-2.0 * (gt - spec.r)))
    return sx2, sp2, math.exp(gt) * spec.x1


def window(spec, gt, widths=WINDOW_WIDTHS):
    """(x, p) half-extents at signed time gt of the window that holds both
    packets: the hill centre e^(gt) x1 plus `widths` x-widths sqrt(sx2),
    and `widths` p-envelope widths sqrt(sp2)."""
    sx2, sp2, gx1 = packet(spec, gt)
    return gx1 + widths * math.sqrt(sx2), widths * math.sqrt(sp2)


def reach(x1, r, gt):
    """The farthest |x| or |p| of a run to horizon gt with hill centres +-x1:
    the largest centre e^gt x1 plus 14 widths of the widest packet, which
    is never wider than sqrt(1 + e^(2 (gt + r))).

    This is the one bound on how far a run's coordinates may reach: a reach
    whose float64 spacing passes _MAX_REACH_ULP vacuum widths is refused
    with ValueError, since coordinates there could not hold a unit spread.
    Below it the reach is under 2**43, so its doubled square is finite.
    """
    far = math.exp(gt) * x1 + 14.0 * math.sqrt(1.0 + math.exp(2.0 * (gt + r)))
    if math.ulp(far) > _MAX_REACH_ULP:
        raise ValueError(f"coordinates reach {far:.3g}, where float64 spaces them "
                         f"{math.ulp(far):.3g} apart, over {_MAX_REACH_ULP:.3g} vacuum widths")
    return far


def fringe_p(spec, gt):
    """(sigma, amp, freq) of the p-fringe at signed time gt.

    The p-marginal of Q is exp(-p^2/(2 sigma^2))/(sqrt(2 pi) sigma)
    * (1 - amp*sin(freq*p)), with sigma^2 = sp2,
    amp = 2|c1 c2| e^(-gx1^2 / (2 sx2)) <= 1 and freq = gx1 / sx2.
    """
    sx2, sp2, gx1 = packet(spec, gt)
    amp = spec.fringe_weight * math.exp(-gx1 * gx1 / (2.0 * sx2))
    return math.sqrt(sp2), amp, gx1 / sx2


def boundary_hill(spec, cfg):
    """(mu, sigma_f): center and width of the +x1 hill at the horizon t_f.

    Only measure x amplifies the two hills; under measure p the boundary is
    the amplified p-fringe, so a measure-p config raises ValueError.
    """
    if cfg.setting is not Setting.X:
        raise ValueError("the two-hill boundary needs a measure-x config")
    sx2, _, mu = packet(spec, cfg.sign * cfg.t_f)
    return mu, math.sqrt(sx2)


def ou_kernel(gtau):
    """(decay, var) of the exact OU transition over a gap gtau = |g| tau
    (Gillespie, Phys. Rev. E 54, 2084, 1996): q(t + tau) ~ N(decay q(t), var),
    with decay = e^(-gtau) and var = 1 - e^(-2 gtau).  The engine steps its
    paths with it; the oracle integrates it as the kernel x_0 | x_f."""
    return math.exp(-gtau), -math.expm1(-2.0 * gtau)


def gauss_pdf(v, mu, var):
    """Normal density N(mu, var) at v."""
    return np.exp(-((v - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)


def hills(spec, x, center, var):
    """The weighted packet hills (|c1|^2 N(x; center, var), |c2|^2 N(x; -center, var)).

    Their sum is the x-profile of Q and of every x-marginal derived from it.
    """
    return spec.c1_sq * gauss_pdf(x, center, var), spec.c2_sq * gauss_pdf(x, -center, var)


def _p_profiles(p, var, freq):
    """The p-envelope N(p; 0, var) and the fringe carrier N(p; 0, var) sin(freq p)."""
    env = gauss_pdf(p, 0.0, var)
    return env, env * np.sin(freq * p)


def _fringe_profile(p, sigma, amp, freq):
    """Gaussian envelope of width sigma times the fringe factor 1 - amp sin(freq p)."""
    return gauss_pdf(p, 0.0, sigma * sigma) * (1.0 - amp * np.sin(freq * p))


def q_sup_terms(spec, x, p, gt=0.0):
    """Hills and fringe term of Q at signed time gt (< 0 under measure p), separately.

    Returns (hill1, hill2, fringe) with Q = hill1 + hill2 - fringe; useful
    for checking how fast amplification suppresses the interference.
    """
    x = _as_farray("x", x)
    p = _as_farray("p", p)
    sx2, sp2, gx1 = packet(spec, gt)
    _, amp, freq = fringe_p(spec, gt)
    env, carrier = _p_profiles(p, sp2, freq)
    hill1, hill2 = hills(spec, x, gx1, sx2)
    return hill1 * env, hill2 * env, amp * gauss_pdf(x, 0.0, sx2) * carrier


def q_sup(spec, x, p, gt=0.0):
    """Husimi density Q(x, p, t) at signed time gt = g*t (< 0 under measure p).

    Nonnegative for every valid spec and normalized to one over the plane.
    """
    hill1, hill2, fringe = q_sup_terms(spec, x, p, gt)
    return hill1 + hill2 - fringe


def marginal_x(spec, x, gt=0.0):
    """Marginal density of x at signed time gt (< 0 under measure p): the hill mixture.

    The fringe is odd in p and integrates out exactly, so the marginal is
    identical for the superposition and the mixture.
    """
    x = _as_farray("x", x)
    sx2, _, gx1 = packet(spec, gt)
    return np.add(*hills(spec, x, gx1, sx2))


def marginal_p(spec, p, gt=0.0):
    """Marginal density of p at signed time gt, under either setting (gt < 0
    under measure p): the Gaussian envelope times the fringe factor of fringe_p."""
    p = _as_farray("p", p)
    return _fringe_profile(p, *fringe_p(spec, gt))


def separable_q(spec, gt):
    """Q at signed time gt in separable form, (x_profiles, p_profiles):

        Q(x, p) = A(x) E(p) - B(x) C(p)

    x_profiles(x) returns (A, B): A the two hills, B the p-marginal fringe
    amplitude times N(x; 0, sx2).  p_profiles(p) returns (E, C): the
    envelope N(p; 0, sp2) and the fringe carrier N(p; 0, sp2) sin(freq p).
    separable_bins integrates the pair bin by bin.
    """
    sx2, sp2, gx1 = packet(spec, gt)
    _, amp, freq = fringe_p(spec, gt)

    def x_profiles(x):
        return np.add(*hills(spec, x, gx1, sx2)), amp * gauss_pdf(x, 0.0, sx2)

    def p_profiles(p):
        return _p_profiles(p, sp2, freq)

    return x_profiles, p_profiles


def marginal_p_amplified_scaled(spec, p_tilde):
    """Large-gain limit of the amplified p-marginal in p_tilde = p / e^(|g| t).

    Density: exp(-pt^2/(2 e^(2r))) / sqrt(2 pi e^(2r)) * (1 - 2|c1 c2| sin(pt*x1)).
    """
    p_tilde = _as_farray("p_tilde", p_tilde)
    return _fringe_profile(p_tilde, math.exp(spec.r), spec.fringe_weight, spec.x1)


def scaled_x_marginal(spec, x_tilde, gt):
    """x-marginal in x_tilde = x / e^(gt), gt the signed time (< 0 under measure p).

    Mixture of Gaussians at +-x1 with variance e^(-2 gt) + e^(-2 r); for
    large g*t this is the outcome distribution of the completed measurement.
    """
    x_tilde = _as_farray("x_tilde", x_tilde)
    var = math.exp(-2.0 * gt) + math.exp(-2.0 * spec.r)
    return np.add(*hills(spec, x_tilde, spec.x1, var))


def conditional_fringe_amp(spec, x_p):
    """Fringe amplitude amp(x) at t = 0, in [0, 1].

    Q(x, p, 0) = hills(x) env(p) (1 - amp(x) sin(freq p)): this is the
    amplitude of the one t = 0 factor that both links sample, p | x under
    measure x and x | p under measure p.  amp(x) = 2|c1 c2| / (|c1|^2 e^u
    + |c2|^2 e^-u) with u = x*x1/sx2, formed in log space so widely
    separated packets do not overflow.
    """
    x_p = _as_farray("x_p", x_p)
    if spec.fringe_weight == 0.0:
        return np.zeros_like(x_p)
    sx2, _, _ = packet(spec, 0.0)
    u = x_p * spec.x1 / sx2
    log_den = np.logaddexp(math.log(spec.c1_sq) + u, math.log(spec.c2_sq) - u)
    return np.exp(math.log(spec.fringe_weight) - log_den)


def conditional_p_given_x(spec, x_p, p_p):
    """Conditional density of p given x at t = 0 (the trajectory link).

    Gaussian envelope sigma_p^2 = 1 + e^(2r) times the fringe factor
    {1 - amp(x_p) sin(p_p x1 / sx2)}; for the mixture the factor is absent.
    Even in x_p for the balanced superposition.
    """
    p_p = _as_farray("p_p", p_p)
    sigma, _, freq = fringe_p(spec, 0.0)
    return _fringe_profile(p_p, sigma, conditional_fringe_amp(spec, x_p), freq)


def fringe_p_moments(amp, freq, sp2):
    """(mean, var) of p under N(p; 0, sp2) (1 - amp sin(freq p)).  Only the
    fringe has odd-p weight, so the mean is -amp freq sp2 e^(-freq^2 sp2 / 2)
    and the second moment is sp2 exactly: var = sp2 - mean^2.  amp may be a
    mean of conditional amplitudes, as for a postselected ensemble."""
    mean = -(freq * sp2 * math.exp(-freq * freq * sp2 / 2.0)) * amp
    return mean, sp2 - mean * mean


def reference_moments(spec, t, cfg):
    """Exact full-state moments of Q at the time t, in [0, t_f], of the run cfg.

    Variances follow the amplification laws
        var_x(t) = 1 + e^(+2 g t) (var_x(0) - 1)
        var_p(t) = 1 + e^(-2 g t) (var_p(0) - 1)
    with var_x including the packet separation and var_p including the small
    mean-p offset the fringe induces (only the fringe has odd-p weight).
    """
    if not 0.0 <= t <= cfg.t_f * (1.0 + 1e-12):
        raise ValueError(f"t must lie in [0, t_f={cfg.t_f}]")
    gt = cfg.sign * t
    sx2, sp2, gx1 = packet(spec, gt)
    w_diff = spec.c1_sq - spec.c2_sq
    mean_x = w_diff * gx1
    var_x = sx2 + gx1 * gx1 * (1.0 - w_diff * w_diff)
    _, amp, freq = fringe_p(spec, gt)
    mean_p, var_p = fringe_p_moments(amp, freq, sp2)
    return ReferenceMoments(mean_x=mean_x, mean_p=mean_p, var_x=var_x, var_p=var_p)


def _simpson_count(n):
    """n if the Simpson rule takes n nodes (odd, >= 3), else ValueError."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    return n


def simpson_weights(n, spacing):
    """Composite Simpson weights for an odd number n >= 3 of equispaced nodes."""
    w = np.ones(_simpson_count(n))
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (spacing / 3.0)


def bin_lattice(edges, nodes_per_bin, lo=0, hi=None):
    """Simpson nodes over the bins [lo, hi) of a uniform edge array.

    Returns (nodes, idx, w): the integral of f over bin i is f(nodes)[idx[i]] @ w.
    Neighbouring bins share their boundary node.
    """
    n_bins = (len(edges) - 1 if hi is None else hi) - lo
    seg = _simpson_count(nodes_per_bin) - 1
    delta = (edges[1] - edges[0]) / seg
    nodes = edges[lo] + np.arange(n_bins * seg + 1) * delta
    idx = np.arange(n_bins)[:, None] * seg + np.arange(nodes_per_bin)[None, :]
    return nodes, idx, simpson_weights(nodes_per_bin, delta)


def bin_integrals(edges, profiles, nodes_per_bin, lo=0, hi=None):
    """Composite-Simpson integrals of a profile pair over the bins [lo, hi)
    of a uniform edge array.

    profiles(nodes) returns two arrays; the result is their two per-bin
    integrals, nodes_per_bin (odd, >= 3) Simpson nodes per bin.
    """
    nodes, idx, w = bin_lattice(np.asarray(edges, dtype=float), nodes_per_bin, lo, hi)
    first, second = profiles(nodes)
    if not np.all(np.isfinite(first + second)):
        raise ValueError("non-finite density on the bin lattice")
    return first[idx] @ w, second[idx] @ w


@dataclass(frozen=True)
class SeparableBins:
    """Per-bin integrals of a separable law A(x) E(p) - B(x) C(p), held as
    its four per-axis factors: ia, ib the x-bin integrals of A and B, ie, ic
    the p-bin integrals of E and C.  The bin of x row i and p column j
    integrates to ia[i] ie[j] - ib[i] ic[j].

    It reads as the (x rows, p columns) array of those integrals: it has a
    .shape, bins[lo:hi] is the factors of x rows [lo, hi), and
    np.asarray(bins) is the one place the array is formed.
    """

    ia: np.ndarray
    ib: np.ndarray
    ie: np.ndarray
    ic: np.ndarray

    @property
    def shape(self):
        return len(self.ia), len(self.ie)

    def __getitem__(self, rows):
        return SeparableBins(self.ia[rows], self.ib[rows], self.ie, self.ic)

    def __array__(self, dtype=None, copy=None):
        # A new array every call; numpy casts it to any dtype asked for.
        return self.ia[:, None] * self.ie[None, :] - self.ib[:, None] * self.ic[None, :]


def separable_bins(x_edges, p_edges, x_profiles, p_profiles, nodes_per_bin, window=None):
    """SeparableBins of a law A(x) E(p) - B(x) C(p).

    x_profiles(x) returns (A, B) and p_profiles(p) returns (E, C) on an
    array of nodes; each axis is one bin_integrals call.  nodes_per_bin
    (odd, >= 3) sets the Simpson nodes per bin per axis; window = (ix0,
    ix1, ip0, ip1) limits the result to those half-open bin ranges.
    """
    ix0, ix1, ip0, ip1 = window if window is not None else (0, None, 0, None)
    return SeparableBins(*bin_integrals(x_edges, x_profiles, nodes_per_bin, ix0, ix1),
                         *bin_integrals(p_edges, p_profiles, nodes_per_bin, ip0, ip1))

