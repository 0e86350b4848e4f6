"""Physics-level checks on linked trajectory ensembles.

Covers the outcome statistics of the completed measurement (sign fractions
of the amplified boundary against the prepared weights), reconstruction of
the postselected initial-time distribution Q_(+/-)(x, p, 0) with its
conditional variances and uncertainty product, and a deterministic
quadrature oracle for the same quantities.

The oracle never touches trajectories.  The backward path is an
Ornstein-Uhlenbeck relaxation, so conditioned on a boundary value x_f the
present value is Gaussian,

    x_0 | x_f ~ N(x_f e^(-g t_f), 1 - e^(-2 g t_f)),

and the postselected present-time density is

    M(x_0) ~ integral over selected x_f of P(x_f, t_f) K(x_0 | x_f),

with the linked p drawn from the analytic t = 0 conditional.  Moments of M
reduce to truncated-two-Gaussian moments (evaluated with scaled-erfc
hazards, stable for any separation), and the fringe shifts only the mean of
p, never its conditional second moment, so the p-variance needs just the
mean fringe amplitude under M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx

from . import model
from .atomic import fmt17, write_csv
from .stats import jackknife_replicates, jackknife_se

__all__ = [
    "BornEstimate",
    "PostselectionReport",
    "PostselectOracle",
    "born_fraction",
    "born_oracle",
    "postselect",
    "postselect_oracle",
    "oracle_qplus_bin_probs",
    "conditional_p_distribution",
    "default_qplus_edges",
    "write_qplus_csv",
]

def _norm_cdf(z):
    return 0.5 * (1.0 + erf(np.asarray(z) / math.sqrt(2.0)))


def _hazard(alpha):
    """phi(alpha)/Phi(alpha), stable for any alpha via the scaled erfc."""
    return math.sqrt(2.0 / math.pi) / erfcx(-np.asarray(alpha) / math.sqrt(2.0))


def _sign_value(sign):
    if sign in (1, +1, "+", "plus"):
        return 1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


@dataclass(frozen=True)
class BornEstimate:
    """Fraction of amplified boundary draws landing on the positive side."""

    f_plus: float
    se: float
    n_samples: int
    overlap_mass: float

    def to_dict(self):
        return {
            "f_plus": self.f_plus,
            "se": self.se,
            "n_samples": self.n_samples,
            "overlap_mass": self.overlap_mass,
        }


def _hill_overlap_mass(spec, cfg):
    """Probability mass of each boundary hill leaking past zero."""
    mu, sigma_f = model.boundary_hill(spec, cfg)
    return float(_norm_cdf(-mu / sigma_f))


def born_fraction(batch):
    """Empirical outcome fraction f_plus with its binomial standard error.

    Requires a measure-x run with well separated boundary hills; if more
    than 1e-3 of a hill's mass crosses zero the fraction is ill-defined and
    a warning is issued.  Boundary values exactly at zero count as +.
    """
    if batch.cfg.setting is not model.Setting.X:
        raise ValueError("born_fraction applies to measure-x runs (two-hill boundary)")
    overlap = _hill_overlap_mass(batch.spec, batch.cfg)
    if overlap > 1e-3:
        warnings.warn(
            f"boundary hills overlap (mass {overlap:.2e} past zero); "
            "the sign fraction no longer identifies the prepared weights",
            stacklevel=2,
        )
    boundary = batch.amplified_at(batch.cfg.n_steps)
    n = batch.n_samples
    f_plus = float(np.count_nonzero(boundary >= 0.0)) / n
    se = math.sqrt(max(f_plus * (1.0 - f_plus), 1e-300) / n)
    return BornEstimate(f_plus=f_plus, se=se, n_samples=n, overlap_mass=overlap)


def born_oracle(spec, cfg):
    """Exact boundary mass on the positive side (two-hill quadrature)."""
    mu, sigma_f = model.boundary_hill(spec, cfg)
    alpha = mu / sigma_f
    return float(spec.c1_sq * _norm_cdf(alpha) + spec.c2_sq * _norm_cdf(-alpha))


@dataclass(frozen=True)
class PostselectionReport:
    """Conditional variances of the inferred t = 0 state, one outcome sign.

    var_x_cond and var_p_cond are the raw antinormal-subtracted values
    sigma^2 - 1 (no clamping; sampling noise may push them negative), and
    epsilon their geometric-mean uncertainty product, defined only when
    both are positive.
    """

    outcome_sign: int
    n_selected: int
    sigma_x2_sel: float
    sigma_p2_sel: float
    var_x_cond: float
    var_p_cond: float
    se_var_x: float
    se_var_p: float
    epsilon: float
    se_epsilon: float
    mean_x: float
    mean_p: float
    q_plus_hist: np.ndarray
    hist_x_edges: np.ndarray
    hist_p_edges: np.ndarray

    def to_dict(self):
        eps = None if not math.isfinite(self.epsilon) else self.epsilon
        se_eps = None if not math.isfinite(self.se_epsilon) else self.se_epsilon
        return {
            "outcome_sign": "+" if self.outcome_sign > 0 else "-",
            "n_selected": self.n_selected,
            "sigma_x2_sel": self.sigma_x2_sel,
            "sigma_p2_sel": self.sigma_p2_sel,
            "var_x_cond": self.var_x_cond,
            "var_p_cond": self.var_p_cond,
            "se_var_x": self.se_var_x,
            "se_var_p": self.se_var_p,
            "epsilon": eps,
            "se_epsilon": se_eps,
            "mean_x": self.mean_x,
            "mean_p": self.mean_p,
        }


def default_qplus_edges(spec, n_bins=60, n_sigma=6.0):
    """Histogram edges covering the initial-time support of the state."""
    sx2, sp2, _ = model.packet(spec, 0.0)
    x_max = spec.x1 + n_sigma * math.sqrt(sx2)
    p_max = n_sigma * math.sqrt(sp2)
    return np.linspace(-x_max, x_max, n_bins + 1), np.linspace(-p_max, p_max, n_bins + 1)


def _select(batch, sign):
    """(sign, mask) of the rows whose amplified outcome has the given sign.

    Conditional statistics need at least 1000 selected rows.
    """
    sgn = _sign_value(sign)
    boundary = batch.amplified_at(batch.cfg.n_steps)
    sel = boundary >= 0.0 if sgn > 0 else boundary < 0.0
    n_selected = int(sel.sum())
    if n_selected < 1000:
        raise ValueError(
            f"only {n_selected} trajectories selected; conditional statistics need >= 1000"
        )
    return sgn, sel


def postselect(batch, sign="+", n_blocks=100, hist_edges=None):
    """Condition the linked ensemble on the sign of the amplified outcome.

    Gathers the linked (x(0), p(0)) pairs of the selected rows, reports the
    antinormal-subtracted conditional variances, the uncertainty product
    epsilon, and a 2-D histogram of the inferred initial-time distribution.
    """
    sgn, sel = _select(batch, sign)
    x0 = batch.x_at(0)[sel]
    p0 = batch.p_at(0)[sel]
    mean_x, var_x, _, varx_del = jackknife_replicates(x0, n_blocks)
    mean_p, var_p, _, varp_del = jackknife_replicates(p0, n_blocks)
    dx2 = var_x - 1.0
    dp2 = var_p - 1.0
    eps = math.sqrt(dx2 * dp2) if (dx2 > 0.0 and dp2 > 0.0) else float("nan")
    dx_del = varx_del - 1.0
    dp_del = varp_del - 1.0
    if np.all(dx_del > 0.0) and np.all(dp_del > 0.0):
        se_eps = jackknife_se(np.sqrt(dx_del * dp_del))
    else:
        se_eps = float("nan")
    if hist_edges is None:
        hist_edges = default_qplus_edges(batch.spec)
    x_edges, p_edges = hist_edges
    hist, _, _ = np.histogram2d(x0, p0, bins=[x_edges, p_edges])
    return PostselectionReport(
        outcome_sign=sgn,
        n_selected=len(x0),
        sigma_x2_sel=var_x,
        sigma_p2_sel=var_p,
        var_x_cond=dx2,
        var_p_cond=dp2,
        se_var_x=jackknife_se(varx_del),
        se_var_p=jackknife_se(varp_del),
        epsilon=eps,
        se_epsilon=se_eps,
        mean_x=mean_x,
        mean_p=mean_p,
        q_plus_hist=hist.astype(np.int64),
        hist_x_edges=np.asarray(x_edges),
        hist_p_edges=np.asarray(p_edges),
    )


def conditional_p_distribution(batch, sign, step, edges):
    """Histogram of the complementary (attenuated) quadrature over selected rows."""
    _, sel = _select(batch, sign)
    counts, _ = np.histogram(batch.attenuated_at(step)[sel], bins=edges)
    return counts.astype(np.int64)


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------


def _truncated_hill_moments(mu, sigma, sgn):
    """(mass, E[X], E[X^2]) of N(mu, sigma^2) restricted to sgn*X >= 0."""
    alpha = sgn * mu / sigma
    mass = float(_norm_cdf(alpha))
    lam = float(_hazard(alpha))
    # Moments of sgn*X, a normal with mean sgn*mu truncated to >= 0.
    m1 = sgn * mu + sigma * lam
    m2 = mu * mu + 2.0 * sgn * mu * sigma * lam + sigma * sigma * (1.0 - alpha * lam)
    return mass, sgn * m1, m2


@dataclass(frozen=True)
class PostselectOracle:
    """Quadrature values of the postselected initial-time moments."""

    outcome_sign: int
    selected_mass: float
    mean_x: float
    var_x: float
    mean_p: float
    var_p: float
    var_x_cond: float
    var_p_cond: float
    epsilon: float

    def to_dict(self):
        return {
            "outcome_sign": "+" if self.outcome_sign > 0 else "-",
            "selected_mass": self.selected_mass,
            "mean_x": self.mean_x,
            "var_x": self.var_x,
            "mean_p": self.mean_p,
            "var_p": self.var_p,
            "var_x_cond": self.var_x_cond,
            "var_p_cond": self.var_p_cond,
            "epsilon": self.epsilon if math.isfinite(self.epsilon) else None,
        }


def _selected_boundary_moments(spec, cfg, sgn):
    """Mass, mean and second moment of x_f over the selected sign."""
    mu, sigma_f = model.boundary_hill(spec, cfg)
    total_mass = 0.0
    m1 = 0.0
    m2 = 0.0
    for w, center in ((spec.c1_sq, mu), (spec.c2_sq, -mu)):
        if w == 0.0:
            continue
        mass, e1, e2 = _truncated_hill_moments(center, sigma_f, sgn)
        total_mass += w * mass
        m1 += w * mass * e1
        m2 += w * mass * e2
    if total_mass <= 0.0:
        raise ValueError("selected boundary mass is zero")
    return total_mass, m1 / total_mass, m2 / total_mass


def _selected_boundary(spec, cfg, sgn, n_f):
    """Simpson nodes x_f over the selected side of the boundary, their
    weights, the boundary density P(x_f, t_f) there and its selected mass."""
    mu, sigma_f = model.boundary_hill(spec, cfg)
    hi = mu + 12.0 * sigma_f
    nodes = np.linspace(0.0, hi, n_f if n_f % 2 == 1 else n_f + 1)
    w = model.simpson_weights(len(nodes), nodes[1] - nodes[0])
    xf = sgn * nodes
    dens = np.add(*model.hills(spec, xf, mu, sigma_f**2))
    return xf, w, dens, float(w @ dens)


def _mean_fringe_amp_selected(spec, cfg, sgn, n_f=2001, n_z=64):
    """E[amp(x_0)] over the postselected present-time distribution.

    Double quadrature: composite Simpson over the truncated boundary hills,
    Gauss-Hermite over the backward-kernel noise x_0 = kappa x_f + s z.
    """
    kappa, s2 = model.ou_kernel(cfg.g, cfg.t_f)
    s = math.sqrt(s2)
    xf, w, dens, mass = _selected_boundary(spec, cfg, sgn, n_f)
    z, wz = np.polynomial.hermite_e.hermegauss(n_z)
    wz = wz / math.sqrt(2.0 * math.pi)
    if s > 0.0:
        x0 = kappa * xf[:, None] + s * z[None, :]
        amp = model.conditional_fringe_amp(spec, x0)
        mean_amp_given_f = amp @ wz
    else:
        mean_amp_given_f = model.conditional_fringe_amp(spec, kappa * xf)
    return float(w @ (dens * mean_amp_given_f)) / mass


def postselect_oracle(spec, cfg, sign="+"):
    """Deterministic moments of the postselected t = 0 distribution.

    x moments follow from truncated-hill boundary moments pushed through
    the backward Gaussian kernel; p moments use sigma_p^2(0) and the mean
    conditional fringe amplitude (the fringe leaves the conditional second
    moment of p untouched).
    """
    sgn = _sign_value(sign)
    mass, ef1, ef2 = _selected_boundary_moments(spec, cfg, sgn)
    kappa, s2 = model.ou_kernel(cfg.g, cfg.t_f)
    mean_x = kappa * ef1
    var_x = kappa * kappa * (ef2 - ef1 * ef1) + s2
    sx2, sp2, _ = model.packet(spec, 0.0)
    b = spec.x1 / sx2
    big_c = b * sp2 * math.exp(-b * b * sp2 / 2.0)
    mean_amp = _mean_fringe_amp_selected(spec, cfg, sgn)
    mean_p = -big_c * mean_amp
    # E[p^2 | x] = sigma_p^2 exactly; only the mean is fringe-shifted.
    var_p = sp2 - mean_p * mean_p
    dx2 = var_x - 1.0
    dp2 = var_p - 1.0
    eps = math.sqrt(dx2 * dp2) if (dx2 > 0.0 and dp2 > 0.0) else float("nan")
    return PostselectOracle(
        outcome_sign=sgn,
        selected_mass=mass,
        mean_x=mean_x,
        var_x=var_x,
        mean_p=mean_p,
        var_p=var_p,
        var_x_cond=dx2,
        var_p_cond=dp2,
        epsilon=eps,
    )


def _present_time_density(spec, cfg, sgn, x_nodes, n_f=4001):
    """Postselected density M(x_0) on the given nodes, by quadrature."""
    kappa, s2 = model.ou_kernel(cfg.g, cfg.t_f)
    xf, w, dens, mass = _selected_boundary(spec, cfg, sgn, n_f)
    kern = model.gauss_pdf(x_nodes[:, None], kappa * xf[None, :], s2)
    return (kern @ (w * dens)) / mass


def oracle_qplus_bin_probs(spec, cfg, sign, x_edges, p_edges, nodes_per_bin=5):
    """Per-bin probabilities of the postselected Q_(+/-)(x, p, 0).

    The joint factorizes as M(x) [envelope(p) - amp(x) fringe(p)], so the
    bin integrals combine two x-profiles with two p-profiles.
    """
    sgn = _sign_value(sign)
    sx2, sp2, _ = model.packet(spec, 0.0)

    def x_profiles(x):
        m_x = _present_time_density(spec, cfg, sgn, x)
        return m_x, m_x * model.conditional_fringe_amp(spec, x)

    return model.fringe_bin_probs(x_edges, p_edges, x_profiles, sp2, spec.x1 / sx2, nodes_per_bin)


def write_qplus_csv(path, report):
    """Dump the postselected (x(0), p(0)) histogram: one row per occupied bin."""
    x, p = fmt17(report.hist_x_edges), fmt17(report.hist_p_edges)
    i, j = np.nonzero(report.q_plus_hist)
    block = (x[i], x[i + 1], p[j], p[j + 1], report.q_plus_hist[i, j])
    write_csv(path, ("x_lo", "x_hi", "p_lo", "p_hi", "count"), [block])
