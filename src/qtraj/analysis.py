"""Physics-level checks on linked trajectory ensembles.

Covers the outcome statistics of the completed measurement (sign fractions
of the amplified boundary against the prepared weights), reconstruction of
the postselected initial-time distribution Q_(+/-)(x, p, 0) with its
conditional variances and uncertainty product, and a deterministic
quadrature oracle for the same quantities.  All of it needs the two-hill
boundary of a measure-x run; model.boundary_hill refuses a measure-p one.

The sampled statistics each come in two steps: a picklable per-chunk part
(born_part, postselect_part), which engine.map_chunks runs where the chunk
was simulated, and a combine step (born_from_parts, postselect_from_parts)
in the calling process, which alone warns and refuses.  born_fraction and
postselect are the combine step of one whole batch.

The oracle never touches trajectories.  It describes one law, the selected
boundary law P(x_f, t_f) restricted to the chosen sign of x_f, by Simpson
nodes and weights over that side.  The backward path is an
Ornstein-Uhlenbeck relaxation, so conditioned on x_f the present value is
Gaussian,

    x_0 | x_f ~ N(x_f e^(-g t_f), 1 - e^(-2 g t_f)),

and every oracle quantity is that law pushed through this kernel: the x
moments, the postselected density M(x_0) of the bin integrals, and the mean
conditional fringe amplitude (Gauss-Hermite over the kernel noise).  The
linked p is drawn from the analytic t = 0 conditional, whose fringe shifts
only the mean of p, never its conditional second moment.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import model
from .atomic import fmt17, write_csv
from .stats import jackknife_replicates, jackknife_se

__all__ = [
    "BornEstimate",
    "PostselectionReport",
    "PostselectOracle",
    "born_fraction",
    "born_from_parts",
    "born_oracle",
    "born_part",
    "postselect",
    "postselect_from_parts",
    "postselect_part",
    "postselect_oracle",
    "oracle_qplus_bin_probs",
    "conditional_p_distribution",
    "default_qplus_edges",
    "write_qplus_csv",
]

# Simpson nodes across the selected boundary law.
_N_NODES = 4001


def _sign_value(sign):
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _epsilon(dx2, dp2):
    """Uncertainty product sqrt(dx2 dp2), elementwise; NaN unless every
    dx2 and dp2 is positive."""
    if np.all(np.greater(dx2, 0.0)) and np.all(np.greater(dp2, 0.0)):
        return np.sqrt(np.multiply(dx2, dp2))
    return np.full(np.shape(dx2), np.nan)


def _scalar_fields(report):
    """JSON dict of a report's dataclass fields: arrays left out, the outcome
    sign written '+'/'-', a non-finite epsilon or se_epsilon as null."""
    out = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            continue
        if field.name == "outcome_sign":
            value = "+" if value > 0 else "-"
        elif field.name in ("epsilon", "se_epsilon") and not math.isfinite(value):
            value = None
        out[field.name] = value
    return out


@dataclass(frozen=True)
class BornEstimate:
    """Fraction of amplified boundary draws landing on the positive side."""

    f_plus: float
    se: float
    n_samples: int
    overlap_mass: float

    to_dict = _scalar_fields


def born_part(batch):
    """One chunk's share of born_fraction: (rows with outcome >= 0, rows).

    Boundary values exactly at zero count as +.
    """
    boundary = batch.amplified_at(batch.cfg.n_steps)
    return int(np.count_nonzero(boundary >= 0.0)), batch.n_samples


def born_from_parts(spec, cfg, parts):
    """Outcome fraction f_plus with its binomial standard error, from the
    born_part of every chunk of a run.

    Requires a measure-x run with well separated boundary hills; if more
    than 1e-3 of a hill's mass crosses zero the fraction is ill-defined and
    a warning is issued, here, in the process that combines the parts.
    """
    mu, sigma_f = model.boundary_hill(spec, cfg)
    overlap = float(ndtr(-mu / sigma_f))
    if overlap > 1e-3:
        warnings.warn(
            f"boundary hills overlap (mass {overlap:.2e} past zero); "
            "the sign fraction no longer identifies the prepared weights",
            stacklevel=2,
        )
    n_plus, n = map(sum, zip(*parts))
    f_plus = float(n_plus) / n
    se = math.sqrt(max(f_plus * (1.0 - f_plus), 1e-300) / n)
    return BornEstimate(f_plus=f_plus, se=se, n_samples=n, overlap_mass=overlap)


def born_fraction(batch):
    """born_from_parts of a whole batch taken as one part."""
    return born_from_parts(batch.spec, batch.cfg, [born_part(batch)])


def born_oracle(spec, cfg):
    """Exact boundary mass on the positive side (two-hill quadrature)."""
    mu, sigma_f = model.boundary_hill(spec, cfg)
    alpha = mu / sigma_f
    return float(spec.c1_sq * ndtr(alpha) + spec.c2_sq * ndtr(-alpha))


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

    to_dict = _scalar_fields


def default_qplus_edges(spec, n_bins=60):
    """Histogram edges over the t = 0 support: packet centers +- 6 widths."""
    sx2, sp2, _ = model.packet(spec, 0.0)
    x_max = spec.x1 + 6.0 * math.sqrt(sx2)
    p_max = 6.0 * math.sqrt(sp2)
    return np.linspace(-x_max, x_max, n_bins + 1), np.linspace(-p_max, p_max, n_bins + 1)


def _selected(batch, sgn):
    """Mask of the rows whose amplified outcome has sign sgn; zero counts as +."""
    boundary = batch.amplified_at(batch.cfg.n_steps)
    return boundary >= 0.0 if sgn > 0 else boundary < 0.0


def _require_selected(n_selected):
    """Conditional statistics need at least 1000 selected rows."""
    if n_selected < 1000:
        raise ValueError(
            f"only {n_selected} trajectories selected; conditional statistics need >= 1000"
        )


def postselect_part(batch, sign, hist_edges):
    """One chunk's share of postselect: (x0, p0, hist).

    x0 and p0 are the linked x(0) and p(0) of the rows whose amplified
    outcome has the given sign, in row order; hist is their int64 2-D
    histogram on hist_edges = (x_edges, p_edges).
    """
    sel = _selected(batch, _sign_value(sign))
    x0 = batch.x_at(0)[sel]
    p0 = batch.p_at(0)[sel]
    hist, _, _ = np.histogram2d(x0, p0, bins=hist_edges)
    return x0, p0, hist.astype(np.int64)


def postselect_from_parts(parts, sign, hist_edges):
    """Condition a run on the sign of the amplified outcome, from the
    postselect_part of every chunk, in chunk order.

    The selected (x(0), p(0)) pairs of all parts are joined in order and the
    histograms summed, which is exact for integer counts.  Reports the
    antinormal-subtracted conditional variances, the uncertainty product
    epsilon, and the 2-D histogram of the inferred initial-time
    distribution; fewer than 1000 selected rows in total are refused.
    """
    sgn = _sign_value(sign)
    x_parts, p_parts, hists = zip(*parts)
    x0 = np.concatenate(x_parts)
    p0 = np.concatenate(p_parts)
    _require_selected(len(x0))
    mean_x, var_x, _, varx_del = jackknife_replicates(x0)
    mean_p, var_p, _, varp_del = jackknife_replicates(p0)
    dx2 = var_x - 1.0
    dp2 = var_p - 1.0
    x_edges, p_edges = hist_edges
    return PostselectionReport(
        outcome_sign=sgn,
        n_selected=len(x0),
        sigma_x2_sel=var_x,
        sigma_p2_sel=var_p,
        var_x_cond=dx2,
        var_p_cond=dp2,
        se_var_x=jackknife_se(varx_del),
        se_var_p=jackknife_se(varp_del),
        epsilon=float(_epsilon(dx2, dp2)),
        se_epsilon=jackknife_se(_epsilon(varx_del - 1.0, varp_del - 1.0)),
        mean_x=mean_x,
        mean_p=mean_p,
        q_plus_hist=sum(hists),
        hist_x_edges=np.asarray(x_edges),
        hist_p_edges=np.asarray(p_edges),
    )


def postselect(batch, sign="+", hist_edges=None):
    """postselect_from_parts of a whole batch taken as one part; hist_edges
    default to default_qplus_edges of the batch's spec."""
    if hist_edges is None:
        hist_edges = default_qplus_edges(batch.spec)
    return postselect_from_parts([postselect_part(batch, sign, hist_edges)], sign, hist_edges)


def conditional_p_distribution(batch, sign, step, edges):
    """Histogram of the complementary (attenuated) quadrature over selected rows."""
    sel = _selected(batch, _sign_value(sign))
    _require_selected(int(np.count_nonzero(sel)))
    counts, _ = np.histogram(batch.attenuated_at(step)[sel], bins=edges)
    return counts.astype(np.int64)


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------


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

    to_dict = _scalar_fields


def _selected_law(spec, cfg, sgn):
    """(x_f, weights, mass): the boundary law P(x_f, t_f) on the side
    sgn*x_f >= 0, as Simpson nodes x_f with weights w P(x_f, t_f) / mass.

    The nodes span the union of center +- 12 sigma_f over the hills that
    carry weight and reach the selected side, clipped at zero.
    """
    mu, sigma_f = model.boundary_hill(spec, cfg)
    spans = [
        (max(0.0, c - 12.0 * sigma_f), c + 12.0 * sigma_f)
        for w, c in ((spec.c1_sq, sgn * mu), (spec.c2_sq, -sgn * mu))
        if w > 0.0 and c + 12.0 * sigma_f > 0.0
    ]
    if spans:
        lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)
        nodes, step = np.linspace(lo, hi, _N_NODES, retstep=True)
        x_f = sgn * nodes
        weights = model.simpson_weights(_N_NODES, step) * np.add(
            *model.hills(spec, x_f, mu, sigma_f**2)
        )
        mass = float(weights.sum())
        if mass > 0.0:
            return x_f, weights / mass, mass
    raise ValueError("selected boundary mass is zero")


def postselect_oracle(spec, cfg, sign="+"):
    """Deterministic moments of the postselected t = 0 distribution.

    x moments are those of the selected boundary law pushed through the
    backward Gaussian kernel; p moments use sigma_p^2(0) and the mean
    conditional fringe amplitude (the fringe leaves the conditional second
    moment of p untouched).
    """
    sgn = _sign_value(sign)
    x_f, w, mass = _selected_law(spec, cfg, sgn)
    kappa, s2 = model.ou_kernel(cfg.t_f)
    mean_f = float(w @ x_f)
    mean_x = kappa * mean_f
    var_x = kappa * kappa * float(w @ (x_f - mean_f) ** 2) + s2
    # E[amp(x_0)]: Gauss-Hermite over the kernel noise x_0 = kappa x_f + s z,
    # one noise node at a time, so no (nodes x 64) array is held.
    z, wz = np.polynomial.hermite_e.hermegauss(64)
    s = math.sqrt(s2)
    amp = sum(wk * model.conditional_fringe_amp(spec, kappa * x_f + s * zk)
              for zk, wk in zip(z, wz))
    mean_amp = float(w @ amp) / math.sqrt(2.0 * math.pi)
    sp2 = model.packet(spec, 0.0)[1]
    mean_p = model.fringe_mean_p(mean_amp, model.fringe_p(spec, 0.0)[2], sp2)
    # E[p^2 | x] = sigma_p^2 exactly; only the mean is fringe-shifted.
    var_p = sp2 - mean_p * mean_p
    dx2 = var_x - 1.0
    dp2 = var_p - 1.0
    return PostselectOracle(
        outcome_sign=sgn,
        selected_mass=mass,
        mean_x=mean_x,
        var_x=var_x,
        mean_p=mean_p,
        var_p=var_p,
        var_x_cond=dx2,
        var_p_cond=dp2,
        epsilon=float(_epsilon(dx2, dp2)),
    )


def oracle_qplus_bin_probs(spec, cfg, sign, x_edges, p_edges):
    """Per-bin probabilities of the postselected Q_(+/-)(x, p, 0).

    The joint factorizes as M(x) [envelope(p) - amp(x) fringe(p)], so the
    bin integrals (Simpson, 5 nodes per bin per axis) combine two x-profiles
    with Q's two t = 0 p-profiles from model.separable_q; M is the selected
    boundary law pushed through the backward kernel, a Gaussian of variance
    1 - e^(-2 t_f) > 0 for every run, so M is smooth across x = 0.
    """
    x_f, w, _ = _selected_law(spec, cfg, _sign_value(sign))
    kappa, s2 = model.ou_kernel(cfg.t_f)

    def x_profiles(x):
        m_x = model.gauss_pdf(x[:, None], kappa * x_f[None, :], s2) @ w
        return m_x, m_x * model.conditional_fringe_amp(spec, x)

    p_profiles = model.separable_q(spec, 0.0)[1]
    return model.fringe_bin_probs(x_edges, p_edges, x_profiles, p_profiles, 5)


def write_qplus_csv(path, report):
    """Dump the postselected (x(0), p(0)) histogram: one row per occupied bin."""
    x, p = fmt17(report.hist_x_edges), fmt17(report.hist_p_edges)
    i, j = np.nonzero(report.q_plus_hist)
    block = (x[i], x[i + 1], p[j], p[j + 1], report.q_plus_hist[i, j])
    write_csv(path, ("x_lo", "x_hi", "p_lo", "p_hi", "count"), [block])
