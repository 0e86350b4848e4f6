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
in the calling process, which alone warns and refuses.  The combine steps
walk their parts once, so the parts may come from a generator.  A postselect
part holds no selected row: its jackknife blocks are cut on the run's row
index, known before any chunk runs, so each chunk ships the count, mean and
sum of squared deviations of its selected x(0) and p(0) in each block it
touches, and the combine merges each block's pieces in chunk order
(Chan, Golub and LeVeque's pairwise update).  Its cost follows the blocks,
not the rows, and its bits the chunks, not the workers.  born_fraction and
postselect are the combine step of one whole batch, postselect over the
batch's chunks.  A part's q+ histogram is counted by stats.lattice_counts,
the counter verify bins by, on edges that stats.lattice_edges admits;
oracle_qplus_bin_probs checks its edges by the same rule.

The oracle never touches trajectories.  The backward path is an
Ornstein-Uhlenbeck relaxation, so conditioned on the boundary x_f the
present value is Gaussian,

    x_0 | x_f ~ N(x_f e^(-g t_f), 1 - e^(-2 g t_f)),

and the boundary law P(x_f, t_f) restricted to the chosen sign of x_f,
pushed through this kernel, has a closed-form density M(x_0), one Gaussian
times one normal CDF per hill.  Every oracle quantity is a Simpson integral
against M over panels of x_0 cut at M's steps, and at its hills where x1
is large against their width: the x moments and the mean
conditional fringe amplitude, and the bin integrals of M and M amp, whose
panels are also cut at the bin edges.  The selected mass is born_oracle's
formula.  The linked p is drawn from the analytic t = 0
conditional, whose fringe shifts only the mean of p, never its conditional
second moment.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import model, stats
from .atomic import fmt17, write_counts_csv

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

# Simpson nodes per panel of the postselected density M(x_0).
_N_NODES = 4001

# A pushed boundary hill narrower than this many node spacings of one panel
# across M's whole range gets a panel of its own: at two spacings (x1 = 1e3,
# r = 2, g t_f = 3) the lattice put var_x 7.5e-8 off.
_HILL_SPACINGS = 4


def _sign_value(sign):
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _conditional(var_x, var_p):
    """(var_x_cond, var_p_cond, epsilon) of the selected variances, elementwise:
    the antinormal-subtracted dx2 = var_x - 1 and dp2 = var_p - 1 and their
    uncertainty product sqrt(dx2 dp2), NaN unless every dx2 and dp2 is
    positive."""
    dx2, dp2 = var_x - 1.0, var_p - 1.0
    if np.all(np.greater(dx2, 0.0)) and np.all(np.greater(dp2, 0.0)):
        return dx2, dp2, np.sqrt(np.multiply(dx2, dp2))
    return dx2, dp2, np.full(np.shape(dx2), np.nan)


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
    return int(np.count_nonzero(_selected(batch, 1))), batch.n_samples


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
    n_plus = n = 0
    for part_plus, part_n in parts:
        n_plus += part_plus
        n += part_n
    if n == 0:
        raise ValueError("no rows to count: the outcome fraction of 0 rows is undefined")
    f_plus = float(n_plus) / n
    se = math.sqrt(max(f_plus * (1.0 - f_plus), 1e-300) / n)
    return BornEstimate(f_plus=f_plus, se=se, n_samples=n, overlap_mass=overlap)


def born_fraction(batch):
    """born_from_parts of a whole batch taken as one part."""
    return born_from_parts(batch.spec, batch.cfg, [born_part(batch)])


def _selected_mass(spec, mu, sigma_f, sgn):
    """Boundary mass on the side sgn*x_f >= 0 of the hills at +-mu, width sigma_f."""
    alpha = sgn * mu / sigma_f
    return float(spec.c1_sq * ndtr(alpha) + spec.c2_sq * ndtr(-alpha))


def born_oracle(spec, cfg):
    """Exact boundary mass on the positive side (two-hill quadrature)."""
    return _selected_mass(spec, *model.boundary_hill(spec, cfg), 1)


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
    """Mask of the rows whose amplified outcome has sign sgn; zero counts as +.
    model.boundary_hill refuses the rows of a measure-p run."""
    model.boundary_hill(batch.spec, batch.cfg)
    boundary = batch.amplified_at(batch.cfg.n_steps)
    return boundary >= 0.0 if sgn > 0 else boundary < 0.0


def _require_selected(n_selected):
    """Conditional statistics need at least 1000 selected rows."""
    if n_selected < 1000:
        raise ValueError(
            f"only {n_selected} trajectories selected; conditional statistics need >= 1000"
        )


def postselect_part(batch, sign, hist_edges):
    """One chunk's share of postselect: (hist, x_blocks, p_blocks).

    The rows whose amplified outcome has the given sign are reduced where
    the chunk ran.  x_blocks and p_blocks are the stats.block_moments of
    their linked x(0) and p(0) in each jackknife block they fall in, the
    blocks cut on the run's row index (stats.jackknife_bounds of
    cfg.n_samples, the rows placed by batch.first_row).  hist is their 2-D
    histogram, stats.lattice_counts on hist_edges = (x_edges, p_edges), in
    np.min_scalar_type of the selected count; edges that are not a uniform
    lattice, as default_qplus_edges makes one, are refused by
    stats.lattice_edges.
    """
    sel = _selected(batch, _sign_value(sign))
    x0 = batch.x_at(0)[sel]
    p0 = batch.p_at(0)[sel]
    # The run's block bounds as rows of this chunk, clipped to it: the
    # selected rows before each bound count each block's share.
    bounds = stats.jackknife_bounds(batch.cfg.n_samples) - batch.first_row
    counts = np.diff(np.searchsorted(np.flatnonzero(sel), bounds.clip(0, batch.n_samples)))
    hist = stats.lattice_counts(x0, p0, *stats.lattice_edges(*hist_edges))
    return hist, stats.block_moments(x0, counts), stats.block_moments(p0, counts)


def postselect_from_parts(parts, sign, hist_edges):
    """Condition a run on the sign of the amplified outcome, from the
    postselect_part of every chunk, in chunk order.

    The parts are walked once, so parts may be a generator: each histogram
    is added into one int64 total, exact for integer counts, and each
    block's moments into that block's, merged in part order, so the combine
    holds one histogram and at most JACKKNIFE_BLOCKS moments, whatever the
    rows.  Reports the antinormal-subtracted conditional variances, the
    uncertainty product epsilon with delete-one-block jackknife errors
    (blocks that no selected row falls in drop out), and the 2-D histogram
    of the inferred initial-time distribution; fewer than 1000 selected
    rows in total are refused.
    """
    sgn = _sign_value(sign)
    x_edges, p_edges = hist_edges
    hist = np.zeros((len(x_edges) - 1, len(p_edges) - 1), dtype=np.int64)
    x_blocks, p_blocks = {}, {}
    for counts, *columns in parts:
        hist += counts
        for held, blocks in zip((x_blocks, p_blocks), columns):
            for b, moments in blocks.items():
                held[b] = stats.merge_moments(held.get(b, (0, 0.0, 0.0)), moments)
    n_selected = sum(n for n, _, _ in x_blocks.values())
    _require_selected(n_selected)
    mean_x, var_x, _, varx_del = stats.jackknife_moments(x_blocks[b] for b in sorted(x_blocks))
    mean_p, var_p, _, varp_del = stats.jackknife_moments(p_blocks[b] for b in sorted(p_blocks))
    dx2, dp2, eps = _conditional(var_x, var_p)
    return PostselectionReport(
        outcome_sign=sgn,
        n_selected=n_selected,
        sigma_x2_sel=var_x,
        sigma_p2_sel=var_p,
        var_x_cond=dx2,
        var_p_cond=dp2,
        se_var_x=stats.jackknife_se(varx_del),
        se_var_p=stats.jackknife_se(varp_del),
        epsilon=float(eps),
        se_epsilon=stats.jackknife_se(_conditional(varx_del, varp_del)[2]),
        mean_x=mean_x,
        mean_p=mean_p,
        q_plus_hist=hist,
        hist_x_edges=np.asarray(x_edges),
        hist_p_edges=np.asarray(p_edges),
    )


def postselect(batch, sign="+", hist_edges=None):
    """postselect_from_parts of the batch's parts, one per run chunk it
    holds (batch.chunks()), so a whole run gives the postselect command's
    bits; hist_edges default to default_qplus_edges of the batch's spec."""
    if hist_edges is None:
        hist_edges = default_qplus_edges(batch.spec)
    parts = (postselect_part(chunk, sign, hist_edges) for chunk in batch.chunks())
    return postselect_from_parts(parts, sign, hist_edges)


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


def _selected_density(spec, cfg, sgn):
    """(M, breaks, mass): the density M(x_0) of the present value x_0 of the
    rows whose boundary x_f has sign sgn, the bounds of the Simpson panels
    that resolve it, and the boundary mass on that side.

    A hill N(x_f; c, sigma_f^2) cut at sgn*x_f >= 0 and pushed through the
    kernel x_0 | x_f ~ N(kappa x_f, s^2) is N(x_0; kappa c, v) Phi(sgn m / tau),
    with v = kappa^2 sigma_f^2 + s^2 and x_f | x_0 ~ N(m, tau^2) its
    posterior; M is the weighted sum over the two hills divided by the mass.
    It lies within reach, 14 widths sqrt(v) beyond the pushed centres
    kappa * (+-mu).  Each hill's Phi steps at x_0 = -+mu s^2 / (kappa
    sigma_f^2) over a width v_tau / (kappa sigma_f^2), which shrinks with s
    as the horizon shortens, so the range is always cut 14 widths either side
    of each step, every cut clipped to +-reach: each step that lies in range
    has a panel of its own, and no panel is wider than the whole range.
    Where the pushed hills are narrower than _HILL_SPACINGS node spacings of
    one panel across +-reach, x1 being large against sqrt(v), the range is
    also cut 14 widths either side of each pushed centre, so each hill has a
    panel of its own.  A mass that underflows to zero is refused, and so is
    a hill so far out that float64 places the nodes of its panel to worse
    than 2**-23 of their spacing.
    """
    mu, sigma_f = model.boundary_hill(spec, cfg)
    mass = _selected_mass(spec, mu, sigma_f, sgn)
    if mass == 0.0:
        raise ValueError("selected boundary mass is zero")
    kappa, s2 = model.ou_kernel(cfg.t_f)
    v = (kappa * sigma_f) ** 2 + s2
    v_tau = sigma_f * math.sqrt(s2 * v)

    def density(x_0):
        pull = kappa * sigma_f * sigma_f * x_0
        plus, minus = model.hills(spec, x_0, kappa * mu, v)
        return (plus * ndtr(sgn * (mu * s2 + pull) / v_tau)
                + minus * ndtr(sgn * (pull - mu * s2) / v_tau)) / mass

    span = 14.0 * math.sqrt(v)
    reach = kappa * mu + span
    if math.ulp(reach) > 2.0**-23 * 2.0 * span / (_N_NODES - 1):
        raise ValueError(f"the selected hill, {math.sqrt(v):.3g} wide at x_0 = "
                         f"{kappa * mu:.3g}, is too narrow for float64 to resolve there")
    edge = mu * s2 / (kappa * sigma_f * sigma_f)
    width = v_tau / (kappa * sigma_f * sigma_f)
    cuts = np.add.outer([-edge, edge], [-14.0 * width, 14.0 * width])
    if math.sqrt(v) < _HILL_SPACINGS * 2.0 * reach / (_N_NODES - 1):
        cuts = np.append(cuts, np.add.outer([-kappa * mu, kappa * mu], [-span, span]))
    cuts = np.clip(cuts, -reach, reach)
    return density, np.unique(np.append([-reach, reach], cuts)), mass


def _simpson_panels(breaks):
    """Composite Simpson nodes and weights, _N_NODES per panel between breaks."""
    panels = [np.linspace(lo, hi, _N_NODES, retstep=True) for lo, hi in zip(breaks, breaks[1:])]
    weights = [model.simpson_weights(_N_NODES, h) for _, h in panels]
    return np.concatenate([x for x, _ in panels]), np.concatenate(weights)


def postselect_oracle(spec, cfg, sign="+"):
    """Deterministic moments of the postselected t = 0 distribution.

    x moments and the mean conditional fringe amplitude are Simpson integrals
    against the selected density M(x_0); p moments use sigma_p^2(0) and that
    mean amplitude (the fringe leaves the conditional second moment of p
    untouched).  The sums are numpy's pairwise np.sum, not BLAS dot
    products: above 10,000 elements OpenBLAS's ddot splits the sum over
    threads, which leaves a helper thread spinning after the call and makes
    the last bits depend on OPENBLAS_NUM_THREADS.  qtraj's own processes
    run one BLAS thread (see the package docstring), but a library caller
    that imported numpy first may run more, so the bits must not need it.
    """
    sgn = _sign_value(sign)
    density, breaks, mass = _selected_density(spec, cfg, sgn)
    x_0, w = _simpson_panels(breaks)
    w = w * density(x_0)
    mean_x = float(np.sum(w * x_0))
    var_x = float(np.sum(w * (x_0 - mean_x) ** 2))
    mean_amp = float(np.sum(w * model.conditional_fringe_amp(spec, x_0)))
    sp2 = model.packet(spec, 0.0)[1]
    mean_p = model.fringe_mean_p(mean_amp, model.fringe_p(spec, 0.0)[2], sp2)
    # E[p^2 | x] = sigma_p^2 exactly; only the mean is fringe-shifted.
    var_p = sp2 - mean_p * mean_p
    dx2, dp2, eps = _conditional(var_x, var_p)
    return PostselectOracle(
        outcome_sign=sgn,
        selected_mass=mass,
        mean_x=mean_x,
        var_x=var_x,
        mean_p=mean_p,
        var_p=var_p,
        var_x_cond=dx2,
        var_p_cond=dp2,
        epsilon=float(eps),
    )


def oracle_qplus_bin_probs(spec, cfg, sign, x_edges, p_edges):
    """Per-bin probabilities of the postselected Q_(+/-)(x, p, 0).

    The joint factorizes as M(x) [envelope(p) - amp(x) fringe(p)], so each
    bin integral combines two x-integrals (M, M amp) with Q's two t = 0
    p-profiles from model.separable_q.  Along x every bin is cut at the
    panel breaks of M, and each piece is a Simpson panel of its own, so a
    step of M narrower than a bin is resolved at any horizon; along p the
    profiles are smooth, and 5 Simpson nodes per bin integrate them.  Edges
    that are not a uniform lattice are refused by stats.lattice_edges.
    """
    x_edges, p_edges = stats.lattice_edges(x_edges, p_edges)
    density, breaks, _ = _selected_density(spec, cfg, _sign_value(sign))
    cuts = np.unique(np.append(x_edges, np.clip(breaks, x_edges[0], x_edges[-1])))
    x, w = _simpson_panels(cuts)
    m_x = w * density(x)
    amp_x = m_x * model.conditional_fringe_amp(spec, x)
    # Every panel lies inside one bin, the one its left end opens.
    owner = np.searchsorted(x_edges, cuts[:-1], side="right") - 1
    ia, ib = (np.bincount(owner, f.reshape(len(owner), _N_NODES).sum(axis=1), len(x_edges) - 1)
              for f in (m_x, amp_x))
    ie, ic = model.bin_integrals(p_edges, model.separable_q(spec, 0.0)[1], 5)
    return np.asarray(model.SeparableBins(ia, ib, ie, ic))


def write_qplus_csv(path, report):
    """Dump the postselected (x(0), p(0)) histogram: one row per occupied bin."""
    edges = fmt17(report.hist_x_edges), fmt17(report.hist_p_edges)
    write_counts_csv(path, ("x_lo", "x_hi", "p_lo", "p_hi", "count"),
                     [((), *edges, report.q_plus_hist)])
