"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdict lines as they complete.  Every tolerance is pinned here, not
calibrated at run time.

Two known-red items are implemented faithfully and left to fail rather
than weakened (details in their assertion messages): the joint-density
chi-squared equivalence for the interference-dominated microscopic
superposition (criterion 1), and the 4-sigma sub-unity detection of the
uncertainty product at the two largest packet separations (criterion 6),
where the analytic product sits within ~6e-5 of one, far below the
resolving power of 1e6 samples.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qtraj import analysis, model, stats
from qtraj.engine import simulate
from qtraj.model import MeasurementConfig, Setting, SuperpositionSpec
from qtraj.sampler import RngStream, sample_fringe

SEED = 20240817


def cfg_gtf(gtf, steps, n, seed, setting=Setting.X):
    return MeasurementConfig.from_gtf(gtf, steps, setting=setting, n_samples=n, seed=seed)


def report(number, name, ok, detail, *, claim):
    """Print a criterion's verdict line, naming the number of the abstract's
    claim it checks in README's "Claims" table; claim None marks a check of
    the implementation that no claim of the abstract states."""
    verdict = "PASS" if ok else "FAIL"
    about = "no claim, implementation" if claim is None else f"claim {claim}"
    print(f"ACCEPTANCE {number} [{name}] ({about}): {verdict} ({detail})")
    return ok


def test_criterion_1_chi2_equivalence_desk_scale():
    # N_s = 2e5, g dt = 0.1, 30 steps, r = 2, x1 = 1, dx = 0.1, dp = 0.2,
    # populations below 10 discarded; PASS iff chi2_bar in k +- 3 sqrt(2k)
    # within 60 s.
    spec = SuperpositionSpec(0.5, 1.0, 2.0)
    cfg = cfg_gtf(3.0, 30, 200_000, seed=SEED)
    t0 = time.time()
    grid = stats.Grid3.auto(spec, cfg, dx=0.1, dp=0.2)
    binned = stats.accumulate_counts(spec, cfg, grid)
    probs = stats.analytic_bin_probs(spec, cfg, grid)
    rep = stats.chi2_time_averaged(binned, probs)
    runtime = time.time() - t0
    detail = (
        f"chi2_bar={rep.chi2_bar:.1f} k={rep.k:.1f} "
        f"band=[{rep.band_lo:.1f}, {rep.band_hi:.1f}] runtime={runtime:.1f}s"
    )
    ok = rep.passed and runtime < 60.0
    report(1, "chi2 equivalence, desk scale", ok, detail, claim=1)
    assert runtime < 60.0
    assert rep.passed, (
        f"{detail}; the linked backward/forward ensemble cannot allocate the "
        "interference term of the analytic density across x at interior times "
        "(any positive pairing bounds the conditional fringe visibility below "
        "the analytic value 1 at the inter-packet midpoint), so the "
        "fringe-dominated microscopic state r=2, x1=1 exceeds the band at "
        "0 < t < t_f; the same pipeline passes for the mixture and for "
        "macroscopic separations (see test_stats end-to-end cases)."
    )


@pytest.mark.paperscale
@pytest.mark.skipif(
    os.environ.get("QTRAJ_PAPER_SCALE") != "1",
    reason="long-running full-resolution verification; set QTRAJ_PAPER_SCALE=1",
)
def test_criterion_1_chi2_equivalence_paper_scale():
    spec = SuperpositionSpec(0.5, 1.0, 2.0)
    cfg = cfg_gtf(3.0, 30, 2_000_000, seed=SEED)
    grid = stats.Grid3.auto(spec, cfg, dx=0.02, dp=0.05)
    binned = stats.accumulate_counts(spec, cfg, grid)
    probs = stats.analytic_bin_probs(spec, cfg, grid)
    rep = stats.chi2_time_averaged(binned, probs)
    detail = f"chi2_bar={rep.chi2_bar:.0f} k={rep.k:.0f} band_hi={rep.band_hi:.0f}"
    report(1, "chi2 equivalence, paper scale", rep.passed, detail, claim=1)
    # comparison scale: tens of thousands of significant bins per step
    assert 3e4 < rep.k < 9e4, detail
    assert rep.passed, detail


def test_criterion_2_born_rule():
    # c1_sq in {0.5, 0.3, 0.1}, x1 = 4, r = 2, g t_f = 4, N = 1e6:
    # |f_plus - c1_sq| < 3 sqrt(c (1 - c) / N), each run inside 30 s.
    failures = []
    details = []
    for i, c1_sq in enumerate((0.5, 0.3, 0.1)):
        spec = SuperpositionSpec(c1_sq, 4.0, 2.0)
        cfg = cfg_gtf(4.0, 40, 1_000_000, seed=SEED + 10 + i)
        t0 = time.time()
        batch = simulate(spec, cfg, store_steps=(0, 40))
        est = analysis.born_fraction(batch)
        runtime = time.time() - t0
        bound = 3.0 * math.sqrt(c1_sq * (1.0 - c1_sq) / cfg.n_samples)
        ok = abs(est.f_plus - c1_sq) < bound and runtime < 30.0
        details.append(f"c1_sq={c1_sq}: f_plus={est.f_plus:.5f} bound={bound:.1e} t={runtime:.0f}s")
        if not ok:
            failures.append(details[-1])
    report(2, "Born rule", not failures, "; ".join(details), claim=2)
    assert not failures, failures


def test_criterion_3_variance_dynamics():
    # sampled var_x(t), var_p(t) at every stored slice within 4 jackknife SE
    # of the antinormal gain laws, for r in {0, 2} and both settings, < 60 s.
    t0 = time.time()
    failures = []
    checked = 0
    for i, (r, setting) in enumerate(
        [(0.0, Setting.X), (0.0, Setting.P), (2.0, Setting.X), (2.0, Setting.P)]
    ):
        spec = SuperpositionSpec(0.5, 1.0, r)
        cfg = cfg_gtf(3.0, 30, 100_000, seed=SEED + 20 + i, setting=setting)
        batch = simulate(spec, cfg)
        for step in range(cfg.n_steps + 1):
            mom = stats.moment_summary(batch, step)
            ref = model.reference_moments(spec, step * cfg.dt, cfg)
            for var_name, sampled, expected in (
                ("x", mom["x"], ref.var_x),
                ("p", mom["p"], ref.var_p),
            ):
                checked += 1
                if abs(sampled.var - expected) >= 4.0 * sampled.se_var:
                    failures.append(
                        f"r={r} measure={setting.value} t={step * cfg.dt:.1f} "
                        f"var_{var_name}: {sampled.var:.4f} vs {expected:.4f} "
                        f"(se {sampled.se_var:.4f})"
                    )
    runtime = time.time() - t0
    ok = not failures and runtime < 60.0
    report(3, "variance dynamics", ok, f"{checked} slice checks, runtime={runtime:.0f}s", claim=1)
    assert runtime < 60.0
    assert not failures, failures


def test_criterion_4_fringe_marginal_and_postselection_invariance():
    # t = 0 marginal of p (r = 2, x1 = 1, N = 1e6, 50 bins) against the
    # analytic fringe profile at the 3-sigma chi-squared band, and the
    # (+)-conditioned histogram statistically equal to the unconditioned one.
    spec = SuperpositionSpec(0.5, 1.0, 2.0)
    cfg = cfg_gtf(3.0, 30, 1_000_000, seed=SEED + 30)
    batch = simulate(spec, cfg, store_steps=(0, 30))
    sp = model.fringe_p(spec, 0.0)[0]
    edges = np.linspace(-5 * sp, 5 * sp, 51)
    p0 = batch.p_at(0)
    counts_all, _ = np.histogram(p0, bins=edges)
    fine = np.linspace(edges[0], edges[-1], 50 * 20 + 1)
    dens = np.asarray(model.marginal_p(spec, fine))
    cell = np.array(
        [np.trapezoid(dens[i * 20 : i * 20 + 21], fine[i * 20 : i * 20 + 21]) for i in range(50)]
    )
    chi2, k = stats.chi2_counts_vs_probs(counts_all, cell, cfg.n_samples)
    band = 3.0 * math.sqrt(2.0 * k)
    ok_marginal = abs(chi2 - k) < band
    counts_plus = analysis.conditional_p_distribution(batch, "+", 0, edges)
    _, _, p_value = stats.two_sample_chi2(counts_plus, counts_all)
    ok_cond = p_value > 0.01
    detail = f"chi2={chi2:.1f} k={k} band=+-{band:.1f}; conditioned-vs-full p={p_value:.3f}"
    report(4, "fringe marginal + conditioning invariance", ok_marginal and ok_cond, detail, claim=1)
    assert ok_marginal, detail
    assert ok_cond, detail


def _scaled_p_cells(spec, edges, fine_per_bin=20, exact_cfg=None):
    n_bins = len(edges) - 1
    fine = np.linspace(edges[0], edges[-1], n_bins * fine_per_bin + 1)
    if exact_cfg is None:
        dens = np.asarray(model.marginal_p_amplified_scaled(spec, fine))
    else:
        scale = math.exp(exact_cfg.t_f)
        gtf = exact_cfg.sign * exact_cfg.t_f
        dens = np.asarray(model.marginal_p(spec, fine * scale, gtf)) * scale
    m = fine_per_bin
    return np.array(
        [np.trapezoid(dens[i * m : i * m + m + 1], fine[i * m : i * m + m + 1]) for i in range(n_bins)]
    )


def test_criterion_5_p_measurement_fringes():
    # cat alpha0 = 2, |g| t_f = 4: the scaled amplified-p boundary histogram
    # matches the asymptotic interference outcome law at the 3-sigma band.
    # The asymptotic law is tested at the desk-scale sample count: its
    # residual finite-gain visibility deficit (0.27% at g t = 4) is a real
    # analytic difference that 1e6 samples resolve near the interference
    # zeros, so the large-sample run is checked against the exact
    # finite-gain marginal instead (a strictly stronger simulation check).
    spec = SuperpositionSpec.cat(2.0)
    edges = np.linspace(-5.0, 5.0, 101)

    cfg_desk = cfg_gtf(4.0, 40, 200_000, seed=SEED + 43, setting=Setting.P)
    batch = simulate(spec, cfg_desk, store_steps=(0, 40))
    counts, _ = np.histogram(batch.p_at(40) / math.exp(4.0), bins=edges)
    cell_limit = _scaled_p_cells(spec, edges)
    chi2_a, k_a = stats.chi2_counts_vs_probs(counts, cell_limit, cfg_desk.n_samples)
    band_a = 3.0 * math.sqrt(2.0 * k_a)
    ok_a = abs(chi2_a - k_a) < band_a

    cfg_big = cfg_gtf(4.0, 40, 1_000_000, seed=SEED + 41, setting=Setting.P)
    batch_big = simulate(spec, cfg_big, store_steps=(0, 40))
    counts_big, _ = np.histogram(batch_big.p_at(40) / math.exp(4.0), bins=edges)
    cell_exact = _scaled_p_cells(spec, edges, exact_cfg=cfg_big)
    chi2_b, k_b = stats.chi2_counts_vs_probs(counts_big, cell_exact, cfg_big.n_samples)
    band_b = 3.0 * math.sqrt(2.0 * k_b)
    ok_b = abs(chi2_b - k_b) < band_b

    detail = (
        f"asymptotic law @2e5: chi2={chi2_a:.1f} k={k_a} band=+-{band_a:.1f}; "
        f"exact marginal @1e6: chi2={chi2_b:.1f} k={k_b} band=+-{band_b:.1f}"
    )
    report(5, "p-measurement fringes", ok_a and ok_b, detail, claim=1)
    assert ok_a, detail
    assert ok_b, detail


def _distance_from_one(value):
    """'1 - 6.1e-05' below one, '1 + ...' above it, '1 to rounding' within 1e-12."""
    gap = value - 1.0
    if abs(gap) < 1e-12:
        return "1 to rounding"
    return f"1 {'+' if gap > 0 else '-'} {abs(gap):.1e}"


def test_criterion_6_postselection_uncertainty_product():
    # r = 0, g t = 4, x1 in {1, 2, 4, 8}, N = 1e6 per point: epsilon < 1 at
    # >= 4 sigma each, monotone increasing toward 1, and each point within
    # 4 SE of the deterministic quadrature oracle.
    rows = []
    for i, x1 in enumerate((1.0, 2.0, 4.0, 8.0)):
        spec = SuperpositionSpec(0.5, x1, 0.0)
        cfg = cfg_gtf(4.0, 40, 1_000_000, seed=SEED + 50 + i)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        rep = analysis.postselect(batch, "+")
        oracle = analysis.postselect_oracle(spec, cfg, "+")
        z_below_one = (1.0 - rep.epsilon) / rep.se_epsilon
        rows.append((x1, rep, oracle, z_below_one))
        print(
            f"  x1={x1:3.0f}: epsilon={rep.epsilon:.5f} +- {rep.se_epsilon:.5f} "
            f"oracle={oracle.epsilon:.5f} z(below 1)={z_below_one:+.1f}"
        )
    failures = []
    for x1, rep, oracle, z in rows:
        if not (rep.epsilon < 1.0 and z >= 4.0):
            failures.append(
                f"x1={x1}: epsilon={rep.epsilon:.5f} (z={z:+.1f}) is not below one "
                f"at 4 sigma; the analytic product is {_distance_from_one(oracle.epsilon)}, "
                "unresolvable at N=1e6"
            )
        if abs(rep.epsilon - oracle.epsilon) >= 4.0 * rep.se_epsilon:
            failures.append(
                f"x1={x1}: sampled epsilon {rep.epsilon:.5f} vs oracle "
                f"{oracle.epsilon:.5f} beyond 4 SE ({rep.se_epsilon:.5f})"
            )
    eps_seq = [rep.epsilon for _, rep, _, _ in rows]
    if not all(a < b for a, b in zip(eps_seq, eps_seq[1:])):
        failures.append(
            f"sampled sequence not strictly increasing: {['%.5f' % e for e in eps_seq]} "
            "(the two largest separations differ by ~6e-5 analytically, below "
            "sampling resolution)"
        )
    report(6, "postselection uncertainty product", not failures, f"{len(rows)} points", claim=7)
    assert not failures, failures


def test_criterion_7_determinism_across_workers(tmp_path, child_env):
    # identical seed and config give byte-identical CSV output for 1, 2
    # and 8 workers.
    import hashlib

    env = child_env()
    digests = set()
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        rc = subprocess.run(
            [
                sys.executable, "-m", "qtraj.cli", "simulate",
                "--n", "36864", "--gtf", "2", "--dt", "0.1", "--seed", str(SEED),
                "--workers", str(workers), "--out-dir", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert rc.returncode == 0, rc.stderr
        digest = hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest()
        digests.add(digest)
    ok = len(digests) == 1
    report(7, "determinism across workers", ok, f"{len(digests)} distinct digest(s)", claim=None)
    assert ok


def test_criterion_8_sampler_exactness():
    # KS p-value > 0.01 at N = 1e5 over a 3x3 (r, x1) grid, and the
    # multinomial chi-squared self-test inside the band in >= 99/100 runs.
    from scipy.stats import kstest

    failures = []
    for i, r in enumerate((0.0, 1.0, 2.0)):
        for j, x1 in enumerate((0.5, 1.0, 2.0)):
            spec = SuperpositionSpec(0.5, x1, r)
            sigma, amp, freq = model.fringe_p(spec, 0.0)
            values, _ = sample_fringe(
                sigma, amp, freq, RngStream(SEED + 60, 3 * i + j).generator(), size=100_000
            )
            grid_v = np.linspace(-10 * sigma, 10 * sigma, 40_001)
            dens = np.exp(-grid_v**2 / (2 * sigma**2)) * (1 - amp * np.sin(freq * grid_v))
            cdf = np.concatenate(
                [[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid_v))]
            )
            cdf /= cdf[-1]
            p_value = kstest(values, lambda v: np.interp(v, grid_v, cdf)).pvalue
            if p_value <= 0.01:
                failures.append(f"KS r={r} x1={x1}: p={p_value:.4f}")

    spec = SuperpositionSpec(0.5, 1.0, 2.0)
    cfg = cfg_gtf(3.0, 30, 200_000, seed=SEED)
    grid = stats.Grid3.auto(spec, cfg, dx=0.1, dp=0.2, t_steps=(0, 10, 20, 30))
    probs = stats.analytic_bin_probs(spec, cfg, grid)
    rng = np.random.default_rng(SEED + 61)
    passes = 0
    for _ in range(100):
        counts = []
        for p in probs:
            flat = p.ravel()
            rest = max(0.0, 1.0 - flat.sum())
            pvals = np.append(flat, rest)
            draw = rng.multinomial(cfg.n_samples, pvals / pvals.sum())
            counts.append(draw[:-1].reshape(p.shape))
        binned = stats.BinnedCounts(grid, counts, cfg.n_samples)
        if stats.chi2_time_averaged(binned, probs).passed:
            passes += 1
    if passes < 99:
        failures.append(f"multinomial self-test passed only {passes}/100")
    report(8, "sampler exactness", not failures, f"KS grid 3x3, multinomial {passes}/100",
           claim=None)
    assert not failures, failures


def test_criterion_9_hidden_vacuum_noise():
    # Claim 3, the "hidden" vacuum noise that is not amplified.  At a
    # macroscopic x1 (x1 = 4, r = 2, g t_f = 3, N = 2e5, measure x) the rows
    # whose boundary came from one hill hold x(t) ~ N(+-e^(gt) x1,
    # 1 + e^(2(gt - r))) at every t: the 1 is the vacuum term.  No row's hill
    # label may differ from its outcome sign, and per outcome and stored
    # slice var(x) - e^(2(gt - r)) lies within 4 jackknife SE of 1 and the
    # mean within 4 SE of +-e^(gt) x1.
    spec = SuperpositionSpec(0.5, 4.0, 2.0)
    cfg = cfg_gtf(3.0, 30, 200_000, seed=SEED + 70)
    steps = (0, 5, 10, 15, 20, 30)
    batch = simulate(spec, cfg, workers=2, store_steps=steps)
    outcome = np.where(batch.x_at(cfg.n_steps) >= 0.0, 1, -1)
    mislabelled = int(np.count_nonzero(batch.boundary_hill != outcome))
    failures = []
    worst = 0.0
    for sign in (1, -1):
        for step in steps:
            gt = step * cfg.dt
            mom = stats.jackknife_mean_var(batch.x_at(step)[outcome == sign])
            vacuum = mom.var - math.exp(2.0 * (gt - spec.r))
            z_vacuum = (vacuum - 1.0) / mom.se_var
            z_mean = (mom.mean - sign * math.exp(gt) * spec.x1) / mom.se_mean
            worst = max(worst, abs(z_vacuum), abs(z_mean))
            if max(abs(z_vacuum), abs(z_mean)) >= 4.0:
                failures.append(
                    f"outcome {sign:+d} t={gt:.1f}: vacuum {vacuum:.4f} (z {z_vacuum:.2f}), "
                    f"mean z {z_mean:.2f}"
                )
    ok = mislabelled == 0 and not failures
    detail = (f"{2 * len(steps)} outcome slices, worst |z|={worst:.2f}, "
              f"{mislabelled} mislabelled rows")
    report(9, "hidden vacuum noise (claim 3)", ok, detail, claim=3)
    assert mislabelled == 0, detail
    assert not failures, failures
