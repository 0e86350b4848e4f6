"""Outcome-statistics and postselection tests, including the quadrature oracle."""

import dataclasses
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import truncnorm
from qtraj import analysis, model, stats
from qtraj.analysis import (
    born_fraction,
    born_oracle,
    conditional_p_distribution,
    oracle_qplus_bin_probs,
    postselect,
    postselect_oracle,
)
from qtraj.engine import CHUNK_ROWS, map_chunks, simulate
from qtraj.model import MeasurementConfig, Setting, SuperpositionSpec


def cfg_gtf(gtf, steps, n, seed, setting=Setting.X):
    return MeasurementConfig.from_gtf(gtf, steps, setting=setting, n_samples=n, seed=seed)


class TestBorn:
    def test_balanced_superposition(self):
        spec = SuperpositionSpec(0.5, 4.0, 2.0)
        cfg = cfg_gtf(4.0, 40, 200_000, seed=41)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        est = born_fraction(batch)
        assert abs(est.f_plus - 0.5) < 3 * est.se

    @pytest.mark.parametrize("c1_sq", [0.3, 0.1])
    def test_weighted_superposition(self, c1_sq):
        spec = SuperpositionSpec(c1_sq, 4.0, 2.0)
        cfg = cfg_gtf(4.0, 40, 200_000, seed=int(100 * c1_sq))
        batch = simulate(spec, cfg, store_steps=(0, 40))
        est = born_fraction(batch)
        assert abs(est.f_plus - c1_sq) < 3 * est.se
        # the exact boundary mass agrees with the prepared weight
        assert born_oracle(spec, cfg) == pytest.approx(c1_sq, abs=1e-9)

    def test_cat_scaled_histogram_matches_outcome_law(self):
        # full inferred-outcome distribution, not just the sign fraction
        spec = SuperpositionSpec.cat(2.0)
        cfg = cfg_gtf(4.0, 40, 400_000, seed=9)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        scaled = batch.amplified_at(40) / math.exp(4.0)
        edges = np.linspace(-8.0, 8.0, 81)
        counts, _ = np.histogram(scaled, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.asarray(model.scaled_x_marginal(spec, centers, cfg.sign * 4.0))
        probs = dens * np.diff(edges)
        chi2, k = stats.chi2_counts_vs_probs(counts, probs, cfg.n_samples)
        assert abs(chi2 - k) < 3 * math.sqrt(2 * k)

    def test_overlapping_hills_warn(self):
        spec = SuperpositionSpec(0.5, 0.2, 2.0)
        cfg = cfg_gtf(1.0, 10, 5000, seed=2)
        batch = simulate(spec, cfg, store_steps=(0, 10))
        with pytest.warns(UserWarning, match="overlap"):
            born_fraction(batch)

    def test_oracle_keeps_lower_tail(self):
        # c1_sq = 0: the positive side holds only the far tail of the -x1 hill
        spec = SuperpositionSpec(0.0, 7.0, 0.0)
        cfg = cfg_gtf(3.0, 30, 1, seed=0)
        mu, sigma_f = model.boundary_hill(spec, cfg)
        tail = 0.5 * math.erfc(mu / sigma_f / math.sqrt(2.0))
        assert born_oracle(spec, cfg) == pytest.approx(tail, rel=1e-12, abs=0)

    def test_requires_measure_x(self):
        spec = SuperpositionSpec(0.5, 4.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 2000, seed=3, setting=Setting.P)
        batch = simulate(spec, cfg, store_steps=(0, 20))
        with pytest.raises(ValueError):
            born_fraction(batch)

    def test_postselect_requires_measure_x(self):
        # conditioning on the sign of a measure-p boundary is refused too
        spec = SuperpositionSpec(0.5, 4.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 2000, seed=3, setting=Setting.P)
        batch = simulate(spec, cfg, store_steps=(0, 20))
        with pytest.raises(ValueError, match="measure-x"):
            postselect(batch)


class TestPostselect:
    def test_mixture_keeps_full_p_variance(self):
        # no fringe, no x-p link: conditional p variance is e^(2r) exactly
        spec = SuperpositionSpec(0.5, 4.0, 2.0, mixture=True)
        cfg = cfg_gtf(4.0, 40, 200_000, seed=12)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        report = postselect(batch, "+")
        assert abs(report.var_p_cond - math.exp(4.0)) < 4 * report.se_var_p

    def test_variance_errors_match_jackknife_mean_var(self):
        # every row selected (one hill, far from zero) in one chunk: the run's
        # blocks are the selected rows' own, so the errors are
        # jackknife_mean_var's bit for bit
        spec = SuperpositionSpec(1.0, 4.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 10_000, seed=4)
        batch = simulate(spec, cfg, store_steps=(0, 20))
        report = postselect(batch, "+")
        assert report.n_selected == cfg.n_samples
        assert report.se_var_x == stats.jackknife_mean_var(batch.x_at(0))[3]
        assert report.se_var_p == stats.jackknife_mean_var(batch.p_at(0))[3]
        # half the rows selected, over two chunks: the errors equal an
        # independent delete-one-block jackknife of np.var over the run's
        # 100 row blocks, with the blocks that no selected row falls in dropped
        spec = SuperpositionSpec.cat(1.0)
        cfg = cfg_gtf(2.0, 20, 20_000, seed=4)
        batch = simulate(spec, cfg, store_steps=(0, 20))
        report = postselect(batch, "+")
        rows = np.flatnonzero(batch.amplified_at(20) >= 0.0)
        bounds = np.linspace(0, cfg.n_samples, stats.JACKKNIFE_BLOCKS + 1).astype(int)
        block = np.searchsorted(bounds, rows, side="right") - 1
        x0, p0 = batch.x_at(0)[rows], batch.p_at(0)[rows]
        varx_del, varp_del = (np.array([np.var(v[block != b]) for b in np.unique(block)])
                              for v in (x0, p0))

        def se(replicates):
            k = len(replicates)
            return math.sqrt((k - 1) / k * np.sum((replicates - replicates.mean()) ** 2))

        assert report.se_var_x == pytest.approx(se(varx_del), rel=1e-12, abs=0)
        assert report.se_var_p == pytest.approx(se(varp_del), rel=1e-12, abs=0)
        eps_del = np.sqrt((varx_del - 1.0) * (varp_del - 1.0))
        assert report.se_epsilon == pytest.approx(se(eps_del), rel=1e-12, abs=0)
        assert report.sigma_x2_sel == pytest.approx(np.var(x0), rel=1e-14, abs=0)
        assert report.mean_p == pytest.approx(np.mean(p0), rel=1e-14, abs=0)

    def test_parts_split_anywhere_match_one_part(self):
        # parts cut at any run rows, among them 0-row parts and cuts one row
        # either side of a jackknife block bound, combine to the whole run's
        # postselect: the counts exactly, the moments and errors to rounding.
        # Each part ships its histogram in the narrowest dtype its selected
        # rows need.
        spec = SuperpositionSpec.cat(1.0)
        cfg = cfg_gtf(2.0, 20, 20_000, seed=4)
        batch = simulate(spec, cfg, store_steps=(0, 20))
        edges = analysis.default_qplus_edges(spec)
        whole = postselect(batch, "+", hist_edges=edges)
        block = cfg.n_samples // stats.JACKKNIFE_BLOCKS
        cuts = [0, 0, block - 1, block + 1, 2 * block, 2 * block, 7001, 20_000, 20_000]
        bounds = [0, *cuts, cfg.n_samples]
        parts = [analysis.postselect_part(dataclasses.replace(
                     batch, amplified=batch.amplified[lo:hi], attenuated=batch.attenuated[lo:hi],
                     boundary_hill=batch.boundary_hill[lo:hi], first_row=lo), "+", edges)
                 for lo, hi in zip(bounds, bounds[1:])]
        assert sum(not x_blocks for _, x_blocks, _ in parts) >= 3
        assert {hist.dtype for hist, _, _ in parts} == {np.dtype(np.uint8), np.dtype(np.uint16)}
        split = analysis.postselect_from_parts(iter(parts), "+", edges)
        assert split.n_selected == whole.n_selected
        assert np.array_equal(split.q_plus_hist, whole.q_plus_hist)
        for name in ("sigma_x2_sel", "sigma_p2_sel", "mean_x", "mean_p"):
            assert getattr(split, name) == pytest.approx(getattr(whole, name), rel=1e-14, abs=0)
        for name in ("se_var_x", "se_var_p", "se_epsilon"):
            assert getattr(split, name) == pytest.approx(getattr(whole, name), rel=1e-12, abs=0)

    def test_no_parts_refused_by_name(self):
        spec = SuperpositionSpec(0.5, 4.0, 2.0)
        edges = analysis.default_qplus_edges(spec)
        with pytest.raises(ValueError, match="only 0 trajectories selected"):
            analysis.postselect_from_parts([], "+", edges)
        with pytest.raises(ValueError, match="0 rows"):
            analysis.born_from_parts(spec, cfg_gtf(4.0, 40, 1, seed=0), [])

    def test_combine_memory_does_not_grow_with_rows(self):
        # the real chunk parts of a 2-chunk and an 8-chunk run, made before
        # tracing: combining either holds one histogram and the moments of
        # at most 100 blocks (about 80 KB traced at either size), not the
        # selected rows' 16 B each (1 MB at 8 chunks)
        spec = SuperpositionSpec.cat(1.0)
        edges = analysis.default_qplus_edges(spec)
        peaks = []
        for chunks in (2, 8):
            cfg = cfg_gtf(2.0, 20, chunks * CHUNK_ROWS, seed=9)
            part = partial(analysis.postselect_part, sign="+", hist_edges=edges)
            parts = list(map_chunks(spec, cfg, part, 1, ()))
            tracemalloc.start()
            try:
                report = analysis.postselect_from_parts(iter(parts), "+", edges)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.n_selected > chunks * CHUNK_ROWS // 3
        assert peaks[1] <= 1.1 * peaks[0] + 4096
        assert peaks[1] < 2**17 < 16 * report.n_selected // 8

    def test_minimum_selection_size(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        cfg = cfg_gtf(1.0, 10, 1500, seed=5)
        batch = simulate(spec, cfg, store_steps=(0, 10))
        with pytest.raises(ValueError):
            postselect(batch, "+")  # ~750 selected

    @pytest.mark.parametrize("sign", [1, True, "plus"])
    def test_sign_spelled_plus_or_minus_only(self, sign):
        cfg = cfg_gtf(1.0, 10, 1500, seed=5)
        batch = simulate(SuperpositionSpec(0.5, 1.0, 2.0), cfg, store_steps=(0, 10))
        with pytest.raises(ValueError, match="sign must be"):
            postselect(batch, sign)

    def test_sampled_matches_oracle(self):
        spec = SuperpositionSpec.cat(1.0)  # x1 = 2
        cfg = cfg_gtf(4.0, 40, 400_000, seed=31)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        report = postselect(batch, "+")
        oracle = postselect_oracle(spec, cfg, "+")
        assert abs(report.var_x_cond - oracle.var_x_cond) < 4 * report.se_var_x
        assert abs(report.var_p_cond - oracle.var_p_cond) < 4 * report.se_var_p
        assert abs(report.epsilon - oracle.epsilon) < 4 * report.se_epsilon
        assert report.epsilon < 1.0

    def test_signs_are_mirror_images(self):
        spec = SuperpositionSpec.cat(1.0)
        cfg = cfg_gtf(4.0, 40, 200_000, seed=8)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        plus = postselect(batch, "+")
        minus = postselect(batch, "-")
        assert abs(plus.mean_x + minus.mean_x) < 4 * math.hypot(
            plus.se_var_x, minus.se_var_x
        )
        assert abs(plus.var_x_cond - minus.var_x_cond) < 4 * math.hypot(
            plus.se_var_x, minus.se_var_x
        )

    def test_oracle_frozen_values(self):
        # regression lock of the quadrature oracle on the r = 0, g t = 4 sweep
        expected = {
            1.0: 0.6354429704813789,
            2.0: 0.9292218567437388,
            4.0: 0.9999417561491285,
        }
        for x1, eps in expected.items():
            spec = SuperpositionSpec(0.5, x1, 0.0)
            cfg = cfg_gtf(4.0, 40, 1000, seed=1)
            oracle = postselect_oracle(spec, cfg, "+")
            assert oracle.epsilon == pytest.approx(eps, abs=1e-9)

    def test_oracle_selected_mass_matches_born(self):
        spec = SuperpositionSpec(0.3, 4.0, 2.0)
        cfg = cfg_gtf(4.0, 40, 1000, seed=1)
        oracle = postselect_oracle(spec, cfg, "+")
        assert oracle.selected_mass == pytest.approx(born_oracle(spec, cfg), abs=1e-12)

    def test_qplus_histogram_matches_oracle_bins(self):
        # dual route: sampled 2-D histogram of the inferred initial state
        # against the deterministic kernel-quadrature bin probabilities
        spec = SuperpositionSpec.cat(1.0)
        cfg = cfg_gtf(4.0, 40, 400_000, seed=77)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        edges = analysis.default_qplus_edges(spec, n_bins=40)
        report = postselect(batch, "+", hist_edges=edges)
        probs = oracle_qplus_bin_probs(spec, cfg, "+", *edges)
        probs = probs * (report.n_selected / cfg.n_samples) / probs.sum()
        chi2, k = stats.chi2_counts_vs_probs(report.q_plus_hist, probs, cfg.n_samples)
        assert abs(chi2 - k) < 3 * math.sqrt(2 * k), f"chi2={chi2:.1f} k={k}"


class TestQplusBinning:
    SPECS = {
        "cat_0.5": SuperpositionSpec.cat(0.5),
        "cat_1": SuperpositionSpec.cat(1.0),
        "cat_2": SuperpositionSpec.cat(2.0),
        "weighted": SuperpositionSpec(0.3, 4.0, 2.0),
    }

    def test_part_histogram_is_the_shared_counter(self):
        # postselect_part bins its selected rows by stats.lattice_counts, the
        # counter verify bins each slice by, on the default q+ edges
        spec = SuperpositionSpec.cat(1.0)
        cfg = cfg_gtf(2.0, 20, 20_000, seed=4)
        batch = simulate(spec, cfg, store_steps=(0, 20))
        edges = analysis.default_qplus_edges(spec)
        hist = analysis.postselect_part(batch, "+", edges)[0]
        sel = batch.amplified_at(20) >= 0.0
        want = stats.lattice_counts(batch.x_at(0)[sel], batch.p_at(0)[sel], *edges)
        assert hist.dtype == want.dtype == np.uint16
        assert np.array_equal(hist, want)

    @pytest.mark.parametrize("name", SPECS)
    def test_counts_equal_histogram2d(self, name):
        # on random draws, none of which lies within rounding of an edge, the
        # lattice rule and np.histogram2d's edge comparisons agree bin for bin
        x_edges, p_edges = analysis.default_qplus_edges(self.SPECS[name])
        rng = np.random.default_rng(11)
        x0 = rng.normal(0.0, x_edges[-1] / 3, 400_000)
        p0 = rng.normal(0.0, p_edges[-1] / 3, 400_000)
        got = stats.lattice_counts(x0, p0, x_edges, p_edges)
        want = np.histogram2d(x0, p0, bins=(x_edges, p_edges))[0]
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_uneven_edges_refused(self):
        spec = SuperpositionSpec.cat(1.0)
        batch = simulate(spec, cfg_gtf(1.0, 10, 100, seed=1), store_steps=(0, 10))
        x_edges = np.array([-1.0, 0.0, 0.2, 1.0])
        p_edges = np.linspace(-1, 1, 4)
        with pytest.raises(ValueError) as rule:
            stats.lattice_edges(x_edges, p_edges)
        with pytest.raises(ValueError) as refused:
            analysis.postselect_part(batch, "+", (x_edges, p_edges))
        assert str(refused.value) == str(rule.value)


def truncated_normal_moments(spec, cfg, sgn):
    """(mass, mean_x, var_x) of the postselected t = 0 law, built from
    scipy's truncated normal: each boundary hill cut at zero, mixed by the
    law of total variance and pushed through the backward OU kernel."""
    mu, sigma = model.boundary_hill(spec, cfg)
    parts = []
    for w, c in ((spec.c1_sq, sgn * mu), (spec.c2_sq, -sgn * mu)):  # centers in sgn*x_f
        mass = w * ndtr(c / sigma)
        if mass > 0.0:
            hill = truncnorm(-c / sigma, np.inf, loc=c, scale=sigma)
            parts.append((mass, hill.mean(), hill.var()))
    total = sum(m for m, _, _ in parts)
    mean = sum(m * e for m, e, _ in parts) / total
    var = sum(m * (v + (e - mean) ** 2) for m, e, v in parts) / total
    kappa, s2 = model.ou_kernel(cfg.t_f)
    return total, kappa * sgn * mean, kappa * kappa * var + s2


class TestOracleReference:
    """The oracle's selected law against an independent truncated-normal build."""

    CASES = {
        "cat": (SuperpositionSpec.cat(1.0), MeasurementConfig.from_gtf(4.0, 40)),
        "weighted": (SuperpositionSpec(0.3, 4.0, 2.0), MeasurementConfig.from_gtf(4.0, 40)),
        "sharp": (SuperpositionSpec(0.5, 8.0, 6.0), MeasurementConfig.from_gtf(6.0, 60)),
        "tail": (SuperpositionSpec(0.0, 7.0, 0.0), MeasurementConfig.from_gtf(3.0, 30)),
        "short": (SuperpositionSpec(0.5, 1.0, 1.0), MeasurementConfig.from_gtf(0.1, 1)),
        "skewed": (SuperpositionSpec(0.8, 4.0, 0.0), MeasurementConfig.from_gtf(4.0, 40)),
        # M's steps would be 1.8 and 0.18 spacings wide on one panel across
        # +-reach; the step cuts give each step panels of its own
        "brief": (SuperpositionSpec(0.5, 1.0, 1.0), MeasurementConfig.from_gtf(1e-4, 1)),
        "instant": (SuperpositionSpec(0.5, 1.0, 1.0), MeasurementConfig.from_gtf(1e-6, 1)),
        "close": (SuperpositionSpec(0.8, 0.5, 2.0), MeasurementConfig.from_gtf(1e-5, 1)),
        # two overlapping steps, each 0.14 wide and 0.16 apart: 16 spacings on
        # one panel across +-reach
        "overlap": (SuperpositionSpec(0.8, 4.0, 2.0), MeasurementConfig.from_gtf(0.01, 1)),
        # unit-width hills at +-x1: one panel across +-reach spaced 0.5, 5 and
        # 500 apart; each hill gets a panel of its own
        "far1e3": (SuperpositionSpec(0.5, 1e3, 2.0), MeasurementConfig.from_gtf(3.0, 20)),
        "far1e4": (SuperpositionSpec(0.5, 1e4, 2.0), MeasurementConfig.from_gtf(3.0, 20)),
        "far1e6": (SuperpositionSpec(0.5, 1e6, 2.0), MeasurementConfig.from_gtf(3.0, 20)),
    }

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_x_moments_match_truncated_normal(self, case, sign):
        spec, cfg = self.CASES[case]
        oracle = postselect_oracle(spec, cfg, sign)
        mass, mean_x, var_x = truncated_normal_moments(spec, cfg, 1 if sign == "+" else -1)
        assert oracle.selected_mass == pytest.approx(mass, rel=1e-9, abs=0)
        assert oracle.mean_x == pytest.approx(mean_x, rel=1e-9, abs=0)
        assert oracle.var_x == pytest.approx(var_x, rel=1e-9, abs=0)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize(
        "case", ["cat", "short", "weighted", "skewed", "brief", "instant", "close", "overlap"])
    def test_mean_p_matches_closed_form_density(self, case, sign):
        # M(x_0) in closed form: a boundary hill N(x_f; h, sigma^2) cut at
        # sgn x_f >= 0 and pushed through x_0 | x_f ~ N(kappa x_f, s2) is
        # N(x_0; kappa h, v) Phi(sgn m / tau), with v = kappa^2 sigma^2 + s2 and
        # x_f | x_0 ~ N(m, tau^2) its posterior; E[amp] is adaptive integrals
        # over 40 pieces of each oracle panel, so that quad sees M's narrow
        # steps at short horizons, and over the tails out to 40 widths
        spec, cfg = self.CASES[case]
        sgn = 1 if sign == "+" else -1
        oracle = postselect_oracle(spec, cfg, sign)
        mu, sigma = model.boundary_hill(spec, cfg)
        kappa, s2 = model.ou_kernel(cfg.t_f)
        v = kappa * kappa * sigma * sigma + s2
        tau = sigma * math.sqrt(s2 / v)
        hills = ((spec.c1_sq, mu), (spec.c2_sq, -mu))
        mass = sum(w * ndtr(sgn * h / sigma) for w, h in hills)

        def m_x(x):
            return sum(w * model.gauss_pdf(x, kappa * h, v)
                       * ndtr(sgn * (h * s2 + kappa * sigma * sigma * x) / (v * tau))
                       for w, h in hills) / mass

        reach = kappa * mu + 40.0 * math.sqrt(v)
        breaks = analysis._selected_density(spec, cfg, sgn)[1]
        pieces = [np.linspace(lo, hi, 41) for lo, hi in zip(breaks, breaks[1:])]
        cuts = np.unique(np.concatenate([[-reach, 0.0, reach], *pieces]))
        amp_mass = sum(quad(lambda x: m_x(x) * model.conditional_fringe_amp(spec, x),
                            lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                       for lo, hi in zip(cuts, cuts[1:]))
        sigma_p, _, freq = model.fringe_p(spec, 0.0)
        mean_p = model.fringe_mean_p(amp_mass, freq, sigma_p * sigma_p)
        assert oracle.mean_p == pytest.approx(mean_p, rel=1e-9, abs=0)

    @pytest.mark.parametrize("gtf", [4.0, 1e-2, 1e-4])
    def test_qplus_bins_resolve_the_steps(self, gtf):
        # each x-bin's mass against adaptive integrals of M over 40 pieces of
        # every bin cut at M's panel breaks; the default p edges hold the
        # envelope out to 6 widths and the odd fringe carrier sums to zero, so
        # a row of bins holds the x-bin's mass times Phi(6) - Phi(-6).  With
        # 5 Simpson nodes per bin the error was 1.7e-8, 8.6e-6 and 2.2e-3.
        spec = SuperpositionSpec(0.5, 1.0, 1.0)
        cfg = MeasurementConfig.from_gtf(gtf, 40 if gtf > 1.0 else 1)
        x_edges, p_edges = analysis.default_qplus_edges(spec)
        density, breaks, _ = analysis._selected_density(spec, cfg, 1)
        cuts = np.unique(np.append(x_edges, np.clip(breaks, x_edges[0], x_edges[-1])))
        ref = np.zeros(len(x_edges) - 1)
        for lo, hi in zip(cuts, cuts[1:]):
            sub = np.linspace(lo, hi, 41)
            ref[np.searchsorted(x_edges, lo, side="right") - 1] += sum(
                quad(density, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                for a, b in zip(sub, sub[1:]))
        probs = oracle_qplus_bin_probs(spec, cfg, "+", x_edges, p_edges)
        err = np.abs(probs.sum(axis=1) - ref * (ndtr(6.0) - ndtr(-6.0)))
        assert np.max(err) <= 1e-9

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_steps_are_cut_at_long_horizons(self, sign):
        # the cuts 14 widths either side of each step are made at every
        # horizon, each clipped to +-reach: at gtf 4 the cat's panels are
        # sub-intervals of [-reach, reach], more than the one panel across it
        spec, cfg = self.CASES["cat"]
        mu, sigma = model.boundary_hill(spec, cfg)
        kappa, s2 = model.ou_kernel(cfg.t_f)
        reach = kappa * mu + 14.0 * math.sqrt(kappa * kappa * sigma * sigma + s2)
        breaks = analysis._selected_density(spec, cfg, 1 if sign == "+" else -1)[1]
        assert len(breaks) > 2
        assert np.all(np.diff(breaks) > 0.0)
        assert [breaks[0], breaks[-1]] == pytest.approx([-reach, reach], rel=1e-14, abs=0)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_selected_density_matches_the_kernel_convolution(self, sign):
        # M(x_0) against the integral it closes: the boundary hills on the
        # selected side of x_f pushed through x_0 | x_f ~ N(kappa x_f, s2)
        spec, cfg = self.CASES["cat"]
        sgn = 1 if sign == "+" else -1
        density = analysis._selected_density(spec, cfg, sgn)[0]
        mu, sigma = model.boundary_hill(spec, cfg)
        kappa, s2 = model.ou_kernel(cfg.t_f)

        def selected(f, reach=mu + 40.0 * sigma):
            return quad(lambda y: f(sgn * y), 0.0, reach, points=[mu],
                        epsabs=0.0, epsrel=2e-14, limit=400)[0]

        def boundary(x_f):
            return np.add(*model.hills(spec, x_f, mu, sigma * sigma))

        mass = selected(boundary)
        x_0 = np.array([-3.0, -1.5, -0.7, 0.0, 1.0, 2.0, 4.0, 6.0])
        ref = [selected(lambda x_f: boundary(x_f) * model.gauss_pdf(x, kappa * x_f, s2)) / mass
               for x in x_0]
        np.testing.assert_allclose(density(x_0), ref, rtol=1e-13, atol=0)

    def test_far_selected_side_is_not_refused(self):
        # the one hill lies 30 widths past zero: mass Phi(-30) ~ 5.7e-198 is
        # tiny but representable, so the oracle answers, with no RuntimeWarning
        spec, cfg = SuperpositionSpec(0.0, 30.0, 0.0), MeasurementConfig.from_gtf(4.0, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            oracle = postselect_oracle(spec, cfg, "+")
        assert np.all(np.isfinite([oracle.selected_mass, oracle.mean_x, oracle.var_x,
                                   oracle.mean_p, oracle.var_p, oracle.epsilon]))
        mass, mean_x, var_x = truncated_normal_moments(spec, cfg, 1)
        assert oracle.selected_mass == pytest.approx(mass, rel=1e-9, abs=0)
        assert oracle.mean_x == pytest.approx(mean_x, rel=1e-9, abs=0)
        assert oracle.var_x == pytest.approx(var_x, rel=1e-9, abs=0)

    def test_qplus_bins_refuse_uneven_p_edges(self):
        # bin_integrals lays its p bins out from the first edge at the first
        # step: with that edge moved out by 0.1, the envelope's bin 4 read
        # 0.450, not 0.385, with no error, while the bins still summed to 1
        spec = SuperpositionSpec.cat(1.0)
        cfg = MeasurementConfig.from_gtf(4.0, 40)
        x_edges, p_edges = analysis.default_qplus_edges(spec, n_bins=10)
        p_edges = p_edges.copy()
        p_edges[0] -= 0.1
        with pytest.raises(ValueError, match="p_edges must be >= 2 strictly increasing"):
            oracle_qplus_bin_probs(spec, cfg, "+", x_edges, p_edges)

    def test_oracles_refuse_measure_p(self):
        # the measure-p boundary is the amplified p-fringe, not two hills
        spec = SuperpositionSpec(0.5, 4.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 1, seed=0, setting=Setting.P)
        edges = analysis.default_qplus_edges(spec, n_bins=10)
        with pytest.raises(ValueError, match="measure-x"):
            born_oracle(spec, cfg)
        with pytest.raises(ValueError, match="measure-x"):
            postselect_oracle(spec, cfg, "+")
        with pytest.raises(ValueError, match="measure-x"):
            oracle_qplus_bin_probs(spec, cfg, "+", *edges)


class TestConditionalDistribution:
    def test_mixture_mode_fringe_free(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0, mixture=True)
        cfg = cfg_gtf(3.0, 30, 400_000, seed=55)
        batch = simulate(spec, cfg, store_steps=(0, 30))
        sp = model.fringe_p(spec, 0.0)[0]
        edges = np.linspace(-5 * sp, 5 * sp, 51)
        counts = conditional_p_distribution(batch, "+", 0, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        gauss = np.exp(-centers**2 / (2 * sp * sp)) / math.sqrt(2 * math.pi) / sp
        probs = gauss * np.diff(edges)
        probs /= probs.sum()  # mass beyond 5 sigma is ~6e-7, renormalize
        chi2, k = stats.chi2_counts_vs_probs(counts, probs, int(counts.sum()))
        assert abs(chi2 - k) < 3 * math.sqrt(2 * k)

    def test_postselected_fringes_survive(self):
        # conditioning on the + outcome leaves the initial p fringes intact
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        cfg = cfg_gtf(3.0, 30, 400_000, seed=23)
        batch = simulate(spec, cfg, store_steps=(0, 30))
        sp = model.fringe_p(spec, 0.0)[0]
        edges = np.linspace(-5 * sp, 5 * sp, 51)
        counts_plus = conditional_p_distribution(batch, "+", 0, edges)
        n_plus = int(counts_plus.sum())
        fine = np.linspace(edges[0], edges[-1], 50 * 20 + 1)
        dens = np.asarray(model.marginal_p(spec, fine))
        cell = np.array(
            [np.trapezoid(dens[i * 20 : i * 20 + 21], fine[i * 20 : i * 20 + 21]) for i in range(50)]
        )
        probs = cell / cell.sum()
        chi2, k = stats.chi2_counts_vs_probs(counts_plus, probs, n_plus)
        assert abs(chi2 - k) < 3 * math.sqrt(2 * k)

    def test_plus_minus_statistically_identical(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        cfg = cfg_gtf(3.0, 30, 400_000, seed=29)
        batch = simulate(spec, cfg, store_steps=(0, 30))
        sp = model.fringe_p(spec, 0.0)[0]
        edges = np.linspace(-5 * sp, 5 * sp, 51)
        counts_plus = conditional_p_distribution(batch, "+", 0, edges)
        counts_minus = conditional_p_distribution(batch, "-", 0, edges)
        _, _, p_value = stats.two_sample_chi2(counts_plus, counts_minus)
        assert p_value > 0.01

    def test_invalid_sign(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        cfg = cfg_gtf(1.0, 10, 5000, seed=1)
        batch = simulate(spec, cfg, store_steps=(0, 10))
        with pytest.raises(ValueError):
            conditional_p_distribution(batch, "sideways", 0, np.linspace(-1, 1, 5))
