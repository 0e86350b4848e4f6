"""Outcome-statistics and postselection tests, including the quadrature oracle."""

import math
import warnings

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
from qtraj.engine import simulate
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
        dens = np.asarray(model.scaled_x_marginal(spec, centers, 4.0, cfg))
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


class TestPostselect:
    def test_mixture_keeps_full_p_variance(self):
        # no fringe, no x-p link: conditional p variance is e^(2r) exactly
        spec = SuperpositionSpec(0.5, 4.0, 2.0, mixture=True)
        cfg = cfg_gtf(4.0, 40, 200_000, seed=12)
        batch = simulate(spec, cfg, store_steps=(0, 40))
        report = postselect(batch, "+")
        assert abs(report.var_p_cond - math.exp(4.0)) < 4 * report.se_var_p

    def test_variance_errors_match_jackknife_mean_var(self):
        spec = SuperpositionSpec.cat(1.0)
        cfg = cfg_gtf(2.0, 20, 20_000, seed=4)
        batch = simulate(spec, cfg, store_steps=(0, 20))
        report = postselect(batch, "+")
        sel = batch.amplified_at(20) >= 0.0
        assert report.se_var_x == stats.jackknife_mean_var(batch.x_at(0)[sel])[3]
        assert report.se_var_p == stats.jackknife_mean_var(batch.p_at(0)[sel])[3]

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
    kappa, s2 = model.ou_kernel(cfg.g, cfg.t_f)
    return total, kappa * sgn * mean, kappa * kappa * var + s2


class TestOracleReference:
    """The oracle's selected law against an independent truncated-normal build."""

    CASES = {
        "cat": (SuperpositionSpec.cat(1.0), MeasurementConfig.from_gtf(4.0, 40)),
        "weighted": (SuperpositionSpec(0.3, 4.0, 2.0), MeasurementConfig.from_gtf(4.0, 40)),
        "sharp": (SuperpositionSpec(0.5, 8.0, 6.0), MeasurementConfig.from_gtf(6.0, 60)),
        "tail": (SuperpositionSpec(0.0, 7.0, 0.0), MeasurementConfig.from_gtf(3.0, 30)),
        "no_gain": (SuperpositionSpec(0.5, 1.0, 1.0),
                    MeasurementConfig(g=0.0, t_f=1.0, dt=0.1)),
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

    def test_no_gain_mean_p_matches_adaptive_quadrature(self):
        # g = 0: x_0 = x_f, so the mean fringe amplitude is a 1-D integral
        spec, cfg = self.CASES["no_gain"]
        oracle = postselect_oracle(spec, cfg, "+")

        def integral(f):
            return quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        mass = integral(lambda x: model.marginal_x(spec, x))
        amp_mass = integral(
            lambda x: model.marginal_x(spec, x) * model.conditional_fringe_amp(spec, x))
        sigma, _, freq = model.fringe_p(spec, 0.0)
        mean_p = model.fringe_mean_p(amp_mass / mass, freq, sigma * sigma)
        assert oracle.mean_p == pytest.approx(mean_p, rel=1e-9, abs=0)

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

    def test_qplus_bin_oracle_refuses_no_gain(self):
        # at g = 0 the backward kernel is a point mass: refused before any density
        spec = SuperpositionSpec(0.5, 1.0, 1.0)
        cfg = MeasurementConfig(g=0.0, t_f=1.0, dt=0.1)
        edges = analysis.default_qplus_edges(spec, n_bins=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="needs g > 0"):
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
