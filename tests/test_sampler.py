"""Sampler tests: stream determinism and exactness of the rejection samplers."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from qtraj import model, sampler
from qtraj.model import SuperpositionSpec
from qtraj.sampler import (
    RngStream,
    sample_fringe,
    sample_gaussian_mixture,
    sample_mixture_with_dip,
)


class TestStreams:
    def test_same_key_bitwise_identical(self):
        a = RngStream(123456789, 7).generator().random(1000)
        b = RngStream(123456789, 7).generator().random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ_and_decorrelate(self):
        a = RngStream(123456789, 0).generator().random(200_000)
        b = RngStream(123456789, 1).generator().random(200_000)
        assert not np.array_equal(a[:100], b[:100])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_seed_masked_to_64_bits(self):
        a = RngStream(2**64 + 5, 0).generator().random(8)
        b = RngStream(5, 0).generator().random(8)
        assert np.array_equal(a, b)

    def test_invalid_stream(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)


class TestGaussianMixture:
    def test_degenerate_weight_is_plain_gaussian(self):
        rng = RngStream(11, 0)
        v = sample_gaussian_mixture(1.0, 3.0, -100.0, 0.5, rng, size=200_000)
        assert abs(v.mean() - 3.0) < 4 * 0.5 / math.sqrt(len(v))
        assert abs(v.var() - 0.25) < 4 * 0.25 * math.sqrt(2 / len(v))

    def test_hill_fractions_balanced(self):
        # boundary geometry of an amplified run: hills at +-G x1, unit-ish width
        mu = math.exp(2.0) * 8.0
        v, labels = sample_gaussian_mixture(
            0.5, mu, -mu, 1.0, RngStream(3, 5), size=400_000, return_components=True
        )
        frac = np.mean(labels == 1)
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / len(v))
        assert np.all((v > 0) == (labels == 1))

    def test_moments_match_closed_form(self):
        # mixture moments: mean = w1 mu1 + w2 mu2, var = sigma^2 + w1 w2 (mu1-mu2)^2
        w1, mu1, mu2, sigma = 0.3, 2.0, -1.0, 1.5
        n = 1_000_000
        v = sample_gaussian_mixture(w1, mu1, mu2, sigma, RngStream(17, 2), size=n)
        mean = w1 * mu1 + (1 - w1) * mu2
        var = sigma**2 + w1 * (1 - w1) * (mu1 - mu2) ** 2
        se_mean = math.sqrt(var / n)
        se_var = var * math.sqrt(2.0 / n) * 1.5  # non-Gaussian fourth moment margin
        assert abs(v.mean() - mean) < 4 * se_mean
        assert abs(v.var() - var) < 4 * se_var

    def test_invalid_arguments(self):
        rng = RngStream(1, 0)
        with pytest.raises(ValueError):
            sample_gaussian_mixture(1.5, 0.0, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gaussian_mixture(0.5, 0.0, 0.0, -1.0, rng)


def _fringe_cdf(sigma, amp, freq, phase):
    """Numeric quadrature CDF of the fringe density, for KS testing."""
    grid = np.linspace(-10 * sigma, 10 * sigma, 40_001)
    dens = np.exp(-grid * grid / (2 * sigma * sigma)) * (
        1.0 - amp * np.sin(freq * grid + phase)
    )
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]

    def fn(v):
        return np.interp(v, grid, cdf)

    return fn


class TestFringeSampler:
    def test_zero_amplitude_accepts_first_round(self):
        v, rounds = sample_fringe(2.0, 0.0, 1.0, 0.0, RngStream(5, 0), size=50_000, return_rounds=True)
        assert np.all(rounds == 1)
        assert abs(v.var() - 4.0) < 4 * 4.0 * math.sqrt(2 / len(v))

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("x1", [0.5, 1.0, 2.0])
    def test_exactness_ks_grid(self, r, x1):
        # initial p-marginal family: KS against a numeric quadrature CDF
        spec = SuperpositionSpec(0.5, x1, r)
        sigma, amp, freq = model.fringe_params_initial_p(spec)
        stream_id = int(10 * r + x1 * 2)
        v = sample_fringe(sigma, amp, freq, 0.0, RngStream(2024, stream_id), size=100_000)
        result = kstest(v, _fringe_cdf(sigma, amp, freq, 0.0))
        assert result.pvalue > 0.01

    def test_acceptance_rate_matches_envelope(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        sigma, amp, freq = model.fringe_params_initial_p(spec)
        _, rounds = sample_fringe(sigma, amp, freq, 0.0, RngStream(9, 1), size=400_000, return_rounds=True)
        rate = 1.0 / rounds.mean()
        assert rate == pytest.approx(1.0 / (1.0 + amp), rel=0.01)

    def test_conditional_histogram_chi2(self):
        # draws at the inter-packet midpoint against the analytic conditional
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        sx2 = float(model.sigma_x2(spec.r, 0.0))
        sigma = math.sqrt(float(model.sigma_p2(spec.r, 0.0)))
        amp = float(model.conditional_fringe_amp(spec, 0.0))
        n = 1_000_000
        v = sample_fringe(sigma, amp, spec.x1 / sx2, 0.0, RngStream(31, 0), size=n)
        edges = np.linspace(-4 * sigma, 4 * sigma, 51)
        counts, _ = np.histogram(v, bins=edges)
        fine = np.linspace(edges[0], edges[-1], 50 * 40 + 1)
        dens = np.asarray(model.conditional_p_given_x(spec, 0.0, fine))
        cell = np.array(
            [np.trapezoid(dens[i * 40 : i * 40 + 41], fine[i * 40 : i * 40 + 41]) for i in range(50)]
        )
        from scipy.stats import chi2 as chi2_dist

        inside = counts.sum()
        expected = cell / cell.sum() * inside
        use = expected >= 10
        stat = np.sum((counts[use] - expected[use]) ** 2 / expected[use])
        dof = use.sum() - 1
        assert chi2_dist.sf(stat, dof) > 0.05

    def test_phase_shifts_fringe(self):
        v_plus = sample_fringe(1.0, 0.8, 2.0, 0.5 * math.pi, RngStream(4, 0), size=200_000)
        # with phase pi/2 the modulation is -cos: density enhanced at |v| ~ pi/2
        cdf = _fringe_cdf(1.0, 0.8, 2.0, 0.5 * math.pi)
        assert kstest(v_plus, cdf).pvalue > 0.01

    def test_amplitude_above_one_rejected(self):
        with pytest.raises(ValueError):
            sample_fringe(1.0, 1.2, 1.0, 0.0, RngStream(1, 0), size=10)
        with pytest.raises(ValueError):
            sample_fringe(-1.0, 0.2, 1.0, 0.0, RngStream(1, 0), size=10)


class TestMixtureWithDip:
    def test_zero_dip_is_plain_mixture(self):
        v = sample_mixture_with_dip(0.5, 2.0, 1.0, 0.0, RngStream(8, 0), size=300_000)
        var = 1.0 + 4.0  # sigma^2 + w1 w2 (2 mu)^2
        assert abs(v.var() - var) < 4 * var * math.sqrt(2 / len(v)) * 1.5

    def test_distribution_matches_analytic(self):
        # x | p linking conditional of a measure-p run
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        sx2 = float(model.sigma_x2(spec.r, 0.0))
        _, amp0, freq0 = model.fringe_params_initial_p(spec)
        p_val = 0.5 * math.pi / freq0  # strongest dip
        dip = amp0 * math.sin(freq0 * p_val)
        n = 400_000
        v = sample_mixture_with_dip(0.5, spec.x1, math.sqrt(sx2), dip, RngStream(21, 3), size=n)
        grid = np.linspace(-10, 10, 40_001)
        dens = (
            0.5 * np.exp(-((grid - 1.0) ** 2) / (2 * sx2))
            + 0.5 * np.exp(-((grid + 1.0) ** 2) / (2 * sx2))
            - dip * np.exp(-grid * grid / (2 * sx2))
        )
        cdf_vals = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
        cdf_vals /= cdf_vals[-1]
        assert kstest(v, lambda q: np.interp(q, grid, cdf_vals)).pvalue > 0.01

    def test_dip_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            sample_mixture_with_dip(0.5, 1.0, 1.0, 0.99, RngStream(1, 0), size=10)


class TestRejectionLimit:
    @pytest.mark.parametrize(
        "draw, name",
        [
            (lambda rng: sample_fringe(1.0, 0.5, 1.0, 0.0, rng, size=10), "fringe"),
            (lambda rng: sample_mixture_with_dip(0.5, 1.0, 1.0, 0.1, rng, size=10),
             "mixture-with-dip"),
        ],
        ids=["fringe", "mixture_with_dip"],
    )
    def test_exhausted_rounds_raise_with_sampler_name(self, monkeypatch, draw, name):
        monkeypatch.setattr(sampler, "_MAX_REJECTION_ROUNDS", 0)
        with pytest.raises(RuntimeError, match=f"^{name} rejection sampler failed to terminate$"):
            draw(RngStream(1, 0))


class TestDeterminismAcrossCalls:
    def test_fringe_sampler_reproducible(self):
        a = sample_fringe(2.0, 0.5, 1.0, 0.0, RngStream(77, 3), size=1000)
        b = sample_fringe(2.0, 0.5, 1.0, 0.0, RngStream(77, 3), size=1000)
        assert np.array_equal(a, b)
