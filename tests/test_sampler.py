"""Sampler tests: stream determinism and exactness of the rejection samplers."""

import hashlib
import math
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from qtraj import model, sampler
from qtraj.model import SuperpositionSpec
from qtraj.sampler import (
    RngStream,
    sample_fringe,
    sample_gaussian_mixture,
    sample_mixture_with_dip,
    standard_normal_it,
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
        b = RngStream(5, 0).generator().random(8)
        for seed in (2**64 + 5, np.int64(5)):
            assert np.array_equal(RngStream(seed, 0).generator().random(8), b)

    def test_invalid_stream(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)

    def test_non_integer_seed_refused(self):
        # a bool is an int to isinstance, but no seed
        for args in ((1.5,), (True,), (1, True)):
            with pytest.raises(ValueError, match="master_seed and stream_id must be integers"):
                RngStream(*args)


class TestGaussianMixture:
    def test_degenerate_weight_is_plain_gaussian(self):
        rng = RngStream(11, 0).generator()
        v, _ = sample_gaussian_mixture(1.0, 3.0, -100.0, 0.5, rng, size=200_000)
        assert abs(v.mean() - 3.0) < 4 * 0.5 / math.sqrt(len(v))
        assert abs(v.var() - 0.25) < 4 * 0.25 * math.sqrt(2 / len(v))

    def test_hill_fractions_balanced(self):
        # boundary geometry of an amplified run: hills at +-G x1, unit-ish width
        mu = math.exp(2.0) * 8.0
        gen = RngStream(3, 5).generator()
        v, labels = sample_gaussian_mixture(0.5, mu, -mu, 1.0, gen, size=400_000)
        frac = np.mean(labels == 1)
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / len(v))
        assert np.all((v > 0) == (labels == 1))

    def test_moments_match_closed_form(self):
        # mixture moments: mean = w1 mu1 + w2 mu2, var = sigma^2 + w1 w2 (mu1-mu2)^2
        w1, mu1, mu2, sigma = 0.3, 2.0, -1.0, 1.5
        n = 1_000_000
        v, _ = sample_gaussian_mixture(w1, mu1, mu2, sigma, RngStream(17, 2).generator(), size=n)
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

    @pytest.mark.parametrize("mu1, mu2", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_mean_rejected(self, mu1, mu2):
        with pytest.raises(ValueError, match="finite"):
            sample_gaussian_mixture(0.5, mu1, mu2, 1.0, RngStream(1, 0), size=10)


def _fringe_cdf(sigma, amp, freq):
    """Numeric quadrature CDF of the fringe density, for KS testing."""
    grid = np.linspace(-10 * sigma, 10 * sigma, 40_001)
    dens = np.exp(-grid * grid / (2 * sigma * sigma)) * (
        1.0 - amp * np.sin(freq * grid)
    )
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]

    def fn(v):
        return np.interp(v, grid, cdf)

    return fn


class TestFringeSampler:
    def test_zero_amplitude_accepts_first_round(self):
        v, rounds = sample_fringe(2.0, 0.0, 1.0, RngStream(5, 0).generator(), size=50_000)
        assert np.all(rounds == 1)
        assert abs(v.var() - 4.0) < 4 * 4.0 * math.sqrt(2 / len(v))

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("x1", [0.5, 1.0, 2.0])
    def test_exactness_ks_grid(self, r, x1):
        # initial p-marginal family: KS against a numeric quadrature CDF
        spec = SuperpositionSpec(0.5, x1, r)
        sigma, amp, freq = model.fringe_p(spec, 0.0)
        stream_id = int(10 * r + x1 * 2)
        gen = RngStream(2024, stream_id).generator()
        v, _ = sample_fringe(sigma, amp, freq, gen, size=100_000)
        result = kstest(v, _fringe_cdf(sigma, amp, freq))
        assert result.pvalue > 0.01

    def test_acceptance_rate_matches_envelope(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        sigma, amp, freq = model.fringe_p(spec, 0.0)
        _, rounds = sample_fringe(sigma, amp, freq, RngStream(9, 1).generator(), size=400_000)
        rate = 1.0 / rounds.mean()
        assert rate == pytest.approx(1.0 / (1.0 + amp), rel=0.01)

    def test_conditional_histogram_chi2(self):
        # draws at the inter-packet midpoint against the analytic conditional
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        sx2 = model.packet(spec, 0.0)[0]
        sigma = model.fringe_p(spec, 0.0)[0]
        amp = float(model.conditional_fringe_amp(spec, 0.0))
        n = 1_000_000
        v, _ = sample_fringe(sigma, amp, spec.x1 / sx2, RngStream(31, 0).generator(), size=n)
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

    def test_amplitude_above_one_rejected(self):
        with pytest.raises(ValueError):
            sample_fringe(1.0, 1.2, 1.0, RngStream(1, 0), size=10)
        with pytest.raises(ValueError):
            sample_fringe(-1.0, 0.2, 1.0, RngStream(1, 0), size=10)

    @pytest.mark.parametrize(
        "amp, freq",
        [(math.nan, 1.0), (np.array([0.2, math.nan]), 1.0), (0.2, math.inf)],
        ids=["nan_amp", "nan_amp_slot", "inf_freq"],
    )
    def test_non_finite_parameters_rejected(self, amp, freq):
        with pytest.raises(ValueError, match="finite"):
            sample_fringe(1.0, amp, freq, RngStream(1, 0), size=2)


def _hill_amp(w1, mu, sigma):
    """x -> 2 sqrt(w1 w2) / (w1 e^u + w2 e^-u), u = x mu / sigma^2: the fringe
    amplitude of the hill pair w1 N(mu, sigma^2) + w2 N(-mu, sigma^2)."""
    log_w1, log_w2 = math.log(w1), math.log(1.0 - w1)
    log_fw = math.log(2.0) + 0.5 * (log_w1 + log_w2)

    def amp(x):
        u = x * mu / sigma**2
        return np.exp(log_fw - np.logaddexp(log_w1 + u, log_w2 - u))

    return amp


def _assert_matches_dip_form(spec, sin, rng):
    # x | p linking conditional of a measure-p run at a p where sin(freq p) = sin,
    # against the hand-built dip form hills(x) - amp0 sin exp(-x^2 / 2 sx2)
    sx2 = model.packet(spec, 0.0)[0]
    amp0 = model.fringe_p(spec, 0.0)[1]
    amp = partial(model.conditional_fringe_amp, spec)
    v, _ = sample_mixture_with_dip(spec.c1_sq, spec.x1, math.sqrt(sx2), sin, amp, rng, size=400_000)
    grid = np.linspace(-12, 12, 48_001)
    dens = (
        spec.c1_sq * np.exp(-((grid - spec.x1) ** 2) / (2 * sx2))
        + spec.c2_sq * np.exp(-((grid + spec.x1) ** 2) / (2 * sx2))
        - amp0 * sin * np.exp(-grid * grid / (2 * sx2))
    )
    cdf_vals = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf_vals /= cdf_vals[-1]
    assert kstest(v, lambda q: np.interp(q, grid, cdf_vals)).pvalue > 0.01


class TestMixtureWithDip:
    def test_zero_dip_is_plain_mixture(self):
        amp = _hill_amp(0.5, 2.0, 1.0)
        gen = RngStream(8, 0).generator()
        v, _ = sample_mixture_with_dip(0.5, 2.0, 1.0, 0.0, amp, gen, size=300_000)
        var = 1.0 + 4.0  # sigma^2 + w1 w2 (2 mu)^2
        assert abs(v.var() - var) < 4 * var * math.sqrt(2 / len(v)) * 1.5

    def test_distribution_matches_analytic(self):
        # strongest dip of the balanced superposition
        gen = RngStream(21, 3).generator()
        _assert_matches_dip_form(SuperpositionSpec(0.5, 1.0, 2.0), 1.0, gen)

    @pytest.mark.parametrize(
        "spec, sin, stream_id",
        [
            (SuperpositionSpec(0.5, 1.0, 2.0), -1.0, 4),
            (SuperpositionSpec(0.3, 1.0, 2.0), 1.0, 5),
            (SuperpositionSpec(0.3, 1.5, 0.0), -1.0, 6),
        ],
        ids=["bump", "weighted_dip", "weighted_bump_r0"],
    )
    def test_signed_and_weighted_links_match_analytic(self, spec, sin, stream_id):
        _assert_matches_dip_form(spec, sin, RngStream(21, stream_id).generator())

    def test_dip_beyond_bound_rejected(self):
        amp = _hill_amp(0.5, 1.0, 1.0)
        for fringe in (1.5, np.array([0.2, -1.01])):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                sample_mixture_with_dip(0.5, 1.0, 1.0, fringe, amp, RngStream(1, 0), size=2)

    @pytest.mark.parametrize(
        "mu, fringe", [(math.nan, 0.0), (1.0, math.nan), (1.0, np.array([0.1, math.nan]))],
        ids=["nan_mu", "nan_dip", "nan_dip_slot"],
    )
    def test_non_finite_parameters_rejected(self, mu, fringe):
        with pytest.raises(ValueError, match="finite"):
            sample_mixture_with_dip(0.5, mu, 1.0, fringe, _hill_amp(0.5, 1.0, 1.0),
                                    RngStream(1, 0), size=2)


class TestRejectionLimit:
    @pytest.mark.parametrize(
        "draw, name",
        [
            (lambda rng: sample_fringe(1.0, 0.5, 1.0, rng, size=10), "fringe"),
            (lambda rng: sample_mixture_with_dip(0.5, 1.0, 1.0, 0.1, _hill_amp(0.5, 1.0, 1.0),
                                                 rng, size=10),
             "mixture-with-dip"),
        ],
        ids=["fringe", "mixture_with_dip"],
    )
    def test_exhausted_rounds_raise_with_sampler_name(self, monkeypatch, draw, name):
        monkeypatch.setattr(sampler, "_MAX_REJECTION_ROUNDS", 0)
        with pytest.raises(RuntimeError, match=f"^{name} rejection sampler failed to terminate$"):
            draw(RngStream(1, 0).generator())

    def test_round_cap_follows_the_worst_acceptance(self):
        cap = sampler._round_cap
        base = sampler._MAX_REJECTION_ROUNDS
        assert cap(1.0) == cap(0.9) == cap(0.5) == base
        for worst in (0.4, 0.1, 0.022, 0.006):
            # a slot at that acceptance outlives the cap no likelier than a
            # slot accepting half its proposals outlives base rounds
            assert base < cap(worst) <= base**2
            assert cap(worst) * math.log1p(-worst) <= base * math.log(0.5)
        assert cap(0.0) == cap(1e-300) == cap(-1e-17) == cap(math.nan) == base**2

    def test_close_packets_link_past_the_base_cap(self):
        # x1 = 0.3 at r = 2: amp_0 = 0.957, so a slot at fringe 1 accepts with
        # probability (1 - amp_0) / 2 = 0.022, and 16,384 of them need more than
        # 128 rounds; the words drawn are still 3 per slot per round
        spec = SuperpositionSpec(0.5, 0.3, 2.0)
        sx2 = model.packet(spec, 0.0)[0]
        amp_0 = model.fringe_p(spec, 0.0)[1]
        gen = RngStream(1, 0).generator()
        start = _stream_words(gen)
        _, rounds = sample_mixture_with_dip(0.5, spec.x1, math.sqrt(sx2), 1.0,
                                            partial(model.conditional_fringe_amp, spec), gen,
                                            size=16_384)
        assert rounds.max() > sampler._MAX_REJECTION_ROUNDS
        assert 1.0 / rounds.mean() == pytest.approx((1.0 - amp_0) / 2.0, rel=0.03)
        assert _stream_words(gen) - start == 3 * 16_384 * int(rounds.max())

    def test_zero_worst_acceptance_ends_at_the_largest_cap(self):
        # w1 = 1/2 and mu = 0: the hill pair's amp is 1 everywhere, amp_0 = 1,
        # and at fringe 1 no proposal is ever accepted
        gen = RngStream(2, 0).generator()
        start = _stream_words(gen)
        with pytest.raises(RuntimeError, match="^mixture-with-dip rejection sampler failed"):
            sample_mixture_with_dip(0.5, 0.0, 1.0, 1.0, np.ones_like, gen, size=3)
        assert _stream_words(gen) - start == 3 * 3 * sampler._MAX_REJECTION_ROUNDS**2

    @pytest.mark.parametrize("spec", [SuperpositionSpec(0.5, 0.3, 2.0),
                                      SuperpositionSpec(0.3, 1.0, 2.0),
                                      SuperpositionSpec(0.5, 1.5, 0.0)],
                             ids=["close", "weighted", "r0"])
    def test_round_caps_are_handed_the_closed_form_worst(self, monkeypatch, spec):
        # the dip sampler's worst slot is (1 - s_max amp_0) / (1 + s_max) with
        # amp_0 = 2|c1 c2| e^(-x1^2 / (2 sx2)); the fringe sampler's is 1/2
        seen = []
        round_cap = sampler._round_cap

        def recording_cap(worst):
            seen.append(worst)
            return round_cap(worst)

        monkeypatch.setattr(sampler, "_round_cap", recording_cap)
        sx2 = model.packet(spec, 0.0)[0]
        amp_0 = model.fringe_p(spec, 0.0)[1]
        amp = partial(model.conditional_fringe_amp, spec)
        for fringe, s_max in ((1.0, 1.0), (-0.5, 0.5), (np.linspace(-0.3, 0.8, 64), 0.8)):
            seen.clear()
            sample_mixture_with_dip(spec.c1_sq, spec.x1, math.sqrt(sx2), fringe, amp,
                                    RngStream(4, 0).generator(), size=64)
            assert seen == [pytest.approx((1.0 - s_max * amp_0) / (1.0 + s_max), rel=1e-12)]
        for fringe_amp in (0.0, 1.0, np.linspace(0.0, 0.7, 64)):
            seen.clear()
            sample_fringe(1.0, fringe_amp, 2.0, RngStream(4, 1).generator(), size=64)
            assert seen == [0.5]


class TestDeterminismAcrossCalls:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: sample_gaussian_mixture(0.5, 1.0, -1.0, 1.0, rng, size=4),
            lambda rng: sample_fringe(1.0, 0.5, 1.0, rng, size=4),
            lambda rng: sample_mixture_with_dip(0.5, 1.0, 1.0, 0.1, _hill_amp(0.5, 1.0, 1.0),
                                                rng, size=4),
        ],
        ids=["mixture", "fringe", "mixture_with_dip"],
    )
    def test_rng_stream_refused(self, draw):
        # a stream handed in would restart at every call: two calls, or two
        # directions of one pair, would draw the same uniforms
        with pytest.raises(TypeError, match=r"RngStream\(seed, stream\)\.generator\(\)"):
            draw(RngStream(1, 0))

    def test_fringe_sampler_reproducible(self):
        a, _ = sample_fringe(2.0, 0.5, 1.0, RngStream(77, 3).generator(), size=1000)
        b, _ = sample_fringe(2.0, 0.5, 1.0, RngStream(77, 3).generator(), size=1000)
        assert np.array_equal(a, b)


def _stream_words(gen):
    """64-bit Philox words handed out so far, plus a constant offset."""
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"])


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestStandardNormal:
    def test_array_form_is_shifted_inverse_transform(self):
        size = (257, 7)
        got = standard_normal_it(RngStream(31, 5).generator(), size)
        want = ndtri(RngStream(31, 5).generator().random(size) + 2**-54)
        assert got.shape == size
        assert got.tobytes() == want.tobytes()


_LOCK_SIZE = 3001


class TestSamplerByteLock:
    """Samples, accept rounds and stream use, frozen before compaction.

    Every round consumes every slot's uniforms, so the stream position after
    a call is blocks * size * max(rounds) words whatever the live count.
    """

    @pytest.mark.parametrize(
        "sigma, amp, freq, values_sha, rounds_sha, words",
        [
            (1.3, 0.9, 2.0,
             "6ffad8eaabe34d1a7e86e2363748fbd88b265fbabeb605968b95a5f1f6b156f9",
             "4171730c6a9caafdbccfc2c0f0d091a03227edd244d60afa0c9c6eb07610267f", 66022),
            (1.3, np.linspace(0.0, 1.0, _LOCK_SIZE), 2.0,
             "0cc7d2eef568c501c5612654e2ee29ff2f86584d8bb87e400b7267b4259e92ec",
             "63d1b1fae1b83063f7960703641ecaef3ff7380bc32c102e889df6d73168125b", 54018),
        ],
        ids=["scalar_amp", "per_slot_amp"],
    )
    def test_fringe(self, sigma, amp, freq, values_sha, rounds_sha, words):
        gen = RngStream(2718, 1).generator()
        start = _stream_words(gen)
        v, rounds = sample_fringe(sigma, amp, freq, gen, size=_LOCK_SIZE)
        used = _stream_words(gen) - start
        assert (_sha(v), _sha(rounds), used) == (values_sha, rounds_sha, words)
        assert used == 2 * _LOCK_SIZE * rounds.max()

    def test_mixture_with_dip(self):
        fringe = np.linspace(-1.0, 1.0, _LOCK_SIZE)
        gen = RngStream(2718, 2).generator()
        start = _stream_words(gen)
        v, rounds = sample_mixture_with_dip(
            0.4, 1.2, 0.9, fringe, _hill_amp(0.4, 1.2, 0.9), gen, size=_LOCK_SIZE
        )
        used = _stream_words(gen) - start
        assert (_sha(v), _sha(rounds), used) == (
            "782de3a7eb2807b95f8e4335f4e1580c98b57815d24bd8f553c5a2e1bf24b64a",
            "4fdfac93e34f925eb6d0eca65e93ab9a4139595f407b9c98c2eb41cffc1fe8ea",
            162054,
        )
        assert used == 3 * _LOCK_SIZE * rounds.max()


class TestRejectionWork:
    def test_transform_work_is_live_slots_only(self, monkeypatch):
        # Each slot is transformed once per round it is live: sum(rounds) normals,
        # not size * max(rounds).
        calls = []
        ndtri = sampler.ndtri

        def counting_ndtri(u):
            calls.append(np.size(u))
            return ndtri(u)

        monkeypatch.setattr(sampler, "ndtri", counting_ndtri)
        _, rounds = sample_fringe(1.0, 0.9, 2.0, RngStream(3, 0).generator(), size=4000)
        assert rounds.max() > 1
        assert sum(calls) == rounds.sum()


def _reference_reject(name, size, gen, n_blocks, transform, worst_acceptance):
    """The rejection loop before round 1 took whole blocks: every round,
    round 1 included, gathers the live slots' uniforms."""
    values = np.zeros(size)
    rounds = np.zeros(size, dtype=np.int64)
    live = np.arange(size)
    blocks = np.empty((n_blocks, size))
    for round_no in range(1, sampler._round_cap(worst_acceptance) + 1):
        for block in blocks:
            gen.random(out=block)
        prop, accepted = transform(live, *(block[live] + sampler._U_SHIFT for block in blocks))
        took = live[accepted]
        values[took] = prop[accepted]
        rounds[took] = round_no
        live = live[~accepted]
        if live.size == 0:
            return values, rounds
    raise RuntimeError(f"{name} rejection sampler failed to terminate")


class TestRejectionMatchesReference:
    """Round 1 on whole blocks changes no sample, round or stream word."""

    @staticmethod
    def _cases(size):
        slots = np.random.default_rng(size)
        amp = _hill_amp(0.4, 1.2, 0.9)
        return {
            "fringe_amp0": lambda gen: sample_fringe(1.3, 0.0, 2.0, gen, size=size),
            "fringe_amp1": lambda gen: sample_fringe(1.3, 1.0, 2.0, gen, size=size),
            "fringe_per_slot": lambda gen: sample_fringe(
                0.8, slots.uniform(0.0, 1.0, size), 3.0, gen, size=size),
            "dip_plus": lambda gen: sample_mixture_with_dip(0.4, 1.2, 0.9, 1.0, amp, gen, size=size),
            "dip_minus": lambda gen: sample_mixture_with_dip(
                0.4, 1.2, 0.9, -1.0, amp, gen, size=size),
            "dip_per_slot": lambda gen: sample_mixture_with_dip(
                0.4, 1.2, 0.9, slots.uniform(-1.0, 1.0, size), amp, gen, size=size),
        }

    @pytest.mark.parametrize("size", [1, 7, 16_384])
    def test_values_rounds_and_words_equal_reference(self, monkeypatch, size):
        got = {}
        for reject in (sampler._reject, _reference_reject):
            monkeypatch.setattr(sampler, "_reject", reject)
            for name, draw in self._cases(size).items():
                gen = RngStream(size, 9).generator()
                start = _stream_words(gen)
                values, rounds = draw(gen)
                got.setdefault(name, []).append((values, rounds, _stream_words(gen) - start))
        for name, ((v, r, used), (v_ref, r_ref, used_ref)) in got.items():
            assert np.array_equal(v, v_ref), name
            assert np.array_equal(r, r_ref) and r.dtype == r_ref.dtype, name
            assert used == used_ref, name
        assert np.all(got["fringe_amp0"][0][1] == 1)

    def test_round_limit_counts_round_one(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MAX_REJECTION_ROUNDS", 1)
        _, rounds = sample_fringe(1.0, 0.0, 2.0, RngStream(5, 0).generator(), size=100)
        assert np.all(rounds == 1)
        with pytest.raises(RuntimeError, match="^fringe rejection sampler failed to terminate$"):
            sample_fringe(1.0, 1.0, 2.0, RngStream(5, 0).generator(), size=100)
