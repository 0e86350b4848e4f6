"""Analytic-distribution tests: closed forms against independent quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from qtraj import model
from qtraj.model import (
    MeasurementConfig,
    Setting,
    SuperpositionSpec,
    conditional_p_given_x,
    marginal_p,
    marginal_p_amplified_scaled,
    marginal_x,
    q_sup,
    reference_moments,
    scaled_x_marginal,
)


def cfg_gtf(gtf, steps=30, setting=Setting.X):
    return MeasurementConfig.from_gtf(gtf, steps, setting=setting, n_samples=1, seed=0)


class TestQDensity:
    def test_vacuum_point_value(self):
        # coincident packets at the origin with r = 0 reduce to the vacuum
        spec = SuperpositionSpec(c1_sq=0.5, x1=0.0, r=0.0)
        assert q_sup(spec, 0.0, 0.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)

    def test_two_hills_with_damped_fringe(self):
        spec = SuperpositionSpec(0.5, 8.0, 2.0)
        sx2 = 1.0 + math.exp(-4.0)
        h1, h2, fr = model.q_sup_terms(spec, 8.0, 0.5)
        # peak of the first hill sits at x = x1 with width sigma_x^2 = 1 + e^(-2r)
        env = math.exp(-0.25 / (2.0 * (1.0 + math.exp(4.0))))
        norm = env / (2.0 * math.pi * math.sqrt(sx2 * (1.0 + math.exp(4.0))))
        assert h1 == pytest.approx(0.5 * norm, rel=1e-12)
        assert h2 == pytest.approx(0.5 * norm * math.exp(-4.0 * 64.0 / (2.0 * sx2)), rel=1e-9)
        # central fringe amplitude carries the e^(-x1^2 / 2 sx2) damping
        fr_max = model.q_sup_terms(spec, 0.0, 0.5 * math.pi * sx2 / 8.0)[2]
        assert abs(fr_max) < math.exp(-60.0 / (2.0 * sx2))

    @pytest.mark.parametrize(
        "spec, gt",
        [
            pytest.param(SuperpositionSpec(0.5, x1, r), gt, id=f"{tag}{gt}")
            for tag, x1, r in (("", 4.0, 2.0), ("overlap-", 0.3, 0.0))
            for gt in (0.0, 1.0, 2.0)
        ],
    )
    def test_normalization_by_2d_simpson(self, spec, gt):
        # independent oracle: scipy composite Simpson on a wide fine grid.  The
        # fixed relative phase keeps the closed form exactly normalized, so the
        # residual is pure quadrature error even for overlapping packets.
        sx2, sp2, gx1 = model.packet(spec, gt)
        sx, sp = math.sqrt(sx2), math.sqrt(sp2)
        xs = np.linspace(-gx1 - 10 * sx, gx1 + 10 * sx, 3001)
        ps = np.linspace(-10 * sp, 10 * sp, 3001)
        q = q_sup(spec, xs[:, None], ps[None, :], gt)
        total = simpson(simpson(q, x=ps, axis=1), x=xs)
        assert abs(total - 1.0) < 1e-9

    def test_nonnegative_on_grid(self):
        for x1, r, c1 in [(0.5, 0.0, 0.5), (1.0, 2.0, 0.5), (4.0, 1.0, 0.3), (8.0, 2.0, 0.1)]:
            spec = SuperpositionSpec(c1, x1, r)
            sx, sp = map(math.sqrt, model.packet(spec, 0.0)[:2])
            xs = np.linspace(-x1 - 6 * sx, x1 + 6 * sx, 201)
            ps = np.linspace(-6 * sp, 6 * sp, 201)
            q = q_sup(spec, xs[:, None], ps[None, :])
            assert np.all(q >= 0.0)

    def test_rejects_non_finite(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            q_sup(spec, float("nan"), 0.0)
        with pytest.raises(ValueError):
            q_sup(spec, 0.0, float("inf"))

    def test_measure_p_flips_gain_sign(self):
        spec = SuperpositionSpec(0.5, 2.0, 2.0)
        cfg_p = cfg_gtf(2.0, 20, setting=Setting.P)
        # packets contract toward the origin when p is amplified
        h1, _, _ = model.q_sup_terms(spec, 2.0 * math.exp(-1.0), 0.0, cfg_p.sign * 1.0)
        sx2 = 1.0 + math.exp(2.0 * (-1.0 - 2.0))
        sp2 = 1.0 + math.exp(-2.0 * (-1.0 - 2.0))
        assert h1 == pytest.approx(0.5 / (2.0 * math.pi * math.sqrt(sx2 * sp2)), rel=1e-12)


class TestMarginals:
    def test_x_marginal_two_gaussians(self):
        spec = SuperpositionSpec(0.5, 8.0, 2.0)
        sx2 = 1.0 + math.exp(-4.0)
        expected = 0.5 / math.sqrt(2.0 * math.pi * sx2)  # far hill negligible
        assert marginal_x(spec, 8.0) == pytest.approx(expected, rel=1e-9)

    def test_x_marginal_normalized(self):
        spec = SuperpositionSpec(0.3, 4.0, 2.0)
        for t in (0.0, 2.0):
            total, err = quad(
                lambda x: float(marginal_x(spec, x, t)),
                -math.exp(t) * 4.0 - 40.0,
                math.exp(t) * 4.0 + 40.0,
                limit=300,
            )
            assert abs(total - 1.0) < 1e-9

    def test_x_marginal_consistent_with_joint(self):
        # integrating the joint over p recovers the x marginal
        spec = SuperpositionSpec(0.5, 4.0, 2.0)
        sp = model.fringe_p(spec, 1.0)[0]
        ps = np.linspace(-12 * sp, 12 * sp, 4001)
        for x in (-4.0 * math.e, 0.0, 1.7, 4.0 * math.e):
            joint = q_sup(spec, x, ps, 1.0)
            assert simpson(joint, x=ps) == pytest.approx(
                float(marginal_x(spec, x, 1.0)), abs=1e-6
            )

    def test_p_marginal_consistent_with_joint(self):
        # integrating the joint over x recovers the p marginal, also at an
        # interior time of a measure-x run (gt = 1), where p is the attenuated
        # quadrature, and of a measure-p run (gt = -1)
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        for gt in (0.0, 1.0, -1.0):
            sx2, _, gx1 = model.packet(spec, gt)
            sx = math.sqrt(sx2)
            xs = np.linspace(-gx1 - 12 * sx, gx1 + 12 * sx, 4001)
            for p in (-3.0, 0.0, 0.8, 7.0):
                joint = q_sup(spec, xs, p, gt)
                assert simpson(joint, x=xs) == pytest.approx(
                    float(marginal_p(spec, p, gt)), abs=1e-6
                )

    def test_p_marginal_zero_separation_is_gaussian(self):
        spec = SuperpositionSpec(0.5, 0.0, 2.0)
        sp2 = 1.0 + math.exp(4.0)
        ps = np.linspace(-20, 20, 7)
        gauss = np.exp(-ps * ps / (2 * sp2)) / math.sqrt(2 * math.pi * sp2)
        assert marginal_p(spec, ps) == pytest.approx(gauss, rel=1e-12)

    def test_p_marginal_fringes_visible(self):
        # r = 2, x1 = 1: clear interference against the Gaussian envelope
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        sigma, amp, freq = model.fringe_p(spec, 0.0)
        assert 0.5 < amp < 0.7
        p_min = 0.5 * math.pi / freq
        env = math.exp(-p_min**2 / (2 * sigma**2)) / math.sqrt(2 * math.pi) / sigma
        assert marginal_p(spec, p_min) == pytest.approx(env * (1 - amp), rel=1e-12)
        assert marginal_p(spec, -p_min) == pytest.approx(env * (1 + amp), rel=1e-12)

    def test_p_marginal_nonnegative_scan(self):
        for x1 in (0.0, 0.5, 1.0, 2.0, 4.0):
            for r in (0.0, 1.0, 2.0):
                spec = SuperpositionSpec(0.5, x1, r)
                sp = math.sqrt(1.0 + math.exp(2 * r))
                ps = np.linspace(-8 * sp, 8 * sp, 4001)
                assert np.min(marginal_p(spec, ps)) >= 0.0

    def test_scaled_x_marginal_variance(self):
        # inferred-outcome variable: mixture width e^(-2gt) + e^(-2r)
        spec = SuperpositionSpec(0.5, 2.0, 2.0)
        var = math.exp(-8.0) + math.exp(-4.0)
        val = scaled_x_marginal(spec, 2.0, 4.0)
        assert val == pytest.approx(0.5 / math.sqrt(2 * math.pi * var), rel=1e-6)

    def test_scaled_p_marginal_cat_values(self):
        spec = SuperpositionSpec.cat(2.0)
        assert marginal_p_amplified_scaled(spec, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )
        # fringe null where sin reaches one
        p_null = 0.5 * math.pi / spec.x1
        assert marginal_p_amplified_scaled(spec, p_null) == pytest.approx(0.0, abs=1e-15)

    def test_scaled_p_marginal_normalized(self):
        for r in (0.0, 1.0):
            spec = SuperpositionSpec(0.5, 2.0, r)
            lim = 12 * math.exp(r)
            total, _ = quad(lambda p: float(marginal_p_amplified_scaled(spec, p)), -lim, lim, limit=400)
            assert abs(total - 1.0) < 1e-6

    def test_amplified_p_marginal_matches_scaled_limit(self):
        # measure p amplifies p: the signed time is -6
        spec = SuperpositionSpec.cat(2.0)
        scale = math.exp(6.0)
        pt = np.linspace(-8.0, 8.0, 101)
        exact = marginal_p(spec, pt * scale, -6.0) * scale
        limit = marginal_p_amplified_scaled(spec, pt)
        assert np.max(np.abs(exact - limit)) < 2e-3


class TestConditional:
    def test_mixture_mode_plain_gaussian(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0, mixture=True)
        sp2 = 1.0 + math.exp(4.0)
        for x_p in (-3.0, 0.0, 5.0):
            ps = np.linspace(-10, 10, 11)
            gauss = np.exp(-ps * ps / (2 * sp2)) / math.sqrt(2 * math.pi * sp2)
            assert conditional_p_given_x(spec, x_p, ps) == pytest.approx(gauss, rel=1e-12)

    def test_far_from_origin_fringe_vanishes_evenly(self):
        spec = SuperpositionSpec(0.5, 2.0, 2.0)
        sp2 = 1.0 + math.exp(4.0)
        gauss = math.exp(-1.0 / (2 * sp2)) / math.sqrt(2 * math.pi * sp2)
        for x_p in (60.0, -60.0):
            assert conditional_p_given_x(spec, x_p, 1.0) == pytest.approx(gauss, rel=1e-10)

    def test_even_in_x_for_balanced_weights(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0)
        ps = np.linspace(-12, 12, 41)
        for x_p in (0.3, 1.0, 2.7):
            np.testing.assert_allclose(
                conditional_p_given_x(spec, x_p, ps),
                conditional_p_given_x(spec, -x_p, ps),
                rtol=1e-12,
            )

    def test_product_recovers_joint_pointwise(self):
        # conditional times x-marginal equals the joint to 1e-10 relative
        for c1 in (0.5, 0.3):
            spec = SuperpositionSpec(c1, 1.5, 2.0)
            xs = np.array([-2.0, -0.4, 0.0, 0.9, 3.0])
            ps = np.array([-5.0, -1.1, 0.0, 2.3, 8.0])
            joint = q_sup(spec, xs[:, None], ps[None, :])
            product = conditional_p_given_x(spec, xs[:, None], ps[None, :]) * np.asarray(
                marginal_x(spec, xs)
            )[:, None]
            np.testing.assert_allclose(product, joint, rtol=1e-10)

    def test_fringe_amp_bounded_and_stable(self):
        # log-space evaluation stays finite for widely separated packets
        spec = SuperpositionSpec(0.3, 8.0, 6.0)
        xs = np.array([-500.0, -8.0, 0.0, 8.0, 500.0])
        amp = model.conditional_fringe_amp(spec, xs)
        assert np.all(np.isfinite(amp))
        assert np.all((amp >= 0.0) & (amp <= 1.0))


class TestReferenceMoments:
    def test_initial_variances_squeezed(self):
        spec = SuperpositionSpec(0.5, 0.0, 2.0)
        mom = reference_moments(spec, 0.0, cfg_gtf(3.0, 30))
        assert mom.var_x == pytest.approx(1.0 + math.exp(-4.0), rel=1e-12)
        assert mom.var_p == pytest.approx(1.0 + math.exp(4.0), rel=1e-12)

    def test_attenuated_variance_decay(self):
        spec = SuperpositionSpec(0.5, 0.0, 2.0)
        mom = reference_moments(spec, 3.0, cfg_gtf(3.0, 30))
        assert mom.var_p == pytest.approx(1.0 + math.exp(-2.0), rel=1e-12)

    def test_moments_match_quadrature(self):
        # independent oracle: direct 2-D Simpson moments of the density
        spec = SuperpositionSpec(0.5, 1.0, 0.0)
        cfg = cfg_gtf(1.0, 10)
        for t in (0.0, 1.0):
            sx2, sp2, gx1 = model.packet(spec, t)
            sx, sp = math.sqrt(sx2), math.sqrt(sp2)
            xs = np.linspace(-gx1 - 10 * sx, gx1 + 10 * sx, 2001)
            ps = np.linspace(-10 * sp, 10 * sp, 2001)
            q = q_sup(spec, xs[:, None], ps[None, :], cfg.sign * t)
            mean_p = simpson(simpson(q * ps[None, :], x=ps, axis=1), x=xs)
            var_x = simpson(simpson(q * xs[:, None] ** 2, x=ps, axis=1), x=xs)
            var_p = simpson(simpson(q * ps[None, :] ** 2, x=ps, axis=1), x=xs) - mean_p**2
            mom = reference_moments(spec, t, cfg)
            assert mom.mean_p == pytest.approx(mean_p, abs=1e-7)
            assert mom.var_x == pytest.approx(var_x, rel=1e-7)
            assert mom.var_p == pytest.approx(var_p, rel=1e-7)

    def test_heisenberg_scaling_of_means_and_variances(self):
        # mean_p(t) = e^(-gt) mean_p(0); variances follow the gain laws
        spec = SuperpositionSpec(0.5, 1.0, 0.0)
        cfg = cfg_gtf(2.0, 20)
        m0 = reference_moments(spec, 0.0, cfg)
        for t in (0.5, 1.0, 2.0):
            mt = reference_moments(spec, t, cfg)
            assert mt.mean_p == pytest.approx(m0.mean_p * math.exp(-t), rel=1e-12)
            assert mt.var_x == pytest.approx(1 + math.exp(2 * t) * (m0.var_x - 1), rel=1e-12)
            assert mt.var_p == pytest.approx(1 + math.exp(-2 * t) * (m0.var_p - 1), rel=1e-12)

    def test_unbalanced_weights_shift_mean(self):
        spec = SuperpositionSpec(0.3, 4.0, 2.0)
        mom = reference_moments(spec, 0.0, cfg_gtf(1.0, 10))
        assert mom.mean_x == pytest.approx(-0.4 * 4.0, rel=1e-12)

    def test_time_outside_run_refused(self):
        # a run's moments exist only on its horizon [0, t_f]
        spec, cfg = SuperpositionSpec(0.5, 1.0, 2.0), cfg_gtf(2.0, 20)
        for t in (-0.5, 3.0):
            with pytest.raises(ValueError, match="t must lie in"):
                reference_moments(spec, t, cfg)


class TestFringeSuppression:
    @pytest.mark.parametrize("x1", [1.0, 2.0])
    def test_amplification_kills_interference(self, x1):
        # at g*t = 3 the fringe peak is < 1e-8 of the hill peak
        spec = SuperpositionSpec(0.5, x1, 2.0)
        gx1 = math.exp(3.0) * x1
        sx2 = model.packet(spec, 3.0)[0]
        p_peak = 0.5 * math.pi * sx2 / gx1  # first fringe antinode
        hill_peak = model.q_sup_terms(spec, gx1, 0.0, 3.0)[0]
        fringe_peak = abs(model.q_sup_terms(spec, 0.0, -p_peak, 3.0)[2])
        assert fringe_peak / hill_peak < 1e-8


FIRST_PRINCIPLES_SPECS = {
    "balanced": SuperpositionSpec(0.5, 1.0, 2.0),
    "weighted": SuperpositionSpec(0.3, 1.5, 0.5),
    "cat": SuperpositionSpec.cat(1.0),
    "mixture": SuperpositionSpec(0.3, 1.5, 0.5, mixture=True),
}


def _phase_points(spec, gt, n, seed):
    # uniform over the packet centers +- 3 widths along x and +- 3 widths along p
    sx2, sp2, gx1 = model.packet(spec, gt)
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, n) * (gx1 + 3 * math.sqrt(sx2)),
            rng.uniform(-1, 1, n) * 3 * math.sqrt(sp2))


class TestQFromFirstPrinciples:
    """q_sup derived two other ways: from the prepared state, and by its dynamics."""

    @pytest.mark.parametrize("spec", FIRST_PRINCIPLES_SPECS.values(),
                             ids=FIRST_PRINCIPLES_SPECS.keys())
    def test_initial_q_is_the_coherent_state_overlap(self, spec):
        # c1|psi+> + i|c2||psi-> from packets of Var(x) = e^(-2r) at +-x1, with
        # x = a + a^dag (so p = -2i d/dx): Q = |<alpha|psi>|^2 / (4 pi), alpha = (x + ip)/2
        x, p = _phase_points(spec, 0.0, 200, seed=11)
        y = np.linspace(-spec.x1 - 12.0, spec.x1 + 12.0, 6001)
        s2 = math.exp(-2.0 * spec.r)
        plus, minus = ((2 * math.pi * s2) ** -0.25 * np.exp(-((y - c) ** 2) / (4 * s2))
                       for c in (spec.x1, -spec.x1))
        coherent = (2 * math.pi) ** -0.25 * np.exp(-((y - x[:, None]) ** 2) / 4
                                                   + 0.5j * p[:, None] * y)

        def q_of(psi):
            return np.abs(simpson(coherent.conj() * psi, x=y, axis=1)) ** 2 / (4 * math.pi)

        if spec.mixture:
            q = spec.c1_sq * q_of(plus) + spec.c2_sq * q_of(minus)
        else:
            q = q_of(math.sqrt(spec.c1_sq) * plus + 1j * math.sqrt(spec.c2_sq) * minus)
        closed = q_sup(spec, x, p)
        assert np.max(np.abs(q - closed)) < 1e-12 * closed.max()

    @pytest.mark.parametrize("setting", [Setting.X, Setting.P], ids=["measure_x", "measure_p"])
    @pytest.mark.parametrize("spec", FIRST_PRINCIPLES_SPECS.values(),
                             ids=FIRST_PRINCIPLES_SPECS.keys())
    def test_q_obeys_the_amplifier_fokker_planck_equation(self, spec, setting):
        # measure x: dQ/dt = -d_x(xQ) - d_xx Q + d_p(pQ) + d_pp Q (negative x
        # diffusion, which is why x runs backward); measure p swaps x and p.
        # Central differences leave an O(h^2) residual, so halving h must quarter it.
        s = 1.0 if setting is Setting.X else -1.0
        for gt in (0.3, 1.0, 2.5):
            x, p = _phase_points(spec, s * gt, 400, seed=int(10 * gt))

            def residual(h):
                def q(dx=0.0, dp=0.0, dt=0.0):
                    return q_sup(spec, x + dx, p + dp, s * (gt + dt))

                q0, qx1, qx0, qp1, qp0 = q(), q(dx=h), q(dx=-h), q(dp=h), q(dp=-h)
                dq_dt = (q(dt=h) - q(dt=-h)) / (2 * h)
                x_terms = ((x + h) * qx1 - (x - h) * qx0) / (2 * h) + (qx1 - 2 * q0 + qx0) / h**2
                p_terms = ((p + h) * qp1 - (p - h) * qp0) / (2 * h) + (qp1 - 2 * q0 + qp0) / h**2
                return np.max(np.abs(dq_dt + s * (x_terms - p_terms))) / q0.max()

            coarse, fine = residual(1e-3), residual(5e-4)
            assert coarse < 2e-4, (gt, coarse)
            assert fine / coarse == pytest.approx(0.25, abs=0.01), (gt, coarse, fine)


class TestValidation:
    def test_spec_bounds(self):
        with pytest.raises(ValueError):
            SuperpositionSpec(c1_sq=1.5)
        with pytest.raises(ValueError):
            SuperpositionSpec(x1=-1.0)
        with pytest.raises(ValueError):
            SuperpositionSpec(r=7.0)
        with pytest.raises(ValueError):
            SuperpositionSpec(r=float("nan"))

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            MeasurementConfig(t_f=1.0, dt=0.3)  # not a whole number of steps
        with pytest.raises(ValueError):
            MeasurementConfig(t_f=0.0, dt=0.1)
        with pytest.raises(ValueError, match="overflows"):
            MeasurementConfig(t_f=400.0, dt=0.1)  # gain factor e^(t_f) overflows
        for dt in (1e-300, 5e-324):  # 3e300 and inf steps: no range holds them
            with pytest.raises(ValueError, match="t_f/dt"):
                MeasurementConfig(t_f=3.0, dt=dt)
        with pytest.raises(ValueError):
            MeasurementConfig(n_samples=0)
        cfg = MeasurementConfig(t_f=1.0, dt=0.1)
        assert cfg.n_steps == 10 and cfg.sign == 1.0

    def test_non_integer_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            MeasurementConfig(seed=1.5)

    def test_cat_constructor(self):
        spec = SuperpositionSpec.cat(2.0)
        assert spec.x1 == 4.0 and spec.r == 0.0


class TestAnalyticRegressionLock:
    # frozen values of the densities and bin integrals; anything beyond
    # rounding (a wrong weight, width, amplitude or fringe frequency) fails
    SPEC = SuperpositionSpec(0.3, 1.0, 2.0)
    WIDE = SuperpositionSpec(0.3, 1.5, 1.0)

    def test_q_sup_terms_frozen(self):
        terms = model.q_sup_terms(self.SPEC, [0.3, -1.2, 2.5], [0.4, -0.7, 1.1], 0.5)
        expected = [
            [0.004250915829237853, 0.00021024701177747228, 0.006982952694823346],
            [0.003865591747481401, 0.021265707674529583, 6.3336637793383e-06],
            [0.004764683471177513, -0.0037676827965665667, 0.00041544847214353874],
        ]
        np.testing.assert_allclose(np.array(terms), expected, rtol=1e-12, atol=0)

    def test_marginals_frozen(self):
        np.testing.assert_allclose(
            marginal_x(self.WIDE, [-3.0, 0.0, 2.0, 5.0], 1.5),
            [0.0224687211380059, 0.00047479314537406635, 0.0030984120939067166,
             0.04164669957208807],
            rtol=1e-12, atol=0,
        )
        np.testing.assert_allclose(
            scaled_x_marginal(self.WIDE, [-1.5, 0.2, 1.4], 1.5),
            [0.6490507806469824, 0.0031614079322551353, 0.27075217897580456],
            rtol=1e-12, atol=0,
        )
        np.testing.assert_allclose(
            marginal_p_amplified_scaled(self.WIDE, [-2.0, 0.3, 1.7]),
            [0.12644132315872184, 0.0877195114889737, 0.05900414231358326],
            rtol=1e-12, atol=0,
        )
        np.testing.assert_allclose(
            [marginal_p(self.WIDE, [-4.0, -0.6, 1.2, 3.5]),
             marginal_p(self.WIDE, [-9.0, 0.5, 4.0, 14.0], -1.5)],
            [[0.03789553966514959, 0.16748591330338108, 0.08340322278405109,
              0.08886371591861972],
             [0.028101861297075478, 0.027932428700060703, 0.0048919580773196915,
              0.031597133279650746]],
            rtol=1e-12, atol=0,
        )

    @pytest.mark.parametrize(
        "setting, window, expected",
        [
            (Setting.X, (27, 101, 0, 70), {
                (37, 35): 0.00011096032510028165, (38, 34): 0.00035327224322046614,
                (35, 36): 0.00022972574329333534, (40, 35): 0.0003627404170376575,
                (37, 37): 0.00018033315182966093,
            }),
            (Setting.P, (0, 52, 414, 898), {
                (26, 242): 0.0008218921699613766, (27, 241): 0.0008921626147723812,
                (24, 243): 0.0007004719639716618, (29, 242): 0.0005278762173403255,
                (26, 244): 0.0005271761927044151,
            }),
        ],
    )
    def test_windowed_bin_probs_frozen(self, setting, window, expected):
        from qtraj import stats

        cfg = MeasurementConfig.from_gtf(2.0, 4, setting=setting)
        grid = stats.Grid3.auto(self.SPEC, cfg, dx=0.25, dp=0.5, t_steps=(2, 4))
        assert grid.windows[0] == window  # t = 1 slice, narrower than the lattice
        probs = stats.analytic_bin_probs(self.SPEC, cfg, grid)[0]
        got = [probs[ij] for ij in expected]
        np.testing.assert_allclose(got, list(expected.values()), rtol=1e-12, atol=0)

    def test_oracle_qplus_bin_probs_frozen(self):
        from qtraj import analysis

        spec = SuperpositionSpec.cat(1.0)
        cfg = MeasurementConfig.from_gtf(4.0, 40)
        edges = analysis.default_qplus_edges(spec, n_bins=10)
        probs = analysis.oracle_qplus_bin_probs(spec, cfg, "+", *edges)
        expected = {
            (5, 5): 0.11459077100603221, (6, 4): 0.17065627028423244,
            (7, 5): 0.022527713548685793, (4, 6): 0.003174015863287547,
            (8, 3): 0.00012869982223285244,
        }
        got = [probs[ij] for ij in expected]
        np.testing.assert_allclose(got, list(expected.values()), rtol=1e-12, atol=0)
