"""Engine tests: linked backward/forward integration against the analytic laws."""

import math

import numpy as np
import pytest

from qtraj import model, stats
from qtraj.engine import (
    CHUNK_ROWS,
    TrajectoryBatch,
    iter_chunk_batches,
    run_backward,
    run_forward,
    simulate,
)
from qtraj.model import MeasurementConfig, Setting, SuperpositionSpec
from qtraj.sampler import RngStream

SPEC = SuperpositionSpec(0.5, 1.0, 2.0)


def cfg_gtf(gtf, steps, n, seed, setting=Setting.X):
    return MeasurementConfig.from_gtf(gtf, steps, setting=setting, n_samples=n, seed=seed)


class TestDegenerateGain:
    def test_zero_gain_paths_are_constant(self):
        # g = 0: no drift and no noise, every path is flat
        cfg = MeasurementConfig(g=0.0, t_f=1.0, dt=0.1, n_samples=500, seed=9)
        batch = simulate(SPEC, cfg)
        assert np.all(batch.amplified == batch.amplified[:, :1])
        assert np.all(batch.attenuated == batch.attenuated[:, :1])


class TestRegressionLock:
    def test_single_path_frozen(self):
        # bit-level lock of one trajectory: any change to the draw layout,
        # stream keying or integrator coefficients shows up here
        cfg = MeasurementConfig(g=1.0, t_f=0.5, dt=0.1, n_samples=1, seed=7)
        batch = simulate(SPEC, cfg)
        expected_amp = np.array([
            -1.979904212158961, -1.9364410262138645, -2.38230159717512,
            -1.9805947362954228, -2.076243094706792, -2.1997232072843516,
        ])
        expected_att = np.array([
            2.2888005269522336, 2.409718825747448, 2.5957414854285417,
            2.3840961851314577, 2.0951575011290386, 2.3272437297825848,
        ])
        np.testing.assert_array_equal(batch.amplified[0], expected_amp)
        np.testing.assert_array_equal(batch.attenuated[0], expected_att)
        assert batch.boundary_hill[0] == -1

    def test_endpoint_row_frozen(self):
        # the endpoint-only layout: boundary pick, boundary normal, one
        # backward normal, link rounds, one forward normal
        cfg = MeasurementConfig(g=1.0, t_f=0.5, dt=0.1, n_samples=1, seed=7)
        batch = simulate(SPEC, cfg, store_steps=(0, 5))
        np.testing.assert_array_equal(
            batch.amplified[0], [-1.4945183487999227, -2.1997232072843516]
        )
        np.testing.assert_array_equal(
            batch.attenuated[0], [-1.7851713525482282, -0.6735113512541873]
        )
        assert batch.boundary_hill[0] == -1


class TestDeterminism:
    def test_worker_count_invariant(self):
        # 3 chunks stay inside the pool's window of workers + 2; 7 chunks
        # outrun it, with every step stored, endpoint-only and a non-uniform subset
        cases = [(2 * CHUNK_ROWS + 100, 20, None), (6 * CHUNK_ROWS + 7, 4, None),
                 (6 * CHUNK_ROWS + 7, 4, (0, 4)), (6 * CHUNK_ROWS + 7, 10, (0, 1, 4, 10))]
        for n, steps, store in cases:
            cfg = cfg_gtf(2.0, steps, n, seed=42)
            b1 = simulate(SPEC, cfg, workers=1, store_steps=store)
            b2 = simulate(SPEC, cfg, workers=2, store_steps=store)
            assert b2.stored_steps == b1.stored_steps
            np.testing.assert_array_equal(b1.amplified, b2.amplified)
            np.testing.assert_array_equal(b1.attenuated, b2.attenuated)
            np.testing.assert_array_equal(b1.boundary_hill, b2.boundary_hill)

    def test_full_chunks_stable_under_sample_count(self):
        # chunks are fixed-width units: rows of complete chunks do not move
        # when more samples are appended
        cfg_small = cfg_gtf(1.0, 10, CHUNK_ROWS + 50, seed=5)
        cfg_large = cfg_gtf(1.0, 10, 3 * CHUNK_ROWS, seed=5)
        b_small = simulate(SPEC, cfg_small)
        b_large = simulate(SPEC, cfg_large)
        np.testing.assert_array_equal(
            b_small.amplified[:CHUNK_ROWS], b_large.amplified[:CHUNK_ROWS]
        )
        np.testing.assert_array_equal(
            b_small.attenuated[:CHUNK_ROWS], b_large.attenuated[:CHUNK_ROWS]
        )


class TestBackward:
    def test_boundary_and_convergence_geometry(self):
        # macroscopic run: boundary hills at +-e^2 * 8, present values near +-8
        spec = SuperpositionSpec(0.5, 8.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 100_000, seed=13)
        paths, hills = run_backward(spec, cfg, RngStream(cfg.seed, 0), n_rows=cfg.n_samples)
        mu_f = math.exp(2.0) * 8.0
        plus = hills == 1
        assert abs(paths[plus, -1].mean() - mu_f) < 0.1
        assert abs(paths[plus, 0].mean() - 8.0 * (1 - 2.5e-3)) < 0.05
        # residual spread at t = 0 is the per-packet width, about unity
        assert 0.9 < paths[plus, 0].std() < 1.1

    def test_per_hill_variance_not_amplified(self):
        # hidden-noise law: per-packet variance 1 + e^(2gt) e^(-2r) at each slice
        spec = SuperpositionSpec(0.5, 8.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 100_000, seed=3)
        batch = simulate(spec, cfg)
        plus = batch.boundary_hill == 1
        for step in (0, 5, 10, 20):
            gt = step * cfg.dt
            analytic = 1.0 + math.exp(2 * gt) * math.exp(-2 * spec.r)
            sampled = batch.amplified[plus, batch.column(step)].var()
            assert 0.9 * analytic < sampled < 1.1 * analytic

    def test_slice_variances_match_reference(self):
        cfg = cfg_gtf(3.0, 30, 100_000, seed=21)
        batch = simulate(SPEC, cfg)
        for step in (0, 10, 20, 30):
            mom = stats.moment_summary(batch, step)
            ref = model.reference_moments(SPEC, step * cfg.dt, cfg)
            assert abs(mom["x"].var - ref.var_x) < 4 * mom["x"].se_var
            assert abs(mom["p"].var - ref.var_p) < 4 * mom["p"].se_var


class TestForward:
    def test_mixture_link_is_independent(self):
        spec = SuperpositionSpec(0.5, 1.0, 2.0, mixture=True)
        cfg = cfg_gtf(2.0, 20, 200_000, seed=8)
        batch = simulate(spec, cfg)
        x0 = batch.amplified[:, 0]
        p0 = batch.attenuated[:, 0]
        # no fringe: p(0) plain Gaussian, uncorrelated with the sign of x(0)
        corr = np.corrcoef(np.abs(x0), p0)[0, 1]
        assert abs(corr) < 4 / math.sqrt(len(x0))
        sp2 = model.packet(spec, 0.0)[1]
        assert abs(p0.var() - sp2) < 4 * sp2 * math.sqrt(2 / len(p0))

    def test_attenuated_variance_decays_to_vacuum(self):
        cfg = cfg_gtf(3.0, 30, 100_000, seed=2)
        batch = simulate(SPEC, cfg)
        mom = stats.moment_summary(batch, 30)
        assert abs(mom["p"].var - (1.0 + math.exp(-2.0))) < 4 * mom["p"].se_var
        # monotone decay toward the vacuum level along the run
        vars_t = [batch.attenuated[:, batch.column(s)].var() for s in (0, 10, 20, 30)]
        assert vars_t[0] > vars_t[1] > vars_t[2] > vars_t[3] > 1.0

    def test_forward_requires_matching_rows(self):
        cfg = cfg_gtf(1.0, 10, 100, seed=1)
        gen = RngStream(cfg.seed, 0).generator()
        paths, _ = run_backward(SPEC, cfg, gen, n_rows=100)
        forward = run_forward(SPEC, cfg, paths[:, 0], gen)
        assert forward.shape == paths.shape


class TestMeasureP:
    def test_amplified_p_variance_dynamics(self):
        cfg = cfg_gtf(3.0, 30, 100_000, seed=77, setting=Setting.P)
        batch = simulate(SPEC, cfg)
        for step in (0, 15, 30):
            mom = stats.moment_summary(batch, step)
            ref = model.reference_moments(SPEC, step * cfg.dt, cfg)
            assert abs(mom["p"].var - ref.var_p) < 4 * mom["p"].se_var
            assert abs(mom["x"].var - ref.var_x) < 4 * mom["x"].se_var

    def test_role_swap_on_symmetric_state(self):
        # vacuum is x/p symmetric: measuring p is the variable-swapped problem
        vac = SuperpositionSpec(0.5, 0.0, 0.0)
        cfg_x = cfg_gtf(2.0, 20, 100_000, seed=5, setting=Setting.X)
        cfg_p = cfg_gtf(2.0, 20, 100_000, seed=6, setting=Setting.P)
        bx = simulate(vac, cfg_x)
        bp = simulate(vac, cfg_p)
        for step in (0, 10, 20):
            mx = stats.moment_summary(bx, step)
            mp = stats.moment_summary(bp, step)
            assert abs(mx["x"].var - mp["p"].var) < 4 * math.hypot(mx["x"].se_var, mp["p"].se_var)
            assert abs(mx["p"].var - mp["x"].var) < 4 * math.hypot(mx["p"].se_var, mp["x"].se_var)

    @pytest.mark.parametrize(
        "spec", [SPEC, SuperpositionSpec(0.3, 1.0, 2.0), SuperpositionSpec.cat(1.0)],
        ids=["balanced", "weighted", "cat"],
    )
    def test_linked_joint_matches_q(self, spec):
        # (x, p) at the t = 0 link and at the horizon, binned against Q per slice
        cfg = cfg_gtf(2.0, 20, 200_000, seed=41, setting=Setting.P)
        grid = stats.Grid3.auto(spec, cfg, dx=0.1, dp=0.2, t_steps=(0, cfg.n_steps))
        binned = stats.accumulate_counts(spec, cfg, grid)
        probs = stats.analytic_bin_probs(spec, cfg, grid)
        for step, counts, prob in zip(grid.t_steps, binned.counts, probs):
            chi2, k = stats.chi2_counts_vs_probs(counts, prob, cfg.n_samples)
            z = (chi2 - k) / math.sqrt(2 * k)
            assert abs(z) < 4, f"step {step}: chi2={chi2:.1f} k={k} z={z:.2f}"

    def test_physical_axis_mapping(self):
        cfg = cfg_gtf(1.0, 10, 2000, seed=3, setting=Setting.P)
        batch = simulate(SPEC, cfg)
        np.testing.assert_array_equal(batch.p_at(10), batch.amplified[:, -1])
        np.testing.assert_array_equal(batch.x_at(0), batch.attenuated[:, 0])


class TestStorage:
    def test_store_must_keep_link_and_boundary(self):
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        with pytest.raises(ValueError):
            simulate(SPEC, cfg, store_steps=(1, 10))
        with pytest.raises(ValueError):
            simulate(SPEC, cfg, store_steps=(0, 5))
        with pytest.raises(ValueError):
            simulate(SPEC, cfg, store_steps=(0, 11))

    def test_missing_step_raises(self):
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        batch = simulate(SPEC, cfg, store_steps=(0, 10))
        with pytest.raises(KeyError):
            batch.amplified_at(5)

    def test_chunk_iteration_covers_all_rows(self):
        cfg = cfg_gtf(1.0, 10, CHUNK_ROWS + 17, seed=2)
        chunks = list(iter_chunk_batches(SPEC, cfg))
        assert [c.n_samples for c in chunks] == [CHUNK_ROWS, 17]
        whole = TrajectoryBatch.concat(chunks)
        direct = simulate(SPEC, cfg)
        np.testing.assert_array_equal(whole.amplified, direct.amplified)


class TestEndpointStride:
    @pytest.mark.parametrize(
        "setting, store",
        [(Setting.X, (0, 40)), (Setting.P, (0, 40)),
         (Setting.X, (0, 3, 10, 40)), (Setting.P, (0, 3, 10, 40))],
        ids=["Setting.X", "Setting.P", "Setting.X-nonuniform", "Setting.P-nonuniform"],
    )
    def test_transition_residuals_match_exact_kernel(self, setting, store):
        # every gap between stored steps s_j < s_(j+1) is one exact OU
        # transition each way: q(s_j) - e^(-g D) q(s_(j+1)) backward and
        # q(s_(j+1)) - e^(-g D) q(s_j) forward are N(0, 1 - e^(-2 g D)),
        # D = (s_(j+1) - s_j) dt; unequal gaps catch noise scaled in the
        # wrong gap order
        cfg = cfg_gtf(4.0, 40, 200_000, seed=61, setting=setting)
        batch = simulate(SPEC, cfg, store_steps=store)
        amp, att = batch.amplified, batch.attenuated
        for j in range(len(store) - 1):
            gap = (store[j + 1] - store[j]) * cfg.dt
            decay = math.exp(-cfg.g * gap)
            var_ref = -math.expm1(-2.0 * cfg.g * gap)
            for residual in (amp[:, j] - decay * amp[:, j + 1],
                             att[:, j + 1] - decay * att[:, j]):
                mean, var, se_mean, se_var = stats.jackknife_mean_var(residual)
                assert abs(mean) < 4 * se_mean
                assert abs(var - var_ref) < 4 * se_var

    def test_boundary_column_shared_with_full_run(self):
        # the boundary draws come before any noise, so the stream prefix is shared
        cfg = cfg_gtf(2.0, 20, CHUNK_ROWS + 300, seed=62)
        full = simulate(SPEC, cfg)
        ends = simulate(SPEC, cfg, store_steps=(0, 20))
        np.testing.assert_array_equal(ends.amplified_at(20), full.amplified_at(20))
        np.testing.assert_array_equal(ends.boundary_hill, full.boundary_hill)

    def test_endpoint_run_independent_of_dt(self):
        # one transition over t_f whatever the step: dt 0.1 and 0.05 agree
        coarse = simulate(SPEC, cfg_gtf(4.0, 40, 5000, seed=63), store_steps=(0, 40))
        fine = simulate(SPEC, cfg_gtf(4.0, 80, 5000, seed=63), store_steps=(0, 80))
        np.testing.assert_allclose(fine.amplified, coarse.amplified, rtol=1e-12)
        np.testing.assert_allclose(fine.attenuated, coarse.attenuated, rtol=1e-12)

    def test_stride_must_divide_steps(self):
        # the direction runners validate their store as simulate does: the
        # gaps must span [0, n_steps], so no stored slice is left unreached
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        for store in ((1, 10), (0, 3, 11)):
            with pytest.raises(ValueError):
                run_backward(SPEC, cfg, RngStream(cfg.seed, 0), store_steps=store)
            with pytest.raises(ValueError):
                run_forward(SPEC, cfg, np.zeros(10), RngStream(cfg.seed, 0), store_steps=store)


class TestTimeGrid:
    def test_grid_consistency(self):
        cfg = cfg_gtf(3.0, 30, 1, seed=0)
        assert cfg.n_steps == 30
        np.testing.assert_allclose(cfg.n_steps * cfg.dt, 3.0)
