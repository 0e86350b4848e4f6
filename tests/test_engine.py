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
        # outrun it, with every step stored and endpoint-only
        cases = [(2 * CHUNK_ROWS + 100, 20, None), (6 * CHUNK_ROWS + 7, 4, None),
                 (6 * CHUNK_ROWS + 7, 4, (0, 4))]
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
        sp2 = float(model.sigma_p2(spec.r, 0.0))
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

    def test_physical_axis_mapping(self):
        cfg = cfg_gtf(1.0, 10, 2000, seed=3, setting=Setting.P)
        batch = simulate(SPEC, cfg)
        np.testing.assert_array_equal(batch.p_at(10), batch.amplified[:, -1])
        np.testing.assert_array_equal(batch.x_at(0), batch.attenuated[:, 0])


class TestStorage:
    def test_subset_columns_match_full_run(self):
        cfg = cfg_gtf(2.0, 20, 5000, seed=30)
        full = simulate(SPEC, cfg)
        sparse = simulate(SPEC, cfg, store_steps=(0, 7, 20))
        assert sparse.stored_steps == (0, 7, 20)
        for step in (0, 7, 20):
            np.testing.assert_array_equal(sparse.amplified_at(step), full.amplified_at(step))
            np.testing.assert_array_equal(sparse.attenuated_at(step), full.attenuated_at(step))

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
    @pytest.mark.parametrize("setting", [Setting.X, Setting.P])
    def test_transition_residuals_match_exact_kernel(self, setting):
        # endpoint runs cross t_f in one exact OU transition each way:
        # q(0) - e^(-g t_f) q(t_f) backward and q(t_f) - e^(-g t_f) q(0)
        # forward are N(0, 1 - e^(-2 g t_f))
        cfg = cfg_gtf(4.0, 40, 200_000, seed=61, setting=setting)
        batch = simulate(SPEC, cfg, store_steps=(0, 40))
        decay = math.exp(-cfg.g * cfg.t_f)
        var_ref = -math.expm1(-2.0 * cfg.g * cfg.t_f)
        amp, att = batch.amplified, batch.attenuated
        for residual in (amp[:, 0] - decay * amp[:, 1], att[:, 1] - decay * att[:, 0]):
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
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        with pytest.raises(ValueError, match="stride"):
            run_backward(SPEC, cfg, RngStream(cfg.seed, 0), stride=3)


class TestTimeGrid:
    def test_grid_consistency(self):
        cfg = cfg_gtf(3.0, 30, 1, seed=0)
        assert cfg.n_steps == 30
        np.testing.assert_allclose(cfg.times()[-1], 3.0)
