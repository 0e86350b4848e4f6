"""Engine tests: linked backward/forward integration against the analytic laws."""

import math
import os
from collections import defaultdict

import numpy as np
import pytest

from qtraj import engine, model, stats
from qtraj.engine import (
    CHUNK_ROWS,
    TrajectoryBatch,
    _simulate_chunk,
    iter_chunk_batches,
    run_backward,
    run_forward,
    simulate,
)
from qtraj.model import MeasurementConfig, Setting, SuperpositionSpec
from qtraj.sampler import RngStream, sample_fringe, sample_gaussian_mixture, standard_normal_it

SPEC = SuperpositionSpec(0.5, 1.0, 2.0)


def cfg_gtf(gtf, steps, n, seed, setting=Setting.X):
    return MeasurementConfig.from_gtf(gtf, steps, setting=setting, n_samples=n, seed=seed)


class TestRegressionLock:
    def test_single_path_frozen(self):
        # bit-level lock of one trajectory: any change to the draw layout,
        # stream keying or integrator coefficients shows up here
        cfg = MeasurementConfig(t_f=0.5, dt=0.1, n_samples=1, seed=7)
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
        cfg = MeasurementConfig(t_f=0.5, dt=0.1, n_samples=1, seed=7)
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
            for b in (b1, b2):
                assert b.amplified.flags.f_contiguous and b.attenuated.flags.f_contiguous

    def test_pool_is_sized_by_the_chunks(self, monkeypatch):
        # 8 is a small excess on purpose: were the cap broken, the pool would
        # fork that many processes
        sizes = []

        class Recording(engine.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", Recording)
        cfg = cfg_gtf(1.0, 4, CHUNK_ROWS + 17, seed=8)
        pooled = simulate(SPEC, cfg, workers=8)
        assert sizes == [2]
        serial = simulate(SPEC, cfg, workers=1)
        np.testing.assert_array_equal(pooled.amplified, serial.amplified)
        np.testing.assert_array_equal(pooled.attenuated, serial.attenuated)
        np.testing.assert_array_equal(pooled.boundary_hill, serial.boundary_hill)
        simulate(SPEC, cfg_gtf(1.0, 4, 1000, seed=8), workers=8)
        assert sizes == [2]

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


def _where(batch):
    """A chunk part: the worker's pid and where its paths were written."""
    return os.getpid(), batch.amplified.ctypes.data, batch.attenuated.ctypes.data


class TestPathBufferReuse:
    def test_each_worker_writes_one_pair_of_buffers(self):
        # 7 chunks over 2 workers: every chunk a worker runs, the short last
        # one too, fills the same two buffers
        cfg = cfg_gtf(1.0, 4, 6 * CHUNK_ROWS + 7, seed=31)
        places = list(engine.map_chunks(SPEC, cfg, _where, workers=2))
        assert len(places) == 7
        amp, att = defaultdict(set), defaultdict(set)
        for pid, a, b in places:
            amp[pid].add(a)
            att[pid].add(b)
        assert os.getpid() not in amp and 1 <= len(amp) <= 2
        assert all(len(addresses) == 1 for addresses in (*amp.values(), *att.values()))
        assert not set().union(*amp.values()) & set().union(*att.values())

    @pytest.mark.parametrize("chunk", [0, 1], ids=["full", "7-row-last"])
    @pytest.mark.parametrize("store", [None, (0, 3, 10)], ids=["all-steps", "subset"])
    def test_stale_buffers_give_a_fresh_batch(self, chunk, store):
        cfg = cfg_gtf(1.0, 10, CHUNK_ROWS + 7, seed=32)
        store = engine._normalize_store(SPEC, cfg, store)
        paths = tuple(np.full(len(store) * CHUNK_ROWS, np.nan) for _ in range(2))
        reused = _simulate_chunk(SPEC, cfg, chunk, store, paths=paths)
        fresh = _simulate_chunk(SPEC, cfg, chunk, store)
        assert reused.n_samples == (CHUNK_ROWS, 7)[chunk]
        for got, want, buf in ((reused.amplified, fresh.amplified, paths[0]),
                               (reused.attenuated, fresh.attenuated, paths[1])):
            assert got.flags.f_contiguous and got.ctypes.data == buf.ctypes.data
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(reused.boundary_hill, fresh.boundary_hill)


class TestBackward:
    def test_boundary_and_convergence_geometry(self):
        # macroscopic run: boundary hills at +-e^2 * 8, present values near +-8
        spec = SuperpositionSpec(0.5, 8.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 100_000, seed=13)
        gen = RngStream(cfg.seed, 0).generator()
        paths, hills = run_backward(spec, cfg, gen, n_rows=cfg.n_samples)
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
        # the engine adds the loop's two ends itself; a step past them is refused
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        with pytest.raises(ValueError):
            simulate(SPEC, cfg, store_steps=(0, 11))

    def test_loop_ends_are_always_stored(self):
        cfg = cfg_gtf(1.0, 10, 300, seed=1)
        for given, full in (((5,), (0, 5, 10)), ((), (0, 10)), ((10, 5), (0, 5, 10))):
            got = simulate(SPEC, cfg, store_steps=given)
            want = simulate(SPEC, cfg, store_steps=full)
            assert got.stored_steps == want.stored_steps == full
            np.testing.assert_array_equal(got.amplified, want.amplified)
            np.testing.assert_array_equal(got.attenuated, want.attenuated)
            np.testing.assert_array_equal(got.boundary_hill, want.boundary_hill)
        for bad in ((-1,), (5, 11)):
            with pytest.raises(ValueError, match="store_steps"):
                simulate(SPEC, cfg, store_steps=bad)

    def test_missing_step_raises(self):
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        batch = simulate(SPEC, cfg, store_steps=(0, 10))
        for read in (batch.x_at, batch.p_at):
            with pytest.raises(KeyError):
                read(5)

    def test_chunk_iteration_covers_all_rows(self):
        cfg = cfg_gtf(1.0, 10, CHUNK_ROWS + 17, seed=2)
        chunks = list(iter_chunk_batches(SPEC, cfg))
        assert [c.n_samples for c in chunks] == [CHUNK_ROWS, 17]
        whole = TrajectoryBatch.concat(chunks)
        direct = simulate(SPEC, cfg)
        np.testing.assert_array_equal(whole.amplified, direct.amplified)


def _row_major_backward(spec, cfg, seed, n, store):
    """run_backward's paths rebuilt from its stream in row-major (rows, steps)
    storage with a column-by-column recurrence: the reference layout."""
    gen = RngStream(seed, 0).generator()
    if cfg.setting is Setting.X:
        mu, sigma_f = model.boundary_hill(spec, cfg)
        boundary, _ = sample_gaussian_mixture(spec.c1_sq, mu, -mu, sigma_f, gen, size=n)
    else:
        boundary, _ = sample_fringe(*model.fringe_p(spec, cfg.sign * cfg.t_f), gen, size=n)
    steps = store[::-1]
    kernels = [model.ou_kernel(abs(b - a) * cfg.dt) for a, b in zip(steps, steps[1:])]
    z = standard_normal_it(gen, (n, len(kernels)))
    z *= [math.sqrt(var) for _, var in kernels]
    paths = np.empty((n, len(steps)))
    paths[:, 0] = boundary
    for k, (decay, _) in enumerate(kernels):
        paths[:, k + 1] = decay * paths[:, k] + z[:, k]
    return paths[:, ::-1]


class TestSliceMajorLayout:
    @pytest.mark.parametrize("setting", [Setting.X, Setting.P], ids=["x", "p"])
    @pytest.mark.parametrize("store", [tuple(range(11)), (0, 10)], ids=["full", "endpoints"])
    def test_stored_columns_are_contiguous(self, setting, store):
        cfg = cfg_gtf(1.0, 10, 3000, seed=17, setting=setting)
        batch = _simulate_chunk(SPEC, cfg, 0, store)
        for paths in (batch.amplified, batch.attenuated):
            assert paths.shape == (3000, len(store))
            for k in range(len(store)):
                assert paths[:, k].flags.c_contiguous
        # ascending step order, value for value the row-major recurrence; the
        # runners threaded with one Generator are the chunk, bit for bit
        gen = RngStream(17, 0).generator()
        amp, hills = run_backward(SPEC, cfg, gen, n_rows=3000, store_steps=store)
        att = run_forward(SPEC, cfg, amp[:, 0], gen, store_steps=store)
        np.testing.assert_array_equal(amp, _row_major_backward(SPEC, cfg, 17, 3000, store))
        assert amp.tobytes() == batch.amplified.tobytes()
        assert att.tobytes() == batch.attenuated.tobytes()
        assert hills.tobytes() == batch.boundary_hill.tobytes()


class TestEndpointStride:
    @pytest.mark.parametrize(
        "setting, store",
        [(Setting.X, (0, 40)), (Setting.P, (0, 40)),
         (Setting.X, (0, 3, 10, 40)), (Setting.P, (0, 3, 10, 40))],
        ids=["Setting.X", "Setting.P", "Setting.X-nonuniform", "Setting.P-nonuniform"],
    )
    def test_transition_residuals_match_exact_kernel(self, setting, store):
        # every gap between stored steps s_j < s_(j+1) is one exact OU
        # transition each way: q(s_j) - e^(-D) q(s_(j+1)) backward and
        # q(s_(j+1)) - e^(-D) q(s_j) forward are N(0, 1 - e^(-2 D)),
        # D = (s_(j+1) - s_j) dt; unequal gaps catch noise scaled in the
        # wrong gap order
        cfg = cfg_gtf(4.0, 40, 200_000, seed=61, setting=setting)
        batch = simulate(SPEC, cfg, store_steps=store)
        amp, att = batch.amplified, batch.attenuated
        for j in range(len(store) - 1):
            gap = (store[j + 1] - store[j]) * cfg.dt
            decay = math.exp(-gap)
            var_ref = -math.expm1(-2.0 * gap)
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
        np.testing.assert_array_equal(ends.x_at(20), full.x_at(20))
        np.testing.assert_array_equal(ends.boundary_hill, full.boundary_hill)

    def test_endpoint_run_independent_of_dt(self):
        # one transition over t_f whatever the step: dt 0.1 and 0.05 agree
        coarse = simulate(SPEC, cfg_gtf(4.0, 40, 5000, seed=63), store_steps=(0, 40))
        fine = simulate(SPEC, cfg_gtf(4.0, 80, 5000, seed=63), store_steps=(0, 80))
        np.testing.assert_allclose(fine.amplified, coarse.amplified, rtol=1e-12)
        np.testing.assert_allclose(fine.attenuated, coarse.attenuated, rtol=1e-12)

    def test_stride_must_divide_steps(self):
        # the direction runners validate their store as simulate does: a
        # step past n_steps is refused, so no stored slice is left unreached
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        gen = RngStream(cfg.seed, 0).generator()
        store = (0, 3, 11)
        with pytest.raises(ValueError):
            run_backward(SPEC, cfg, gen, store_steps=store)
        with pytest.raises(ValueError):
            run_forward(SPEC, cfg, np.zeros(10), gen, store_steps=store)


class TestOneGenerator:
    def test_runners_refuse_an_rng_stream(self):
        # each call would restart the stream, so the forward pass would
        # replay the backward pass's uniforms
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        with pytest.raises(TypeError, match="numpy Generator"):
            run_backward(SPEC, cfg, RngStream(cfg.seed, 0))
        with pytest.raises(TypeError, match="numpy Generator"):
            run_forward(SPEC, cfg, np.zeros(10), RngStream(cfg.seed, 0))


# x1 = 1e16 at r 2, g t_f 3: coordinates reach 2.01e17, where float64 spaces
# them 32 apart, so a unit spread rounds away.
UNRESOLVABLE = (SuperpositionSpec(0.5, 1e16, 2.0),
                MeasurementConfig.from_gtf(3.0, 20, n_samples=3000, seed=3))


class TestReachRefusal:
    # iter_chunk_batches, run_backward and run_forward used to simulate this
    # run: the batch's 1,475 selected x(0) had variance 1.2746, not about 1.023
    @pytest.mark.parametrize("entry", [
        lambda spec, cfg, gen: next(iter_chunk_batches(spec, cfg, ())),
        lambda spec, cfg, gen: simulate(spec, cfg),
        lambda spec, cfg, gen: next(engine.map_chunks(spec, cfg, workers=2)),
        lambda spec, cfg, gen: run_backward(spec, cfg, gen),
        lambda spec, cfg, gen: run_forward(spec, cfg, np.full(cfg.n_samples, 1e16), gen),
    ], ids=["iter_chunk_batches", "simulate", "map_chunks", "run_backward", "run_forward"])
    def test_every_entry_refuses_an_unresolvable_reach(self, monkeypatch, entry):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a run whose coordinates float64 cannot resolve")

        monkeypatch.setattr(engine, "_simulate_chunk", refuse)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", refuse)
        spec, cfg = UNRESOLVABLE
        gen = RngStream(cfg.seed, 0).generator()
        with pytest.raises(ValueError, match=r"^coordinates reach 2\.01e\+17"):
            entry(spec, cfg, gen)
        # nothing was drawn: the stream's next word is its first
        assert gen.random() == RngStream(cfg.seed, 0).generator().random()

    def test_largest_resolvable_store_still_runs(self):
        # x1 = 1e11 spaces the reach 2**-12 apart, inside the 2**-10 bound
        spec, cfg = SuperpositionSpec(0.5, 1e11, 2.0), cfg_gtf(3.0, 20, 100, seed=3)
        assert next(iter_chunk_batches(spec, cfg, ())).n_samples == 100


class TestTimeGrid:
    def test_grid_consistency(self):
        cfg = cfg_gtf(3.0, 30, 1, seed=0)
        assert cfg.n_steps == 30
        np.testing.assert_allclose(cfg.n_steps * cfg.dt, 3.0)
