"""Histogram, Simpson-integration and chi-squared machinery tests."""

import math
import warnings

import numpy as np
import pytest

from qtraj import model, stats
from qtraj.engine import CHUNK_ROWS, simulate
from qtraj.model import MeasurementConfig, Setting, SuperpositionSpec
from qtraj.stats import (
    BinnedCounts,
    Grid3,
    accumulate_counts,
    analytic_bin_probs,
    bin_counts,
    chi2_counts_vs_probs,
    chi2_time_averaged,
    jackknife_mean_var,
    moment_summary,
    two_sample_chi2,
)

SPEC = SuperpositionSpec(0.5, 1.0, 2.0)
MIX = SuperpositionSpec(0.5, 1.0, 2.0, mixture=True)


def cfg_gtf(gtf, steps, n, seed, setting=Setting.X):
    return MeasurementConfig.from_gtf(gtf, steps, setting=setting, n_samples=n, seed=seed)


def _dense_bin_probs(density, grid, nodes_per_bin=3):
    """Reference for the separable bin integral: density(step, x, p) on the
    full 2-D node lattice of each slice, integrated by the same composite
    Simpson rule."""
    probs = []
    for step, (ix0, ix1, ip0, ip1) in zip(grid.t_steps, grid.windows):
        lat_x, idx_x, w_x = model.bin_lattice(grid.x_edges, nodes_per_bin, ix0, ix1)
        lat_p, idx_p, w_p = model.bin_lattice(grid.p_edges, nodes_per_bin, ip0, ip1)
        q = density(step, lat_x[:, None], lat_p[None, :])
        part = q[idx_x][:, :, idx_p]  # (bins_x, nodes, bins_p, nodes)
        probs.append(np.einsum("a,iajb,b->ij", w_x, part, w_p))
    return probs


class TestGrid:
    def test_auto_grid_covers_support(self):
        cfg = cfg_gtf(3.0, 30, 50_000, seed=4)
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2)
        binned = accumulate_counts(SPEC, cfg, grid)
        assert binned.out_of_grid_fraction() < 1e-4

    def test_edges_are_uniform_lattice(self):
        cfg = cfg_gtf(2.0, 20, 10, seed=1)
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2)
        assert np.allclose(np.diff(grid.x_edges), 0.1)
        assert grid.area == pytest.approx(0.02)
        # windows widen monotonically for the amplified axis
        widths = [w[1] - w[0] for w in grid.windows]
        assert widths == sorted(widths)

    def test_oversized_lattice_refused(self):
        # desk resolution: g t_f = 9 lays out 192,006,592 windowed cells, 12 would need 3.8e9
        accepted = Grid3.auto(SPEC, cfg_gtf(9.0, 90, 10, seed=1), dx=0.1, dp=0.2)
        assert sum((w[1] - w[0]) * (w[3] - w[2]) for w in accepted.windows) == 192_006_592
        with pytest.raises(ValueError, match="3,843,507,504 cells, more than the bound of 268,435,456"):
            Grid3.auto(SPEC, cfg_gtf(12.0, 120, 10, seed=1), dx=0.1, dp=0.2)

    @pytest.mark.parametrize("x1, dx", [(1e308, 0.1), (1.0, 1e-310)])
    def test_non_finite_extent_refused(self, x1, dx):
        # an extent, or an extent in bin widths, that overflows to inf is a
        # ValueError, not an OverflowError out of math.ceil
        spec = SuperpositionSpec(0.5, x1, 2.0)
        with pytest.raises(ValueError, match="not finite"):
            Grid3.auto(spec, cfg_gtf(3.0, 30, 10, seed=1), dx=dx, dp=0.2)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Grid3(x_edges=np.array([0.0, 1.0, 1.5]), p_edges=np.array([0.0, 1.0]),
                  t_steps=(0,), dt=0.1)


class TestBinning:
    def test_point_mass_lands_in_one_bin(self):
        cfg = cfg_gtf(1.0, 10, 100, seed=2)
        batch = simulate(SPEC, cfg)
        batch.amplified[:, :] = 0.55
        batch.attenuated[:, :] = -1.31
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2)
        binned = bin_counts(batch, grid)
        for counts in binned.counts:
            assert counts.sum() == 100
            assert (counts > 0).sum() == 1
            assert counts.max() == 100

    def test_out_of_grid_counted(self):
        cfg = cfg_gtf(1.0, 10, 100, seed=2)
        batch = simulate(SPEC, cfg)
        batch.amplified[:50, :] = 1e6
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2)
        binned = bin_counts(batch, grid)
        assert np.all(binned.out_of_grid == 50)
        assert all(c.sum() == 50 for c in binned.counts)

    def test_non_finite_rows_out_of_grid(self):
        # NaN and +-inf land in no bin and are never cast to an integer
        cfg = cfg_gtf(1.0, 10, 100, seed=2)
        batch = simulate(SPEC, cfg)
        batch.amplified[:5, :] = np.nan
        batch.attenuated[5:10, :] = np.inf
        batch.amplified[10:15, 3:] = -np.inf
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            binned = bin_counts(batch, grid)
        assert binned.out_of_grid.tolist() == [10] * 3 + [15] * 8
        assert [int(c.sum()) for c in binned.counts] == [90] * 3 + [85] * 8

    def test_worker_count_never_changes_counts(self):
        # 3 chunks; then 7, past the pool's window of workers + 2, on a grid
        # cut to 2 sigma so that rows fall outside it.
        cases = [
            (cfg_gtf(2.0, 20, 40_000, seed=11), 6.0),
            (cfg_gtf(1.0, 10, 6 * CHUNK_ROWS + 7, seed=12), 2.0),
        ]
        for cfg, n_sigma in cases:
            grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2, n_sigma=n_sigma)
            b1 = accumulate_counts(SPEC, cfg, grid, workers=1)
            b2 = accumulate_counts(SPEC, cfg, grid, workers=2)
            for c1, c2 in zip(b1.counts, b2.counts, strict=True):
                np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(b1.out_of_grid, b2.out_of_grid)
            assert b1.n_samples == b2.n_samples == cfg.n_samples
        assert b2.out_of_grid.sum() > 0  # the 2-sigma grid of the 7-chunk case
        # One bin holding every row: the merged total passes the uint16 range
        # that a single chunk's counts are shipped in.
        cfg = cfg_gtf(1.0, 2, 5 * CHUNK_ROWS + 3, seed=13)
        edges = np.array([-1e3, 1e3])
        grid = Grid3(x_edges=edges, p_edges=edges, t_steps=(0, 2), dt=cfg.dt)
        assert cfg.n_samples > np.iinfo(np.uint16).max
        for workers in (1, 2):
            binned = accumulate_counts(SPEC, cfg, grid, workers=workers)
            assert [c.tolist() for c in binned.counts] == [[[cfg.n_samples]]] * 2
            assert binned.out_of_grid.tolist() == [0, 0]
            assert binned.n_samples == cfg.n_samples


class TestMerge:
    @staticmethod
    def _binned(dx, windows=None):
        # 8 x-bins by 10 p-bins at one slice: 80 counts, whatever dx is
        grid = Grid3(x_edges=np.arange(-4, 5) * dx, p_edges=np.arange(-5, 6) * 0.5,
                     t_steps=(0,), dt=0.1, windows=windows)
        batch = simulate(SPEC, cfg_gtf(1.0, 10, 10, seed=3))
        return bin_counts(batch, grid)

    def test_equal_grids_merge(self):
        a, b = self._binned(0.1), self._binned(0.1)
        assert a.grid is not b.grid
        total = a.counts[0] + b.counts[0]
        merged = a.merge(b)
        np.testing.assert_array_equal(merged.counts[0], total)
        assert merged.n_samples == 20

    def test_other_edges_with_same_bin_count_refused(self):
        a, b = self._binned(0.2), self._binned(0.1)
        assert a.counts[0].size == b.counts[0].size == 80
        with pytest.raises(ValueError, match="different grids"):
            a.merge(b)

    def test_other_windows_refused(self):
        a, b = self._binned(0.1), self._binned(0.1, windows=((1, 7, 0, 10),))
        with pytest.raises(ValueError, match="different grids"):
            a.merge(b)


class TestAnalyticBinProbs:
    def test_single_huge_bin_is_unit_mass(self):
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        sx, sp = map(math.sqrt, model.packet(SPEC, 0.0)[:2])
        grid = Grid3(
            x_edges=np.array([-SPEC.x1 - 10 * sx, SPEC.x1 + 10 * sx]),
            p_edges=np.array([-10 * sp, 10 * sp]),
            t_steps=(0,),
            dt=cfg.dt,
        )
        probs = analytic_bin_probs(SPEC, cfg, grid, nodes_per_bin=2001)
        assert probs[0][0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_separable_equals_dense(self):
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        grid = Grid3(
            x_edges=np.arange(-30, 31) * 0.1,
            p_edges=np.arange(-20, 21) * 0.2,
            t_steps=(0, 5, 10),
            dt=cfg.dt,
        )
        sep = analytic_bin_probs(SPEC, cfg, grid)
        dense = _dense_bin_probs(
            lambda step, x, p: model.q_sup(SPEC, x, p, cfg.sign * (step * cfg.dt)), grid
        )
        for a, b in zip(sep, dense):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)

    def test_integrates_a_law_that_is_not_q(self):
        # Q's x-profiles paired with p-profiles of another law: the bin
        # integral sums int A int E - int B int C whatever E and C are
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        grid = Grid3(
            x_edges=np.arange(-30, 31) * 0.1,
            p_edges=np.arange(-20, 21) * 0.2,
            t_steps=(0, 5, 10),
            dt=cfg.dt,
            windows=((0, 60, 0, 40), (10, 50, 5, 30), (0, 60, 12, 40)),
        )

        def p_profiles(p):
            e = model.gauss_pdf(p, 0.3, 2.0)
            return e, e * np.cos(1.7 * p)

        def x_profiles(step):
            return model.separable_q(SPEC, cfg.sign * step * cfg.dt)[0]

        def density(step, x, p):
            a, b = x_profiles(step)(x)
            e, c = p_profiles(p)
            return a * e - b * c

        sep = [
            model.fringe_bin_probs(grid.x_edges, grid.p_edges, x_profiles(step), p_profiles, 3, window)
            for step, window in zip(grid.t_steps, grid.windows)
        ]
        for a, b in zip(sep, _dense_bin_probs(density, grid), strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "p"])
    def test_non_finite_profile_refused(self, axis):
        profiles = list(model.separable_q(SPEC, 0.0))
        profiles[axis] = lambda v: (np.where(v == v[3], np.nan, 1.0), np.zeros_like(v))
        edges = np.arange(-10, 11) * 0.5
        with pytest.raises(ValueError, match="non-finite density on the bin lattice"):
            model.fringe_bin_probs(edges, edges, *profiles, 3)

    def test_node_refinement_converged_on_fine_grid(self):
        # production resolution: halving the node spacing moves nothing
        # beyond 1e-8 relative.  The balanced superposition has exact
        # density zeros at the fringe troughs where a pointwise ratio is
        # ill-conditioned, so its check is taken relative to the local
        # density scale; the fringe-free mixture satisfies the pointwise
        # relative bound on every bin.
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        grid = Grid3(
            x_edges=np.arange(-150, 151) * 0.02,
            p_edges=np.arange(-60, 61) * 0.05,
            t_steps=(0,),
            dt=cfg.dt,
        )
        m3 = analytic_bin_probs(MIX, cfg, grid, nodes_per_bin=3)[0]
        m5 = analytic_bin_probs(MIX, cfg, grid, nodes_per_bin=5)[0]
        mask = m3 > 1e-30
        assert (np.abs(m5[mask] - m3[mask]) / m3[mask]).max() < 1e-8

        p3 = analytic_bin_probs(SPEC, cfg, grid, nodes_per_bin=3)[0]
        p5 = analytic_bin_probs(SPEC, cfg, grid, nodes_per_bin=5)[0]
        pmax = p3.max()
        assert np.abs(p5 - p3).max() / pmax < 1e-8
        bulk = p3 >= 0.2 * pmax
        assert (np.abs(p5[bulk] - p3[bulk]) / p3[bulk]).max() < 1e-8

    def test_spot_bins_match_adaptive_quadrature(self):
        # independent oracle: scipy adaptive double quadrature on a few bins
        from scipy.integrate import dblquad

        spec = SuperpositionSpec(0.4, 1.3, 1.5)
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        grid = Grid3(
            x_edges=np.arange(-30, 31) * 0.1,
            p_edges=np.arange(-25, 26) * 0.2,
            t_steps=(0, 5),
            dt=cfg.dt,
        )
        probs = analytic_bin_probs(spec, cfg, grid, nodes_per_bin=7)
        for s, i, j in [(0, 20, 6), (1, 36, 25), (1, 35, 43)]:
            t = grid.t_steps[s] * cfg.dt
            val, _ = dblquad(
                lambda p, x: float(model.q_sup(spec, x, p, cfg.sign * t)),
                grid.x_edges[i],
                grid.x_edges[i + 1],
                grid.p_edges[j],
                grid.p_edges[j + 1],
                epsabs=1e-13,
            )
            assert probs[s][i, j] == pytest.approx(val, abs=1e-10)

    def test_mixture_probs_symmetric_fringe_antisymmetric(self):
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        grid = Grid3(
            x_edges=np.arange(-40, 41) * 0.1,
            p_edges=np.arange(-30, 31) * 0.2,
            t_steps=(0,),
            dt=cfg.dt,
        )
        p_mix = analytic_bin_probs(MIX, cfg, grid)[0]
        p_sup = analytic_bin_probs(SPEC, cfg, grid)[0]
        # hill-only content symmetric under x -> -x
        np.testing.assert_allclose(p_mix, p_mix[::-1, :], rtol=0, atol=1e-12)
        # interference content odd under p -> -p
        fringe = p_sup - p_mix
        np.testing.assert_allclose(fringe, -fringe[:, ::-1], rtol=0, atol=1e-12)

    def test_fringe_rows_alternate_at_origin(self):
        # at t = 0 the central column shows alternating depletion/enhancement
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        sx2 = model.packet(SPEC, 0.0)[0]
        period = 2 * math.pi * sx2 / SPEC.x1
        dp = period / 8
        grid = Grid3(
            x_edges=np.array([-0.05, 0.05]),
            p_edges=np.arange(-8, 9) * dp,
            t_steps=(0,),
            dt=cfg.dt,
        )
        p_sup = analytic_bin_probs(SPEC, cfg, grid)[0][0]
        p_mix = analytic_bin_probs(MIX, cfg, grid)[0][0]
        # first antinode above zero: sin > 0 means depletion
        assert p_sup[8] < p_mix[8] and p_sup[9] < p_mix[9]
        assert p_sup[6] > p_mix[6] and p_sup[7] > p_mix[7]

    @pytest.mark.parametrize("nodes", [1, 4])
    def test_invalid_nodes(self, nodes):
        # refused with ValueError before any arithmetic: 1 node would divide by zero
        cfg = cfg_gtf(1.0, 10, 10, seed=1)
        grid = Grid3.auto(SPEC, cfg, dx=0.5, dp=0.5, t_steps=(0,))
        with pytest.raises(ValueError):
            analytic_bin_probs(SPEC, cfg, grid, nodes_per_bin=nodes)


def _multinomial_counts(rng, probs, grid, n_samples):
    counts = []
    for p in probs:
        flat = p.ravel()
        rest = max(0.0, 1.0 - flat.sum())
        pvals = np.append(flat, rest)
        draw = rng.multinomial(n_samples, pvals / pvals.sum())
        counts.append(draw[:-1].reshape(p.shape))
    return BinnedCounts(grid, counts, np.zeros(len(counts), np.int64), n_samples)


@pytest.fixture(scope="module")
def desk_probs():
    cfg = cfg_gtf(3.0, 30, 200_000, seed=1)
    grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2, t_steps=(0, 10, 20, 30))
    return cfg, grid, analytic_bin_probs(SPEC, cfg, grid)


class TestChi2:

    def test_multinomial_self_consistency(self, desk_probs):
        # counts drawn straight from the analytic probabilities sit at
        # chi2_bar ~ k, inside the 3-sigma band
        cfg, grid, probs = desk_probs
        rng = np.random.default_rng(12)
        counts = _multinomial_counts(rng, probs, grid, cfg.n_samples)
        report = chi2_time_averaged(counts, probs)
        assert report.passed
        assert abs(report.chi2_bar / report.k - 1.0) < 0.1

    def test_repeated_multinomial_pass_rate(self, desk_probs):
        cfg, grid, probs = desk_probs
        rng = np.random.default_rng(99)
        passes = 0
        for _ in range(100):
            counts = _multinomial_counts(rng, probs, grid, cfg.n_samples)
            if chi2_time_averaged(counts, probs).passed:
                passes += 1
        assert passes >= 99

    def test_one_analytic_array_per_slice(self):
        # probs for fewer slices than the grid holds are refused, not averaged
        cfg = cfg_gtf(1.0, 10, 20_000, seed=5)
        grid = Grid3.auto(SPEC, cfg, dx=0.2, dp=0.5, t_steps=(0, 5, 10))
        binned = accumulate_counts(SPEC, cfg, grid)
        probs = analytic_bin_probs(SPEC, cfg, grid)
        with pytest.raises(ValueError):
            chi2_time_averaged(binned, probs[:1])

    def test_wrong_model_rejected(self, desk_probs):
        # negative control: analytic packets displaced by 0.5
        cfg, grid, probs = desk_probs
        rng = np.random.default_rng(7)
        counts = _multinomial_counts(rng, probs, grid, cfg.n_samples)
        bad = SuperpositionSpec(0.5, 1.5, 2.0)
        bad_probs = analytic_bin_probs(bad, cfg, grid)
        report = chi2_time_averaged(counts, bad_probs)
        assert not report.passed
        assert report.chi2_bar > report.band_hi * 10

    def test_mixture_trajectories_pass_end_to_end(self):
        # fringe-free state: linked trajectories match the analytic density
        # at every slice, so the full pipeline lands inside the band
        cfg = cfg_gtf(3.0, 30, 200_000, seed=6)
        grid = Grid3.auto(MIX, cfg, dx=0.1, dp=0.2)
        binned = accumulate_counts(MIX, cfg, grid)
        probs = analytic_bin_probs(MIX, cfg, grid)
        report = chi2_time_averaged(binned, probs)
        assert report.passed, f"chi2_bar={report.chi2_bar:.1f} band_hi={report.band_hi:.1f}"

    def test_fringed_state_slice_structure(self):
        # characterization of the linked ensemble on the fringe-dominated
        # microscopic state: the joint density is statistically exact at the
        # linking time t = 0 and at the horizon, while interior slices carry
        # a large reproducible deviation (no positively-weighted pairing can
        # concentrate the interference term of the analytic density around
        # the inter-packet midpoint once both noises have acted).  If the
        # interior deviation ever disappears, the time-averaged acceptance
        # gate for this state becomes attainable and this test should be
        # revisited.
        cfg = cfg_gtf(3.0, 30, 200_000, seed=21)
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2, t_steps=(0, 5, 30))
        binned = accumulate_counts(SPEC, cfg, grid)
        probs = analytic_bin_probs(SPEC, cfg, grid)
        z_scores = []
        for s in range(3):
            c, k = chi2_counts_vs_probs(binned.counts[s], probs[s], cfg.n_samples)
            z_scores.append((c - k) / math.sqrt(2 * k))
        assert abs(z_scores[0]) < 3.0, f"t=0 slice should be exact, z={z_scores[0]:.1f}"
        assert abs(z_scores[2]) < 3.0, f"horizon slice should be exact, z={z_scores[2]:.1f}"
        assert z_scores[1] > 10.0, f"interior deviation vanished, z={z_scores[1]:.1f}"

    def test_macroscopic_superposition_passes_end_to_end(self):
        # x1 e^r >> 1: interference is unobservably small and the linked
        # ensemble is equivalent to the analytic density
        spec = SuperpositionSpec(0.5, 8.0, 2.0)
        cfg = cfg_gtf(2.0, 20, 100_000, seed=16)
        grid = Grid3.auto(spec, cfg, dx=0.1, dp=0.2)
        binned = accumulate_counts(spec, cfg, grid)
        probs = analytic_bin_probs(spec, cfg, grid)
        report = chi2_time_averaged(binned, probs)
        assert report.passed, f"chi2_bar={report.chi2_bar:.1f} band_hi={report.band_hi:.1f}"

    def test_zero_significant_bins_raises(self):
        probs = [np.full((2, 2), 0.25)]
        grid = Grid3(np.arange(3.0), np.arange(3.0), (0,), 1.0)
        counts = BinnedCounts(grid, [np.zeros((2, 2), dtype=np.int64)], np.zeros(1, np.int64), 4)
        with pytest.raises(ValueError):
            chi2_time_averaged(counts, probs)

    def test_min_count_boundary(self):
        # n p = 0.25 * 40 expects exactly MIN_COUNT entries and takes part;
        # a bin expecting 9.9 does not
        counts = np.array([12, 9])
        _, k = chi2_counts_vs_probs(counts, np.array([0.25, 9.9 / 40]), 40)
        assert stats.MIN_COUNT == 10 and k == 1

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            chi2_counts_vs_probs(np.zeros((2, 2)), np.zeros((3, 2)), 10)

    def test_report_serialization(self, desk_probs):
        cfg, grid, probs = desk_probs
        rng = np.random.default_rng(3)
        counts = _multinomial_counts(rng, probs, grid, cfg.n_samples)
        report = chi2_time_averaged(counts, probs)
        payload = report.to_dict()
        assert payload["band"][0] == pytest.approx(report.k - 3 * math.sqrt(2 * report.k))
        assert len(payload["per_slice"]) == 4
        assert payload["n_valid"] == report.n_valid


class TestMoments:
    def test_constant_batch_zero_variance(self):
        cfg = cfg_gtf(1.0, 10, 5000, seed=2)
        batch = simulate(SPEC, cfg)
        batch.amplified[:, :] = 2.0
        mom = moment_summary(batch, 0)
        assert mom["x"].var == 0.0 and mom["x"].se_var == 0.0

    def test_jackknife_se_scale(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0.0, 2.0, size=100_000)
        mean, var, se_mean, se_var = jackknife_mean_var(values)
        assert se_mean == pytest.approx(2.0 / math.sqrt(len(values)), rel=0.15)
        assert se_var == pytest.approx(4.0 * math.sqrt(2.0 / len(values)), rel=0.15)
        assert abs(mean) < 4 * se_mean
        assert abs(var - 4.0) < 4 * se_var

    def test_jackknife_block_count(self):
        # min(JACKKNIFE_BLOCKS, n) delete-one-block replicates
        assert stats.JACKKNIFE_BLOCKS == 100
        for n, blocks in ((50, 50), (100, 100), (1000, 100)):
            _, _, mean_del, var_del = stats.jackknife_replicates(np.arange(float(n)))
            assert len(mean_del) == len(var_del) == blocks

    def test_matches_reference_moments(self):
        cfg = cfg_gtf(2.0, 20, 100_000, seed=14)
        batch = simulate(SPEC, cfg)
        mom = moment_summary(batch, 20)
        ref = model.reference_moments(SPEC, 2.0, cfg)
        assert abs(mom["x"].var - ref.var_x) < 4 * mom["x"].se_var
        assert abs(mom["p"].var - ref.var_p) < 4 * mom["p"].se_var


class TestTwoSample:
    def test_same_distribution_compatible(self):
        rng = np.random.default_rng(5)
        a, _ = np.histogram(rng.normal(size=200_000), bins=np.linspace(-4, 4, 41))
        b, _ = np.histogram(rng.normal(size=100_000), bins=np.linspace(-4, 4, 41))
        stat, dof, p = two_sample_chi2(a, b)
        assert p > 0.01

    def test_shifted_distribution_rejected(self):
        rng = np.random.default_rng(5)
        a, _ = np.histogram(rng.normal(size=100_000), bins=np.linspace(-4, 4, 41))
        b, _ = np.histogram(rng.normal(0.1, 1.0, size=100_000), bins=np.linspace(-4, 4, 41))
        _, _, p = two_sample_chi2(a, b)
        assert p < 1e-6

    def test_min_count_boundary(self):
        # a bin pair with MIN_COUNT combined entries is kept, one with
        # MIN_COUNT - 1 dropped: three bins kept, two degrees of freedom
        _, dof, _ = two_sample_chi2([5, 5, 100, 100], [5, 4, 100, 100])
        assert dof == 2

    def test_mismatched_bins_raise(self):
        with pytest.raises(ValueError):
            two_sample_chi2(np.ones(5), np.ones(6))


class TestHistogramDump:
    def test_sparse_rows_roundtrip(self, tmp_path):
        cfg = cfg_gtf(1.0, 10, 20_000, seed=9)
        grid = Grid3.auto(SPEC, cfg, dx=0.2, dp=0.5, t_steps=(0, 10))
        binned = accumulate_counts(SPEC, cfg, grid)
        path = tmp_path / "hist.csv"
        stats.write_histogram_csv(path, binned)
        lines = path.read_text().strip().split("\n")
        expected_rows = sum(int((c > 0).sum()) for c in binned.counts)
        assert lines[0] == "t,x_lo,x_hi,p_lo,p_hi,count"
        assert len(lines) - 1 == expected_rows

        def next_edge(edges):
            text = [format(v, ".17g") for v in edges.tolist()]
            return dict(zip(text, text[1:]))

        # each upper edge is the text of the lattice edge after the lower one
        x_next, p_next = next_edge(grid.x_edges), next_edge(grid.p_edges)
        for line in lines[1:]:
            _, x_lo, x_hi, p_lo, p_hi, _ = line.split(",")
            assert (x_hi, p_hi) == (x_next[x_lo], p_next[p_lo])
