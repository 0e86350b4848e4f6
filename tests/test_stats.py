"""Histogram, Simpson-integration and chi-squared machinery tests."""

import dataclasses
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from qtraj import model, stats
from qtraj.atomic import _BLOCK_ROWS, fmt17, write_csv
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
    iter_bin_probs,
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
        assert binned.out_of_grid.sum() / (binned.n_samples * len(binned.counts)) < 1e-4

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

    @pytest.mark.parametrize("edges", [
        [0.0], [1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.5], [0.0, 1.0, 2.0 - 2e-9],
        [0.0, 1.0, np.inf], [0.0, np.inf], [0.0, np.nan],
    ], ids=["one", "decreasing", "repeated", "uneven", "uneven-2e-9", "inf-last", "inf-step",
            "nan"])
    def test_one_edge_rule(self, edges):
        # Grid3 refuses edges by the rule lattice_edges states, with its message
        with pytest.raises(ValueError) as want:
            stats.lattice_edges(edges, [0.0, 1.0])
        assert str(want.value) == "x_edges must be >= 2 strictly increasing, equally spaced edges"
        with pytest.raises(ValueError, match="p_edges must be"):
            Grid3(x_edges=np.array([0.0, 1.0]), p_edges=np.array(edges), t_steps=(0,), dt=0.1)

    def test_one_window_per_slice(self):
        edges = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="need one window per time slice"):
            Grid3(edges, edges, t_steps=(0, 1), dt=0.1, windows=((0, 4, 0, 4),))

    def test_underflowing_bin_area_refused(self):
        # steps of 1e-200 pass the edge rule, but their product is 0
        edges = np.arange(5) * 1e-200
        with pytest.raises(ValueError, match="bin area must be positive"):
            Grid3(edges, edges, t_steps=(0,), dt=0.1)

    def test_edge_steps_equal_to_within_1e9_of_the_largest(self):
        x_edges, p_edges = stats.lattice_edges([0.0, 1.0, 2.0 - 0.5e-9], [0, 1, 2])
        assert x_edges.dtype == p_edges.dtype == np.float64

    def test_empty_t_steps_refused_by_name(self):
        with pytest.raises(ValueError, match="t_steps must name at least one stored step"):
            Grid3.auto(SPEC, cfg_gtf(1.0, 10, 10, seed=1), dx=0.1, dp=0.2, t_steps=())


class TestLatticeCounts:
    # Steps of binary fractions on [1, 2] and [4, 5.5]: every finite probe
    # minus edges[0] is exact (Sterbenz's lemma near the lattice, whole
    # numbers beyond it) and so is its division by the step, so its floor bin
    # is the bin its neighbouring edges bound, [e_i, e_i+1).
    X_EDGES = 1.0 + np.arange(17) / 16
    P_EDGES = 4.0 + np.arange(7) / 4

    @staticmethod
    def _probes(edges):
        # every edge (the last one included), each edge's neighbouring floats
        # both ways, beyond both ends, +-inf and NaN
        span = edges[-1] - edges[0]
        return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                               [edges[0] - span, edges[-1] + span, -np.inf, np.inf, np.nan]])

    @pytest.mark.parametrize("window", [None, (3, 11, 1, 5)], ids=["whole", "window"])
    def test_every_probe_lands_in_its_floor_bin(self, window):
        xs, ps = (a.ravel() for a in np.meshgrid(self._probes(self.X_EDGES),
                                                   self._probes(self.P_EDGES)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stats.lattice_counts(xs, ps, self.X_EDGES, self.P_EDGES, window)
        ix0, ix1, ip0, ip1 = window or (0, len(self.X_EDGES) - 1, 0, len(self.P_EDGES) - 1)
        want = np.zeros((ix1 - ix0, ip1 - ip0), dtype=np.int64)
        # [e_i, e_i+1) by comparison with the edges; NaN sorts past the last edge
        i = np.searchsorted(self.X_EDGES, xs, side="right") - 1 - ix0
        j = np.searchsorted(self.P_EDGES, ps, side="right") - 1 - ip0
        inside = (i >= 0) & (i < ix1 - ix0) & (j >= 0) & (j < ip1 - ip0)
        np.add.at(want, (i[inside], j[inside]), 1)
        assert got.dtype == np.min_scalar_type(len(xs)) == np.uint16
        assert np.array_equal(got, want)
        # a pair on the last edge of either axis lies beyond the lattice
        assert not np.any(inside & ((xs == self.X_EDGES[-1]) | (ps == self.P_EDGES[-1])))


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

    def test_out_of_grid_is_the_rows_the_counts_do_not_hold(self):
        grid = Grid3(np.arange(3.0), np.arange(3.0), (0, 1, 2), 1.0)
        counts = [np.array([[40, 30], [20, 10]], dtype=np.uint8),
                  np.array([[0, 0], [0, 0]], dtype=np.uint16),
                  np.array([[25, 25], [25, 25]], dtype=np.uint32)]
        binned = BinnedCounts(grid, counts, 107)
        assert binned.out_of_grid.dtype == np.int64
        assert binned.out_of_grid.tolist() == [7, 107, 7]
        report = chi2_time_averaged(binned, [np.full((2, 2), 0.25)] * 3)
        assert report.n_out_of_grid == 121

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
        # that a single chunk's counts are shipped in, and widens to uint32.
        cfg = cfg_gtf(1.0, 2, 5 * CHUNK_ROWS + 3, seed=13)
        edges = np.array([-1e3, 1e3])
        grid = Grid3(x_edges=edges, p_edges=edges, t_steps=(0, 2), dt=cfg.dt)
        assert cfg.n_samples > np.iinfo(np.uint16).max
        for workers in (1, 2):
            binned = accumulate_counts(SPEC, cfg, grid, workers=workers)
            assert [c.tolist() for c in binned.counts] == [[[cfg.n_samples]]] * 2
            assert [c.dtype for c in binned.counts] == [np.uint32] * 2
            assert binned.out_of_grid.tolist() == [0, 0]
            assert binned.n_samples == cfg.n_samples

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1000, 2 * CHUNK_ROWS + 5], ids=["1-chunk", "3-chunk"])
    def test_totals_dtype_follows_n_at_any_chunk_count(self, n, workers):
        # the total of each slice is held in the dtype of its largest bin, not
        # of the run's rows: no bin of these runs passes 255, so uint8
        cfg = cfg_gtf(1.0, 10, n, seed=14)
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2, t_steps=(4,))
        binned = accumulate_counts(SPEC, cfg, grid, workers=workers)
        whole = bin_counts(simulate(SPEC, cfg, store_steps=grid.t_steps), grid)
        for got, want in zip(binned.counts, whole.counts, strict=True):
            assert got.dtype == np.uint8 == np.min_scalar_type(want.max())
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(binned.out_of_grid, whole.out_of_grid)


class TestNarrowTotals:
    """accumulate_counts widens a slice's total only when a sum passes its dtype."""

    @staticmethod
    def _one_bin(n, seed):
        # one bin holding every row, at the two ends of the loop alone
        cfg = cfg_gtf(1.0, 2, n, seed=seed)
        edges = np.array([-1e3, 1e3])
        return cfg, Grid3(x_edges=edges, p_edges=edges, t_steps=(0, 2), dt=cfg.dt)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16),
                                          (65_535, np.uint16), (65_536, np.uint32)])
    def test_total_widens_exactly_at_the_dtype_range(self, n, dtype, workers):
        cfg, grid = self._one_bin(n, seed=31)
        binned = accumulate_counts(SPEC, cfg, grid, workers=workers)
        assert [c.tolist() for c in binned.counts] == [[[n]]] * 2
        assert [c.dtype for c in binned.counts] == [dtype] * 2
        assert binned.out_of_grid.tolist() == [0, 0]
        assert binned.n_samples == n


def _int64_counts(xs, ps, grid, window):
    """One slice's counts by an int64 np.bincount: the wide reference."""
    ix0, ix1, ip0, ip1 = window
    ix = np.floor((xs - grid.x_edges[0]) / grid.dx) - ix0
    ip = np.floor((ps - grid.p_edges[0]) / grid.dp) - ip0
    ok = (ix >= 0) & (ix < ix1 - ix0) & (ip >= 0) & (ip < ip1 - ip0)
    flat = (ix[ok] * (ip1 - ip0) + ip[ok]).astype(np.int64)
    return np.bincount(flat, minlength=(ix1 - ix0) * (ip1 - ip0)).reshape(ix1 - ix0, ip1 - ip0)


class TestNarrowWindows:
    """bin_counts holds each window in the narrowest dtype its rows fit."""

    @pytest.mark.parametrize("n, dtype", [(CHUNK_ROWS, np.uint16), (70_000, np.uint32)],
                             ids=["chunk", "70k-batch"])
    def test_window_dtype_follows_the_rows(self, n, dtype):
        cfg = cfg_gtf(1.0, 10, n, seed=24)
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2, t_steps=(0, 5, 10), n_sigma=3.0)
        batch = simulate(SPEC, cfg, store_steps=grid.t_steps)
        binned = bin_counts(batch, grid)
        assert np.min_scalar_type(n) == dtype
        for step, window, counts in zip(grid.t_steps, grid.windows, binned.counts, strict=True):
            assert counts.dtype == dtype
            ref = _int64_counts(batch.x_at(step), batch.p_at(step), grid, window)
            assert ref.dtype == np.int64
            np.testing.assert_array_equal(counts, ref)


class TestChunkParts:
    """What one chunk sends back: its occupied bins, not its windows."""

    @staticmethod
    def _tail_grid(cfg):
        # 2000 x 1000 bins at the first two slices; the last window lies in the
        # far tail at x, p > 18, where no row lands
        return Grid3(x_edges=np.arange(-1000, 1001) * 0.02, p_edges=np.arange(-500, 501) * 0.04,
                     t_steps=(0, 5, 10), dt=cfg.dt,
                     windows=((0, 2000, 0, 1000), (0, 2000, 0, 1000), (1900, 2000, 950, 1000)))

    def test_part_size_follows_rows_not_cells(self):
        cfg = cfg_gtf(1.0, 10, CHUNK_ROWS, seed=21)
        grid = self._tail_grid(cfg)
        batch = simulate(SPEC, cfg, store_steps=grid.t_steps)
        values = batch.n_samples * len(grid.t_steps)
        cells = sum((ix1 - ix0) * (ip1 - ip0) for ix0, ix1, ip0, ip1 in grid.windows)
        assert cells >= 10 * values
        # a uint32 index and a uint8 count per occupied bin, plus pickle framing
        assert len(pickle.dumps(stats._bin_chunk(batch, grid))) < 5 * values + 4096

    def test_part_dtypes_follow_the_window_and_the_counts(self):
        cfg = cfg_gtf(1.0, 10, CHUNK_ROWS, seed=21)
        batch = simulate(SPEC, cfg, store_steps=(0, 5, 10))
        # 2,000,000-cell windows index in uint32, the 5,000-cell one in uint16;
        # no bin of the tail grid passes 255 rows, so every count is uint8
        pairs = stats._bin_chunk(batch, self._tail_grid(cfg))
        assert [(i.dtype, c.dtype) for i, c in pairs] == [
            (np.uint32, np.uint8), (np.uint32, np.uint8), (np.uint16, np.uint8)]
        # a window of 65,536 cells indexes in uint16, one of 65,537 in uint32
        edges = np.arange(-40_000, 40_001) * 1e-3
        windows = ((39_872, 40_128, 39_872, 40_128), (40_000, 40_001, 0, 65_537))
        grid = Grid3(x_edges=edges, p_edges=edges, t_steps=(0, 10), dt=cfg.dt, windows=windows)
        pairs = stats._bin_chunk(batch, grid)
        assert [i.dtype for i, _ in pairs] == [np.uint16, np.uint32]
        # one bin holding all 16,384 rows of the chunk ships a uint16 count
        one = np.array([-1e3, 1e3])
        pairs = stats._bin_chunk(batch, Grid3(x_edges=one, p_edges=one, t_steps=(10,),
                                              dt=cfg.dt))
        assert [(i.dtype, c.dtype, c.tolist()) for i, c in pairs] == [
            (np.uint8, np.uint16, [CHUNK_ROWS])]

    def test_part_is_one_index_count_pair_per_slice(self):
        cfg = cfg_gtf(1.0, 10, 1000, seed=21)
        grid = self._tail_grid(cfg)
        batch = simulate(SPEC, cfg, store_steps=grid.t_steps)
        pairs = stats._bin_chunk(batch, grid)
        assert isinstance(pairs, list) and len(pairs) == len(grid.t_steps)
        whole = bin_counts(batch, grid)
        for pair, counts in zip(pairs, whole.counts, strict=True):
            assert isinstance(pair, tuple) and len(pair) == 2
            idx, values = pair
            assert idx.tolist() == np.flatnonzero(counts).tolist()
            assert values.tolist() == counts.ravel()[idx].tolist()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_totals_equal_binning_the_whole_run(self, workers):
        cfg = cfg_gtf(1.0, 10, 2 * CHUNK_ROWS + 5, seed=22)
        grid = self._tail_grid(cfg)
        binned = accumulate_counts(SPEC, cfg, grid, workers=workers)
        whole = bin_counts(simulate(SPEC, cfg, store_steps=grid.t_steps), grid)
        for got, want in zip(binned.counts, whole.counts, strict=True):
            # no bin passes 255 rows and the tail window holds none: uint8
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(binned.out_of_grid, whole.out_of_grid)
        assert binned.n_samples == cfg.n_samples
        assert binned.counts[2].sum() == 0 and binned.out_of_grid[2] == cfg.n_samples

    def test_non_finite_rows_cross_the_pipe_as_out_of_grid(self, monkeypatch):
        cfg = cfg_gtf(1.0, 10, 2 * CHUNK_ROWS + 5, seed=23)
        grid = self._tail_grid(cfg)
        batch = simulate(SPEC, cfg, store_steps=grid.t_steps)
        finite_out = bin_counts(batch, grid).out_of_grid
        batch.amplified[:5, :] = np.nan
        batch.attenuated[CHUNK_ROWS : CHUNK_ROWS + 5, :] = np.inf
        batch.amplified[-5:, 1] = -np.inf
        chunks = [
            dataclasses.replace(batch, amplified=batch.amplified[lo : lo + CHUNK_ROWS],
                                attenuated=batch.attenuated[lo : lo + CHUNK_ROWS],
                                boundary_hill=batch.boundary_hill[lo : lo + CHUNK_ROWS])
            for lo in range(0, cfg.n_samples, CHUNK_ROWS)
        ]

        def pickled_parts(spec, cfg, part, workers, store_steps):
            # each part crosses a pickle, as it does from a pool worker
            return (pickle.loads(pickle.dumps(part(chunk))) for chunk in chunks)

        monkeypatch.setattr(stats, "map_chunks", pickled_parts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            binned = accumulate_counts(SPEC, cfg, grid)
        whole = bin_counts(batch, grid)
        for got, want in zip(binned.counts, whole.counts, strict=True):
            np.testing.assert_array_equal(got, want)
        assert binned.out_of_grid.tolist() == whole.out_of_grid.tolist()
        assert (whole.out_of_grid[:2] > finite_out[:2]).all()
        assert binned.n_samples == cfg.n_samples


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
            np.asarray(model.separable_bins(grid.x_edges, grid.p_edges, x_profiles(step),
                                            p_profiles, 3, window))
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
            np.asarray(model.separable_bins(edges, edges, *profiles, 3))

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
    return BinnedCounts(grid, counts, n_samples)


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

    def test_lazy_probs_are_held_one_slice_at_a_time(self):
        # zero counts at 10**6 samples: no simulation is needed to exercise the statistic
        cfg = cfg_gtf(2.0, 12, 10**6, seed=1)
        grid = Grid3.auto(SPEC, cfg, dx=0.05, dp=0.1)
        assert len(grid.t_steps) >= 10
        shapes = [(ix1 - ix0, ip1 - ip0) for ix0, ix1, ip0, ip1 in grid.windows]
        counts = BinnedCounts(grid, [np.zeros(shape, np.int64) for shape in shapes],
                              cfg.n_samples)
        slice_bytes = 8 * max(nx * npb for nx, npb in shapes)
        tracemalloc.start()
        try:
            report = chi2_time_averaged(counts, iter_bin_probs(SPEC, cfg, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A slice is four per-axis vectors, formed and judged one band of
        # about stats._BAND_CELLS bins at a time; what follows the slice is
        # its significant bins' terms (a tenth of the slice here) and their
        # join; the fixed part is the Simpson lattices and the bands.
        assert peak < slice_bytes // 2 + 512 * 1024
        assert sum(8 * nx * npb for nx, npb in shapes) > 5 * slice_bytes
        assert report == chi2_time_averaged(counts, analytic_bin_probs(SPEC, cfg, grid))
        assert report.n_valid > 0

    @pytest.mark.parametrize("band_cells", ["row", "ragged", "whole"])
    def test_banding_moves_no_bit(self, monkeypatch, band_cells):
        # Dense arrays, SeparableBins and a 1-D array, scored in bands of
        # one cell, of 7 rows with a ragged last band, or of a whole window,
        # give the bits of one band per probability array.
        cfg = cfg_gtf(1.0, 10, 40_000, seed=3)
        grid = Grid3.auto(SPEC, cfg, dx=0.1, dp=0.2, t_steps=(0, 4, 10))
        binned = accumulate_counts(SPEC, cfg, grid)
        rows = [ix1 - ix0 for ix0, ix1, _, _ in grid.windows]
        cols = [ip1 - ip0 for _, _, ip0, ip1 in grid.windows]
        whole = 2 * max(map(math.prod, zip(rows, cols)))
        cells = {"row": 1, "ragged": 7 * max(cols), "whole": whole}
        # A normal law over more cells than three ragged bands and fewer than a whole one.
        x = np.linspace(-4.0, 4.0, 3 * cells["ragged"] + 5)
        probs_1d = np.exp(-x * x / 2) / np.exp(-x * x / 2).sum()
        counts_1d = np.random.default_rng(8).multinomial(cfg.n_samples, probs_1d)
        assert len(x) <= whole
        if band_cells == "ragged":  # some window ends in a band of fewer rows
            assert any(r % (cells["ragged"] // c) for r, c in zip(rows, cols))

        monkeypatch.setattr(stats, "_BAND_CELLS", 10 * whole)  # one band each
        reference = chi2_time_averaged(binned, analytic_bin_probs(SPEC, cfg, grid))
        reference_1d = chi2_counts_vs_probs(counts_1d, probs_1d, cfg.n_samples)
        assert reference.n_valid > 0 and reference_1d[1] > 0

        monkeypatch.setattr(stats, "_BAND_CELLS", cells[band_cells])
        assert chi2_time_averaged(binned, analytic_bin_probs(SPEC, cfg, grid)) == reference
        assert chi2_time_averaged(binned, iter_bin_probs(SPEC, cfg, grid)) == reference
        assert chi2_counts_vs_probs(counts_1d, probs_1d, cfg.n_samples) == reference_1d
        # np.asarray of the factors, whole or a band of rows, is ia (x) ie - ib (x) ic
        for bins, n_cols in zip(iter_bin_probs(SPEC, cfg, grid), cols):
            dense = np.outer(bins.ia, bins.ie) - np.outer(bins.ib, bins.ic)
            np.testing.assert_array_equal(np.asarray(bins), dense, strict=True)
            step = max(cells[band_cells] // n_cols, 1)
            for lo in range(0, len(dense), step):
                np.testing.assert_array_equal(np.asarray(bins[lo : lo + step]),
                                              dense[lo : lo + step], strict=True)

    def test_factor_shape_mismatch_raises(self):
        cfg = cfg_gtf(1.0, 10, 20_000, seed=5)
        grid = Grid3.auto(SPEC, cfg, dx=0.2, dp=0.5, t_steps=(0,))
        bins = next(iter_bin_probs(SPEC, cfg, grid))
        nx, npb = bins.shape
        for shape in ((nx + 1, npb), (nx, npb - 1)):
            with pytest.raises(ValueError, match="shape mismatch"):
                chi2_counts_vs_probs(np.zeros(shape, np.int64), bins, cfg.n_samples)

    def test_more_probability_slices_than_counts_refused(self):
        cfg = cfg_gtf(1.0, 10, 20_000, seed=5)
        grid = Grid3.auto(SPEC, cfg, dx=0.2, dp=0.5, t_steps=(0, 5, 10))
        binned = accumulate_counts(SPEC, cfg, grid)
        probs = analytic_bin_probs(SPEC, cfg, grid)
        with pytest.raises(ValueError, match="more probability arrays"):
            chi2_time_averaged(binned, probs + probs[:1])
        with pytest.raises(ValueError, match="fewer probability arrays"):
            chi2_time_averaged(binned, iter(probs[:2]))

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
        counts = BinnedCounts(grid, [np.zeros((2, 2), dtype=np.int64)], 4)
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

    def test_one_value_has_no_jackknife_error(self):
        # one block: no delete-one replicate to spread, so the errors are NaN
        got = jackknife_mean_var(np.array([5.0]))
        assert got[:2] == (5.0, 0.0) and math.isnan(got.se_mean) and math.isnan(got.se_var)

    def test_jackknife_block_count(self):
        # min(JACKKNIFE_BLOCKS, n) blocks and delete-one-block replicates
        assert stats.JACKKNIFE_BLOCKS == 100
        for n, blocks in ((50, 50), (100, 100), (1000, 100)):
            bounds = stats.jackknife_bounds(n)
            moments = stats.block_moments(np.arange(float(n)), np.diff(bounds))
            assert list(moments) == list(range(blocks))
            assert sum(count for count, _, _ in moments.values()) == n
            _, _, mean_del, var_del = stats.jackknife_moments(moments.values())
            assert len(mean_del) == len(var_del) == blocks

    @pytest.mark.parametrize("n", [37, 100, 1234, 20_000])
    def test_pieces_read_as_their_concatenation(self, n):
        # cuts at 0, at the end, twice at one row (0-row pieces), one row
        # either side of block bounds and at random rows: each piece's block
        # moments, merged in order, are the whole's to rounding, and their
        # jackknife is np.mean and np.var of the whole and of the whole less
        # each block
        rng = np.random.default_rng(n)
        values = rng.normal(3.0, 2.0, size=n)
        bounds = np.linspace(0, n, min(stats.JACKKNIFE_BLOCKS, n) + 1).astype(np.int64)
        cuts = sorted([0, 0, n, bounds[1] - 1, bounds[1] + 1, bounds[2], bounds[2],
                       *rng.integers(0, n + 1, size=7)])
        starts = [0, *cuts]
        pieces = np.split(values, cuts)
        assert any(len(piece) == 0 for piece in pieces)
        merged = {}
        assert np.array_equal(stats.jackknife_bounds(n), bounds)
        for start, piece in zip(starts, pieces):
            counts = np.diff(np.clip(bounds - start, 0, len(piece)))
            for b, moments in stats.block_moments(piece, counts).items():
                merged[b] = stats.merge_moments(merged.get(b, (0, 0.0, 0.0)), moments)
        whole = stats.block_moments(values, np.diff(bounds))
        assert list(merged) == list(whole)
        for (n_m, mean_m, m2_m), (n_w, mean_w, m2_w) in zip(merged.values(), whole.values()):
            assert n_m == n_w
            assert mean_m == pytest.approx(mean_w, rel=1e-14, abs=0)
            assert m2_m == pytest.approx(m2_w, rel=1e-12, abs=1e-14)
        mean, var, mean_del, var_del = stats.jackknife_moments(merged.values())
        assert mean == pytest.approx(np.mean(values), rel=1e-14, abs=0)
        assert var == pytest.approx(np.var(values), rel=1e-12, abs=0)
        rest = [np.delete(values, np.s_[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        np.testing.assert_allclose(mean_del, [np.mean(r) for r in rest], rtol=1e-14, atol=0)
        np.testing.assert_allclose(var_del, [np.var(r) for r in rest], rtol=1e-12, atol=0)

    def test_variance_keeps_its_digits_far_from_zero(self):
        # mean 1e8, sd 2: one-pass E[x^2] - mean^2 would keep no digit of the
        # variance; the two-pass blocks and their merges keep all but about
        # eps * mean / sd of it
        values = np.random.default_rng(17).normal(1e8, 2.0, size=20_000)
        mean, var, se_mean, se_var = jackknife_mean_var(values)
        assert mean == pytest.approx(np.mean(values), rel=1e-15, abs=0)
        assert var == pytest.approx(np.var(values), rel=1e-8, abs=0)
        shifted = jackknife_mean_var(values - 1e8)
        assert se_mean == pytest.approx(shifted.se_mean, rel=1e-6, abs=0)
        assert se_var == pytest.approx(shifted.se_var, rel=1e-6, abs=0)

    def test_blocks_of_no_row_are_left_out(self):
        # consecutive blocks of 3, 0, 2 and 2 rows: (n, mean, m2) of each
        # block that holds a row, keyed by its index
        moments = stats.block_moments(np.arange(7.0), [3, 0, 2, 2])
        assert moments == {0: (3, 1.0, 2.0), 2: (2, 3.5, 0.5), 3: (2, 5.5, 0.5)}
        assert stats.merge_moments(moments[2], moments[3]) == (4, 4.5, 5.0)
        assert stats.merge_moments((0, 0.0, 0.0), moments[0]) == moments[0]

    @pytest.mark.parametrize("blocks", [[], [(0, 0.0, 0.0)], [(0, 0.0, 0.0), (0, 0.0, 0.0)]],
                             ids=["no-pieces", "one-empty", "two-empty"])
    def test_zero_rows_refused_by_name(self, blocks):
        # a ValueError, which the CLI reports, not a bare ZeroDivisionError
        with pytest.raises(ValueError, match="blocks hold none"):
            stats.jackknife_moments(blocks)
        with pytest.raises(ValueError, match="blocks hold none"):
            jackknife_mean_var(np.array([]))

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

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError, match="empty histogram"):
            two_sample_chi2([0, 0, 0], [10, 10, 10])

    def test_one_populated_bin_raises(self):
        # one bin kept leaves no degree of freedom
        with pytest.raises(ValueError, match="not enough populated bins"):
            two_sample_chi2([100, 1, 0], [100, 0, 1])


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

    def test_bytes_match_six_column_reference(self, tmp_path):
        # the same file as write_csv of the six fmt17 columns, row by row
        n_samples = 2**20 + 3
        rng = np.random.default_rng(4)
        windows = ((10, 20, 30, 40), (395, 405, 290, 310), (37, 337, 12, 262), (0, 50, 0, 40),
                   (395, 398, 0, 8600))
        grid = Grid3(np.arange(-400, 401) * 0.1, np.arange(-4300, 4301) * 0.25,
                     t_steps=(0, 3, 7, 12, 13), dt=0.1, windows=windows)
        counts = [np.zeros((ix1 - ix0, ip1 - ip0), dtype=np.int64)
                  for ix0, ix1, ip0, ip1 in windows]
        counts[1][4, 11] = n_samples  # the one occupied bin of its slice
        big = counts[2]
        big[...] = rng.integers(0, 300, big.shape) * (rng.random(big.shape) < 0.95)
        big.flat[rng.choice(big.size, 6, replace=False)] = [
            65_535, 65_536, 70_000, 2**17, n_samples - 1, n_samples]
        assert np.count_nonzero(big) > _BLOCK_ROWS  # spans two write blocks
        small = counts[3]
        small[rng.random(small.shape) < 0.3] = 1
        small[7, 5] = n_samples
        wide = counts[4]  # one x row holds more nonzero counts than a block
        wide[0] = rng.integers(1, 5, wide.shape[1])
        wide[2, ::3] = 2
        assert wide.shape[1] > _BLOCK_ROWS
        binned = BinnedCounts(grid=grid, counts=counts, n_samples=n_samples)

        def columns():
            xe, pe = fmt17(grid.x_edges), fmt17(grid.p_edges)
            for c, step, window in zip(counts, grid.t_steps, windows):
                i, j = np.nonzero(c)
                ix, ip = i + window[0], j + window[2]
                t = fmt17([step * grid.dt]).repeat(len(i))
                yield t, xe[ix], xe[ix + 1], pe[ip], pe[ip + 1], c[i, j]

        ref = tmp_path / "ref.csv"
        write_csv(ref, ("t", "x_lo", "x_hi", "p_lo", "p_hi", "count"), columns())
        path = tmp_path / "hist.csv"
        stats.write_histogram_csv(path, binned)
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_text().count("\n") == 1 + sum(map(np.count_nonzero, counts))

    def test_writer_memory_follows_the_block_not_the_bins(self, tmp_path):
        # One fixed 512 x 512 window holding 8, then 16, blocks of nonzero
        # counts: the writer holds one band of indices and one block of text at
        # a time, so its peak does not grow with the bins it writes.
        grid = Grid3(np.arange(513) * 0.1, np.arange(513) * 0.1, t_steps=(0,), dt=0.1)
        rng = np.random.default_rng(6)
        path = tmp_path / "hist.csv"

        def peak(nonzero):
            counts = np.zeros((512, 512), dtype=np.uint32)
            counts.flat[rng.choice(counts.size, nonzero, replace=False)] = rng.integers(
                1, 3000, nonzero)
            binned = BinnedCounts(grid, [counts], 10**6)
            tracemalloc.start()
            try:
                stats.write_histogram_csv(path, binned)
                got = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert path.read_text().count("\n") == 1 + nonzero
            return got

        small, large = peak(8 * _BLOCK_ROWS), peak(16 * _BLOCK_ROWS)
        assert abs(large - small) < 0.1 * small
        # A block's rows as object cells, joined text and encoded bytes, and
        # the window's edge texts.
        assert small < 512 * _BLOCK_ROWS

    def test_count_dtype_moves_no_report_or_byte(self, tmp_path):
        cfg = cfg_gtf(1.0, 10, 20_000, seed=9)
        grid = Grid3.auto(SPEC, cfg, dx=0.2, dp=0.5, t_steps=(0, 5, 10))
        narrow = accumulate_counts(SPEC, cfg, grid)
        # no bin passes 255 rows: every total is uint8
        assert [c.dtype for c in narrow.counts] == [np.uint8] * 3
        probs = analytic_bin_probs(SPEC, cfg, grid)
        report = chi2_time_averaged(narrow, probs)
        stats.write_histogram_csv(tmp_path / "narrow.csv", narrow)
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
            copy = dataclasses.replace(narrow, counts=[c.astype(dtype) for c in narrow.counts])
            assert chi2_time_averaged(copy, probs) == report
            stats.write_histogram_csv(tmp_path / "copy.csv", copy)
            assert (tmp_path / "copy.csv").read_bytes() == (tmp_path / "narrow.csv").read_bytes()
