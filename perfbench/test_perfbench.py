"""Tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs once at a tiny size, traced and untraced, through the same
code the benchmark uses; the self-time arithmetic, the stream-position
counter and the quartile reporting are checked on fixed inputs.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

import run as bench
import traced

TINY = {
    # A coarser grid keeps bins above the chi-squared population cut at small n.
    "verify-fringe": {"n": 20_000, "grid_dx": 0.5, "grid_dp": 1.0},
    "postselect-cat": {"n": 20_000},
    "simulate-csv": {"n": 2_000},
}


def _span(i, parent, start, end, name="s"):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "counts": {}}


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps span 1: the union [1, 5] counts once
        _span(3, 0, 9.0, 12.0),  # runs past its parent: only [9, 10] is covered
        _span(4, 1, 1.5, 2.5),
    ]
    selfs = traced.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 1.0, 2: 3.0, 3: 3.0, 4: 1.0})


def test_tracer_nesting_attributes_all_time_once():
    tracer = traced.Tracer("t")
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                time.sleep(0.002)
        with tracer.span("c"):
            time.sleep(0.002)
    root, a, b, c = tracer.spans
    assert (a["parent"], b["parent"], c["parent"]) == (0, 1, 0)
    selfs = traced.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(root["end"] - root["start"], abs=1e-12)
    assert all(v >= 0.0 for v in selfs.values())


def test_stream_position_counts_draws_without_consuming():
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
    twin = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
    start = traced.stream_position(gen)
    for size in (1, 3, 7, 100):
        gen.random(size)
        twin.random(size)
    assert traced.stream_position(gen) - start == 111
    assert gen.random() == twin.random()


def test_summarize_matches_statistics_quantiles():
    values = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]
    out = bench.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (out["n"], out["median"], out["q1"], out["q3"]) == (9, 5.0, q1, q3)
    assert out["high_pct"] is None
    assert bench.summarize([2.5]) == {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5, "high_pct": None}


@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0)])
def test_high_percentile_keeps_ten_samples_beyond(n, pct):
    out = bench.summarize([float(i) for i in range(n)])
    if pct is None:
        assert out["high_pct"] is None
    else:
        assert out["high_pct"]["pct"] == pct
        assert n - sum(v <= out["high_pct"]["value"] for v in range(n)) >= 10


def test_cli_argv_spells_flags_as_options():
    argv = bench.cli_argv("verify", {"grid_dx": 0.1, "oracle": True, "mixture": False, "seed": 3})
    assert argv == ["verify", "--grid-dx", "0.1", "--oracle", "--seed", "3"]


def _metric_names(kind):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_end_to_end_at_tiny_size(name):
    deadline = time.monotonic() + bench.RUN_BUDGET_S
    metrics, checks, report = bench.run_workload(name, 7, 0, False, deadline, TINY[name])
    assert checks.failed == 0, [r for r in checks.records if not r["ok"]]
    assert set(_metric_names("end_to_end")) <= set(metrics)
    assert metrics["traj_per_s"] == pytest.approx(TINY[name]["n"] / metrics["wall_s"], rel=1e-9)
    line = bench.result_line(metrics, checks, bench.load_metric_specs(False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == checks.attempted > 0


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_workload_matches_untraced_bytes(name):
    deadline = time.monotonic() + bench.RUN_BUDGET_S
    metrics, checks, report = bench.run_workload(name, 7, 0, True, deadline, TINY[name])
    assert checks.failed == 0, [r for r in checks.records if not r["ok"]]
    names = {r["check"] for r in checks.records}
    assert names >= {"w1_digests_match_w2", "traced_digests_match_w2"}
    assert set(_metric_names("per_layer")) <= set(metrics)
    n = TINY[name]["n"]
    assert metrics["engine.rows"] == n
    assert metrics["check_fail_frac"] == 0.0
    assert 0.0 < metrics["sampler.link.useful_ratio"] <= 1.0
    assert abs(metrics["trace.unattributed_s"]) < 0.05
    if name == "verify-fringe":
        assert metrics["stats.bin.values"] == n * 31
        assert metrics["engine.stored_values"] == 2 * n * 31
        assert metrics["stats.write.rows"] > 0
    else:
        assert metrics["stats.bin.values"] == 0
