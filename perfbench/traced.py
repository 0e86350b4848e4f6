"""Span tracing for one qtraj CLI command, installed from outside the package.

Spans are recorded around calls into each layer by replacing the module
attributes the calling code looks up: the sampler and model names the
engine calls, the engine's own per-chunk functions, and the public stats
and analysis functions the CLI calls.  No file of the package changes and
the wrappers exist only in the process that installs them.  Uniform draws
are counted from the Philox counter before and after each sampler call, so
tracing consumes no random numbers and the outputs stay byte-identical.

Spans are kept in memory; the caller writes them out when the command ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Metric name -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "sampler.boundary.s": ("sampler.boundary",),
    "sampler.link.s": ("sampler.link",),
    "sampler.noise.s": ("sampler.noise",),
    "engine.backward.s": ("engine.backward",),
    "engine.forward.s": ("engine.forward",),
    "engine.self.s": (
        "engine.simulate",
        "engine.chunk",
        "engine.backward",
        "engine.forward",
        "engine.concat",
    ),
    "model.cond_amp.s": ("model.cond_amp",),
    "stats.grid.s": ("stats.grid",),
    "stats.bin.s": ("stats.accumulate", "stats.bin"),
    "stats.probs.s": ("stats.probs",),
    "stats.chi2.s": ("stats.chi2",),
    "stats.write.s": ("stats.write",),
    "analysis.postselect.s": ("analysis.postselect",),
    "analysis.oracle.s": ("analysis.oracle",),
    "analysis.write.s": ("analysis.write",),
    "cli.setup.s": ("cli.setup",),
    "cli.self.s": ("cli.main",),
}


class Tracer:
    """In-memory spans of one traced command; every span shares trace_id."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []

    def _open(self, name, start):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": start,
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        return rec

    def add(self, name, start, end):
        """Record a span whose interval was timed before tracing began."""
        rec = self._open(name, start)
        rec["end"] = end
        return rec

    @contextmanager
    def span(self, name):
        rec = self._open(name, time.perf_counter())
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans):
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        )
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def stream_position(gen):
    """64-bit words a Philox generator has handed out (reads state, draws none)."""
    state = gen.bit_generator.state
    if state["bit_generator"] != "Philox":
        raise ValueError(f"expected a Philox stream, got {state['bit_generator']}")
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


def _find_generator(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.random.Generator):
            return value
    return None


def install(tracer):
    """Wrap every traced name in this process; returns nothing to undo."""
    from qtraj import analysis, cli, engine, model, stats

    def wrap(owner, attr, name, count=None, static=False):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            gen = _find_generator(args, kwargs)
            before = stream_position(gen) if gen is not None else None
            with tracer.span(name) as rec:
                out = orig(*args, **kwargs)
            if gen is not None:
                rec["counts"]["uniforms"] = stream_position(gen) - before
            if count is not None:
                count(rec["counts"], args, kwargs, out)
            return out

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def chunk_iter(owner):
        orig = owner.iter_chunk_batches

        def wrapper(*args, **kwargs):
            chunks = orig(*args, **kwargs)
            while True:
                with tracer.span("engine.chunk") as rec:
                    batch = next(chunks, None)
                if batch is None:
                    return
                rec["counts"].update(
                    chunks=1,
                    rows=batch.n_samples,
                    stored_values=batch.amplified.size + batch.attenuated.size,
                    result_bytes=batch.amplified.nbytes
                    + batch.attenuated.nbytes
                    + batch.boundary_hill.nbytes,
                )
                yield batch

        owner.iter_chunk_batches = wrapper

    def link_counts(counts, args, kwargs, out):
        # Every rejection round draws a normal and an acceptance uniform per slot.
        size = int(kwargs.get("size", 1))
        proposals = counts["uniforms"] // 2
        counts.update(accepted=size, proposals=proposals, rounds=proposals // max(size, 1))

    def bin_values(counts, args, kwargs, out):
        batch, grid = args[0], args[1]
        counts["values"] = batch.n_samples * len(grid.t_steps)

    def out_of_grid(counts, args, kwargs, out):
        counts["out_of_grid"] = int(out.out_of_grid.sum())
        counts["binned"] = out.n_samples * len(out.counts)

    def written(counts, args, kwargs, out):
        counts["path"] = os.fspath(args[0])

    wrap(engine, "sample_gaussian_mixture", "sampler.boundary")
    wrap(engine, "sample_fringe", "sampler.link", link_counts)
    wrap(engine, "standard_normal_it", "sampler.noise")
    wrap(model, "conditional_fringe_amp", "model.cond_amp")
    wrap(engine, "run_backward", "engine.backward")
    wrap(engine, "run_forward", "engine.forward")
    wrap(engine.TrajectoryBatch, "concat", "engine.concat", static=True)
    wrap(cli, "simulate", "engine.simulate")
    chunk_iter(engine)
    chunk_iter(stats)
    wrap(stats.Grid3, "auto", "stats.grid", static=True)
    wrap(stats, "accumulate_counts", "stats.accumulate", out_of_grid)
    wrap(stats, "bin_counts", "stats.bin", bin_values)
    wrap(stats, "analytic_bin_probs", "stats.probs")
    wrap(stats, "chi2_time_averaged", "stats.chi2")
    wrap(stats, "write_histogram_csv", "stats.write", written)
    wrap(analysis, "postselect", "analysis.postselect")
    wrap(analysis, "postselect_oracle", "analysis.oracle")
    wrap(analysis, "write_qplus_csv", "analysis.write", written)


def _count_rows(path):
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1


def layer_metrics(tracer, out_dir, region_s):
    """Per-layer metrics of a finished traced command.

    region_s is the traced process's own wall time from the start of setup
    to the end of the command; what the span self times do not cover of it
    is reported as trace.unattributed_s.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(float)
    for s in spans:
        by_name[s["name"]] += selfs[s["id"]]
    metrics = {
        metric: sum(by_name[n] for n in names) for metric, names in SELF_TIME_METRICS.items()
    }

    def total(count, prefix):
        return sum(s["counts"].get(count, 0) for s in spans if s["name"].startswith(prefix))

    links = [s["counts"] for s in spans if s["name"] == "sampler.link"]
    proposals = sum(c["proposals"] for c in links)
    metrics["sampler.uniforms"] = total("uniforms", "sampler.")
    metrics["sampler.link.useful_ratio"] = (
        sum(c["accepted"] for c in links) / proposals if proposals else 0.0
    )
    metrics["sampler.link.rounds_max"] = max((c["rounds"] for c in links), default=0)
    for count in ("rows", "chunks", "stored_values", "result_bytes"):
        metrics[f"engine.{count}"] = total(count, "engine.chunk")
    metrics["stats.bin.values"] = total("values", "stats.bin")
    binned = total("binned", "stats.accumulate")
    out_of_grid = total("out_of_grid", "stats.accumulate")
    metrics["stats.out_of_grid_frac"] = out_of_grid / binned if binned else 0.0
    hist = [s["counts"]["path"] for s in spans if s["name"] == "stats.write"]
    metrics["stats.write.bytes"] = sum(os.path.getsize(p) for p in hist)
    metrics["stats.write.rows"] = sum(_count_rows(p) for p in hist)
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    metrics["cli.out_bytes"] = sum(
        os.path.getsize(os.path.join(out_dir, o["path"])) for o in outputs
    )
    metrics["trace.unattributed_s"] = region_s - sum(selfs.values())
    return metrics
