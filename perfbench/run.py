"""qtraj benchmark: three CLI workloads end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command runs in a fresh interpreter
(perfbench/child.py) with src on PYTHONPATH, the way the test suite runs.

--trace 0 repeats the workload's command at --workers 2 until S seconds
have passed and reports the median of each end-to-end metric.  --trace 1
repeats rounds of three runs: untraced at --workers 2, untraced at
--workers 1 (the single-threaded baseline) and traced at --workers 1
(perfbench/traced.py), and reports the median of each per-layer metric.
Every run's outputs are checked; the checks give "attempted" and "failed".

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  The full report (environment, argv, every sample with its
median and quartiles, every check) goes to bench_out/BENCH_<...>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
OUT_ROOT = os.path.join(ROOT, "bench_out")

# A run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0

# z-score and standard-error multiple beyond which an output check fails.
CHECK_SIGMAS = 4.0

WORKLOADS = {
    # Criterion 1's desk-scale config: full paths, binning of 6.2M (x, p)
    # pairs and the 290k-row sparse histogram writer.  Its chi-squared verdict
    # is known red and exits 1; that is recorded, not counted as a failure.
    "verify-fringe": {
        "command": "verify",
        "flags": {"r": 2.0, "x1": 1.0, "c1sq": 0.5, "gtf": 3.0, "dt": 0.1, "n": 200_000,
                  "grid_dx": 0.1, "grid_dp": 0.2},
        "exit_codes": (0, 1),
    },
    # Endpoint-only storage at 1e6 rows: engine and linking sampler dominate;
    # no binning, small outputs.
    "postselect-cat": {
        "command": "postselect",
        "flags": {"alpha0": 1.0, "gtf": 4.0, "dt": 0.1, "n": 1_000_000, "oracle": True},
        "exit_codes": (0,),
    },
    # Criterion 7's config: 774k rows of %.17g text; output cost dominates.
    "simulate-csv": {
        "command": "simulate",
        "flags": {"n": 36_864, "gtf": 2.0, "dt": 0.1},
        "exit_codes": (0,),
    },
}


class Checks:
    """Output checks of one benchmark run; every failure is kept with its detail."""

    def __init__(self):
        self.records = []

    def record(self, name, ok, detail=None):
        self.records.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.records)


def summarize(values):
    """Median, quartiles and sample count, as statistics.quantiles gives them.

    high_pct is the highest of the usual percentiles with at least ten samples
    beyond it, or None when there are too few samples for any.
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        return {"n": 0}
    q1, q3 = (values[0], values[0]) if n == 1 else statistics.quantiles(values, n=4)[::2]
    out = {"n": n, "median": statistics.median(values), "q1": q1, "q3": q3, "high_pct": None}
    for permille in (999, 990, 950, 900, 750, 500):
        if n * (1000 - permille) >= 10 * 1000:
            cuts = statistics.quantiles(values, n=1000)
            out["high_pct"] = {"pct": permille / 10, "value": cuts[permille - 1]}
            break
    return out


def cli_argv(command, flags):
    argv = [command]
    for key, value in flags.items():
        opt = "--" + key.replace("_", "-")
        if value is True:
            argv.append(opt)
        elif value is not None and value is not False:
            argv += [opt, str(value)]
    return argv


def _stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def run_child(job, deadline):
    """Run child.py on one job; returns (result dict or None, stderr tail)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(job)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        return None, "timed out"
    except BaseException:
        _stop_group(proc)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, err[-2000:]
    return json.loads(lines[-1]), err[-2000:]


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_manifest(out_dir, checks):
    """Digest of every output the manifest lists; each must match its file."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    digests = {o["path"]: _sha256(os.path.join(out_dir, o["path"])) for o in outputs}
    bad = [o["path"] for o in outputs if digests[o["path"]] != o["sha256"]]
    checks.record("manifest_digests", outputs and not bad, {"mismatched": bad})
    return digests


def check_verify(flags, out_dir, rc, checks):
    with open(os.path.join(out_dir, "chi2_report.json")) as fh:
        report = json.load(fh)
    # The t = 0 and t = t_f slices are exact (the interior ones are not).
    for label, entry in (("t0", report["per_slice"][0]), ("tf", report["per_slice"][-1])):
        k = entry["k"]
        z = (entry["chi2"] - k) / math.sqrt(2.0 * k) if k > 0 else None
        ok = z is not None and abs(z) < CHECK_SIGMAS
        checks.record(f"slice_z_{label}", ok, {"z": z, "k": k, "t": entry["t"]})
    checks.record("exit_matches_verdict", rc == (0 if report["passed"] else 1), {"rc": rc})
    return {
        "chi2_bar": report["chi2_bar"],
        "k": report["k"],
        "band": report["band"],
        "verdict": "PASS" if report["passed"] else "FAIL",
    }


def check_postselect(flags, out_dir, rc, checks):
    with open(os.path.join(out_dir, "postselect.json")) as fh:
        payload = json.load(fh)
    eps = payload["sampled"]["epsilon"]
    se = payload["sampled"]["se_epsilon"]
    oracle = payload["oracle"]["epsilon"]
    ok = None not in (eps, se, oracle) and abs(eps - oracle) < CHECK_SIGMAS * se
    detail = {"epsilon": eps, "se_epsilon": se, "oracle": oracle}
    checks.record("epsilon_vs_oracle", ok, detail)
    return detail


def _moment_z(values, mean_ref, var_ref):
    import numpy as np

    n = len(values)
    mean = float(values.mean())
    dev = values - mean
    var = float(np.mean(dev**2))
    se_var = math.sqrt(max(float(np.mean(dev**4)) - var * var, 0.0) / n)
    return (mean - mean_ref) / math.sqrt(var / n), (var - var_ref) / se_var


def check_simulate(flags, out_dir, rc, checks):
    import numpy as np

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from qtraj import cli, model

    _, spec, cfg = cli.resolve_config({}, flags)
    n, k = cfg.n_samples, cfg.n_steps + 1
    with open(os.path.join(out_dir, "trajectories.csv"), "rb") as fh:
        lines = fh.read().split(b"\n")
    if not checks.record("csv_rows", len(lines) == n * k + 2 and lines[-1] == b"", len(lines)):
        return None
    rows = lines[1:-1]
    zs = {}
    for step in (0, cfg.n_steps):
        t = step * cfg.dt
        data = np.loadtxt(io.BytesIO(b"\n".join(rows[step::k])), delimiter=",")
        layout = np.array_equal(data[:, 0], np.arange(n)) and np.all(data[:, 1] == t)
        checks.record(f"csv_layout_step{step}", layout)
        ref = model.reference_moments(spec, t, cfg)
        for col, name, mean_ref, var_ref in ((2, "x", ref.mean_x, ref.var_x),
                                             (3, "p", ref.mean_p, ref.var_p)):
            z_mean, z_var = _moment_z(data[:, col], mean_ref, var_ref)
            zs[f"{name}_step{step}"] = {"z_mean": z_mean, "z_var": z_var}
            checks.record(f"moments_{name}_step{step}",
                          abs(z_mean) < CHECK_SIGMAS and abs(z_var) < CHECK_SIGMAS,
                          zs[f"{name}_step{step}"])
    return zs


CHECKERS = {"verify": check_verify, "postselect": check_postselect, "simulate": check_simulate}


def run_command(wl, seed, workers, out_dir, deadline, checks, spans_path=None):
    """One CLI run in a fresh interpreter, with all of its output checks.

    Returns (child result or None, output digests or None).
    """
    flags = dict(wl["flags"], seed=seed, workers=workers, out_dir=out_dir)
    argv = cli_argv(wl["command"], flags)
    res, err = run_child({"flags": flags, "argv": argv, "spans_path": spans_path}, deadline)
    rc = None if res is None else res["rc"]
    ok = rc in wl["exit_codes"]
    if not checks.record("exit", ok, {"rc": rc} if ok else {"rc": rc, "argv": argv, "stderr": err}):
        return None, None
    res["argv"] = argv
    try:
        res["digests"] = check_manifest(out_dir, checks)
        res["recorded"] = CHECKERS[wl["command"]](flags, out_dir, rc, checks)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.record("outputs_readable", False, repr(exc))
        return None, None
    shutil.rmtree(out_dir)
    return res, res["digests"]


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    # A checkout that is not itself a repository must not report an enclosing one.
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _version(package):
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _repeat(seconds, deadline, body):
    """Call body until another call would pass `seconds`; at least once."""
    start = time.monotonic()
    while True:
        t = time.monotonic()
        body()
        last = time.monotonic() - t
        now = time.monotonic()
        if now - start + last > seconds or now + last > deadline:
            return


def run_workload(name, seed, seconds, trace, deadline, overrides=None):
    """Measure one workload; returns (metrics dict, Checks, full report)."""
    wl = dict(WORKLOADS[name])
    wl["flags"] = dict(wl["flags"], **(overrides or {}))
    out_root = os.path.join(OUT_ROOT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    checks = Checks()
    runs = []

    def run(workers, tag, spans_path=None):
        out_dir = os.path.join(out_root, f"run{len(runs)}-{tag}")
        res, digests = run_command(wl, seed, workers, out_dir, deadline, checks, spans_path)
        if res is not None:
            res.update(tag=tag, workers=workers)
            runs.append(res)
            if len(runs) > 1:
                checks.record(f"{tag}_digests_match_{runs[0]['tag']}",
                              digests == runs[0]["digests"], {"run": len(runs) - 1})
        return res

    samples = []
    if not trace:
        def iteration():
            res = run(2, "w2")
            if res is not None:
                samples.append({
                    "wall_s": res["wall_s"],
                    "setup_s": res["setup_s"],
                    "traj_per_s": wl["flags"]["n"] / res["wall_s"],
                    "cpu_s": res["cpu_s"],
                    "peak_rss_mb": res["peak_rss_mb"],
                })
    else:
        def iteration():
            w2, w1 = run(2, "w2"), run(1, "w1")
            spans = os.path.join(out_root, f"spans{len(samples)}.json")
            tr = run(1, "traced", spans)
            if None in (w2, w1, tr):
                return
            layers = dict(tr["layers"])
            layers["engine.speedup_w2"] = w1["wall_s"] / w2["wall_s"]
            layers["trace.overhead_frac"] = (tr["wall_s"] - w1["wall_s"]) / w1["wall_s"]
            samples.append(layers)

    _repeat(seconds, deadline, iteration)
    if not samples:
        return None, checks, {"runs": runs, "checks": checks.records}
    summaries = {m: summarize([s[m] for s in samples]) for m in samples[0]}
    metrics = {m: s["median"] for m, s in summaries.items()}
    if trace:
        metrics["check_fail_frac"] = checks.failed / checks.attempted
    report = {
        "workload": name,
        "argv": {r["tag"]: r["argv"] for r in runs},
        "summaries": summaries,
        "samples": samples,
        "runs": runs,
        "checks": checks.records,
    }
    return metrics, checks, report


def load_metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(metrics, checks, specs):
    """The benchmark's last output line: check counts and every named metric."""
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "qtraj", "cli.py")):
        print(f"perfbench: no qtraj sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # Warm-up: compiles bytecode and fills the file cache before timing.
    warm, err = run_child(
        {"flags": dict(wl["flags"], seed=args.seed), "argv": None, "spans_path": None}, deadline
    )
    if warm is None:
        print(f"perfbench: set-up failed:\n{err}", file=sys.stderr)
        return 1
    metrics, checks, report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), deadline
    )
    report["environment"] = environment(args.seed)
    report["trace"] = args.trace
    path = os.path.join(OUT_ROOT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if metrics is None:
        print(f"perfbench: no run of {args.workload} completed; see {path}", file=sys.stderr)
        return 1
    specs = load_metric_specs(args.trace)
    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"perfbench: report -> {os.path.relpath(path, ROOT)}")
    print(json.dumps(result_line(metrics, checks, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
