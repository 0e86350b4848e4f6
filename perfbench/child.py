"""Run one qtraj CLI command in this fresh interpreter and report its cost.

    python perfbench/child.py '<job json>'

The job holds "flags" (resolved-config keys), "argv" (the CLI argv, or null
to measure set-up alone) and "spans_path" (null for an untraced run).  Set-up
is the package import plus resolve_config; the command is one cli.main call.
The last line of standard output is one JSON object with the exit code and
the timings; a traced run adds the per-layer metrics and writes its spans to
spans_path.  src must be on PYTHONPATH.
"""

import json
import resource
import sys
import time


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    # Pool workers are reaped when the executor shuts down, so they land here.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main():
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    from qtraj import cli

    cli.resolve_config({}, job["flags"])
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - t0}
    argv = job["argv"]
    if argv is not None:
        tracer = None
        if job["spans_path"]:
            import traced

            tracer = traced.Tracer(job["spans_path"])
            tracer.add("cli.setup", t0, t_setup)
            traced.install(tracer)
        cpu0 = _cpu_s()
        start = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                rc = cli.main(argv)
        end = time.perf_counter()
        result.update(
            rc=rc,
            wall_s=end - start,
            cpu_s=_cpu_s() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            out_dir = job["flags"]["out_dir"]
            result["layers"] = traced.layer_metrics(tracer, out_dir, end - t0)
            tracer.dump(job["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
