"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --trace 0|1 --t0 T --report PATH

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter, so the reported set-up time runs from interpreter start to
the first timed call.  The pass prints one JSON object on its last stdout
line: set-up, wall and CPU seconds, peak RSS, the latency of each
operation (a suite run, or a norm request of ``fresh-functions``), the
norm values of ``fresh-functions``, and with ``--trace 1`` the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (bench/ is the script directory)
import workloads  # noqa: E402


def _time_suite_runs(latencies):
    """Record the latency of every ``run_suite`` call, whichever module
    namespace it is made through."""
    from tracespaces import suites

    fn = suites.run_suite

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    spans.replace_everywhere({fn: timed})


def _start_tracing(trace):
    """Install the span wrappers once the inputs exist, so that set-up
    leaves no spans."""
    return spans.Tracer().install() if trace else None


def suite_pass(workload, seed, report, trace, t0):
    from tracespaces import cli

    suites = workloads.SUITES[workload]
    argv = [arg for name in suites for arg in ("--suite", name)]
    argv += ["--seed", str(seed), "--out", report]
    latencies = []
    tracer = _start_tracing(trace)
    _time_suite_runs(latencies)
    setup_s = time.monotonic() - t0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        cli.main(argv)
    except Exception as exc:  # no report is written, so the gate fails every suite
        print(f"pass raised {exc!r}", file=sys.stderr)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return tracer, setup_s, wall, cpu, {"ops_s": latencies, "attempted": len(suites)}


def fresh_pass(seed, trace, t0):
    from tracespaces import grid as grid_mod
    from tracespaces import spaces

    grid, system, mesh = workloads.fresh_setting()
    requests = workloads.fresh_requests(grid, seed)
    latencies, values = [], []
    tracer = _start_tracing(trace)
    setup_s = time.monotonic() - t0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for coeffs, spec in requests:
        start = time.perf_counter()
        try:
            f = grid_mod.GridFunction(grid, coeffs)
            values.append(spaces.space_norm(f, spec, system, mesh=mesh))
        except Exception as exc:  # the gate counts the NaN as a failed request
            print(f"request raised {exc!r}", file=sys.stderr)
            values.append(math.nan)
        latencies.append(time.perf_counter() - start)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return tracer, setup_s, wall, cpu, {"ops_s": latencies, "attempted": len(requests),
                                        "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)

    import tracespaces  # noqa: F401  (the imports are part of set-up)

    if args.workload == "fresh-functions":
        tracer, setup_s, wall, cpu, ops = fresh_pass(args.seed, args.trace, args.t0)
    else:
        tracer, setup_s, wall, cpu, ops = suite_pass(args.workload, args.seed, args.report,
                                                     args.trace, args.t0)
    result = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              **ops}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
