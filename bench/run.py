"""tracespaces benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(``bench/worker.py``) and makes closed-loop calls: one caller, and the next
call starts only after the previous one returns.  Workloads:

    scalar-families  ``tracespaces-verify`` (``cli.main``) on the suites that
                     norm scalar band-limited families: high evaluation reuse,
                     the difference seminorm busy, no operator norms
    operator-orbits  ``cli.main`` on the suites that norm vector-valued
                     orbits filling the band in interpolation spaces: batched
                     interpolation norms and large-matrix synthesis
    fresh-functions  a seeded stream of single B/F norm requests on distinct
                     random sub-bands over one shared mesh: reuse exactly 1

An operation is one suite run in the suite workloads and one norm request
(building the function and norming it) in ``fresh-functions``;
``attempted``, ``failed``, ``op_ms_p50`` and ``op_ms_tail`` count and time
operations.  Each pass gives a median latency and a tail, the highest
percentile with at least ten operations beyond it (the slowest operation
when a pass has ten or fewer, as a suite pass does); the run reports the
median of each over its passes.

``--seconds`` sets the work of a run: the number of passes is ``seconds``
over the workload's nominal pass time, rounded up and at least two, so
both sides of a comparison run the same passes.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics (medians over passes);
with ``--trace 1`` one untraced pass is followed by traced passes and it
carries the per-layer metrics (medians over traced passes).  The line
before it is run metadata, for information only.  Without
``src/tracespaces`` in the checkout the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import gate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "tracespaces"

# Seconds one pass takes, interpreter start included, on a 2-core x86-64
# box with numpy 2.4 and OpenBLAS at 2 threads.  Fixed here so that a
# faster program runs the same passes, not more of them.
NOMINAL_PASS_S = {"scalar-families": 8.0, "operator-orbits": 9.5, "fresh-functions": 7.0}

RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


def tail_percentile(samples):
    """The highest percentile that has at least TAIL_BEYOND samples above it.

    Returns ``(value, percentile)``.  With TAIL_BEYOND samples or fewer no
    such percentile exists, and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def median_metrics(rows):
    """Per-key median over a list of metric dicts (missing keys read 0)."""
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0.0) for row in rows) for k in keys}


def run_pass(workload, seed, trace, report, timeout):
    """Run one pass; return its result dict, or None when it failed."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--t0", repr(t0), "--report", str(report)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["elapsed"] = time.monotonic() - t0
    return result


def blas_info():
    """Name and thread count of numpy's BLAS, where the library tells."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def run_metadata(seed):
    blas, threads = blas_info()
    lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas, "blas_threads": threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "seed": seed, "src_lines": lines}


def declared_metrics():
    """Metric names and units of BENCHMARK.json, by ``--trace`` value."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def ops_per_pass(workload):
    if workload == "fresh-functions":
        return workloads.FRESH_REQUESTS
    return len(workloads.SUITES[workload])


def fresh_oracle(seed):
    """Recomputed values of the oracle's subsample of requests."""
    grid, system, mesh = workloads.fresh_setting()
    requests = workloads.fresh_requests(grid, seed)
    return {i: workloads.oracle_norm(grid, system, mesh, *requests[i])
            for i in workloads.oracle_indices(seed)}


def check_passes(workload, seed, passes, reports):
    """Failed operations over all completed passes, and gate info.

    A request fails when it raised, when its value differs from the first
    pass, or when the oracle rejects it; a suite fails its report gate, or
    every suite of a pass fails when the pass rendered another report
    than the first (criterion 17: one configuration, one byte stream).
    """
    failed, info = 0, {}
    if workload == "fresh-functions":
        first = passes[0]["values"]
        references = fresh_oracle(seed)
        wrong = set(gate.oracle_failures(first, references))
        for result in passes:
            # NaN, the value of a request that raised, never equals itself
            failed += sum(1 for i, v in enumerate(result["values"])
                          if i in wrong or not v == first[i])
        info["oracle_checked"] = len(references)
        info["oracle_max_rel_error"] = max(
            workloads.relative_error(first[i], ref) for i, ref in references.items())
        return failed, info

    suites = workloads.SUITES[workload]
    texts = [r.read_text() if r.exists() else None for r in reports]
    for text in texts:
        if text is None:
            failed += len(suites)
        elif text != texts[0]:
            failed += len(suites)
        else:
            bad, info = gate.suite_gate(text, suites, ROOT / "baselines", seed)
            failed += len(bad)
    info["reports_identical"] = all(t == texts[0] for t in texts)
    return failed, info


def main(argv=None):
    parser = argparse.ArgumentParser(description="tracespaces benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no tracespaces source under {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = declared_metrics()[args.trace]
    start = time.monotonic()
    n_passes = max(2, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
    plan = [0] + [args.trace] * (n_passes - 1)

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    passes, reports, lost = [], [], 0
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for index, trace in enumerate(plan):
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            if passes and remaining < 2.0 * max(p["elapsed"] for p in passes):
                print(f"stopping after {len(passes)} passes to stay within the run limit",
                      file=sys.stderr)
                break
            report = Path(tmp) / f"report{index}.json"
            result = run_pass(args.workload, args.seed, trace, report, timeout=max(remaining, 1.0))
            if result is None:
                lost += 1
                continue
            result["trace"] = trace
            passes.append(result)
            reports.append(report)
        failed, gate_info = (check_passes(args.workload, args.seed, passes, reports)
                             if passes else (0, {}))
    if not any(work.iterdir()):
        work.rmdir()

    per_pass = ops_per_pass(args.workload)
    attempted = sum(p["attempted"] for p in passes) + lost * per_pass
    failed += lost * per_pass
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    info = {"workload": args.workload, "passes": len(passes), **run_metadata(args.seed),
            "fail_ratio": failed / attempted, **gate_info}
    # latency percentiles per pass, then the median over passes, so that
    # one pass disturbed by the host does not set the run's figure
    p50s, tails = [], []
    for p in untraced:
        ops_ms = [1000.0 * s for s in p["ops_s"]]
        tail, pct = tail_percentile(ops_ms)
        p50s.append(statistics.median(ops_ms))
        tails.append(tail)
        info.update(op_tail_percentile=pct, op_samples_per_pass=len(ops_ms))
    values = {}
    if args.trace and traced and untraced:
        values = median_metrics([p["layers"] for p in traced])
        values["tracing.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                                      / untraced[0]["wall_s"] - 1.0)
        info["tracing_unattributed_share"] = values["tracing.unattributed_share"]
    elif not args.trace and untraced:
        values = {key: statistics.median(p[key] for p in untraced)
                  for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
        values.update(op_ms_p50=statistics.median(p50s), op_ms_tail=statistics.median(tails))
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()} if values else {}

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(values) and not lost and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
