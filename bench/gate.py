"""Correctness gates of the benchmark.

Suite workloads: every ``bound`` case of the rendered report must pass.
Where pinned values exist for the report's configuration hash, every
``baseline`` case must also stay within ``pinned * (1 + tolerance)``; at
the pinned seed the configuration must hash to the pinned directory and
its values must exist.  At other seeds the baseline cases are
counted as unpinned, not failed.

``fresh-functions``: every request must return the same value in every
pass, and a seeded subsample must agree with an independent recomputation
(see ``workloads.oracle_norm``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import BASELINE_TOLERANCE, ORACLE_RTOL, PINNED_HASH, PINNED_SEED, relative_error


def suite_gate(rendered: str, suites, baseline_root: Path, seed: int,
               tolerance: float = BASELINE_TOLERANCE):
    """Suites of a rendered report that fail the gate, and baseline info.

    Returns ``(failed, info)``: the failed suite names, and a dict with the
    number of baseline cases checked against pinned values, the number
    left unpinned, and the largest drift ``|value / pinned - 1|``.
    """
    payload = json.loads(rendered)
    reports = {r["suite"]: r for r in (payload if isinstance(payload, list) else [payload])}
    failed = []
    info = {"baseline_checked": 0, "baseline_unpinned": 0, "baseline_max_drift": 0.0}
    for suite in suites:
        report = reports.get(suite)
        if report is None:
            failed.append(suite)
            continue
        cases = report["cases"]
        ok = all(c["passed"] is True for c in cases if c["compare"] == "bound")
        baseline = [c for c in cases if c["compare"] == "baseline"]
        if seed == PINNED_SEED and report["config_hash"] != PINNED_HASH:
            ok = False  # the pinned seed must still be the pinned configuration
        pinned_file = Path(baseline_root) / report["config_hash"] / f"{suite}.json"
        if pinned_file.exists():
            pinned = json.loads(pinned_file.read_text())["values"]
            for case in baseline:
                ref = pinned.get(case["case_id"])
                value = case["value"]
                if ref is None or not math.isfinite(value) or value > ref * (1.0 + tolerance):
                    ok = False
                    continue
                info["baseline_checked"] += 1
                info["baseline_max_drift"] = max(info["baseline_max_drift"],
                                                 relative_error(value, ref))
        elif seed == PINNED_SEED and baseline:
            ok = False  # the pinned configuration must find its pinned values
        else:
            info["baseline_unpinned"] += len(baseline)
        if not ok:
            failed.append(suite)
    return failed, info


def oracle_failures(values, references, rtol: float = ORACLE_RTOL):
    """Indices whose value disagrees with its reference beyond ``rtol``.

    ``references`` maps a request index to its recomputed value.
    """
    bad = []
    for index, ref in references.items():
        value = values[index]
        if not (math.isfinite(value) and relative_error(value, ref) <= rtol):
            bad.append(index)
    return bad
