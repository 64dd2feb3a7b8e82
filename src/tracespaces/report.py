"""Verification reports and regression baselines.

A report is a named suite of cases, each carrying one float value.
Cases compare in one of three ways:

    bound     intrinsic: passed was decided when the case was computed
              (value against a mathematical bound)
    baseline  regression: value must not exceed the pinned value times
              (1 + tolerance); pinning records the current value
    info      recorded but never affects the verdict

Serialization is deterministic: cases are sorted by id, JSON keys are
sorted, floats round-trip through repr, and nothing time- or
path-dependent is written.  Two runs at the same configuration must
produce byte-identical output.

Baselines live under <root>/<config-hash>/<suite>.json, where the hash
commits to every configuration value that feeds the computations.
Checking never writes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CaseRecord",
    "VerificationReport",
    "config_hash",
    "BaselineStore",
    "render_reports",
]

_COMPARE_MODES = ("bound", "baseline", "info")


@dataclass
class CaseRecord:
    case_id: str
    value: float
    bound: float | None = None
    passed: bool | None = None
    compare: str = "bound"

    def __post_init__(self):
        self.value = float(self.value)
        if self.bound is not None:
            self.bound = float(self.bound)
        if self.compare not in _COMPARE_MODES:
            raise ValueError(f"compare must be one of {_COMPARE_MODES}")
        if self.compare == "bound" and self.passed is None:
            if self.bound is None:
                raise ValueError(f"case {self.case_id}: bound comparison needs a bound")
            self.passed = bool(self.value <= self.bound)
        if not math.isfinite(self.value):
            if self.compare != "info":
                self.passed = False

    def as_dict(self) -> dict:
        return {"case_id": self.case_id, "value": self.value, "bound": self.bound,
                "passed": self.passed, "compare": self.compare}


@dataclass
class VerificationReport:
    suite: str
    config: dict
    cases: list[CaseRecord] = field(default_factory=list)

    def __post_init__(self):
        self.cases = sorted(self.cases, key=lambda c: c.case_id)
        ids = [c.case_id for c in self.cases]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate case ids: {dup}")

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def verdict(self) -> bool:
        """True when no decided case failed.  Baseline cases count only
        after a check has filled their passed flag."""
        return all(c.passed is not False for c in self.cases)

    def as_dict(self) -> dict:
        return {"suite": self.suite, "config": self.config,
                "config_hash": self.config_hash,
                "cases": [c.as_dict() for c in self.cases]}


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def render_reports(reports: list[VerificationReport], fmt: str = "json") -> str:
    if fmt == "json":
        payload = [r.as_dict() for r in reports]
        return json.dumps(payload[0] if len(payload) == 1 else payload,
                          sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        out.write("suite,case_id,value,bound,pass\n")
        for r in reports:
            for c in r.cases:
                bound = "" if c.bound is None else repr(c.bound)
                passed = "" if c.passed is None else str(c.passed).lower()
                out.write(f"{r.suite},{c.case_id},{c.value!r},{bound},{passed}\n")
        return out.getvalue()
    raise ValueError(f"unknown format {fmt!r} (expected 'json' or 'csv')")


class BaselineStore:
    """Pinned regression values under root/<config-hash>/<suite>.json."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, suite: str, cfg_hash: str) -> Path:
        return self.root / cfg_hash / f"{suite}.json"

    def pin(self, report: VerificationReport) -> Path:
        """Record the baseline-compared values of this report (bound/info
        cases are not pinned)."""
        path = self.path(report.suite, report.config_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "suite": report.suite,
            "config": report.config,
            "config_hash": report.config_hash,
            "values": {c.case_id: c.value for c in report.cases
                       if c.compare == "baseline"},
        }
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path

    def load(self, suite: str, cfg_hash: str) -> dict | None:
        path = self.path(suite, cfg_hash)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def check(self, report: VerificationReport, tolerance: float = 0.01) -> dict:
        """Fill the passed flags of baseline cases against the pinned
        values; returns a summary with per-case details.  A missing
        baseline file or missing case fails the affected cases."""
        pinned = self.load(report.suite, report.config_hash)
        details = []
        for c in report.cases:
            if c.compare != "baseline":
                continue
            if pinned is None or c.case_id not in pinned["values"]:
                c.passed = False
                details.append({"case_id": c.case_id, "value": c.value,
                                "pinned": None, "passed": False})
                continue
            ref = float(pinned["values"][c.case_id])
            c.passed = bool(c.value <= ref * (1.0 + tolerance))
            details.append({"case_id": c.case_id, "value": c.value,
                            "pinned": ref, "passed": c.passed})
        return {
            "suite": report.suite,
            "baseline_found": pinned is not None,
            "details": details,
            "passed": report.verdict(),
        }
