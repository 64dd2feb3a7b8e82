"""The package runs on numpy alone: scipy is a test dependency only.

Each check runs in a fresh interpreter, since this test session has
scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tracespaces

_SRC = str(Path(tracespaces.__file__).resolve().parent.parent)


def _run(code: str) -> str:
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    loaded = _run("import json, sys, tracespaces, tracespaces.cli\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert json.loads(loaded) == []


def test_suites_pass_with_scipy_blocked():
    """semigroup runs the incomplete-gamma plateau and the operators' Gamma
    and Beta closed forms; its orbits and trace-f's fill the band, so their
    synthesis takes the NUFFT.  With every scipy import an ImportError,
    every bound case still passes at N = 1024 and 4096."""
    code = """
import json, sys
sys.modules["scipy"] = None
import tracespaces, tracespaces.cli
from tracespaces.suites import SuiteConfig, run_suite
failed, cases = [], 0
for n in (1024, 4096):
    for name in ("semigroup", "trace-f"):
        report = run_suite(name, SuiteConfig(n_samples=n, family_size=2))
        bound = [c for c in report.cases if c.compare == "bound"]
        cases += len(bound)
        failed += [f"{n}/{name}/{c.case_id}" for c in bound if not c.passed]
print(json.dumps({"failed": failed, "cases": cases}))
"""
    got = json.loads(_run(code))
    assert got["failed"] == [] and got["cases"] > 0
