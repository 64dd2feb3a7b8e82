"""Tests of the benchmark's own arithmetic and gates.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tracespaces.report import CaseRecord, VerificationReport, render_reports  # noqa: E402


# -- tail percentile ------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    value, pct = run.tail_percentile(samples)
    assert value == 90
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_tail_of_eleven_samples_is_the_smallest():
    value, pct = run.tail_percentile([5.0] + [10.0] * 10)
    assert value == 5.0
    assert pct == pytest.approx(100.0 / 11)


def test_tail_without_ten_samples_beyond_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_percentile(list(range(10))) == (9, 100.0)


# -- self time of nested spans ----------------------------------------------


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("b", 11.0, 12.0, None),
    ]
    times = spans.self_times(recorded)
    assert times["a"] == (pytest.approx(3.0), 1)  # 10 - (3 + 4)
    assert times["b"] == (pytest.approx(2.0 + 1.0), 2)  # (3 - 1) + 1
    assert times["c"] == (pytest.approx(1.0), 1)
    assert times["d"] == (pytest.approx(4.0), 1)
    assert sum(t for t, _ in times.values()) == pytest.approx(spans.root_seconds(recorded))
    assert spans.root_seconds(recorded) == pytest.approx(11.0)


def test_tracer_records_nesting_with_its_clock():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", inner)
    outer()
    times = spans.self_times([tuple(s) for s in tracer.spans])
    assert times == {"outer": (pytest.approx(4.0), 1), "inner": (pytest.approx(2.0), 1)}


def test_install_wraps_every_namespace_and_uninstall_restores():
    from tracespaces import embeddings, grid, spaces, suites, trace

    original = spaces.space_norm
    tracer = spans.Tracer().install()
    try:
        for module in (spaces, suites, trace, embeddings):
            assert module.space_norm is not original
            assert module.space_norm.__wrapped__ is original
        assert spaces.batch_interp_norm_resolvent.__wrapped__.__module__ == "tracespaces.operators"
        g = grid.GridSpec(1.0, 64)
        f = grid.random_band_limited(g, (-4.0, 4.0), seed=3)
        mesh = grid.QuadratureMesh.for_band(g, 4.0, min_cells=16)
        spec = spaces.SpaceSpec("F", 0.5, 2.0, 2.0, 0.0)
        from tracespaces.dyadic import build_system

        system = build_system(4)
        first = embeddings.space_norm(f, spec, system, mesh=mesh)
        again = suites.space_norm(f, spec, system, mesh=mesh)
    finally:
        tracer.uninstall()
    assert spaces.space_norm is original and suites.space_norm is original
    assert first == again == original(f, spec, system, mesh=mesh)
    layers = tracer.layer_metrics(wall_s=1.0)
    assert layers["spaces.space_norm.calls"] == 2
    assert layers["spaces.reuse_ratio"] == 2.0
    assert layers["spaces.block_synth_macs"] == mesh.nodes.size * f.active_indices.size * 5


# -- correctness gate ---------------------------------------------------------


def _rendered(suite, cases, seed=7):
    config = {"half_width": 1.0, "n_samples": 1024, "max_block": 8, "seed": seed,
              "family_size": 50}
    return render_reports([VerificationReport(suite=suite, config=config, cases=cases)])


def test_gate_rejects_a_failed_bound_case(tmp_path):
    text = _rendered("hardy", [CaseRecord("ok", 0.5, bound=1.0),
                               CaseRecord("broken", 2.0, bound=1.0)])
    failed, _ = gate.suite_gate(text, ["hardy"], tmp_path, seed=7)
    assert failed == ["hardy"]


def test_gate_passes_bound_cases_and_leaves_other_seeds_unpinned(tmp_path):
    text = _rendered("hardy", [CaseRecord("ok", 0.5, bound=1.0),
                               CaseRecord("drift", 3.0, compare="baseline", passed=False)])
    failed, info = gate.suite_gate(text, ["hardy"], tmp_path, seed=7)
    assert failed == []
    assert info["baseline_unpinned"] == 1


def test_gate_checks_baselines_against_pinned_values(tmp_path):
    run_seed = workloads.PINNED_SEED
    text = _rendered("hardy", [CaseRecord("v", 1.005, compare="baseline")], seed=run_seed)
    cfg_hash = json.loads(text)["config_hash"]
    assert cfg_hash == workloads.PINNED_HASH
    # the pinned seed without pinned values fails
    assert gate.suite_gate(text, ["hardy"], tmp_path, seed=run_seed)[0] == ["hardy"]
    pinned = tmp_path / cfg_hash / "hardy.json"
    pinned.parent.mkdir()
    pinned.write_text(json.dumps({"values": {"v": 1.0}}))
    failed, info = gate.suite_gate(text, ["hardy"], tmp_path, seed=run_seed)
    assert failed == [] and info["baseline_max_drift"] == pytest.approx(0.005)
    pinned.write_text(json.dumps({"values": {"v": 0.9}}))
    assert gate.suite_gate(text, ["hardy"], tmp_path, seed=run_seed)[0] == ["hardy"]


def test_gate_fails_another_configuration_at_the_pinned_seed(tmp_path):
    report = json.loads(_rendered("hardy", [CaseRecord("ok", 0.5, bound=1.0)],
                                  seed=workloads.PINNED_SEED))
    report["config"]["family_size"] = 49
    report["config_hash"] = "0" * 12
    failed, _ = gate.suite_gate(json.dumps(report), ["hardy"], tmp_path,
                                seed=workloads.PINNED_SEED)
    assert failed == ["hardy"]


def test_gate_fails_a_missing_suite(tmp_path):
    text = _rendered("hardy", [CaseRecord("ok", 0.5, bound=1.0)])
    assert gate.suite_gate(text, ["hardy", "dyadic"], tmp_path, seed=7)[0] == ["dyadic"]


def test_oracle_flags_mismatch_and_nan():
    values = [1.0, 2.0, math.nan, 4.0]
    refs = {0: 1.0 + 1e-12, 1: 2.1, 2: 3.0}
    assert gate.oracle_failures(values, refs) == [1, 2]


# -- fresh-functions stream -------------------------------------------------


def test_fresh_stream_is_seeded_with_distinct_active_sets():
    from tracespaces.grid import GridSpec

    g = GridSpec(1.0, 1024)
    a = workloads.fresh_requests(g, 11, count=40)
    b = workloads.fresh_requests(g, 11, count=40)
    assert all(np.array_equal(x[0], y[0]) and x[1].kind == y[1].kind for x, y in zip(a, b))
    active = {tuple(np.flatnonzero(np.any(c != 0, axis=1))) for c, _ in a}
    assert len(active) == len(a)
    assert sum(c.shape[1] == workloads.FRESH_DIM for c, _ in a) == 12


def test_oracle_agrees_with_space_norm():
    from tracespaces.grid import GridFunction
    from tracespaces.spaces import space_norm

    g, system, mesh = workloads.fresh_setting()
    for coeffs, spec in workloads.fresh_requests(g, 5, count=10)[:4]:
        value = space_norm(GridFunction(g, coeffs), spec, system, mesh=mesh)
        ref = workloads.oracle_norm(g, system, mesh, coeffs, spec)
        assert workloads.relative_error(value, ref) <= workloads.ORACLE_RTOL

