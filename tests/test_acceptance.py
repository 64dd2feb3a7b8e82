"""Acceptance battery: one test per release criterion.

The full verification suite runs once per session; regression cases are
checked against the pinned baselines under baselines/.  Every test
prints a single ``CRITERION n PASS/FAIL: ...`` line (visible because
output capture is disabled in the pytest configuration) and asserts the
same condition, so the battery reads as a checklist in the test log.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tracespaces.report import BaselineStore, render_reports
from tracespaces.suites import SUITE_ORDER, SuiteConfig, diffnorm_windows, run_all

_BASELINE_ROOT = Path(__file__).resolve().parent.parent / "baselines"
_BASELINE_TOLERANCE = 0.01


@pytest.fixture(scope="module")
def reports():
    config = SuiteConfig()
    store = BaselineStore(_BASELINE_ROOT)
    collected = {}
    for report in run_all(config):
        store.check(report, tolerance=_BASELINE_TOLERANCE)
        collected[report.suite] = report
    return collected


def _cases(reports, suite):
    return {c.case_id: c for c in reports[suite].cases}


def _conclude(number, ok, detail):
    print(f"CRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_partition_and_reconstruction(reports):
    cases = _cases(reports, "dyadic")
    dev = cases["partition_max_deviation"]
    rec = cases["reconstruction_max_error"]
    dis = cases["disjoint_blocks_max_product"]
    ok = all(c.passed for c in (dev, rec, dis))
    _conclude(1, ok, f"partition deviation {dev.value:g} <= 1e-12, block "
                     f"reconstruction error {rec.value:g}, non-adjacent "
                     f"block overlap {dis.value:g}")


def test_criterion_02_besov_tl_agree_on_diagonal(reports):
    cases = _cases(reports, "norms")
    picked = [c for cid, c in sorted(cases.items()) if cid.startswith("bf_diagonal_")]
    ok = len(picked) == 3 and all(c.passed for c in picked)
    worst = max(c.value for c in picked)
    _conclude(2, ok, f"max relative B/F gap over three (s, p, gamma) sets "
                     f"= {worst:.3g} <= 1e-08 across the 50-function family")


def test_criterion_03_fineness_monotonicity(reports):
    cases = _cases(reports, "norms")
    picked = [c for cid, c in sorted(cases.items()) if cid.startswith("qmono_")]
    ok = len(picked) == 6 and all(c.passed for c in picked)
    worst = max(c.value for c in picked)
    _conclude(3, ok, f"max fine/coarse norm ratio = {worst:.6f} <= 1 + 1e-12 "
                     f"for both scale kinds and (1,2), (2,inf), (1,inf)")


def test_criterion_04_difference_norm_window(reports):
    cases = _cases(reports, "norms")
    picked = [c for cid, c in sorted(cases.items()) if cid.startswith("diffnorm_")]
    pinned_ok = len(picked) == 6 and all(c.passed for c in picked)

    coarse = SuiteConfig(family_size=8)
    fine = SuiteConfig(n_samples=2 * coarse.n_samples, family_size=8)
    drift = 0.0
    for (lo_a, hi_a), (lo_b, hi_b) in zip(diffnorm_windows(coarse), diffnorm_windows(fine)):
        drift = max(drift, abs(lo_b / lo_a - 1.0), abs(hi_b / hi_a - 1.0))
    ok = pinned_ok and drift <= 0.01
    _conclude(4, ok, f"equivalence windows within 1% of pinned endpoints; "
                     f"endpoints drift {drift:.2e} <= 1e-02 when the grid "
                     f"resolution doubles")


def test_criterion_05_hardy_inequality(reports):
    cases = _cases(reports, "hardy")
    names = ("family_max_ratio", "family_failures",
             "closed_form_lhs_two", "closed_form_bound_four")
    ok = all(cases[n].passed for n in names)
    failed = int(cases["family_failures"].value)
    _conclude(5, ok, f"{1000 - failed}/1000 randomized step-weight cases hold "
                     f"(worst ratio {cases['family_max_ratio'].value:.12f}); "
                     f"closed-form pair (2, 4) reproduced to 1e-09")


def test_criterion_06_reflection_coefficients(reports):
    cases = _cases(reports, "extension")
    ok = (cases["coefficients_low_order_exact"].passed
          and cases["moment_identity_deviation"].passed)
    _conclude(6, ok, "low-order reflection coefficients equal (1), (3, -2), "
                     "(6, -8, 3) exactly and the moment identities hold "
                     "through order 8")


def test_criterion_07_derivative_intertwining(reports):
    case = _cases(reports, "extension")["intertwine_max_rel_defect"]
    _conclude(7, bool(case.passed),
              f"max relative defect between differentiated extensions and "
              f"extensions of derivatives = {case.value:.3g} <= 1e-06")


def test_criterion_08_trace_right_inverse(reports):
    cases = _cases(reports, "trace-f")
    names = ("right_inverse_trace_deviation", "right_inverse_exact_set0",
             "right_inverse_exact_set1", "right_inverse_exact_set2")
    ok = all(cases[n].passed for n in names)
    _conclude(8, ok, "boundary trace of the extension returns the data "
                     "exactly for scalar and diagonal operators at every "
                     "admissible order")


def test_criterion_09_trace_continuity_scale_family(reports):
    cases = _cases(reports, "trace-f")
    ratio_ok = all(cases[f"continuity_ratio_set{i}"].passed for i in range(3))
    spread = cases["target_norm_r_spread"]
    ok = ratio_ok and bool(spread.passed)
    _conclude(9, ok, f"trace-to-source norm ratios within 1% of pinned "
                     f"values over all (q, r) pairs; target norm spread "
                     f"across r = {spread.value:g}")


def test_criterion_10_trace_continuity_interpolation_target(reports):
    cases = _cases(reports, "trace-b")
    ids = [cid for cid in cases if cid.startswith("continuity_ratio_")]
    ok = (len(ids) == 9 and all(cases[c].passed for c in ids)
          and bool(cases["target_norm_r_spread"].passed))
    _conclude(10, ok, "trace norms against the interpolation-space target "
                      "stay within 1% of pinned ratios for q in {1, 2, inf}")


def test_criterion_11_interp_norm_closed_forms(reports):
    cases = _cases(reports, "semigroup")
    names = ("resolvent_norm_unit", "semigroup_norm_root_half",
             "resolvent_scaling_law")
    ok = all(cases[n].passed for n in names)
    _conclude(11, ok, f"scalar interpolation norms: resolvent form = 1 "
                      f"(defect {cases['resolvent_norm_unit'].value:.2g}), "
                      f"semigroup form = sqrt(1/2), and the a**alpha scaling "
                      f"law holds to 1e-06 for a in {{1/4, 1, 4, 16}}")


def test_criterion_12_mixed_derivative_estimate(reports):
    cases = _cases(reports, "mixed")
    names = ("single_mode_equality", "scalar_family_F_unit_constant",
             "scalar_family_B_unit_constant", "diagonal_family_computed_constant")
    ok = all(cases[n].passed for n in names)
    _conclude(12, ok, f"single-mode interpolation identity exact to 1e-12; "
                      f"scalar families bounded with constant 1; diagonal "
                      f"family within the computed constant "
                      f"{cases['diagonal_holder_constant'].value:.6f}")


def test_criterion_13_embedding_counterexample(reports):
    cases = _cases(reports, "counterexample")
    names = ("divergence_u1_q2", "divergence_u1_qinf", "divergence_u2_q4",
             "n16_ratio_four")
    ok = all(cases[n].passed for n in names)
    _conclude(13, ok, "norm ratio of the spike family equals "
                      "N**(1/u - 1/q) to 1e-12 for N in 2..256 and all "
                      "exponent pairs; N = 16 gives exactly 4")


def test_criterion_14_sobolev_embedding(reports):
    cases = _cases(reports, "sobolev")
    ok = (all(cases[f"embed_ratio_pair{i}"].passed for i in range(3))
          and bool(cases["rejects_off_line_pair"].passed))
    _conclude(14, ok, "weighted embedding ratios within 1% of pinned values, "
                      "including the equal-exponent pair with q0 = inf into "
                      "q1 = 1; off-line parameters rejected")


def test_criterion_15_boundary_space_classifier(reports):
    cases = _cases(reports, "stefan")
    names = ("classification_p2_q2", "classification_p8_q2",
             "classification_p4over3_q3over2", "degenerate_line_rejected")
    ok = all(cases[n].passed for n in names)
    _conclude(15, ok, "free-boundary regularity classes and compatibility "
                      "sets match the frozen expectations; the degenerate "
                      "exponent line is rejected")


def test_criterion_16_semigroup_orbit_norms(reports):
    cases = _cases(reports, "semigroup")
    ok = (all(cases[f"orbit_ratio_set{i}"].passed for i in range(3))
          and bool(cases["orbit_plateau_norm_flat"].passed)
          and bool(cases["orbit_plateau_norm_weighted"].passed))
    worst = max(cases["orbit_plateau_norm_flat"].value,
                cases["orbit_plateau_norm_weighted"].value)
    _conclude(16, ok, f"orbit trace-norm ratios within 1% of pinned values; "
                      f"scalar orbit norms match incomplete-gamma closed "
                      f"forms with relative error {worst:.2g} <= 1e-04")


def test_criterion_17_deterministic_reports(reports):
    store = BaselineStore(_BASELINE_ROOT)
    rerun = run_all(SuiteConfig())
    for report in rerun:
        store.check(report, tolerance=_BASELINE_TOLERANCE)
    first = render_reports([reports[name] for name in SUITE_ORDER])
    second = render_reports(rerun)
    ok = first == second
    _conclude(17, ok, "re-running every suite produces byte-identical JSON "
                      "reports")
