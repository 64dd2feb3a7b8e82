import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracespaces import (
    ExtensionOperator,
    InterpNormInner,
    MultiplierOperator,
    QuadratureMesh,
    SpaceSpec,
    TraceProblem,
    frac_power_reparam_ratio,
    hardy_young_check,
    random_band_limited,
    resolvent_orbit,
    right_inverse_check,
    select_extension_branch,
    semigroup_orbit,
    trace_at_zero,
    space_norm,
    trace_continuity_ratio,
    windowed_orbit,
)
from tracespaces.trace import ORBIT_BAND


@pytest.fixture(scope="module")
def diag():
    return MultiplierOperator.diagonal((0.5, 1.0, 2.0, 4.0, 8.0, 16.0))


def test_trace_problem_validates_exponent_window():
    op = MultiplierOperator.scalar(1.0)
    TraceProblem(op, 0.0, 2.0, 2.0, 0.0, 1.0)  # theta = 1/2, fine
    with pytest.raises(ValueError):
        TraceProblem(op, 0.5, 2.0, 2.0, 0.0, 0.3)  # theta above alpha
    with pytest.raises(ValueError):
        TraceProblem(op, -1.0, 2.0, 2.0, 0.0, 1.0)  # theta below zero


def test_theta_value():
    op = MultiplierOperator.scalar(1.0)
    problem = TraceProblem(op, -0.2, 2.0, 2.0, 0.5, 1.0)
    assert problem.theta == pytest.approx(-0.2 + 1.0 - 1.5 / 2.0)


def test_target_second_index_by_scale():
    op = MultiplierOperator.scalar(1.0)
    problem = TraceProblem(op, 0.0, 3.0, 7.0, 0.0, 1.0)
    assert problem.target_second_index("F") == 3.0
    assert problem.target_second_index("B") == 7.0


def test_hardy_closed_form_single_cell():
    got = hardy_young_check([1.0], [1.0], beta=0.5, p=2.0)
    assert got["lhs"] == pytest.approx(2.0, abs=1e-12)
    assert got["bound"] == pytest.approx(4.0, abs=1e-12)
    assert got["passed"]


@pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
def test_hardy_needs_finite_p_at_least_one(p):
    with pytest.raises(ValueError, match="1 <= p < inf"):
        hardy_young_check([1.0], [1.0], 0.5, p)


@pytest.mark.parametrize("breakpoints, values", [([1.0], [math.inf]), ([1.0], [math.nan]),
                                                  ([math.inf], [1.0]), ([math.nan], [1.0]),
                                                  ([1.0, math.nan], [1.0, 2.0])])
def test_hardy_rejects_non_finite_input(breakpoints, values):
    """An infinite value once passed with lhs = bound = inf, and a NaN gave
    NaN sides without an error."""
    with pytest.raises(ValueError, match="finite"):
        hardy_young_check(breakpoints, values, 0.5, 2.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_hardy_inequality_on_step_functions(data):
    n = data.draw(st.integers(1, 5))
    widths = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    values = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    beta = data.draw(st.floats(0.05, 0.95))
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    got = hardy_young_check(np.cumsum(widths), values, beta, p)
    assert got["passed"]


def test_branch_selection_nonnegative_smoothness():
    op = MultiplierOperator.scalar(1.0)
    branch = select_extension_branch(TraceProblem(op, 0.0, 2.0, 2.0, 0.0, 1.0))
    assert branch["twist"] == 0
    assert branch["j"] >= 1
    assert branch["order"] >= branch["twist"]


def test_branch_selection_below_critical_line():
    op = MultiplierOperator.scalar(1.0)
    # s <= (1+gamma)/p - 1 forces a twisted branch (derivatives borrowed)
    branch = select_extension_branch(TraceProblem(op, -0.6, 2.0, 2.0, 0.0, 2.0))
    assert branch["twist"] >= 1
    assert branch["j"] > branch["twist"]


@pytest.mark.parametrize("j", [1, 2, 3])
def test_resolvent_orbit_trace_identity(grid, diag, j):
    rng = np.random.default_rng(17)
    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    u = resolvent_orbit(grid, diag, x, j, ExtensionOperator(3, 0))
    np.testing.assert_array_equal(trace_at_zero(u), x)


def test_semigroup_orbit_trace_identity(grid, diag):
    rng = np.random.default_rng(18)
    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    u = semigroup_orbit(grid, diag, x, ExtensionOperator(2, 0))
    np.testing.assert_array_equal(trace_at_zero(u), x)


def test_windowed_orbit_records_exact_trace(grid):
    ext = ExtensionOperator(2, 0)
    tv = np.array([1.5 - 0.5j])

    def orbit(t):
        return tv[None, :] * np.exp(-np.asarray(t, dtype=float))[:, None]

    u = windowed_orbit(grid, ext, orbit, tv)
    np.testing.assert_array_equal(trace_at_zero(u), tv)


def test_trace_continuity_numerator_independent_of_r(grid, diag):
    problem = TraceProblem(diag, 0.0, 2.0, 2.0, 0.0, 1.0)
    u = random_band_limited(grid, (-16.0, 16.0), seed=12, dim=diag.dim)
    nums = {r: trace_continuity_ratio(problem, u, kind="F", r=r)["numerator"]
            for r in (1.0, 2.0, math.inf)}
    vals = list(nums.values())
    assert vals[0] == vals[1] == vals[2]


def test_right_inverse_ratio_inverts_the_orbit_continuity_ratio(grid, diag):
    problem = TraceProblem(diag, -0.2, 2.0, 2.0, 0.5, 1.0)
    rng = np.random.default_rng(23)
    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    got = right_inverse_check(problem, x, grid)
    cont = trace_continuity_ratio(problem, got["orbit"], "F", 1.0)
    assert got["ratio"] == cont["denominator"] / cont["numerator"]
    # an orbit is normed on the orbit mesh
    mesh = QuadratureMesh.for_band(grid, ORBIT_BAND)
    hi = SpaceSpec("F", 1.0 - 0.2, 2.0, 2.0, 0.5)
    lo = SpaceSpec("F", -0.2, 2.0, 2.0, 0.5, inner=InterpNormInner(diag, 1.0, 1.0))
    assert cont["denominator"] == (space_norm(got["orbit"], hi, mesh=mesh)
                                   + space_norm(got["orbit"], lo, mesh=mesh))


def test_frac_power_reparametrization_bounded(diag):
    rng = np.random.default_rng(19)
    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    got = frac_power_reparam_ratio(diag, theta=0.5, p=2.0, rho=2.0, x=x)
    assert 0.05 < got["ratio"] < 20.0
