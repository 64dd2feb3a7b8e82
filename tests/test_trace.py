import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracespaces import (
    ExtensionOperator,
    GridFunction,
    GridSpec,
    InterpNormInner,
    MultiplierOperator,
    QuadratureMesh,
    SpaceSpec,
    SuiteConfig,
    TraceProblem,
    frac_power_reparam_ratio,
    hardy_young_check,
    random_band_limited,
    resolvent_orbit,
    right_inverse_check,
    select_extension_branch,
    semigroup_orbit,
    semigroup_orbit_ratio,
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
    got = hardy_young_check([[1.0]], [[1.0]], beta=0.5, p=2.0)
    assert got["lhs"][0] == pytest.approx(2.0, abs=1e-12)
    assert got["bound"][0] == pytest.approx(4.0, abs=1e-12)
    assert got["passed"].tolist() == [True]


@pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
def test_hardy_needs_finite_p_at_least_one(p):
    with pytest.raises(ValueError, match="1 <= p < inf"):
        hardy_young_check([[1.0]], [[1.0]], 0.5, p)


_GOOD_ROWS = ([0.5, 1.0], [2.0, 1.0])


@pytest.mark.parametrize("breakpoints, values", [([1.0], [math.inf]), ([1.0], [math.nan]),
                                                  ([math.inf], [1.0]), ([math.nan], [1.0]),
                                                  ([1.0, math.nan], [1.0, 2.0])])
def test_hardy_rejects_non_finite_input(breakpoints, values):
    """An infinite value once passed with lhs = bound = inf, and a NaN gave
    NaN sides without an error; a bad row is found between good rows too."""
    good_b, good_v = _GOOD_ROWS
    for b, v in (([breakpoints], [values]),
                 ([good_b, breakpoints, good_b], [good_v, values, good_v])):
        with pytest.raises(ValueError, match="finite"):
            hardy_young_check(b, v, 0.5, 2.0)


@pytest.mark.parametrize("breakpoints, values, message", [
    ([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], "positive and strictly increasing"),
    ([0.5, 1.0, 2.0], [1.0, -1.0, 1.0], "nonnegative"),
    ([], [], "at least one step"),
    ([0.5, 1.0], [1.0], "one breakpoint per value"),
])
def test_hardy_rejects_a_bad_row_in_a_stack(breakpoints, values, message):
    good_b, good_v = _GOOD_ROWS
    with pytest.raises(ValueError, match=message):
        hardy_young_check([good_b, breakpoints, good_b], [good_v, values, good_v], 0.5, 2.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_hardy_inequality_on_step_functions(data):
    n = data.draw(st.integers(1, 5))
    widths = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    values = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    beta = data.draw(st.floats(0.05, 0.95))
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    got = hardy_young_check([np.cumsum(widths)], [values], beta, p)
    assert got["passed"].tolist() == [True]


def test_hardy_stack_equals_its_rows_one_by_one():
    """The hardy suite's 1000 draws at seed 2024, checked as one stack of
    rows of 1 to 6 cells, equal each row checked as a batch of one."""
    rng = SuiteConfig(seed=2024).rng(11)
    rows = []
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        b = np.cumsum(rng.uniform(0.05, 1.0, n))
        v = rng.uniform(0.0, 3.0, n)
        rows.append((b, v, float(rng.uniform(0.05, 0.95)),
                     float(rng.choice([1.0, 1.25, 2.0, 3.0]))))
    breakpoints, values, betas, ps = (list(column) for column in zip(*rows))
    stack = hardy_young_check(breakpoints, values, betas, ps)
    for key in ("lhs", "bound"):
        one = np.concatenate([hardy_young_check([b], [v], beta, p)[key]
                              for b, v, beta, p in rows])
        np.testing.assert_allclose(stack[key], one, rtol=1e-15, atol=0.0)
    assert stack["passed"].all()


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


def test_orbit_shares_its_base_coefficients(grid, monkeypatch):
    """windowed_orbit keeps the read-only coefficients of the function it
    projects onto the band, not a copy of them."""
    bases = []
    from_samples = GridFunction.from_samples.__func__

    def recording(cls, g, samples):
        bases.append(from_samples(cls, g, samples))
        return bases[-1]

    monkeypatch.setattr(GridFunction, "from_samples", classmethod(recording))
    tv = np.array([1.5 - 0.5j])
    u = windowed_orbit(grid, ExtensionOperator(2, 0), lambda t: tv * np.exp(-t)[:, None], tv)
    assert len(bases) == 1 and u.coeffs is bases[0].coeffs
    assert not u.coeffs.flags.writeable


def test_orbit_copies_the_callers_trace_value(grid, diag):
    """The caller's complex datum stays writable, and writing to it does
    not change the recorded trace."""
    x = np.array([1.0 + 2.0j, -0.5j, 3.0, 0.25, 1.0, -1.0])
    u = resolvent_orbit(grid, diag, x, 1, ExtensionOperator(2, 0))
    x[0] = 0.0
    np.testing.assert_array_equal(u.trace_value[0], 1.0 + 2.0j)
    assert not u.trace_value.flags.writeable


@pytest.mark.parametrize("half_width, cells", [
    (0.19, 192), (0.25, 192), (0.5, 192), (0.75, 192), (1.0, 192), (1.3, 250), (2.0, 384), (20.0, 3840),
    (150.0, 20000)])
def test_orbit_meshes_take_twice_the_cells_in_the_orbit_time_unit(half_width, cells):
    """An orbit's mesh, whose extension across t = 0 leaves a joint there,
    takes twice the cells of a band-limited function's at ORBIT_BAND,
    counted in the orbit time unit max(L, 1): ceil(12 ORBIT_BAND max(L,
    1)) a side, so below L = 1 it keeps the 192 cells of L = 1, and past L
    = 104.2 it stops at the cap.  It is uniform, one shared object per
    grid, and the band-32 mesh at L = 1."""
    grid = GridSpec(half_width, 1024)
    u = windowed_orbit(grid, ExtensionOperator(2, 0), lambda t: np.exp(-t)[:, None],
                       np.array([1.0]))
    mesh = u.mesh
    assert (mesh.n_cells, mesh.grading) == (cells, 1.0)
    assert mesh is u.mesh is QuadratureMesh.for_band(
        grid, 2 * ORBIT_BAND * max(half_width, 1.0) / half_width)
    np.testing.assert_allclose(np.diff(mesh.pos_edges), half_width / cells, rtol=0.0,
                               atol=2 * np.spacing(half_width))
    if half_width == 1.0:
        assert mesh is QuadratureMesh.for_band(grid, 32.0)
        f = random_band_limited(grid, (-ORBIT_BAND, ORBIT_BAND), seed=5)
        assert 2 * f.mesh.n_cells == cells


def test_trace_continuity_numerator_independent_of_r(grid, diag):
    problem = TraceProblem(diag, 0.0, 2.0, 2.0, 0.0, 1.0)
    u = random_band_limited(grid, (-16.0, 16.0), seed=12, dim=diag.dim)
    nums = {r: trace_continuity_ratio(problem, u, kind="F", r=r)["numerator"]
            for r in (1.0, 2.0, math.inf)}
    vals = list(nums.values())
    assert vals[0] == vals[1] == vals[2]


def test_right_inverse_ratio_inverts_the_orbit_continuity_ratio(grid, diag):
    """The co-retraction ratio is the inverse continuity ratio of its orbit,
    and every orbit norm that names no mesh takes the orbit's own mesh,
    bitwise as when that mesh is passed."""
    problem = TraceProblem(diag, -0.2, 2.0, 2.0, 0.5, 1.0)
    rng = np.random.default_rng(23)
    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    got = right_inverse_check(problem, x, grid)
    cont = trace_continuity_ratio(problem, got["orbit"], "F", 1.0)
    assert got["ratio"] == cont["denominator"] / cont["numerator"]
    # an orbit's mesh is the one shared mesh of twice ORBIT_BAND's cells, not its band's
    mesh = QuadratureMesh.for_band(grid, 2 * ORBIT_BAND)
    assert QuadratureMesh.for_function(got["orbit"]) is got["orbit"].mesh is mesh
    assert mesh is not QuadratureMesh.for_band(grid, got["orbit"].max_frequency)
    hi = SpaceSpec("F", 1.0 - 0.2, 2.0, 2.0, 0.5)
    lo = SpaceSpec("F", -0.2, 2.0, 2.0, 0.5, inner=InterpNormInner(diag, 1.0, 1.0))
    assert cont["denominator"] == (space_norm(got["orbit"], hi, mesh=mesh)
                                   + space_norm(got["orbit"], lo, mesh=mesh))
    semi = semigroup_orbit_ratio(problem, x, grid)
    outer = SpaceSpec("F", 1.0 - 0.2, 2.0, 1.0, 0.5)
    mixed = SpaceSpec("F", -0.2 + 0.5, 2.0, 1.0, 0.5, inner=InterpNormInner(diag, 0.5, 1.0))
    assert semi["numerator"] == (space_norm(semi["orbit"], outer, mesh=mesh)
                                 + space_norm(semi["orbit"], mixed, mesh=mesh))


def test_frac_power_reparametrization_bounded(diag):
    rng = np.random.default_rng(19)
    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    got = frac_power_reparam_ratio(diag, theta=0.5, p=2.0, rho=2.0, x=x)
    assert 0.05 < got["ratio"] < 20.0
