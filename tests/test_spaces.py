import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tracespaces import (
    DyadicSystem,
    EuclideanInner,
    GridFunction,
    GridSpec,
    InterpNormInner,
    MultiplierOperator,
    QuadratureMesh,
    ScalarInner,
    SequenceBesovInner,
    SpaceSpec,
    WeightedEuclideanInner,
    WeightedSequenceInner,
    build_system,
    difference_seminorm,
    norm_equivalence_ratio,
    random_band_limited,
    space_norm,
    weighted_lp_norm,
)
from tracespaces import grid as grid_module
from tracespaces import spaces as spaces_module


@pytest.fixture(scope="module")
def f24(grid):
    return random_band_limited(grid, (-24.0, 24.0), seed=11)


def test_space_spec_validation():
    for kind in ("X", "Lp"):  # the plain L^p norm is weighted_lp_norm
        with pytest.raises(ValueError):
            SpaceSpec(kind, 0.5, 2.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        SpaceSpec("B", 0.5, 1.0, 2.0, 0.0)   # p must exceed 1
    with pytest.raises(ValueError):
        SpaceSpec("B", 0.5, 2.0, 0.5, 0.0)   # q below 1
    with pytest.raises(ValueError):
        SpaceSpec("B", 0.5, 2.0, 2.0, -1.0)  # weight not integrable
    with pytest.raises(ValueError):
        SpaceSpec("W", 0.5, 2.0, 2.0, 0.0)   # integer smoothness only
    for kind, s in (("B", math.nan), ("H", math.inf)):  # smoothness not finite
        with pytest.raises(ValueError):
            SpaceSpec(kind, s, 2.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        WeightedEuclideanInner([1.0, math.nan])  # component weight not finite
    for t, z in ((0.5, 0.5), (0.5, math.nan), (math.nan, 2.0)):  # z below 1, t not finite
        with pytest.raises(ValueError):
            SequenceBesovInner(t, z)
    op = MultiplierOperator.scalar(1.0)
    for r in (0.5, math.nan):                # interpolation index below 1
        with pytest.raises(ValueError):
            InterpNormInner(op, 0.5, r)
    with pytest.raises(ValueError):
        InterpNormInner(op, math.inf, 2.0)   # interpolation order not finite


@pytest.mark.parametrize("norm", ["B", "F", "H", "W", "F-interp", "difference",
                                  "weighted-lp"])
def test_zero_function_has_zero_norms(grid, system, mesh, norm):
    """No active mode: every filter bank is empty and every norm is 0."""
    zero = GridFunction.from_coeff_map(grid, {})
    if norm == "difference":
        got = difference_seminorm(zero, 0.5, 2.0, 2.0, 0.3, 1)
    elif norm == "weighted-lp":
        got = weighted_lp_norm(zero, 2.0, 0.3, mesh=mesh)
    elif norm == "F-interp":
        zero = GridFunction(grid, np.zeros((grid.n_samples, 3)))
        inner = InterpNormInner(MultiplierOperator.diagonal((0.5, 2.0, 8.0)), 0.5, 2.0)
        got = space_norm(zero, SpaceSpec("F", 0.5, 2.0, 2.0, 0.3, inner=inner), system, mesh=mesh)
    else:
        got = space_norm(zero, SpaceSpec(norm, 1.0, 2.0, 2.0, 0.3), system, mesh=mesh)
    assert got == 0.0


@pytest.mark.parametrize("s,p,gamma", [(0.5, 2.0, 0.0), (1.0, 3.0, 0.5),
                                       (-0.5, 2.0, 0.3)])
def test_diagonal_b_equals_f(grid, system, mesh, f24, s, p, gamma):
    b = space_norm(f24, SpaceSpec("B", s, p, p, gamma), system, mesh=mesh)
    f = space_norm(f24, SpaceSpec("F", s, p, p, gamma), system, mesh=mesh)
    assert b == pytest.approx(f, rel=1e-12)


@pytest.mark.parametrize("kind", ["B", "F"])
@pytest.mark.parametrize("q0,q1", [(1.0, 2.0), (2.0, math.inf), (1.0, math.inf)])
def test_q_monotonicity(grid, system, mesh, f24, kind, q0, q1):
    n0 = space_norm(f24, SpaceSpec(kind, 0.5, 2.0, q0, 0.3), system, mesh=mesh)
    n1 = space_norm(f24, SpaceSpec(kind, 0.5, 2.0, q1, 0.3), system, mesh=mesh)
    assert n1 <= n0 * (1.0 + 1e-12)


def test_bessel_potential_single_mode(grid, mesh):
    xi = 4.0
    f = GridFunction.from_coeff_map(grid, {xi: [1.0]})
    h = space_norm(f, SpaceSpec("H", 1.0, 2.0, 2.0, 0.0), mesh=mesh)
    plain = weighted_lp_norm(f, 2.0, 0.0, mesh=mesh)
    assert h == pytest.approx((1.0 + xi ** 2) ** 0.5 * plain, rel=1e-10)


def test_sobolev_norm_counts_derivatives(grid, mesh):
    f = GridFunction.from_coeff_map(grid, {2.0: [1.0]})
    w1 = space_norm(f, SpaceSpec("W", 1, 2.0, 2.0, 0.0), mesh=mesh)
    l2 = weighted_lp_norm(f, 2.0, 0.0, mesh=mesh)
    want = l2 + 2.0 * math.pi * 2.0 * l2  # |f| + |f'| for a pure mode
    assert w1 == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("kind,s", [("H", 1.5), ("W", 2.0)])
def test_potential_and_sobolev_match_dense_reference(grid, mesh, kind, s):
    """A vector-valued multi-mode function whose band holds xi = 0: the H
    and W norms equal Euclidean magnitudes of densely synthesized filtered
    copies, integrated against the mesh weights."""
    f = random_band_limited(grid, (-6.0, 9.0), seed=17, dim=3)
    assert 0 in f.active_indices
    p, gamma = 3.0, 0.4
    xi = grid.frequencies()
    if kind == "H":
        copies = [f.multiplied((1.0 + xi ** 2) ** (s / 2.0))]
    else:
        copies = [f.multiplied((2j * np.pi * xi) ** j) for j in range(int(s) + 1)]
    inner = EuclideanInner(3)
    want = sum(mesh.integrate(inner.batch_norm(g.evaluate(mesh.nodes)) ** p, gamma) ** (1.0 / p)
               for g in copies)
    got = space_norm(f, SpaceSpec(kind, s, p, gamma=gamma), mesh=mesh)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", ["B", "F"])
@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_norm_takes_the_grid_system(grid, f24, kind, q):
    # once the band is covered, two more blocks change nothing but rounding
    spec = SpaceSpec(kind, 0.5, 2.0, q, 0.3)
    deeper = build_system(DyadicSystem.for_grid(grid).max_block + 2)
    assert space_norm(f24, spec) == pytest.approx(space_norm(f24, spec, deeper), rel=1e-14)


def test_norm_rejects_uncovered_band(grid, mesh):
    small = build_system(4)  # covers |xi| <= 16 only
    f = random_band_limited(grid, (-24.0, 24.0), seed=5)
    with pytest.raises(ValueError):
        space_norm(f, SpaceSpec("B", 0.5, 2.0, 2.0, 0.0), small, mesh=mesh)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scale=st.floats(0.01, 50.0), seed=st.integers(0, 20))
def test_besov_norm_homogeneity(scale, seed):
    grid = GridSpec(1.0, 256)
    system = build_system(6)
    mesh = QuadratureMesh(1.0, 192)
    f = random_band_limited(grid, (-16.0, 16.0), seed=seed)
    spec = SpaceSpec("B", 0.5, 2.0, 1.0, 0.3)
    base = space_norm(f, spec, system, mesh=mesh)
    got = space_norm(GridFunction(f.grid, scale * f.coeffs), spec, system, mesh=mesh)
    assert got == pytest.approx(scale * base, rel=1e-10)


def test_vector_inner_changes_norm(grid, system, mesh):
    f = random_band_limited(grid, (-16.0, 16.0), seed=21, dim=3)
    plain = space_norm(f, SpaceSpec("F", 0.5, 2.0, 2.0, 0.0), system, mesh=mesh)
    inner = WeightedEuclideanInner([2.0, 2.0, 2.0])
    doubled = space_norm(f, SpaceSpec("F", 0.5, 2.0, 2.0, 0.0, inner=inner),
                         system, mesh=mesh)
    assert doubled == pytest.approx(2.0 * plain, rel=1e-12)


def test_inner_spaces_are_one_weighted_sequence_space():
    """The Euclidean, weighted and sequence-Besov spaces are constructors of
    one class: equal weights and z give one key and one norm."""
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    same = (EuclideanInner(3), WeightedEuclideanInner([1.0, 1.0, 1.0]),
            SequenceBesovInner(0.0, 2.0, dim=3), WeightedSequenceInner(np.ones(3), 2.0))
    for inner in same:
        assert isinstance(inner, WeightedSequenceInner)
        assert inner.key == same[0].key
        np.testing.assert_array_equal(inner.batch_norm(vals), same[0].batch_norm(vals))
    besov = SequenceBesovInner(0.5, 3.0, dim=3)
    np.testing.assert_array_equal(besov.weights, 2.0 ** (0.5 * np.arange(1, 4)))
    assert besov.z == 3.0
    with pytest.raises(ValueError):
        besov.geometric_mix(WeightedEuclideanInner([1.0, 2.0, 3.0]), 0.5)  # z differs


def test_inner_space_copies_the_callers_weights():
    """The caller's weight array stays writable, and writing to it does not
    change the inner space."""
    w = np.array([1.0, 0.5, 2.0])
    inner = WeightedSequenceInner(w, 3.0)
    w[1] = 7.0
    np.testing.assert_array_equal(inner.weights, [1.0, 0.5, 2.0])
    assert not inner.weights.flags.writeable


def test_sequence_besov_inner_closed_form():
    inner = SequenceBesovInner(0.5, 2.0, dim=3)
    vals = np.array([1.0, 1.0, 1.0])
    want = math.sqrt(2.0 ** 1.0 + 2.0 ** 2.0 + 2.0 ** 3.0)
    assert inner.batch_norm(vals) == pytest.approx(want, rel=1e-14)
    sup = SequenceBesovInner(0.5, math.inf, dim=3)
    assert sup.batch_norm(vals) == pytest.approx(2.0 ** 1.5, rel=1e-14)


def test_difference_seminorm_validation(grid, f24):
    with pytest.raises(ValueError):
        difference_seminorm(f24, 1.5, 2.0, 1.0, 0.0, m=1)  # needs s < m
    with pytest.raises(ValueError):
        difference_seminorm(f24, -0.5, 2.0, 1.0, 0.0, m=1)  # needs s > 0
    with pytest.raises(ValueError):
        difference_seminorm(f24, 0.5, 0.5, 1.0, 0.0, m=1)  # needs p >= 1
    with pytest.raises(ValueError):
        difference_seminorm(f24, 0.5, math.nan, 1.0, 0.0, m=1)
    f8 = random_band_limited(grid, (-8.0, 8.0), seed=31)
    for m in (1.5, 0, math.nan, math.inf, True, 1.0):  # needs an integer m >= 1, not a bool
        with pytest.raises(ValueError):
            difference_seminorm(f8, 0.5, 2.0, 2.0, 0.0, m=m)


def _single_mode_h_integral(xi, m, t):
    """int_{|h|<=t} ||Delta^m_h f|| dh for f = exp(2 pi i xi x), m = 1 or 2:
    ||Delta^m_h f(x)|| = (2 |sin(pi xi h)|)^m does not depend on x."""
    if m == 1:
        k, r = np.divmod(xi * t, 1.0)
        return 2.0 * (4.0 * k + 2.0 * (1.0 - np.cos(np.pi * r))) / (np.pi * xi)
    return 2.0 * (2.0 * t - np.sin(2.0 * np.pi * xi * t) / (np.pi * xi))


def _single_mode_tail(xi, s, m, t_min):
    """The averaged core at t_min of the analytic tail difference_seminorm
    appends: (2 / (m + 1)) t_min^{m-s} |f^(m)|."""
    return 2.0 / (m + 1.0) * (2.0 * math.pi * xi) ** m * t_min ** (m - s)


def _single_mode_seminorm(xi, s, p, q, gamma, m, L, N):
    """The seminorm of exp(2 pi i xi x) on [-L, L] with the scale integral
    over [L/N, 2L] by adaptive quadrature."""
    t_min = L / N

    def core(u):  # in u = log t
        return (math.exp(u * (-s - 1.0)) * _single_mode_h_integral(xi, m, math.exp(u))) ** q

    scales, _ = quad(core, math.log(t_min), math.log(2.0 * L), limit=500, epsabs=0.0, epsrel=1e-12)
    tail = _single_mode_tail(xi, s, m, t_min) ** q / ((m - s) * q)
    weight_mass = 2.0 * L ** (gamma + 1.0) / (gamma + 1.0)
    return (scales + tail) ** (1.0 / q) * weight_mass ** (1.0 / p)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("xi", [1.0, 3.0, 8.0])
def test_difference_seminorm_matches_single_mode_reference(grid, xi, m, q, gamma):
    f = GridFunction.from_coeff_map(grid, {xi: [1.0]})
    s = m - 0.5
    got = difference_seminorm(f, s, 2.0, q, gamma, m)
    want = _single_mode_seminorm(xi, s, 2.0, q, gamma, m, grid.half_width, grid.n_samples)
    assert got == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("q", [2.0, math.inf])
@pytest.mark.parametrize("xi", [1.0, 3.0, 8.0])
def test_difference_seminorm_h_rule_on_its_scale_grid(grid, xi, q):
    """With m = 2, (2 sin(pi xi h))^2 is smooth in h, so on the seminorm's
    60 geometric scales over [L/N, 2L] the Gauss cells match the closed-form
    h-integral to about 1e-8; one node fewer per cell, or a rate that drops
    the factor m, misses by 5e-8 or more.  (With m = 1 the cone points of
    |sin| cap any h-rule at algebraic convergence; the reference test above
    bounds that case.)"""
    L, N = grid.half_width, grid.n_samples
    s, m = 1.5, 2
    t = np.geomspace(L / N, 2.0 * L, 60)
    core = t ** (-s - 1.0) * _single_mode_h_integral(xi, m, t)
    tail = _single_mode_tail(xi, s, m, L / N)
    if math.isinf(q):
        scale_norm = max(core.max(), tail)
    else:
        w = np.full(t.size, math.log(t[1] / t[0]))
        w[[0, -1]] *= 0.5
        scale_norm = (core ** q @ w + tail ** q / ((m - s) * q)) ** (1.0 / q)
    f = GridFunction.from_coeff_map(grid, {xi: [1.0]})
    got = difference_seminorm(f, s, 2.0, q, 0.0, m)
    assert got == pytest.approx(scale_norm * math.sqrt(2.0 * L), rel=2e-8)


@pytest.mark.parametrize("s,p,q,gamma,m", [(0.5, 2.0, 1.0, 0.0, 1),
                                           (0.5, 2.0, 2.0, 0.5, 1),
                                           (1.5, 2.0, 1.0, 0.0, 2)])
def test_difference_norm_equivalence_window(grid, s, p, q, gamma, m):
    f = random_band_limited(grid, (-8.0, 8.0), seed=31)
    r = norm_equivalence_ratio(f, SpaceSpec("F", s, p, q, gamma), m)
    assert 0.01 < r < 100.0


def test_interp_inner_scale_with_operator(grid, system):
    """The interpolation-norm inner on a scalar operator is a multiple of
    the plain modulus, so the F-norm scales by exactly that multiple."""
    from tracespaces import interp_norm_resolvent
    mesh = QuadratureMesh(1.0, 256)
    op = MultiplierOperator.scalar(2.0)
    f = random_band_limited(grid, (-16.0, 16.0), seed=41)
    inner = InterpNormInner(op, 0.5, 2.0)
    spec = SpaceSpec("F", 0.5, 2.0, 2.0, 0.0, inner=inner)
    plain = space_norm(f, SpaceSpec("F", 0.5, 2.0, 2.0, 0.0), system, mesh=mesh)
    got = space_norm(f, spec, system, mesh=mesh)
    factor = inner.batch_norm(np.array([1.0 + 0j]))
    assert got == pytest.approx(factor * plain, rel=1e-9)


_OP3 = MultiplierOperator.diagonal([0.5, 2.0, 16.0])


@pytest.mark.parametrize("first,second", [
    (InterpNormInner(_OP3, 0.5, math.inf), InterpNormInner(_OP3, 0.5000001, math.inf)),
    (WeightedEuclideanInner([1.0, 1.0, 1.0]), WeightedEuclideanInner([1.0, 1.0, 1.0 + 1e-7])),
], ids=["alpha", "weights"])
def test_norm_is_independent_of_cache_state(grid, system, first, second):
    """A norm must not depend on what was computed on the function before
    it: inner spaces that differ only in the seventh digit of the
    interpolation order or of a weight are distinct cache keys."""
    mesh = QuadratureMesh(1.0, 256)

    def norm(f, inner):
        return space_norm(f, SpaceSpec("F", 0.5, 2.0, 2.0, 0.0, inner=inner), system, mesh=mesh)

    def fresh():
        return random_band_limited(grid, (-16.0, 16.0), seed=51, dim=3)

    want = norm(fresh(), second)
    assert want != norm(fresh(), first)
    f = fresh()
    norm(f, first)
    assert norm(f, second) == want


@pytest.mark.parametrize("gamma", [-1.0, -2.0, math.nan])
def test_difference_seminorm_rejects_weight_power_up_front(grid, gamma):
    """A weight power gamma <= -1 or NaN is rejected before the synthesis,
    so nothing is cached on the function."""
    f = random_band_limited(grid, (-8.0, 8.0), seed=31)
    with pytest.raises(ValueError, match="gamma"):
        difference_seminorm(f, 0.5, 2.0, 2.0, gamma, m=1)
    assert not f._cache


def test_difference_seminorm_is_independent_of_cache_state(grid):
    """The seminorm's cached averages serve every (s, p, q, gamma): each
    value on a function that has seen other parameters, another m or
    another inner space equals its value on a fresh function, bit for bit."""
    def fresh():
        return random_band_limited(grid, (-8.0, 8.0), seed=41, dim=3)

    calls = [((0.5, 3.0, 1.0, 0.0, 1), None), ((1.5, 2.0, 1.0, 0.0, 2), None),
             ((0.7, 2.0, math.inf, 1.5, 1), None),
             ((0.5, 2.0, 2.0, 0.5, 1), WeightedEuclideanInner([1.0, 0.5, 2.0])),
             ((0.5, 2.0, 2.0, 0.5, 1), None)]
    f = fresh()
    for args, inner in calls:
        assert difference_seminorm(f, *args, inner=inner) == difference_seminorm(
            fresh(), *args, inner=inner)


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300])
@pytest.mark.parametrize("inner", [
    EuclideanInner(5), WeightedEuclideanInner([1.0, 0.5, 2.0, 3.0, 0.25]),
    *(SequenceBesovInner(0.5, z, dim=5) for z in (1.0, 2.0, 3.0, 8.0, math.inf)),
], ids=["euclidean", "weighted", "besov-z1", "besov-z2", "besov-z3", "besov-z8", "besov-zinf"])
def test_euclidean_norms_stay_homogeneous_near_the_float_limits(inner, c):
    """Each row is scaled by a power of two before its squares or z-th
    powers are taken, so they neither underflow nor overflow."""
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inner.batch_norm(c * vals)
    np.testing.assert_allclose(got / (c * inner.batch_norm(vals)), 1.0, rtol=0, atol=1e-13)


def _row_scaled_lz(mags, z):
    """The ell^z norms of rows of magnitudes, each row scaled by the power
    of two that brings its largest entry into [1/2, 1) and scaled back."""
    e = np.frexp(np.max(mags, axis=-1))[1]
    return np.sum(np.ldexp(mags, -e[..., None]) ** z, axis=-1) ** (1 / z) * np.ldexp(1.0, e)


@pytest.mark.parametrize("inner, norm", [
    (EuclideanInner(5), lambda v: np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))),
    (WeightedEuclideanInner([1.0, 0.5, 2.0, 3.0, 0.25]),
     lambda v: np.sqrt(np.sum(np.abs(v * [1.0, 0.5, 2.0, 3.0, 0.25]) ** 2, axis=-1))),
    (SequenceBesovInner(0.5, 3.0, dim=5), lambda v: _row_scaled_lz(
        np.abs(v * 2.0 ** (0.5 * np.arange(1, 6))), 3.0)),
], ids=["euclidean", "weighted", "sequence-besov"])
def test_inner_batch_norms_do_not_depend_on_chunking(inner, norm):
    """batch_norm takes its rows in chunks; over more rows than one chunk it
    equals the same formula over the whole bank, bit for bit.  At z = 2 that
    is the plain Euclidean formula, since the row scaling is exact."""
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((2100, 3, 5)) + 1j * rng.standard_normal((2100, 3, 5))
    got = inner.batch_norm(vals)
    assert got.shape == (2100, 3)
    np.testing.assert_array_equal(got, norm(vals))


def test_seminorm_blocks_stay_within_the_budget(monkeypatch):
    """At L = 20 the seminorm spans 1597 h-columns of 5761
    nodes (140 MiB at once); it is synthesized in blocks of at most
    _BLOCK_BYTES of node values."""
    f = random_band_limited(GridSpec(20.0, 2048), (-8.0, 8.0), seed=3)
    blocks = []
    synthesize = QuadratureMesh.synthesize

    def recorded(mesh, grid, active, coeffs):
        out = synthesize(mesh, grid, active, coeffs)
        blocks.append(out.nbytes)
        return out

    monkeypatch.setattr(QuadratureMesh, "synthesize", recorded)
    assert math.isfinite(difference_seminorm(f, 1.5, 2.0, 1.0, 0.0, m=2))
    assert len(blocks) > 1
    assert max(blocks) <= spaces_module._BLOCK_BYTES


def test_seminorm_products_stay_on_the_calling_thread(grid, monkeypatch):
    """The seminorm's synthesis and scale integral at m = 1 and 2 on a
    band-8 draw, and a dim-6, 120-bin interpolation-space request on the
    band-32 mesh, take their real products through grid._blocked_product,
    every BLAS product of which stays within _ONE_THREAD_MACS, so OpenBLAS
    runs it on the calling thread."""
    calls, macs = [], []
    blocked, matmul = grid_module._blocked_product, np.matmul

    def recorded_matmul(a, b, out):
        macs.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, out=out)

    def recorded(a, b):
        calls.append((a.shape, b.shape))
        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", recorded_matmul)
            return blocked(a, b)

    monkeypatch.setattr(grid_module, "_blocked_product", recorded)
    monkeypatch.setattr(spaces_module, "_blocked_product", recorded)
    f = random_band_limited(grid, (-8.0, 8.0), seed=41)
    nodes = f.mesh.nodes.size
    for m in (1, 2):
        hs, _ = spaces_module._h_rule(spaces_module._scales(grid), m * f.max_frequency)
        assert math.isfinite(difference_seminorm(f, 0.5, 2.0, 1.0, 0.0, m))
        # one chunk: f^(m) and every h-node at +h and -h, as (re, im) pairs
        assert any(a[0] == nodes and b[1] == 2 * (1 + 2 * hs.size) for a, b in calls)
        assert ((nodes, hs.size), (hs.size, spaces_module._N_SCALES)) in calls
    seminorm_macs = len(macs)
    assert seminorm_macs > 0

    coeffs = np.zeros((grid.n_samples, 6), dtype=complex)
    coeffs[np.arange(-57, 63)] = np.random.default_rng(42).standard_normal((120, 6))  # in band
    inner = InterpNormInner(MultiplierOperator.diagonal([0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
                            alpha=0.5, r=2.0)
    spec = SpaceSpec("F", 0.5, 2.0, 2.0, 0.0, inner=inner)
    assert space_norm(GridFunction(grid, coeffs), spec,
                      mesh=QuadratureMesh.for_band(grid, 32.0)) > 0.0
    assert len(macs) > seminorm_macs
    assert max(macs) <= grid_module._ONE_THREAD_MACS


def test_chunked_seminorm_matches_one_block(grid, monkeypatch):
    """With a budget of 64 KiB, three h-nodes, the seminorm is synthesized
    in chunks of the floor of eight h-nodes, and agrees with its one-block
    value to rounding."""
    def seminorms():
        f = random_band_limited(grid, (-8.0, 8.0), seed=5)
        return np.array([difference_seminorm(f, s, p, q, gamma, m)
                         for s, p, q, gamma, m in ((0.5, 2.0, 1.0, 0.0, 1),
                                                   (1.5, 2.0, math.inf, 0.5, 2))])

    whole = seminorms()
    columns = []
    synthesize = QuadratureMesh.synthesize

    def recorded(mesh, grid, active, coeffs):
        columns.append(coeffs.shape[1])
        return synthesize(mesh, grid, active, coeffs)

    monkeypatch.setattr(spaces_module, "_BLOCK_BYTES", 2 ** 16)
    monkeypatch.setattr(QuadratureMesh, "synthesize", recorded)
    chunked = seminorms()
    np.testing.assert_allclose(chunked, whole, rtol=1e-14, atol=0.0)
    # the first chunk of each m adds the f^(m) column to its +h and -h
    assert len(columns) > 2
    assert max(columns) == 2 * spaces_module._MIN_CHUNK_H + 1


def test_functions_of_one_band_share_the_seminorm_h_rule(grid, monkeypatch):
    """The mesh keeps the seminorm's h-rule per (grid, m, band): two draws
    on one band build one rule per m, a draw on another active set with the
    same top frequency builds none, and so does a seminorm whose averages
    the function has cached.  Each seminorm is bitwise the same whichever
    draw is normed first."""
    builds = []

    def counted(t, rate, h_rule=spaces_module._h_rule):
        builds.append(rate)
        return h_rule(t, rate)

    def draws():
        return [random_band_limited(grid, (-8.0, 8.0), seed=seed) for seed in (21, 22)]

    def seminorms(fs):
        return [difference_seminorm(f, *args) for f in fs for args in
                ((0.5, 2.0, 2.0, 0.5, 1), (1.5, 2.0, 1.0, 0.0, 2))]

    monkeypatch.setattr(spaces_module, "_h_rule", counted)
    grid_module._shared_mesh.cache_clear()  # meshes without rules
    fs = draws()
    first = seminorms(fs)
    assert builds == [8.0, 16.0]
    assert difference_seminorm(random_band_limited(grid, (-8.0, 2.0), seed=23),
                               0.5, 2.0, 2.0, 0.5, 1) > 0.0
    assert builds == [8.0, 16.0]
    grid_module._shared_mesh.cache_clear()
    assert difference_seminorm(fs[0], 0.75, 3.0, math.inf, 0.0, 1) > 0.0
    assert builds == [8.0, 16.0]
    second = seminorms(draws()[::-1])
    assert first == second[2:] + second[:2]
    assert first[0] != first[2]


def test_scalar_space_is_the_one_component_euclidean_space():
    """ScalarInner, EuclideanInner(1) and the unit weight share one key and
    norm each value by its modulus, bitwise; a weight w gives |a| w."""
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((5, 4, 1)) + 1j * rng.standard_normal((5, 4, 1))
    vals[0, :, 0] = [0.0, 1e-310 + 2e-310j, 1e300 - 1e300j, complex(math.inf, 1.0)]
    same = (ScalarInner(), EuclideanInner(1), WeightedEuclideanInner([1.0]),
            spaces_module.default_inner(1))
    for inner in same:
        assert inner.key == same[0].key
        np.testing.assert_array_equal(inner.batch_norm(vals), np.abs(vals[..., 0]))
    for inner, w in ((WeightedEuclideanInner([3.0]), 3.0),
                     (SequenceBesovInner(0.5, 3.0, dim=1), 2.0 ** 0.5)):
        np.testing.assert_array_equal(inner.batch_norm(vals), np.abs(vals[..., 0]) * w)
