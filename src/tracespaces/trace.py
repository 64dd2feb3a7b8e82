"""Traces at t = 0 and bounded one-sided inverses.

A trace datum is a vector x in C^dim for a diagonal positive operator A.
The model extension is the resolvent orbit

    u(t) = E[(1 + t A)^{-j} x](t) . window(t),

built with the coefficient reflection from `extension`, multiplied by a
smooth window that is identically 1 near t = 0 (so the trace of the
orbit is x bitwise, recorded at construction) and vanishes before the
periodic seam, then projected onto the grid band.

The quantitative checks compare

    || tr u ||_{D_A(theta, .)}     with theta = s + alpha - (1+gamma)/p

against || u ||_{F/B^{s+alpha}(X)} + || u ||_{F/B^{s}(D_A(alpha, r))}, in
both directions (trace continuity and right-inverse boundedness).  The
scalar inequality behind those bounds,

    int_0^inf s^{-beta p - 1} (int_0^s f)^p ds
        <= beta^{-p} int_0^inf s^{(1-beta)p - 1} f^p ds,

is verified exactly on a stack of nonnegative step functions in one array
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import smooth_step
from .extension import ExtensionOperator
from .grid import GridFunction, GridSpec, QuadratureMesh
from .operators import MultiplierOperator, interp_norm_resolvent
from .spaces import InterpNormInner, SpaceSpec, space_norm

__all__ = [
    "ORBIT_BAND",
    "orbit_time_unit",
    "TraceProblem",
    "OrbitFunction",
    "trace_at_zero",
    "orbit_window",
    "windowed_orbit",
    "resolvent_orbit",
    "semigroup_orbit",
    "select_extension_branch",
    "hardy_young_check",
    "trace_continuity_ratio",
    "right_inverse_check",
    "frac_power_reparam_ratio",
    "semigroup_orbit_ratio",
]


@dataclass(frozen=True)
class TraceProblem:
    """Parameters of a weighted trace problem: smoothness s, integrability
    p, microscopic q, weight power gamma, operator order alpha.  The trace
    exponent theta = s + alpha - (1+gamma)/p must land strictly inside
    (0, alpha)."""

    op: MultiplierOperator
    s: float
    p: float
    q: float
    gamma: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"need 1 < p < inf, got {self.p}")
        if not self.q >= 1.0:
            raise ValueError(f"need q >= 1, got {self.q}")
        if not self.gamma > -1.0:
            raise ValueError(f"need gamma > -1, got {self.gamma}")
        if self.alpha <= 0:
            raise ValueError(f"need alpha > 0, got {self.alpha}")
        th = self.theta
        if not 0.0 < th < self.alpha:
            raise ValueError(
                f"trace exponent theta = s + alpha - (1+gamma)/p = {th:g} "
                f"must lie in (0, alpha) = (0, {self.alpha:g})")

    @property
    def theta(self) -> float:
        return self.s + self.alpha - (1.0 + self.gamma) / self.p

    def target_second_index(self, kind: str) -> float:
        """Second index of the trace space D_A(theta, .): p on the
        F-scale, q on the B-scale."""
        if kind == "F":
            return self.p
        if kind == "B":
            return self.q
        raise ValueError(f"kind must be 'B' or 'F', got {kind!r}")


class OrbitFunction(GridFunction):
    """A grid function built as a windowed extension of an operator orbit.

    The value at t = 0 is recorded exactly at construction (the window is
    1 there and the orbit formula returns the datum unchanged), so the
    trace map on orbits is an exact right inverse; synthesis from the
    projected coefficients reproduces it only to projection accuracy.
    """

    def __init__(self, grid: GridSpec, coeffs: np.ndarray, trace_value: np.ndarray):
        super().__init__(grid, coeffs)
        self._record(trace_value)

    def _record(self, trace_value: np.ndarray) -> None:
        tv = np.array(trace_value, dtype=complex)  # a copy: the caller's stays writable
        tv.flags.writeable = False
        self.trace_value = tv

    @property
    def mesh(self) -> QuadratureMesh:
        """The mesh of every norm of this orbit, one shared object per grid:
        twice the cells of ORBIT_BAND in the orbit time unit, ceil(12
        ORBIT_BAND max(L, 1)) a side, since the orbit's extension across
        t = 0 leaves a joint of finite smoothness there."""
        grid = self.grid
        band = 2.0 * ORBIT_BAND * orbit_time_unit(grid) / grid.half_width
        return QuadratureMesh.for_band(grid, band)


def trace_at_zero(f: GridFunction) -> np.ndarray:
    """tr_0 f: the recorded datum for orbits, the synthesized value at
    t = 0 otherwise."""
    if isinstance(f, OrbitFunction):
        return f.trace_value
    return np.atleast_1d(f.value_at_zero)


# ---------------------------------------------------------------------
# windowed orbits
# ---------------------------------------------------------------------


# The band of every orbit norm's mesh, in the orbit time unit max(L, 1):
# the orbit's extension across t = 0 leaves a joint there, so its uniform
# mesh takes twice the cells of a band-limited function's, 192 a side at
# every L <= 1, the cells of the band-32 mesh at L = 1.  Below L = 1 the
# orbits keep their time scale, so their mesh keeps its cells; sized by L
# instead, the doubling check moved semigroup by 1.9e-3 at L = 0.5.
# Orbits fill the grid band, but against the full band's mesh (3066
# cells) at L = 1 this one moves no orbit ratio of the trace problems by
# more than 8.7e-7, and the semigroup and stefan ratios by at most 1.6e-4.
ORBIT_BAND = 16.0


def orbit_time_unit(grid: GridSpec) -> float:
    """max(L, 1), the unit dividing the eigenvalues of the stefan and
    semigroup plateau orbits, so that at every L > 1 their structure spans a
    fixed share of [-L, L], not a few samples; at L <= 1 it changes nothing."""
    return max(grid.half_width, 1.0)


def orbit_window(grid: GridSpec, left_reach: float):
    """Smooth cutoff for periodizing a one-sided orbit: 1 on
    [-0.75 a, 0.6 L] with a = left_reach, rising smoothly from 0 at
    -0.95 a and falling to 0 by 0.9 L.  Exactly 1 on the plateau and
    exactly 0 outside, so the trace value and the periodic seam are both
    untouched."""
    L = grid.half_width
    a = float(left_reach)
    if not 0 < a <= L:
        raise ValueError("left reach must lie in (0, L]")
    r0, r1 = -0.95 * a, -0.75 * a
    f0, f1 = 0.6 * L, 0.9 * L

    def window(t):
        t = np.asarray(t, dtype=float)
        rise = smooth_step((t - r0) / (r1 - r0))
        fall = smooth_step((f1 - t) / (f1 - f0))
        return rise * fall

    return window


def windowed_orbit(grid: GridSpec, ext: ExtensionOperator, orbit, trace_value) -> OrbitFunction:
    """Extend a one-sided orbit callable across t = 0, window it to a
    periodic function, sample and project onto the grid band.  The
    window is 1 at t = 0, so orbit(0) is the exact trace value (the
    caller passes it explicitly to keep it bitwise)."""
    L = grid.half_width
    window = orbit_window(grid, L / ext.n_reflections)
    t = grid.sample_points()
    w = window(t)
    supp = w > 0
    tv = np.atleast_1d(np.asarray(trace_value, dtype=complex))
    vals = np.zeros((t.size, tv.size), dtype=complex)
    vals[supp] = ext.apply(orbit, t[supp], half_width=L) * w[supp, None]
    # t = 0 is a sample point on the window plateau, so the recorded trace
    # must be bitwise what the windowed formula produced there
    if not np.array_equal(vals[t.size // 2], tv):
        raise ValueError("trace value disagrees with the orbit at t = 0")
    # the orbit shares the projection's read-only coefficients
    orbit = OrbitFunction._owning(grid, GridFunction.from_samples(grid, vals).coeffs)
    orbit._record(tv)
    return orbit


def resolvent_orbit(grid: GridSpec, op: MultiplierOperator, x, j: int,
                    ext: ExtensionOperator) -> OrbitFunction:
    """Windowed extension of t -> (1 + t A)^{-j} x.  At t = 0 the orbit
    equals x exactly, which is recorded as the trace value."""
    if j < 1:
        raise ValueError("resolvent power j must be >= 1")
    x = op._vec(x)
    lam = op.eigenvalues

    def orbit(t):
        return x[None, :] / (1.0 + np.multiply.outer(t, lam)) ** j

    return windowed_orbit(grid, ext, orbit, x)


def semigroup_orbit(grid: GridSpec, op: MultiplierOperator, x,
                    ext: ExtensionOperator) -> OrbitFunction:
    """Windowed extension of t -> e^{-t A} x."""
    x = op._vec(x)
    lam = op.eigenvalues

    def orbit(t):
        return x[None, :] * np.exp(-np.multiply.outer(t, lam))

    return windowed_orbit(grid, ext, orbit, x)


def select_extension_branch(problem: TraceProblem) -> dict:
    """Reflection order, twist and resolvent power for a bounded right
    inverse at the given parameters.

    Above the critical line s > (1+gamma)/p - 1 a plain reflection of
    matching order suffices; below it, k derivatives are borrowed first
    (the orbit is extended through a k-fold twist) with the minimal k
    that moves s + k above the line.  The resolvent power j keeps the
    orbit decaying fast enough for the weighted norms and exceeds the
    twist."""
    s, p, gamma, alpha = problem.s, problem.p, problem.gamma, problem.alpha
    critical = (1.0 + gamma) / p - 1.0
    if s > critical:
        k = 0
    else:
        k = int(math.floor(critical - s)) + 1
        if s + k <= critical:  # exact-boundary guard
            k += 1
    m = int(math.ceil(max(s + alpha + 1.0, alpha + 1.0)))
    j = max(k + 1, int(math.floor((gamma + 1.0) / p - s)) + 1, 1)
    return {"order": m + k, "twist": k, "j": j}


# ---------------------------------------------------------------------
# the scalar averaging inequality on step functions
# ---------------------------------------------------------------------

_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _padded(rows) -> tuple[np.ndarray, np.ndarray]:
    """Ragged float rows as one zero-padded (rows x longest) array, and the
    mask of its entries that are not padding."""
    lengths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    if np.any(lengths < 1):
        raise ValueError("every step function needs at least one step")
    flat = np.concatenate(rows, dtype=float)
    real = np.arange(lengths.max()) < lengths[:, None]
    out = np.zeros(real.shape)
    out[real] = flat
    return out, real


def hardy_young_check(breakpoints, values, beta, p) -> dict:
    """Both sides of

        int_0^inf s^{-beta p - 1} F(s)^p ds
            <= beta^{-p} int_0^inf s^{(1-beta)p - 1} f(s)^p ds

    for a stack of step functions, one per row: f = sum values_i
    1_[b_i, b_{i+1}) with breakpoints 0 < b_1 < ... < b_K and F(s) =
    int_0^s f.  Rows may differ in length; beta and p are per row or one
    scalar.  Each row is padded to the longest with zero-value, zero-width
    cells at its last breakpoint: exact zeros, F unchanged.  The right side
    and the first and tail pieces of the left side are closed forms; the
    interior pieces (F affine there) use 24-point Gauss cells.  Returns
    arrays "lhs", "bound" and "passed", one entry per row; "passed" allows
    a relative slack of 1e-9 for their rounding.
    """
    n_rows = len(breakpoints)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n_rows,))[:, None]
    p = np.broadcast_to(np.asarray(p, dtype=float), (n_rows,))[:, None]
    bad = ~((0.0 < beta) & (beta < 1.0))
    if bad.any():
        raise ValueError(f"need 0 < beta < 1, got {beta[bad][0]}")
    bad = ~((1.0 <= p) & (p < math.inf))
    if bad.any():
        raise ValueError(f"need 1 <= p < inf, got {p[bad][0]}")
    b, real = _padded(breakpoints)
    v, real_v = _padded(values)
    if not np.array_equal(real, real_v):
        raise ValueError("need exactly one breakpoint per value in every row")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
        raise ValueError("breakpoints and step values must be finite")
    b = np.concatenate([np.zeros((n_rows, 1)), b], axis=1)
    if np.any((np.diff(b) <= 0) & real):
        raise ValueError("breakpoints must be positive and strictly increasing")
    if np.any(v < 0):
        raise ValueError("step values must be nonnegative")
    b = np.maximum.accumulate(b, axis=1)  # padding cells at the last breakpoint

    e = (1.0 - beta) * p  # > 0
    rhs = np.sum(v ** p * (b[:, 1:] ** e - b[:, :-1] ** e), axis=1) / e[:, 0]

    # F at breakpoints
    F = np.concatenate([np.zeros((n_rows, 1)), np.cumsum(v * np.diff(b), axis=1)], axis=1)
    # first cell: F = v_0 s exactly
    first = v[:, :1] ** p * b[:, 1:2] ** e / e
    # interior cells: F affine, integrand smooth and bounded
    lo, hi = b[:, 1:-1, None], b[:, 2:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = mid + half * _GL24_NODES
    Fs = F[:, 1:-1, None] + v[:, 1:, None] * (s - lo)
    cells = half[..., 0] * np.sum(_GL24_WEIGHTS * s ** (-beta * p - 1.0)[..., None]
                                  * Fs ** p[..., None], axis=-1)
    # tail: F constant = F(b_K)
    tail = F[:, -1:] ** p * b[:, -1:] ** (-beta * p) / (beta * p)
    lhs = np.sum(np.concatenate([first, cells, tail], axis=1), axis=1)

    bound = (beta ** (-p))[:, 0] * rhs
    return {"lhs": lhs, "bound": bound, "passed": lhs <= bound * (1.0 + 1e-9)}


# ---------------------------------------------------------------------
# trace continuity / right inverse ratios
# ---------------------------------------------------------------------


def trace_continuity_ratio(problem: TraceProblem, u: GridFunction,
                           kind: str = "F", r: float = 1.0) -> dict:
    """|| tr u ||_{D_A(theta, p or q)} over
    ||u||_{kind^{s+alpha}(X)} + ||u||_{kind^{s}(D_A(alpha, r))}, with the
    blocks of u's grid, on u's own mesh."""
    x0 = trace_at_zero(u)
    num = interp_norm_resolvent(problem.op, problem.theta,
                                problem.target_second_index(kind), x0)
    hi = SpaceSpec(kind, problem.s + problem.alpha, problem.p, problem.q, problem.gamma)
    lo = SpaceSpec(kind, problem.s, problem.p, problem.q, problem.gamma,
                   inner=InterpNormInner(problem.op, problem.alpha, r))
    den = space_norm(u, hi) + space_norm(u, lo)
    if den == 0.0:
        raise ValueError("zero orbit has no trace ratio")
    return {"numerator": num, "denominator": den, "ratio": num / den,
            "theta": problem.theta}


def right_inverse_check(problem: TraceProblem, x, grid: GridSpec) -> dict:
    """Build the branch-selected orbit for the datum x, confirm the trace
    returns x exactly, and measure the co-retraction ratio on the F-scale
    with inner index r = 1 (orbit norms over || x ||_{D_A(theta, p)}): the
    inverse of the orbit's trace continuity ratio."""
    branch = select_extension_branch(problem)
    ext = ExtensionOperator(branch["order"], branch["twist"])
    u = resolvent_orbit(grid, problem.op, x, branch["j"], ext)
    exact = bool(np.array_equal(trace_at_zero(u), np.atleast_1d(problem.op._vec(x))))
    got = trace_continuity_ratio(problem, u, "F", 1.0)
    num, den = got["denominator"], got["numerator"]
    return {"branch": branch, "trace_exact": exact, "numerator": num,
            "denominator": den, "ratio": num / den, "orbit": u}


def frac_power_reparam_ratio(op: MultiplierOperator, theta: float, p: float,
                             rho: float, x) -> dict:
    """D_A(theta, p) = D_{A^rho}(theta / rho, p) with equivalent norms:
    the computed ratio of the two resolvent norms.  Requires
    theta / rho below the quadrature order for A^rho."""
    if rho <= 0:
        raise ValueError("power rho must be positive")
    base = interp_norm_resolvent(op, theta, p, x)
    moved = interp_norm_resolvent(op.frac_power(rho), theta / rho, p, x)
    if base == 0.0:
        raise ValueError("zero datum has no reparametrization ratio")
    return {"base": base, "reparametrized": moved, "ratio": moved / base}


def semigroup_orbit_ratio(problem: TraceProblem, x, grid: GridSpec) -> dict:
    """Smoothing of the semigroup orbit u(t) = e^{-tA} x of a datum
    x in D_A(theta, p): the ratio

        ( ||u||_{F^{s+alpha}_{p,1}(X)} +
          ||u||_{F^{s+alpha/2}_{p,1}(D_A(alpha/2, 1))} )
            / || x ||_{D_A(theta, p)}

    with the smoothness split evenly between the outer scale and the inner
    interpolation space."""
    branch = select_extension_branch(problem)
    ext = ExtensionOperator(branch["order"], branch["twist"])
    u = semigroup_orbit(grid, problem.op, x, ext)
    outer = SpaceSpec("F", problem.s + problem.alpha, problem.p, 1.0, problem.gamma)
    half = 0.5 * problem.alpha
    mixed = SpaceSpec("F", problem.s + half, problem.p, 1.0, problem.gamma,
                      inner=InterpNormInner(problem.op, half, 1.0))
    num = space_norm(u, outer) + space_norm(u, mixed)
    den = interp_norm_resolvent(problem.op, problem.theta, problem.p,
                                trace_at_zero(u))
    if den == 0.0:
        raise ValueError("zero datum has no orbit ratio")
    return {"numerator": num, "denominator": den, "ratio": num / den,
            "orbit": u}
