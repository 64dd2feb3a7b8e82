"""Positive multiplier operators on a finite spectral model space and the
real-interpolation norms they induce.

An operator here is a positive diagonal multiplier A with eigenvalues
lambda_i > 0 acting on C^n with the Euclidean norm.  It is sectorial with
resolvent bound ||(sigma + A)^{-1}|| <= C / (1 + sigma), C = max(1, 1/min
lambda), and -A generates the semigroup exp(-tA).

The fractional domain space D_A(alpha, p), 0 < alpha < m, carries the two
equivalent computable norms

    resolvent form:  ( int_0^inf sigma^{alpha p} || (A (sigma+A)^{-1})^m y ||^p
                       dsigma/sigma )^{1/p}
    semigroup form:  ( int_0^inf t^{(m-alpha) p} || A^m exp(-tA) y ||^p
                       dt/t )^{1/p}

with the essential supremum for p = inf.  Both integrands are analytic and
decay at the ends of the log axis, so the trapezoid rule on a geometric
grid converges exponentially; accuracy is limited by the truncation tails,
which are estimated in closed form and pushed below 1e-12 of the total by
widening the window.  For a scalar operator (and for diagonal ones at
p = 2, by linearity of the p-th power) the integrals collapse to Beta and
Gamma functions, used as cross-checks.

The resolvent form has one integrator, `batch_interp_norm_resolvent`;
`interp_norm_resolvent` is a batch of one.  The batch shares one sigma
grid, chosen once for all its rows.  For finite p the window is widened
in whole decades until it clears the spectrum far enough for the
closed-form tails (trapezoid in log sigma plus the leading
Euler-Maclaurin end correction inside it).  For p = inf the window is
widened by 4 decades at an end while the integrand of some nonzero row
is still at least 0.7 of that row's peak there, for at most 40 rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "MultiplierOperator",
    "InterpQuadSpec",
    "interp_norm_resolvent",
    "interp_norm_semigroup",
    "batch_interp_norm_resolvent",
    "closed_form_resolvent_norm",
    "closed_form_semigroup_norm",
    "reiteration_ratio",
]


def _beta(a: float, b: float) -> float:
    return math.exp(gammaln(a) + gammaln(b) - gammaln(a + b))


class MultiplierOperator:
    """Positive diagonal operator on C^n (Euclidean norm)."""

    def __init__(self, eigenvalues, kind: str = "diagonal", label: str | None = None):
        lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("need a nonempty 1-d eigenvalue list")
        if np.any(lam <= 0):
            raise ValueError("all eigenvalues must be strictly positive")
        self.eigenvalues = lam
        self.eigenvalues.flags.writeable = False
        self.kind = kind
        self.label = label or f"{kind}({', '.join(f'{v:g}' for v in lam)})"

    # -- constructors --------------------------------------------------

    @classmethod
    def scalar(cls, a: float) -> "MultiplierOperator":
        return cls([a], kind="scalar")

    @classmethod
    def diagonal(cls, eigenvalues) -> "MultiplierOperator":
        return cls(eigenvalues, kind="diagonal")

    # -- structure -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def min_eigenvalue(self) -> float:
        return float(np.min(self.eigenvalues))

    @property
    def max_eigenvalue(self) -> float:
        return float(np.max(self.eigenvalues))

    def frac_power(self, beta: float) -> "MultiplierOperator":
        return MultiplierOperator(self.eigenvalues ** beta, kind=self.kind,
                                  label=f"({self.label})^{beta:g}")

    def _vec(self, x) -> np.ndarray:
        v = np.atleast_1d(np.asarray(x, dtype=complex))
        if v.shape[-1] != self.dim:
            raise ValueError(f"value dimension {v.shape[-1]} != operator dimension {self.dim}")
        return v

    def __repr__(self):
        return f"MultiplierOperator({self.label})"


# ---------------------------------------------------------------------
# interpolation norms
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class InterpQuadSpec:
    """Geometric grid for the dsigma/sigma integrals: [sigma_min, sigma_max]
    with a fixed node count per decade; m is the integer power in the
    resolvent/semigroup norm (any integer > alpha gives an equivalent norm,
    default floor(alpha) + 1)."""

    sigma_min: float = 1e-8
    sigma_max: float = 1e8
    nodes_per_decade: int = 40
    m: int | None = None

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if self.nodes_per_decade < 4:
            raise ValueError("need at least 4 nodes per decade")

    def order_for(self, alpha: float) -> int:
        m = self.m if self.m is not None else int(math.floor(alpha)) + 1
        if not m > alpha:
            raise ValueError(f"integer power m={m} must exceed alpha={alpha}")
        return m

    def nodes(self) -> tuple[np.ndarray, float]:
        """(sigma grid, log-step) for the trapezoid rule in log sigma."""
        # difference of logs: the plain ratio can overflow for wide windows
        decades = math.log10(self.sigma_max) - math.log10(self.sigma_min)
        n = max(int(round(decades * self.nodes_per_decade)), 8) + 1
        u = np.linspace(math.log(self.sigma_min), math.log(self.sigma_max), n)
        return np.exp(u), u[1] - u[0]

    def widened(self, lo_decades: float = 0.0, hi_decades: float = 0.0) -> "InterpQuadSpec":
        return InterpQuadSpec(self.sigma_min * 10.0 ** (-lo_decades),
                              self.sigma_max * 10.0 ** hi_decades,
                              self.nodes_per_decade, self.m)


def _resolvent_tail_pieces(alpha, p, m, quad, xnorm, domnorm):
    """Closed-form values of the resolvent integral below sigma_min and
    above sigma_max.  Below the spectrum the resolvent factors are 1 up to
    O(sigma/lambda_min); above it they are (lambda/sigma)^m up to
    O(lambda_max/sigma).  Once the window clears the spectrum on both sides
    these pieces are the exact tails to that relative accuracy, so adding
    them to the windowed quadrature removes the truncation error without
    chasing slowly decaying integrands (the low tail only decays like
    sigma^{alpha p}, which for small alpha*p would need an absurdly wide
    window to become negligible)."""
    lo = quad.sigma_min ** (alpha * p) / (alpha * p) * xnorm ** p
    hi = domnorm ** p * quad.sigma_max ** ((alpha - m) * p) / ((m - alpha) * p)
    return lo, hi


def _cleared_window(op, p, m, quad, tol=1e-10) -> InterpQuadSpec:
    """Widen the window (deterministically, in whole decades) until the
    first-order error m*p*sigma_min/lambda_min of the low tail piece and
    m*p*lambda_max/sigma_max of the high one drop below tol."""
    c = max(m * p, 1.0)
    lo_target = tol * op.min_eigenvalue / c
    hi_target = op.max_eigenvalue * c / tol
    lo_dec = max(0.0, math.ceil(math.log10(quad.sigma_min) - math.log10(lo_target)))
    hi_dec = max(0.0, math.ceil(math.log10(hi_target) - math.log10(quad.sigma_max)))
    return quad.widened(lo_dec, hi_dec) if lo_dec or hi_dec else quad


def _extend_until(quad, tail_fn, total_fn, tol=1e-12, max_rounds=40):
    """Widen the window until both closed-form tails drop below tol * total."""
    for _ in range(max_rounds):
        lo, hi = tail_fn(quad)
        total = total_fn(quad)
        budget = tol * max(total, 1e-300)
        need_lo = lo > budget
        need_hi = hi > budget
        if not (need_lo or need_hi):
            return quad
        quad = quad.widened(4.0 if need_lo else 0.0, 4.0 if need_hi else 0.0)
    raise ValueError("interpolation-norm quadrature window failed to converge")


def batch_interp_norm_resolvent(op: MultiplierOperator, alpha: float, r: float,
                                values: np.ndarray,
                                quad: InterpQuadSpec | None = None) -> np.ndarray:
    """Resolvent-form D_A(alpha, r) norms of a batch of vectors, shape
    (..., dim) -> (...); r = inf is the supremum over the sigma grid.
    The window is widened once for the whole batch, by the rules in the
    module docstring."""
    if not alpha > 0:
        raise ValueError(f"interpolation order must be positive, got alpha={alpha}")
    if not r >= 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if quad is None:
        quad = InterpQuadSpec()
    m = quad.order_for(alpha)
    vals = np.asarray(values, dtype=complex)
    if vals.shape[-1] != op.dim:
        raise ValueError("value dimension mismatch")
    flat = vals.reshape(-1, op.dim)
    sq = np.abs(flat) ** 2
    if not np.any(sq):
        return np.zeros(vals.shape[:-1])

    def magnitudes(sigma):  # (batch, n_sigma): ||(A (sigma + A)^{-1})^m x||
        fac2 = (op.eigenvalues[None, :] / (sigma[:, None] + op.eigenvalues[None, :])) ** (2 * m)
        # one (batch, n_sigma) array worked on in place: a fresh temporary
        # per step makes the allocator return its pages to the system and
        # fault them in again on every call
        grand = sq @ fac2.T
        np.sqrt(grand, out=grand)
        return grand

    if math.isinf(r):
        for rounds in range(41):
            sigma, _ = quad.nodes()
            grand = magnitudes(sigma)
            grand *= sigma ** alpha
            peak = np.max(grand, axis=1)
            cut = 0.7 * peak
            live = peak > 0.0  # a zero row peaks at 0 at both ends
            need_lo = bool(np.any((grand[:, 0] >= cut) & live))
            need_hi = bool(np.any((grand[:, -1] >= cut) & live))
            if rounds == 40 or not (need_lo or need_hi):
                return peak.reshape(vals.shape[:-1])
            quad = quad.widened(4.0 if need_lo else 0.0, 4.0 if need_hi else 0.0)

    quad = _cleared_window(op, r, m, quad)
    sigma, du = quad.nodes()
    w = np.full(sigma.size, du)
    w[0] = w[-1] = du / 2.0  # composite trapezoid, closed-form tails beyond
    grand = magnitudes(sigma)
    grand **= r
    grand *= sigma ** (alpha * r)
    core = grand @ w
    # leading Euler-Maclaurin boundary correction (power-law end slopes)
    core += du ** 2 / 12.0 * (alpha * r * grand[:, 0] + (m - alpha) * r * grand[:, -1])
    xnorms = np.sqrt(np.sum(sq, axis=1))
    domnorms = np.sqrt(sq @ op.eigenvalues ** (2.0 * m))
    lo, hi = _resolvent_tail_pieces(alpha, r, m, quad, xnorms, domnorms)
    out = (core + lo + hi) ** (1.0 / r)
    return out.reshape(vals.shape[:-1])


def interp_norm_resolvent(op: MultiplierOperator, alpha: float, p: float, x,
                          quad: InterpQuadSpec | None = None) -> float:
    """D_A(alpha, p) norm of one vector x in the resolvent form: a batch of one."""
    return float(batch_interp_norm_resolvent(op, alpha, p, op._vec(x)[None, :], quad)[0])


def interp_norm_semigroup(op: MultiplierOperator, alpha: float, p: float, x,
                          quad: InterpQuadSpec | None = None) -> float:
    """D_A(alpha, p) norm of x in the semigroup form; p = inf is the grid sup."""
    if not alpha > 0:
        raise ValueError(f"interpolation order must be positive, got alpha={alpha}")
    if quad is None:
        # the t axis wants its upper end tied to the slowest decay rate
        quad = InterpQuadSpec(sigma_max=max(1e4, 200.0 / op.min_eigenvalue))
    m = quad.order_for(alpha)
    v = op._vec(x)
    xnorm = float(np.linalg.norm(v))
    if xnorm == 0.0:
        return 0.0
    lam_min, lam_max = op.min_eigenvalue, op.max_eigenvalue

    def values_on(q):
        t, du = q.nodes()
        factors = op.eigenvalues[None, :] ** m * np.exp(-t[:, None] * op.eigenvalues[None, :])
        mags = np.linalg.norm(factors * v[None, :], axis=1)
        return t, du, mags

    if math.isinf(p):
        t, _, mags = values_on(quad)
        return float(np.max(t ** (m - alpha) * mags))

    if not p >= 1:
        raise ValueError(f"need p >= 1, got {p}")

    def tails(q):
        e = (m - alpha) * p
        lo = q.sigma_min ** e / e * lam_max ** (m * p) * xnorm ** p
        top = q.sigma_max
        hi = (lam_max ** (m * p) * top ** (e - 1.0) * math.exp(-p * lam_min * top)
              * xnorm ** p * 2.0 / (p * lam_min))
        return lo, hi

    def total_fn(q):
        t, du, mags = values_on(q)
        return float(np.sum(t ** ((m - alpha) * p) * mags ** p) * du)

    quad = _extend_until(quad, tails, total_fn)
    return total_fn(quad) ** (1.0 / p)


def closed_form_resolvent_norm(op: MultiplierOperator, alpha: float, p: float, x,
                               m: int | None = None) -> float:
    """Beta-function closed form of the resolvent norm: exact for scalar
    operators at any p, and for diagonal ones at p = 2."""
    if m is None:
        m = int(math.floor(alpha)) + 1
    v = op._vec(x)
    if op.dim == 1:
        lam = float(op.eigenvalues[0])
        return (lam ** alpha * _beta(alpha * p, (m - alpha) * p) ** (1.0 / p)
                * float(np.linalg.norm(v)))
    if p != 2:
        raise ValueError("diagonal closed form only collapses at p = 2")
    b = _beta(2.0 * alpha, 2.0 * (m - alpha))
    return float(math.sqrt(np.sum(np.abs(v) ** 2 * op.eigenvalues ** (2.0 * alpha) * b)))


def closed_form_semigroup_norm(op: MultiplierOperator, alpha: float, p: float, x,
                               m: int | None = None) -> float:
    """Gamma-function closed form of the semigroup norm (scalar any p,
    diagonal at p = 2): lambda^alpha (Gamma((m-alpha)p) / p^{(m-alpha)p})^{1/p}."""
    if m is None:
        m = int(math.floor(alpha)) + 1
    v = op._vec(x)
    e = (m - alpha) * p
    if op.dim == 1:
        lam = float(op.eigenvalues[0])
        return (lam ** alpha * math.exp((gammaln(e) - e * math.log(p)) / p)
                * float(np.linalg.norm(v)))
    if p != 2:
        raise ValueError("diagonal closed form only collapses at p = 2")
    g = math.exp(gammaln(e)) / p ** e
    return float(math.sqrt(np.sum(np.abs(v) ** 2 * op.eigenvalues ** (2.0 * alpha) * g)))


def reiteration_ratio(op: MultiplierOperator, alpha: float, theta: float, q: float, x,
                      quad: InterpQuadSpec | None = None) -> float:
    """Ratio of two equivalent norms of D_A(theta * alpha, q): the resolvent
    form with the default power m against the same form with m + 1.

    For scalar operators the two are exactly proportional, so the ratio is
    constant in x; for diagonal ones it stays in a narrow window.
    """
    a = theta * alpha
    if not 0 < a:
        raise ValueError("need theta * alpha > 0")
    base = quad or InterpQuadSpec()
    m = base.order_for(a)
    q1 = InterpQuadSpec(base.sigma_min, base.sigma_max, base.nodes_per_decade, m)
    q2 = InterpQuadSpec(base.sigma_min, base.sigma_max, base.nodes_per_decade, m + 1)
    n1 = interp_norm_resolvent(op, a, q, x, quad=q1)
    n2 = interp_norm_resolvent(op, a, q, x, quad=q2)
    if n2 == 0.0:
        return 1.0
    return n1 / n2
