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

with the essential supremum for p = inf.  For a scalar operator (and for
diagonal ones at p = 2, by linearity of the p-th power) the integrals
collapse to Beta and Gamma functions, used as cross-checks.

Both forms use one rule on the log axis: whole decades of nodes over a
window computed from the eigenvalues alone, never from the values.  The
integrands are analytic in log sigma, so the trapezoid rule converges
exponentially (Trefethen & Weideman, SIAM Review 56, 2014).  For finite
p the resolvent form takes 5 nodes per decade, one more for each power m
past 2, and the semigroup form 8, since its factor exp(-2 t lambda) needs
the finer step; p = inf takes 10.

  - Finite p: each window end lies 1e-5 of the nearest eigenvalue scale
    beyond the spectrum.  Past it the squared integrand is a power law
    times S0 + S1 s up to O(s^2), s = sigma / lambda below the spectrum
    and lambda / sigma above it, so g^p is two power laws to first
    order, each integrated in closed form.  The resolvent form adds
    both tails, the semigroup form its low tail (its high end lies past
    the slowest decay, exp(-t min lambda) < 1e-20), and both correct the
    trapezoid rule for each power law at each end by the Euler-Maclaurin
    series summed in closed form.
  - p = inf: the window is the span of the per-eigenvalue peaks (alpha
    lambda / (m - alpha) in sigma, (m - alpha) / lambda in t) with a
    decade of margin at each end.  The supremum is the integrand at the
    vertex of the parabola through log g at the grid maximum and its two
    neighbours.

`_rule` builds a form's rule (grid, kernel, and the end corrections with
tails, the contracted p = 2 weights or the p = inf window) once per
operator and (form, alpha, r, m) and keeps it on the operator, which is
immutable.  At p = 2 the trapezoid core, both end corrections and both
closed-form tails are linear in the squares |y_k|^2, so the rule
contracts to one weight W_k per component and a norm is
sqrt(sum_k |y_k|^2 W_k): dim products per row.  Other p raise each
row's squared integrand on the grid to the power p / 2; the end moments
S0 and S1 come out of the same product as the grid.  Each row is scaled
by a power of two, its largest component into [1/2, 1), before it is
squared, and its norm scaled back, so the norms stay homogeneous from
the smallest floats to the largest.

Both forms have one integrator, `_batch_norm`; `interp_norm_resolvent`
and `interp_norm_semigroup` are batches of one.  It and the inner spaces
of `spaces` take rows in chunks through one chunker, `by_rows`.  Rows are
summed in a fixed order, so a row's norm never depends on its batch.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

__all__ = [
    "MultiplierOperator",
    "interp_norm_resolvent",
    "interp_norm_semigroup",
    "batch_interp_norm_resolvent",
    "closed_form_resolvent_norm",
    "closed_form_semigroup_norm",
    "reiteration_ratio",
]


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


class MultiplierOperator:
    """Positive diagonal operator on C^n (Euclidean norm)."""

    def __init__(self, eigenvalues):
        lam = np.array(eigenvalues, dtype=float, ndmin=1)  # a copy: the caller's stays writable
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("need a nonempty 1-d eigenvalue list")
        if not np.all((lam > 0) & np.isfinite(lam)):
            raise ValueError("all eigenvalues must be finite and strictly positive")
        self.eigenvalues = lam
        self.eigenvalues.flags.writeable = False
        # rules by (form, alpha, r, m), in the order built; see _rule
        self._rules: dict[tuple[str, float, float, int], Callable] = {}

    # -- constructors --------------------------------------------------

    @classmethod
    def scalar(cls, a: float) -> "MultiplierOperator":
        return cls([a])

    @classmethod
    def diagonal(cls, eigenvalues) -> "MultiplierOperator":
        return cls(eigenvalues)

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
        return MultiplierOperator(self.eigenvalues ** beta)

    def _vec(self, x) -> np.ndarray:
        v = np.atleast_1d(np.asarray(x, dtype=complex))
        if v.shape != (self.dim,):
            raise ValueError(f"need one vector of length {self.dim}, got shape {v.shape}")
        return v

    def __repr__(self):
        return f"MultiplierOperator({', '.join(f'{v:g}' for v in self.eigenvalues)})"


# ---------------------------------------------------------------------
# interpolation norms
# ---------------------------------------------------------------------

# log-axis nodes per decade of a finite-r window, per form, the resolvent's
# at m <= 2.  Against the closed forms of a scalar operator the trapezoid
# error is about 1e-12 here and over 1e-10 at 4 and 6.  On wide spectra the
# resolvent form stays near 1e-12, while the semigroup form at r != 2
# converges slowly at any density (the r-th power of a sum of exponentials
# branches near the real axis): up to 1e-7 at 10 and 7e-7 at 8 at r = 1.
_PER_DECADE = {"resolvent": 5, "semigroup": 8}
_SUP_PER_DECADE = 10  # of a p = inf window, whose vertex fit needs the finer step
# distance of each finite-r window end past the spectrum, relative to the
# eigenvalue scale there: the second-order tails neglect O(_TAIL_TOL^2)
_TAIL_TOL = 1e-5
# rows per chunk of by_rows, every batch norm's one chunker: a working array
# of 2.3 MB at 70 sigma nodes for r != 2; at r = 2 only the rows' squares
_BATCH_ROWS = 4096


def _order(alpha: float, m: int | None) -> int:
    """The integer power m of the norm, floor(alpha) + 1 unless given; any
    integer above alpha gives an equivalent norm."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"interpolation order must be finite and positive, got alpha={alpha}")
    if m is None:
        m = int(math.floor(alpha)) + 1
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"integer power m must be an integer >= 1, got m={m!r}")
    if not m > alpha:
        raise ValueError(f"integer power m={m} must exceed alpha={alpha}")
    return int(m)


def _log_grid(lo: float, hi: float, per_decade: int) -> tuple[np.ndarray, float]:
    """Nodes of the whole decades covering [lo, hi], per_decade to a decade,
    and their log-step."""
    a, b = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
    u = np.linspace(a, b, (b - a) * per_decade + 1) * math.log(10.0)
    return np.exp(u), u[1] - u[0]


def _grid_squares(sq: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """sum_k sq[:, k] * kernel[:, k], shape (batch, n), for a kernel of
    shape (n, dim).  A stack of one-row products: each row is the same
    product whatever the rest of its batch, which one BLAS product over
    the whole batch does not promise."""
    # a contiguous right factor keeps each product a plain BLAS call
    return np.matmul(sq[:, None, :], np.ascontiguousarray(kernel.T))[:, 0, :]


def _end_correction(slope: float, du: float) -> float:
    """What the trapezoid rule with step du misses, per unit of the end
    value, at an end beyond which the integrand decays like exp(-slope |u|):
    the Euler-Maclaurin series summed to all orders, (x coth x - 1) / slope
    with x = slope du / 2.  Its leading term is slope du^2 / 12."""
    x = 0.5 * slope * du
    return (x / math.tanh(x) - 1.0) / slope if slope > 0 else 0.0


def _power_integral(kernel, p: float, lo: float, hi: float, per_decade: int,
                    slopes: tuple[float, float], ends: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """The rule for the row integrals int_0^inf g(s)^p ds/s of
    g(s)^2 = sum_k sq[:, k] kernel(s)[..., k], as a function of the
    squares sq.  The trapezoid rule in log s covers the whole decades over
    [lo, hi].  Past them g^2 is x^{2 slopes[i] / p} (S0 + x S1), x = s at
    the low end and 1 / s at the high end, with the moments S0 and S1 the
    sums of sq against the two columns of ends[i] (ends[1] None: no high
    tail).  So g^p = A x^e + B x^{e+1} up to O(x^2), e = slopes[i],
    A = S0^{p/2} and B = (p/2) S0^{p/2-1} S1, and each power law gets its
    closed-form tail and its Euler-Maclaurin end correction.  The grid,
    the kernel and the moment columns are built once per rule and taken
    in one product per row.  At p = 2 every term is linear in the squares,
    so the rule contracts to one weight per component and a row costs dim
    products."""
    s, du = _log_grid(lo, hi, per_decade)
    grid = kernel(s)
    n = s.size
    moments, coefs = [], []  # per end: (S0, S1) columns, (A, B) coefficients
    for e, x, cols in zip(slopes, (float(s[0]), 1.0 / float(s[-1])), ends):
        if cols is not None:
            moments.extend(cols)
            coefs.append(tuple(x ** f * (1.0 / f + _end_correction(f, du)) for f in (e, e + 1.0)))
    if p == 2:
        w = du * (np.sum(grid, axis=0) - 0.5 * (grid[0] + grid[-1]))
        for (ca, cb), s0, s1 in zip(coefs, moments[::2], moments[1::2]):
            w += ca * s0 + cb * s1
        return lambda sq: np.sum(sq * w, axis=1)
    stacked = np.vstack([grid, *moments])
    half = 0.5 * p

    def integrate(sq):
        grand = _grid_squares(sq, stacked)
        g = grand[:, :n]
        g **= half
        total = du * (np.sum(g, axis=1) - 0.5 * (g[:, 0] + g[:, -1]))
        for i, (ca, cb) in enumerate(coefs):
            s0, s1 = grand[:, n + 2 * i], grand[:, n + 2 * i + 1]
            total += s0 ** half * (ca + half * cb * s1 / s0)
        return total

    return integrate


def _supremum(kernel, peaks: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The row suprema of the g of `_power_integral`, as a function of the
    squares, where every row peaks inside [min peaks, max peaks].  The
    window adds a decade of margin at each end, so each row's grid maximum
    is interior; the value is g at the vertex of the parabola through log g
    at that maximum and its two neighbours, and never below the grid
    maximum."""
    s, du = _log_grid(0.1 * np.min(peaks), 10.0 * np.max(peaks), _SUP_PER_DECADE)
    grid = kernel(s)

    def supremum(sq):
        grand = _grid_squares(sq, grid)  # g^2, which peaks where g does
        rows = np.arange(grand.shape[0])
        k = np.argmax(grand, axis=1)
        left, mid, right = (np.log(grand[rows, k + d]) for d in (-1, 0, 1))
        # mid is the maximum, so the curvature is <= 0; a flat top gives shift 0
        shift = 0.5 * (left - right) / np.minimum(left - 2.0 * mid + right, -1e-300)
        vertex = np.sum(sq * kernel(s[k] * np.exp(shift * du)), axis=1)
        return np.sqrt(np.maximum(grand[rows, k], vertex))

    return supremum


def _rule(op: MultiplierOperator, form: str, alpha: float, r: float,
          m: int) -> Callable[[np.ndarray], np.ndarray]:
    """The norms of rows in the resolvent or semigroup form as a function of
    their squares, for one operator and (alpha, r, m).  It depends on the
    eigenvalues alone, so it is built once and kept on the operator (3.5 kB
    at dim 6; the suites build at most 16 on one operator)."""
    key = (form, alpha, r, m)
    rule = op._rules.get(key)
    if rule is not None:
        return rule
    lam = op.eigenvalues
    if form == "resolvent":
        def kernel(sigma):  # sigma^{2 alpha} ||(A (sigma + A)^{-1})^m e_k||^2
            return (lam / np.add.outer(sigma, lam)) ** (2 * m) * (sigma ** (2.0 * alpha))[..., None]

        peaks = alpha * lam / (m - alpha)
        # the squared resolvent factors are 1 - 2 m sigma / lambda below the
        # spectrum and (lambda / sigma)^{2m} (1 - 2 m lambda / sigma) above it,
        # up to O(1e-10) at the window ends
        c = max(m * r, 1.0)
        window = (_TAIL_TOL * op.min_eigenvalue / c, op.max_eigenvalue * c / _TAIL_TOL)
        # a sum of (lambda / (sigma + lambda))^{2m} over distinct eigenvalues
        # has zeros nearer the real log-sigma axis as m grows, and g^r branches
        # there: a node more per decade for each power past 2 holds 1e-13
        per_decade = max(_PER_DECADE[form], m + 3)
        slopes = (alpha * r, (m - alpha) * r)
        ends = ((np.ones_like(lam), -2.0 * m / lam),
                (lam ** (2.0 * m), -2.0 * m * lam ** (2.0 * m + 1)))
    else:
        def kernel(t):  # t^{2 (m - alpha)} ||A^m exp(-tA) e_k||^2
            tl = np.multiply.outer(t, lam)
            return lam ** (2.0 * alpha) * (tl ** (m - alpha) * np.exp(-tl)) ** 2

        peaks = (m - alpha) / lam
        # below t_min the factors exp(-2 t lambda) are 1 - 2 t lambda up to
        # O(1e-10); past 46 / lambda_min every term is below exp(-46) ~ 1e-20
        window = (_TAIL_TOL / (r * op.max_eigenvalue), 46.0 / op.min_eigenvalue)
        per_decade = _PER_DECADE[form]
        slopes = ((m - alpha) * r, 0.0)
        ends = ((lam ** (2.0 * m), -2.0 * lam ** (2.0 * m + 1)), None)
    if math.isinf(r):
        rule = _supremum(kernel, peaks)
    else:
        integral = _power_integral(kernel, r, *window, per_decade, slopes, ends)

        def rule(sq):
            return integral(sq) ** (1.0 / r)

    op._rules[key] = rule
    return rule


def by_rows(norm, values) -> np.ndarray:
    """norm(rows) over the rows of values, shape (..., dim) -> (...), one
    chunk of _BATCH_ROWS rows at a time, so temporaries stay chunk sized;
    rows are independent, so chunking moves no value."""
    values = np.asarray(values)
    flat = values.reshape(-1, values.shape[-1])
    out = np.empty(flat.shape[0])
    for start in range(0, flat.shape[0], _BATCH_ROWS):
        out[start:start + _BATCH_ROWS] = norm(flat[start:start + _BATCH_ROWS])
    return out.reshape(values.shape[:-1])


def scaled_rows(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real rows, shape (batch, k), each scaled by the power of two 2^-e
    that brings its largest |entry| into [1/2, 1); the factors 2^e; and
    which rows are live, not all 0.  The scaling is exact, so a row's norm
    is the norm of its scaled row times 2^e.  Whatever the row's size, no
    square or power of a scaled entry overflows, and only entries
    negligible beside the largest underflow.  A row with a NaN is live and keeps its NaN.  A row
    with an infinite entry and no NaN is its infinite entries, as 1, times
    the factor inf."""
    # a maximum over short rows runs faster down the columns of the transpose
    peak = np.max(np.abs(parts.T, order="C"), axis=0)
    e = np.frexp(peak)[1]
    scaled = np.ldexp(parts, -e[:, None])
    scale = np.ldexp(1.0, e)
    infinite = np.isinf(peak)
    if infinite.any():
        scaled[infinite] = np.isinf(scaled[infinite])
        scale[infinite] = np.inf
    return scaled, scale, peak != 0


def _batch_norm(op: MultiplierOperator, form: str, alpha: float, r: float,
                values: np.ndarray, m: int | None) -> np.ndarray:
    """D_A(alpha, r) norms in either form of a batch of vectors, shape
    (..., dim) -> (...).  The rule depends on the operator alone, so a
    row's norm equals its norm computed alone, bitwise.  The rows go
    through it by_rows, each scaled by a power of two before it is squared
    (scaled_rows); a row of zeros has norm 0, a row with a NaN has norm
    NaN, and any other row with an infinite component has norm inf."""
    m = _order(alpha, m)
    if not r >= 1:
        raise ValueError(f"need r >= 1, got r={r}")
    vals = np.asarray(values, dtype=complex)
    if vals.shape[-1] != op.dim:
        raise ValueError("value dimension mismatch")
    norm = _rule(op, form, float(alpha), float(r), m)

    def live_norms(rows):
        # |y_k|^2 as re^2 + im^2 of the scaled real and imaginary parts
        parts, scale, live = scaled_rows(np.ascontiguousarray(rows).view(np.float64))
        parts *= parts
        sq = parts[:, 0::2] + parts[:, 1::2]
        if live.all():
            return norm(sq) * scale
        out = np.zeros(rows.shape[0])
        out[live] = norm(sq[live]) * scale[live]
        return out

    return by_rows(live_norms, vals)


def batch_interp_norm_resolvent(op: MultiplierOperator, alpha: float, r: float,
                                values: np.ndarray, m: int | None = None) -> np.ndarray:
    """Resolvent-form D_A(alpha, r) norms of a batch of vectors, shape
    (..., dim) -> (...); see `_batch_norm`."""
    return _batch_norm(op, "resolvent", alpha, r, values, m)


def interp_norm_resolvent(op: MultiplierOperator, alpha: float, p: float, x,
                          m: int | None = None) -> float:
    """D_A(alpha, p) norm of one vector x in the resolvent form: a batch of one."""
    return float(batch_interp_norm_resolvent(op, alpha, p, op._vec(x)[None, :], m)[0])


def interp_norm_semigroup(op: MultiplierOperator, alpha: float, p: float, x) -> float:
    """D_A(alpha, p) norm of one vector x in the semigroup form: a batch of one."""
    return float(_batch_norm(op, "semigroup", alpha, p, op._vec(x)[None, :], None)[0])


def closed_form_resolvent_norm(op: MultiplierOperator, alpha: float, p: float, x) -> float:
    """Beta-function closed form of the resolvent norm: exact for scalar
    operators at any p, and for diagonal ones at p = 2."""
    m = _order(alpha, None)
    v = op._vec(x)
    if op.dim == 1:
        lam = float(op.eigenvalues[0])
        return (lam ** alpha * _beta(alpha * p, (m - alpha) * p) ** (1.0 / p)
                * float(np.linalg.norm(v)))
    if p != 2:
        raise ValueError("diagonal closed form only collapses at p = 2")
    b = _beta(2.0 * alpha, 2.0 * (m - alpha))
    return float(math.sqrt(np.sum(np.abs(v) ** 2 * op.eigenvalues ** (2.0 * alpha) * b)))


def closed_form_semigroup_norm(op: MultiplierOperator, alpha: float, p: float, x) -> float:
    """Gamma-function closed form of the semigroup norm (scalar any p,
    diagonal at p = 2): lambda^alpha (Gamma((m-alpha)p) / p^{(m-alpha)p})^{1/p}."""
    m = _order(alpha, None)
    v = op._vec(x)
    e = (m - alpha) * p
    if op.dim == 1:
        lam = float(op.eigenvalues[0])
        return (lam ** alpha * math.exp((math.lgamma(e) - e * math.log(p)) / p)
                * float(np.linalg.norm(v)))
    if p != 2:
        raise ValueError("diagonal closed form only collapses at p = 2")
    g = math.exp(math.lgamma(e)) / p ** e
    return float(math.sqrt(np.sum(np.abs(v) ** 2 * op.eigenvalues ** (2.0 * alpha) * g)))


def reiteration_ratio(op: MultiplierOperator, alpha: float, theta: float, q: float,
                      x) -> float:
    """Ratio of two equivalent norms of D_A(theta * alpha, q): the resolvent
    form with the default power m against the same form with m + 1.

    For scalar operators the two are exactly proportional, so the ratio is
    constant in x; for diagonal ones it stays in a narrow window.
    """
    a = theta * alpha
    m = _order(a, None)
    n2 = interp_norm_resolvent(op, a, q, x, m + 1)
    if n2 == 0.0:
        return 1.0
    return interp_norm_resolvent(op, a, q, x, m) / n2
