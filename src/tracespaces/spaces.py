"""Weighted function-space norms over the periodic model.

For a band-limited f with values in an inner space X, a dyadic system
S_k, a power weight w(t) = |t|^gamma and smoothness s:

    Besov            B^s_{p,q}:  ell^q over k of 2^{s k} ||S_k f||_{L^p(w; X)}
    Triebel-Lizorkin F^s_{p,q}:  || ell^q over k of 2^{s k} ||S_k f(.)||_X ||_{L^p(w)}
    Bessel potential H^{s,p}:    multiply coefficients by (1 + xi^2)^{s/2}, take L^p(w; X)
    Sobolev          W^{m,p}:    sum_{j<=m} ||f^(j)||_{L^p(w; X)} (spectral derivatives)

and the plain norm ||f||_{L^p(w; X)}, whose one path is weighted_lp_norm.
Every norm is one filter bank, whose magnitudes are synthesized once per
mesh and cached on f, and one reduction: B, H and W take the ell^q over
the copies of their weighted L^p norms (q = 1 but for B), F the L^p norm
of the pointwise ell^q, and weighted_lp_norm the L^p norm of the one copy
of the W bank at s = 0, whose factor is 1.

B^s_{p,p} and F^s_{p,p} are evaluated as the same weighted double sum over
(block, node) in two association orders, so they agree to float rounding.
The pointwise ell^q of the F-norm is taken at quadrature nodes only; the
quadrature then integrates the piecewise-cubic interpolant exactly against
the weight.

The smoothness seminorm built from m-th order differences

    Delta^m_h f(x) = sum_l binom(m, l) (-1)^l f(x + (m - l) h)

uses the scale integral over t in [t_min, 2L] (geometric grid, t_min = L/N)
with the analytic t -> 0 tail appended from Delta^m_h f ~ h^m f^(m), so the
computed value is stable under halving t_min.  Every q takes one h-rule:
Gauss-Legendre cells [0, t_0], [t_0, t_1], ... between the scales, sized
by the band, whose running sums give int_{|h|<=t} ||Delta^m_h f|| dh at
every scale at once.  The h-rule holds no coefficients: f's mesh keeps
it per (grid, m, m x band), so every function of that band shares one.
The multipliers of f^(m) and Delta^m_h f are built and synthesized in
chunks of h-nodes of a fixed byte budget, but at least eight, so the
memory grows with the mesh, not with mesh x h-nodes.  Those averages and
||f^(m)|| at the nodes, free of s, p, q and gamma, are cached on f per
(m, mesh, inner space), so every other parameter set on the same
function reduces the cached array.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicSystem
from .grid import GridError, GridFunction, GridSpec, QuadratureMesh, _blocked_product
from .operators import MultiplierOperator, batch_interp_norm_resolvent, by_rows, scaled_rows

__all__ = [
    "ScalarInner",
    "WeightedSequenceInner",
    "EuclideanInner",
    "WeightedEuclideanInner",
    "InterpNormInner",
    "SequenceBesovInner",
    "SpaceSpec",
    "space_norm",
    "weighted_lp_norm",
    "difference_seminorm",
    "norm_equivalence_ratio",
]


# ---------------------------------------------------------------------
# inner spaces: batchable norms on C^dim values.  An inner space is
# immutable and carries `dim`, `batch_norm` and a hashable `key` of its
# exact defining values; cached norm magnitudes are keyed by it.
# batch_norm maps values of shape (..., dim) to norms of shape (...).
# One class, WeightedSequenceInner, computes every weighted ell^z norm:
# the scalar, Euclidean, weighted Euclidean and sequence-Besov spaces are
# its constructors.  InterpNormInner takes its norms from `operators`.
# ---------------------------------------------------------------------


class WeightedSequenceInner:
    """C^dim with || (w_n a_n)_n ||_{ell^z} for finite positive component
    weights w and z >= 1.  Each row of magnitudes |w_n a_n| is scaled by
    the power of two of operators.scaled_rows, its ell^z taken, and the
    scale multiplied back, so the norm is homogeneous from the smallest
    floats to the largest.  At one z, the geometric mean of two weight
    vectors gives the exact complex interpolation of the two norms.  At
    dim 1 the norm is |a| w, with no product at w = 1."""

    def __init__(self, weights, z: float = 2.0):
        u = np.array(weights, dtype=float, ndmin=1)  # a copy: the caller's stays writable
        if u.ndim != 1 or not np.all((u > 0) & np.isfinite(u)):
            raise ValueError(f"component weights must be finite and positive, got {u}")
        if not z >= 1:
            raise ValueError(f"need z >= 1, got z={z}")
        self.weights = u
        self.weights.flags.writeable = False
        self.z = float(z)
        self.dim = u.size
        self.key = ("weighted-sequence", tuple(u.tolist()), self.z)
        self._unit = bool(np.all(u == 1.0))  # rows * 1 is rows: skip the product

    def geometric_mix(self, other: "WeightedSequenceInner",
                      theta: float) -> "WeightedSequenceInner":
        if other.dim != self.dim or other.z != self.z:
            raise ValueError("dimension or summability mismatch")
        return WeightedSequenceInner(self.weights ** (1.0 - theta)
                                     * other.weights ** theta, self.z)

    def _norms(self, rows: np.ndarray) -> np.ndarray:
        scaled, scale, _ = scaled_rows(np.abs(rows if self._unit else rows * self.weights))
        return _lq_combine(scaled, self.z, axis=1) * scale

    def batch_norm(self, values: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            mags = np.abs(values[..., 0])
            return mags if self._unit else mags * self.weights[0]
        return by_rows(self._norms, values)

    def __repr__(self):
        return (f"WeightedSequenceInner({np.array2string(self.weights, precision=6)}, "
                f"z={self.z})")


class ScalarInner(WeightedSequenceInner):
    """C with the absolute value: the Euclidean space of dim 1."""

    def __init__(self):
        super().__init__(np.ones(1))


class EuclideanInner(WeightedSequenceInner):
    """C^dim with the Euclidean norm (the base space of diagonal operators)."""

    def __init__(self, dim: int):
        super().__init__(np.ones(int(dim)))


class WeightedEuclideanInner(WeightedSequenceInner):
    """C^dim with ||diag(u) x||_2 for positive component weights u."""

    def __init__(self, weights):
        super().__init__(weights)


class SequenceBesovInner(WeightedSequenceInner):
    """Closed-form sequence model of an inner Besov space B^t_{r,z}: the
    norm of (a_n)_{n=1..dim} is || (2^{t n} a_n)_n ||_{ell^z}.  The shared
    profile factor that the integrability r would contribute is normalized
    to 1, so the model does not depend on r."""

    def __init__(self, smoothness: float, summability: float, dim: int = 8):
        super().__init__(2.0 ** (smoothness * np.arange(1, int(dim) + 1)), summability)


@functools.lru_cache(maxsize=None)
def default_inner(dim: int):
    """The inner space of a norm that names none, Euclidean C^dim (C with
    the absolute value at dim 1); inner spaces are immutable, so one per
    dim serves every norm."""
    return EuclideanInner(dim)


class InterpNormInner:
    """Real-interpolation space D_A(alpha, r) in the resolvent form."""

    def __init__(self, op: MultiplierOperator, alpha: float, r: float):
        if not 0 < alpha < math.inf:
            raise ValueError("interpolation order must be finite and positive")
        if not r >= 1:
            raise ValueError(f"need r >= 1, got r={r}")
        self.op = op
        self.alpha = float(alpha)
        self.r = float(r)
        self.dim = op.dim
        self.key = ("interp", tuple(op.eigenvalues.tolist()), self.alpha, self.r)

    def batch_norm(self, values: np.ndarray) -> np.ndarray:
        return batch_interp_norm_resolvent(self.op, self.alpha, self.r, values)

    def __repr__(self):
        return f"InterpNormInner({self.op!r}, alpha={self.alpha}, r={self.r})"


# ---------------------------------------------------------------------
# space specification and norms
# ---------------------------------------------------------------------

_KINDS = ("B", "F", "H", "W")


@dataclass(frozen=True)
class SpaceSpec:
    """A weighted space on the line: kind in {B, F, H, W}, smoothness s,
    integrability p, microscopic q (B/F only), weight power gamma, and the
    inner space (None = scalar/Euclidean by value dimension)."""

    kind: str
    s: float = 0.0
    p: float = 2.0
    q: float = 2.0
    gamma: float = 0.0
    inner: object | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.s):
            raise ValueError(f"smoothness must be finite, got s={self.s}")
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"integrability must satisfy 1 < p < inf, got {self.p}")
        if self.kind in ("B", "F") and not (1.0 <= self.q):
            raise ValueError(f"microscopic parameter must satisfy q >= 1, got {self.q}")
        if not self.gamma > -1:
            raise ValueError(f"weight power must exceed -1, got gamma={self.gamma}")
        if self.kind == "W" and (self.s < 0 or self.s != int(self.s)):
            raise ValueError(f"W-spaces need integer smoothness >= 0, got {self.s}")


def _lq_combine(arr: np.ndarray, q: float, axis: int = 0) -> np.ndarray:
    if math.isinf(q):
        return np.max(arr, axis=axis)
    return np.sum(arr ** q, axis=axis) ** (1.0 / q)


def _multiplier_values(f: GridFunction, factors: np.ndarray,
                       mesh: QuadratureMesh) -> np.ndarray:
    """(n_nodes, n_filters, dim) node values of the filtered copies of f:
    copy j has coefficients factors[:, j] * c_k over f's active bins.

    Every Fourier multiplier a norm applies (dyadic blocks, the potential
    symbol, derivatives, differences) goes through this one stacked
    synthesis.
    """
    active = f.active_indices
    bank = factors[:, :, None] * f.coeffs[active][:, None, :]
    vals = mesh.synthesize(f.grid, active, bank.reshape(active.size, factors.shape[1] * f.dim))
    return vals.reshape(mesh.nodes.size, factors.shape[1], f.dim)


def _magnitudes(f: GridFunction, mesh: QuadratureMesh, inner, kind: str, s: float = 0.0,
                sys: DyadicSystem | None = None) -> np.ndarray:
    """(n_filters, n_nodes) array of ||copy_j f(node)||_X over the filter
    bank of a norm kind: H (1 + xi^2)^{s/2}, W (2 pi i xi)^j for j <= s,
    whose bank at s = 0 is the one factor 1 of weighted_lp_norm, and B and
    F the dyadic symbols.  Cached on f: node values per (bank, mesh),
    magnitudes per (bank, mesh, inner); the factors are built on f's
    active frequencies only on a miss.  A column that vanishes there gives
    a zero row and skips synthesis.  The mesh must span f's grid, or
    synthesis raises a GridError."""
    key = sys if kind in ("B", "F") else (kind, s)

    def magnitudes():
        xi = f.active_frequencies()
        if kind == "H":
            factors = ((1.0 + xi ** 2) ** (s / 2.0))[:, None]
        elif kind == "W":
            factors = np.stack([(2j * np.pi * xi) ** j for j in range(int(s) + 1)], 1)
        else:
            factors = sys.grid_symbols(f.grid)[:, f.active_indices].T
        live = np.flatnonzero(np.any(factors != 0.0, axis=0))
        vals = f.cached(("bank", key, mesh.key),
                        lambda: _multiplier_values(f, factors[:, live], mesh))
        mags = np.zeros((factors.shape[1], mesh.nodes.size))
        mags[live] = inner.batch_norm(vals).T
        return mags

    return f.cached(("mags", key, mesh.key, inner.key), magnitudes)


def space_norm(f: GridFunction, spec: SpaceSpec, sys: DyadicSystem | None = None,
               mesh: QuadratureMesh | None = None) -> float:
    """Norm of f in the space described by spec.

    B/F kinds take their blocks from DyadicSystem.for_grid(f.grid) unless
    a system is passed, which must cover f's band; the H multiplier and W
    derivatives act exactly on coefficients.
    """
    inner = spec.inner or default_inner(f.dim)
    if getattr(inner, "dim", f.dim) != f.dim:
        raise GridError(f"inner space dimension {inner.dim} != value dimension {f.dim}")
    if spec.kind in ("B", "F"):
        if sys is None:
            sys = DyadicSystem.for_grid(f.grid)
        if not sys.covers(f.max_frequency):
            raise GridError(
                f"dyadic system with max block {sys.max_block} does not cover the "
                f"band |xi| <= {f.max_frequency}")
    mesh = mesh or f.mesh
    p, gamma = spec.p, spec.gamma
    mags = _magnitudes(f, mesh, inner, spec.kind, spec.s, sys)
    scales = 2.0 ** (spec.s * np.arange(mags.shape[0]))  # dyadic weights of B and F

    if spec.kind == "F":
        return float(mesh.lp_norm(_lq_combine(scales[:, None] * mags, spec.q), p, gamma))
    norms = mesh.lp_norm(mags, p, gamma)
    if spec.kind == "B":
        return float(_lq_combine(scales * norms, spec.q))
    return float(np.sum(norms))


def weighted_lp_norm(f: GridFunction, p: float, gamma: float,
                     mesh: QuadratureMesh | None = None, inner=None,
                     interval: tuple[float, float] | None = None) -> float:
    """|| f ||_{L^p(|t|^gamma dt; X)} on [-L, L] (or on a subinterval).

    The pointwise magnitude ||f(t)||_X of the W bank at s = 0, (2 pi i xi)^0
    = 1, is sampled on the mesh nodes and its p-th power integrated exactly
    against |t|^gamma as a piecewise cubic.  p = inf returns the maximum of
    that cubic interpolant of the magnitude (weight-independent).
    """
    if not gamma > -1:
        raise GridError(f"power weight needs gamma > -1, got {gamma}")
    if not (p >= 1):
        raise GridError(f"integrability exponent must satisfy p >= 1, got {p}")
    mesh = mesh or f.mesh
    mags = _magnitudes(f, mesh, inner or default_inner(f.dim), "W")
    return float(mesh.lp_norm(mags[0], p, gamma, interval))


# ---------------------------------------------------------------------
# difference seminorm
# ---------------------------------------------------------------------

_N_SCALES = 60  # geometric scale grid t_0 = L/N < ... < t_59 = 2L

# The largest block of node values one synthesis of the seminorm writes,
# in bytes: its h-columns go through `synthesize` in chunks of this size,
# so the seminorm's memory grows with nodes x chunk, not nodes x h-nodes.
# 4 MiB holds the pinned config's whole set of columns (289 nodes x 399
# columns, 1.8 MiB) in one chunk.
_BLOCK_BYTES = 4 * 2**20

# The fewest h-nodes in a chunk, past _BLOCK_BYTES if need be: each FFT of
# a large mesh's period has a fixed cost that more columns share.  At L =
# 400, N = 8192 (73729 nodes) the budget holds one h-node; with eight (19
# MB a chunk), one m = 1 draw of _delta_averages (4250 h-nodes) took
# 29.0-31.3 s at two BLAS threads, not 35.1-37.5 s, and 33.3-33.9 s at one,
# not 32.5-35.8 s, at 175 MB peak RSS, not 118 MB.
_MIN_CHUNK_H = 8


def _h_rule(t: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes h > 0 and weights W[h, j] with
    int_{-t_j}^{t_j} g(h) dh ~ sum_h W[h, j] (g(h) + g(-h)) at every scale
    t_j: Gauss-Legendre on the cells [0, t_0], [t_0, t_1], ..., a node
    counting at its own cell's scale and every larger one.  A cell of
    width w gets 2 + ceil(rate * w) nodes."""
    a = np.concatenate([[0.0], t[:-1]])
    counts = 2 + np.ceil(rate * (t - a)).astype(int)
    rules = [np.polynomial.legendre.leggauss(n) for n in counts]
    x, w = (np.concatenate(v) for v in zip(*rules))
    cell = np.repeat(np.arange(t.size), counts)
    half = (0.5 * (t - a))[cell]
    h = (0.5 * (a + t))[cell] + half * x
    return h, np.where(cell[:, None] <= np.arange(t.size), (half * w)[:, None], 0.0)


def _scales(grid: GridSpec) -> np.ndarray:
    L = grid.half_width
    return np.geomspace(L / grid.n_samples, 2.0 * L, _N_SCALES)


def _delta_averages(f: GridFunction, m: int, mesh: QuadratureMesh, inner) -> np.ndarray:
    """(nodes, 1 + scales) array: column 0 is ||f^(m)||, column j + 1
    int_{|h|<=t_j} ||Delta^m_h f|| dh.  The difference factors
    (exp(+-2 pi i xi h) - 1)^m are built and synthesized in chunks of at
    most _BLOCK_BYTES of node values and at least _MIN_CHUNK_H h-nodes, the
    first with the derivative column, and each chunk's h-integrals, one
    blocked real product (grid._blocked_product), are added into the
    averages at the scales from its first h-node's cell on, below which its
    weights are zero."""
    rate = m * f.max_frequency  # ||Delta^m_h f(x)|| oscillates in h at most at 2 m band
    hs, cum = mesh.cached(("h-rule", f.grid, m, rate), lambda: _h_rule(_scales(f.grid), rate))
    xi = f.active_frequencies()
    per_column = 16 * mesh.nodes.size * f.dim
    width = max((_BLOCK_BYTES // per_column - 1) // 2, _MIN_CHUNK_H)  # h-nodes per chunk
    avg = np.zeros((mesh.nodes.size, 1 + cum.shape[1]))
    for start in range(0, hs.size, width):
        cols = slice(start, start + width)
        h = hs[cols]
        # h ascends by cell, so every weight of the chunk below its first
        # row's first nonzero scale (that row's cell) is zero
        low = int(np.flatnonzero(cum[start])[0])
        plus = (np.exp(2j * np.pi * np.multiply.outer(xi, h)) - 1.0) ** m
        minus = plus.conj()  # xi and h are real
        first = start == 0
        factors = np.column_stack([(2j * np.pi * xi) ** m, plus, minus] if first
                                  else [plus, minus])
        mags = inner.batch_norm(_multiplier_values(f, factors, mesh))
        if first:
            avg[:, 0], mags = mags[:, 0], mags[:, 1:]
        avg[:, 1 + low:] += _blocked_product(mags[:, :h.size] + mags[:, h.size:], cum[cols, low:])
    return avg


def difference_seminorm(f: GridFunction, s: float, p: float, q: float, gamma: float,
                        m: int, inner=None) -> float:
    """Seminorm [f] built from m-th differences: the scale functional

        G(x) = ( int t^{-s q} ( t^{-1} int_{|h|<=t} ||Delta^m_h f(x)|| dh )^q
                 dt/t )^{1/q}

    over scales t in [L/N, 2L] plus the analytic t -> 0 tail, followed by
    the weighted L^p norm in x.  q = inf takes the scale supremum.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"need an integer difference order m >= 1, got {m!r}")
    m = int(m)
    if not 0 < s < m:
        raise ValueError(f"need smoothness 0 < s < m, got s={s}, m={m}")
    if not (p >= 1):
        raise ValueError(f"need p >= 1, got {p}")
    if not (q >= 1):
        raise ValueError(f"need q >= 1, got {q}")
    if not gamma > -1:
        raise ValueError(f"need weight power gamma > -1, got gamma={gamma}")
    mesh = f.mesh
    inner = inner or default_inner(f.dim)
    t = _scales(f.grid)
    t_min = t[0]

    # column 0 is ||f^(m)||, column j + 1 int_{|h|<=t_j} ||Delta^m_h f|| dh
    avg = f.cached(("diff", m, mesh.key, inner.key),
                   lambda: _delta_averages(f, m, mesh, inner))
    dmag = avg[:, 0]
    # the averaged core t^{-s} (t^{-1} int_{|h|<=t} ||Delta^m_h f|| dh)
    core = t ** (-s - 1.0) * avg[:, 1:]
    # analytic tail below t_min from Delta^m_h f ~ h^m f^(m):
    # inner average ~ (2/(m+1)) t^m |f^(m)(x)|
    tail_coeff = 2.0 / (m + 1.0)
    if math.isinf(q):
        tail = tail_coeff * t_min ** (m - s) * dmag
        G = np.maximum(np.max(core, axis=1), tail)
    else:
        wts = np.full(t.size, math.log(t[1] / t[0]))
        wts[0] *= 0.5
        wts[-1] *= 0.5
        tail = (tail_coeff * dmag) ** q * t_min ** ((m - s) * q) / ((m - s) * q)
        # summed in numpy's fixed order: a BLAS product's order follows the
        # thread count past about 10^4 nodes
        G = (np.sum(core ** q * wts, axis=-1) + tail) ** (1.0 / q)

    return float(mesh.lp_norm(G, p, gamma))


def norm_equivalence_ratio(f: GridFunction, spec: SpaceSpec, m: int) -> float:
    """(weighted L^p norm + difference seminorm) / space norm: the computable
    stand-in for the equivalence of the difference characterization with the
    dyadic norm on the blocks of f's grid.  Tracked as a ratio window, not
    an absolute constant."""
    if spec.kind != "F":
        raise ValueError("the difference characterization is tracked on the F-scale")
    lp = weighted_lp_norm(f, spec.p, spec.gamma, inner=spec.inner)
    semi = difference_seminorm(f, spec.s, spec.p, spec.q, spec.gamma, m, inner=spec.inner)
    dyadic_norm = space_norm(f, spec)
    if dyadic_norm == 0.0:
        raise ValueError("zero function has no equivalence ratio")
    return (lp + semi) / dyadic_norm
