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
of the pointwise ell^q, and weighted_lp_norm the L^p norm of its one
factor-1 copy.

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
every scale at once.  Those averages and ||f^(m)|| at the nodes, free of
s, p, q and gamma, are cached on f per (m, mesh, inner space), so every
other parameter set on the same function reduces the cached array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicSystem
from .grid import GridError, GridFunction, QuadratureMesh
from .operators import MultiplierOperator, batch_interp_norm_resolvent, by_rows

__all__ = [
    "ScalarInner",
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
# ---------------------------------------------------------------------


class ScalarInner:
    """C with the absolute value."""

    dim = 1
    key = ("scalar",)

    def batch_norm(self, values: np.ndarray) -> np.ndarray:
        return np.abs(values[..., 0])

    def __repr__(self):
        return "ScalarInner()"


class EuclideanInner:
    """C^dim with the Euclidean norm (the base space of diagonal operators)."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.key = ("euclidean", self.dim)

    def batch_norm(self, values: np.ndarray) -> np.ndarray:
        return by_rows(lambda rows: np.sqrt(np.sum(np.abs(rows) ** 2, axis=-1)), values)

    def __repr__(self):
        return f"EuclideanInner({self.dim})"


def default_inner(dim: int):
    """The inner space of a norm that names none: C for scalar values,
    Euclidean C^dim otherwise."""
    return ScalarInner() if dim == 1 else EuclideanInner(dim)


class WeightedEuclideanInner:
    """C^dim with ||diag(u) x||_2 for positive component weights u.  The
    geometric mean of two weight vectors gives the exact complex
    interpolation of the two norms."""

    def __init__(self, weights):
        u = np.atleast_1d(np.asarray(weights, dtype=float))
        if u.ndim != 1 or not np.all((u > 0) & np.isfinite(u)):
            raise ValueError("component weights must be finite and positive")
        self.weights = u
        self.weights.flags.writeable = False
        self.dim = u.size
        self.key = ("weighted-euclidean", tuple(u.tolist()))

    def geometric_mix(self, other: "WeightedEuclideanInner",
                      theta: float) -> "WeightedEuclideanInner":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return WeightedEuclideanInner(self.weights ** (1.0 - theta)
                                      * other.weights ** theta)

    def batch_norm(self, values: np.ndarray) -> np.ndarray:
        return by_rows(lambda rows: np.sqrt(np.sum(np.abs(rows * self.weights) ** 2, axis=-1)),
                        values)

    def __repr__(self):
        return f"WeightedEuclideanInner({np.array2string(self.weights, precision=6)})"


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


class SequenceBesovInner:
    """Closed-form sequence model of an inner Besov space B^t_{r,z}: the
    norm of (a_n)_{n=1..dim} is || (2^{t n} a_n)_n ||_{ell^z}.  The shared
    profile factor that the integrability r would contribute is normalized
    to 1, so the model does not depend on r."""

    def __init__(self, smoothness: float, summability: float, dim: int = 8):
        if not (math.isfinite(smoothness) and summability >= 1):
            raise ValueError(f"need finite t and z >= 1, got t={smoothness}, z={summability}")
        self.smoothness = float(smoothness)
        self.summability = float(summability)
        self.dim = int(dim)
        self._weights = 2.0 ** (smoothness * np.arange(1, dim + 1))
        self.key = ("sequence-besov", self.smoothness, self.summability, self.dim)

    def batch_norm(self, values: np.ndarray) -> np.ndarray:
        return by_rows(lambda rows: _lq_combine(np.abs(rows) * self._weights,
                                                 self.summability, axis=-1), values)

    def __repr__(self):
        return (f"SequenceBesovInner(t={self.smoothness}, z={self.summability}, "
                f"dim={self.dim})")


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
    B and F the dyadic symbols, and "Lp", the factor 1 of
    weighted_lp_norm.  Cached on f: node values per (bank, mesh),
    magnitudes per (bank, mesh, inner); the factors are built on f's
    active frequencies only on a miss.  A column that vanishes there gives
    a zero row and skips synthesis.  The mesh must span f's grid."""
    if mesh.half_width != f.grid.half_width:
        raise GridError(f"mesh half-width {mesh.half_width} != grid's {f.grid.half_width}")
    key = sys if kind in ("B", "F") else (kind, s)

    def magnitudes():
        xi = f.active_frequencies()
        if kind == "Lp":
            factors = np.ones((xi.size, 1))
        elif kind == "H":
            factors = ((1.0 + xi ** 2) ** (s / 2.0))[:, None]
        elif kind == "W":
            factors = np.stack([(2j * np.pi * xi) ** j for j in range(int(s) + 1)], 1)
        else:
            factors = sys.symbols(xi).T
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
    mesh = mesh or QuadratureMesh.for_function(f)
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

    The pointwise magnitude ||f(t)||_X of the factor-1 bank is sampled on
    the mesh nodes and its p-th power integrated exactly against |t|^gamma as
    a piecewise cubic.  p = inf returns the maximum of that cubic
    interpolant of the magnitude (weight-independent).
    """
    if not gamma > -1:
        raise GridError(f"power weight needs gamma > -1, got {gamma}")
    if not (p >= 1):
        raise GridError(f"integrability exponent must satisfy p >= 1, got {p}")
    mesh = mesh or QuadratureMesh.for_function(f)
    mags = _magnitudes(f, mesh, inner or default_inner(f.dim), "Lp")
    return float(mesh.lp_norm(mags[0], p, gamma, interval))


# ---------------------------------------------------------------------
# difference seminorm
# ---------------------------------------------------------------------

_N_SCALES = 60  # geometric scale grid t_0 = L/N < ... < t_59 = 2L


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _h_rule(t: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes h > 0 and weights W[h, j] with
    int_{-t_j}^{t_j} g(h) dh ~ sum_h W[h, j] (g(h) + g(-h)) at every scale
    t_j: Gauss-Legendre on the cells [0, t_0], [t_0, t_1], ..., a node
    counting at its own cell's scale and every larger one.  A cell of
    width w gets 2 + ceil(rate * w) nodes."""
    a = np.concatenate([[0.0], t[:-1]])
    counts = 2 + np.ceil(rate * (t - a)).astype(int)
    x, w = (np.concatenate(v) for v in zip(*(_leggauss(n) for n in counts)))
    cell = np.repeat(np.arange(t.size), counts)
    half = (0.5 * (t - a))[cell]
    h = (0.5 * (a + t))[cell] + half * x
    return h, np.where(cell[:, None] <= np.arange(t.size), (half * w)[:, None], 0.0)


def difference_seminorm(f: GridFunction, s: float, p: float, q: float, gamma: float,
                        m: int, inner=None) -> float:
    """Seminorm [f] built from m-th differences: the scale functional

        G(x) = ( int t^{-s q} ( t^{-1} int_{|h|<=t} ||Delta^m_h f(x)|| dh )^q
                 dt/t )^{1/q}

    over scales t in [L/N, 2L] plus the analytic t -> 0 tail, followed by
    the weighted L^p norm in x.  q = inf takes the scale supremum.
    """
    if not (float(m).is_integer() and m >= 1):
        raise ValueError(f"need an integer difference order m >= 1, got {m}")
    m = int(m)
    if not 0 < s < m:
        raise ValueError(f"need smoothness 0 < s < m, got s={s}, m={m}")
    if not (p >= 1):
        raise ValueError(f"need p >= 1, got {p}")
    if not (q >= 1):
        raise ValueError(f"need q >= 1, got {q}")
    if not gamma > -1:
        raise ValueError(f"need weight power gamma > -1, got gamma={gamma}")
    mesh = QuadratureMesh.for_function(f)
    inner = inner or default_inner(f.dim)
    L = f.grid.half_width
    t_min = L / f.grid.n_samples
    t = np.geomspace(t_min, 2.0 * L, _N_SCALES)

    def averages():
        # ||Delta^m_h f(x)|| oscillates in h at most at 2 m band.  One
        # synthesis serves f^(m), with coefficients (2 pi i xi_k)^m c_k, and
        # every Delta^m_h f, with coefficients (exp(2 pi i xi_k h) - 1)^m c_k
        h, cum = _h_rule(t, m * f.max_frequency)
        xi = f.active_frequencies()
        shifts = np.exp(2j * np.pi * np.multiply.outer(xi, np.concatenate([h, -h])))
        factors = np.column_stack([(2j * np.pi * xi) ** m, (shifts - 1.0) ** m])
        mags = inner.batch_norm(_multiplier_values(f, factors, mesh))
        plus, minus = mags[:, 1:h.size + 1], mags[:, h.size + 1:]
        return np.column_stack([mags[:, 0], (plus + minus) @ cum])

    # column 0 is ||f^(m)||, column j + 1 int_{|h|<=t_j} ||Delta^m_h f|| dh
    avg = f.cached(("diff", m, mesh.key, inner.key), averages)
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
        G = (core ** q @ wts + tail) ** (1.0 / q)

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
