"""Embedding and interpolation inequalities between weighted spaces.

Three families of executable statements:

* Weight-trading embeddings F/B^{s0}_{p0,q0}(|t|^{gamma0}) into
  F/B^{s1}_{p1,q1}(|t|^{gamma1}) along the invariance line
  s0 - (1+gamma0)/p0 = s1 - (1+gamma1)/p1 with p0 <= p1 and
  gamma0/p0 >= gamma1/p1.  On the F-scale the microscopic parameters are
  unconstrained; on the B-scale q must not decrease.

* The mixed-derivative estimate: with 1/p = (1-theta)/p0 + theta/p1 (same
  for q, and gamma/p interpolating likewise),

    ||f||_{A^{s+(1-theta)alpha}_{p,q}(w_gamma; X_theta)}
        <= C ||f||^{1-theta}_{A^{s+alpha}_{p0,q0}(w_{gamma0}; X_0)}
             ||f||^{theta}_{A^{s}_{p1,q1}(w_{gamma1}; X_1)}.

  Every parameter, theta included, is held once, as an exact Fraction,
  by MixedDerivativeParams; q = inf is rejected.  When gamma0 = gamma1
  every norm is a sum over the same weighted nodes and blocks, so the
  outer inequality is literal Hoelder with constant 1 and C reduces to
  the inner-space constant of the triple (X_0, X_1, X_theta), which
  mixed_derivative_check computes at the parameters' theta.  For
  weighted-Euclidean triples that constant is computed by maximizing over
  coordinate pairs, which suffices at stationarity for weights in general
  position (the test oracle samples the full simplex).

* The divergence witness against mixed-scale embeddings: lacunary
  sequences whose target ell^u and source ell^q norms separate by the
  factor N^{1/u - 1/q}, blocking any embedding that would need u >= q.

No check takes a dyadic system or a mesh: each norm of f uses the
blocks of f's grid (DyadicSystem.for_grid) and f's own mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spaces import SpaceSpec, WeightedEuclideanInner, _lq_combine, space_norm

__all__ = [
    "EMBEDDING_EXAMPLE_PAIRS",
    "validate_embedding_pair",
    "sobolev_embed_ratio",
    "MixedDerivativeParams",
    "diagonal_holder_constant",
    "mixed_derivative_check",
    "counterexample_norms",
    "q_monotonicity_check",
    "bf_sandwich_check",
    "sandwich_ratios",
]


# ---------------------------------------------------------------------
# weight-trading embeddings
# ---------------------------------------------------------------------


# reference pairs on the invariance line s - (1+gamma)/p = const:
# a pure weight trade at fixed p with the microscopic parameter dropping
# from inf to 1, an unweighted integrability trade, and a B-scale trade
# moving weight, integrability and q together
EMBEDDING_EXAMPLE_PAIRS = (
    (SpaceSpec("F", 1.0, 2.0, math.inf, 1.0), SpaceSpec("F", 0.5, 2.0, 1.0, 0.0)),
    (SpaceSpec("F", 1.0, 2.0, 2.0, 0.0), SpaceSpec("F", 0.75, 4.0, 2.0, 0.0)),
    (SpaceSpec("B", 1.0, 2.0, 1.0, 0.5), SpaceSpec("B", 7.0 / 12.0, 3.0, 2.0, 0.0)),
)


_LINE_TOL = 1e-12  # slack of the float comparisons in validate_embedding_pair


def validate_embedding_pair(src: SpaceSpec, dst: SpaceSpec) -> None:
    """Raise unless (src, dst) sit on the sharp embedding line."""
    if src.kind != dst.kind or src.kind not in ("B", "F"):
        raise ValueError("embedding pairs must share a B or F kind")
    if not src.p <= dst.p:
        raise ValueError(f"integrability cannot drop: p0={src.p} > p1={dst.p}")
    if src.gamma / src.p < dst.gamma / dst.p - _LINE_TOL:
        raise ValueError(
            f"need gamma0/p0 >= gamma1/p1, got {src.gamma / src.p:g} < "
            f"{dst.gamma / dst.p:g}")
    lhs = src.s - (1.0 + src.gamma) / src.p
    rhs = dst.s - (1.0 + dst.gamma) / dst.p
    if abs(lhs - rhs) > _LINE_TOL:
        raise ValueError(
            f"off the invariance line: s0-(1+gamma0)/p0 = {lhs:g} but "
            f"s1-(1+gamma1)/p1 = {rhs:g}")
    if not src.s > dst.s:
        raise ValueError(f"need s0 > s1, got s0={src.s}, s1={dst.s}")
    if src.kind == "B" and src.q > dst.q:
        raise ValueError("on the B-scale the microscopic parameter cannot drop")


def sobolev_embed_ratio(f, src: SpaceSpec, dst: SpaceSpec) -> dict:
    """||f||_dst / ||f||_src for a validated embedding pair."""
    validate_embedding_pair(src, dst)
    src_norm = space_norm(f, src)
    dst_norm = space_norm(f, dst)
    if src_norm == 0.0:
        raise ValueError("zero function has no embedding ratio")
    return {"src_norm": src_norm, "dst_norm": dst_norm,
            "ratio": dst_norm / src_norm}


# ---------------------------------------------------------------------
# mixed-derivative estimate
# ---------------------------------------------------------------------


def _as_frac(x, name: str) -> Fraction:
    if isinstance(x, float) and math.isinf(x):
        raise ValueError(f"{name} must be finite")
    return Fraction(x)


def _recip_mix(theta: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """x with 1/x = (1-theta)/a + theta/b."""
    return 1 / ((1 - theta) / a + theta / b)


@dataclass(frozen=True)
class MixedDerivativeParams:
    """Exact parameter bookkeeping for the mixed-derivative estimate.

    Every parameter is held as a finite Fraction, and the interpolated
    exponents p, q, gamma are derived in rational arithmetic, so the target
    space is exactly on the interpolation segment.
    """

    kind: str
    s: Fraction
    alpha: Fraction
    theta: Fraction
    p0: Fraction
    q0: Fraction
    gamma0: Fraction
    p1: Fraction
    q1: Fraction
    gamma1: Fraction

    def __post_init__(self):
        for name in ("s", "alpha", "theta", "p0", "q0", "gamma0", "p1", "q1", "gamma1"):
            object.__setattr__(self, name, _as_frac(getattr(self, name), name))
        if self.kind not in ("B", "F"):
            raise ValueError("kind must be 'B' or 'F'")
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for name in ("p0", "p1"):
            if getattr(self, name) <= 1:
                raise ValueError(f"{name} must exceed 1")
        for name in ("q0", "q1"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("gamma0", "gamma1"):
            if getattr(self, name) <= -1:
                raise ValueError(f"{name} must exceed -1")

    @property
    def p(self) -> Fraction:
        return _recip_mix(self.theta, self.p0, self.p1)

    @property
    def q(self) -> Fraction:
        return _recip_mix(self.theta, self.q0, self.q1)

    @property
    def gamma(self) -> Fraction:
        mix = (1 - self.theta) * self.gamma0 / self.p0 + self.theta * self.gamma1 / self.p1
        return self.p * mix

    @property
    def target_smoothness(self) -> Fraction:
        return self.s + (1 - self.theta) * self.alpha

    def target_spec(self, inner=None) -> SpaceSpec:
        return SpaceSpec(self.kind, float(self.target_smoothness), float(self.p),
                         float(self.q), float(self.gamma), inner=inner)

    def source0_spec(self, inner=None) -> SpaceSpec:
        return SpaceSpec(self.kind, float(self.s + self.alpha), float(self.p0),
                         float(self.q0), float(self.gamma0), inner=inner)

    def source1_spec(self, inner=None) -> SpaceSpec:
        return SpaceSpec(self.kind, float(self.s), float(self.p1),
                         float(self.q1), float(self.gamma1), inner=inner)


def diagonal_holder_constant(inner0: WeightedEuclideanInner,
                             inner1: WeightedEuclideanInner,
                             inner_theta: WeightedEuclideanInner,
                             theta: float) -> float:
    """Smallest C with ||x||_theta <= C ||x||_0^{1-theta} ||x||_1^{theta}
    over x != 0, for three diagonal weights.

    In squared-magnitude coordinates the ratio is linear over a geometric
    mean of two linear forms; a stationary point on the simplex pins the
    active weights to a two-parameter linear family, so for weights in
    general position at most two coordinates carry an interior maximum.
    Candidates: all axes exactly, all coordinate pairs on an 801-point
    segment grid.
    """
    a = inner_theta.weights ** 2
    b = inner0.weights ** 2
    c = inner1.weights ** 2
    if not (a.size == b.size == c.size):
        raise ValueError("dimension mismatch")
    best = float(np.max(a / (b ** (1.0 - theta) * c ** theta)))
    n = a.size
    if n > 1:
        iu, ju = np.triu_indices(n, k=1)
        tau = np.linspace(0.0, 1.0, 801)[None, :]
        na = a[iu, None] * tau + a[ju, None] * (1.0 - tau)
        nb = b[iu, None] * tau + b[ju, None] * (1.0 - tau)
        nc = c[iu, None] * tau + c[ju, None] * (1.0 - tau)
        best = max(best, float(np.max(na / (nb ** (1.0 - theta) * nc ** theta))))
    return math.sqrt(best)


def mixed_derivative_check(f, params: MixedDerivativeParams, inners) -> dict:
    """Evaluate both sides of the mixed-derivative estimate on f, for inner
    spaces inners = (X_0, X_1, X_theta) at the parameters' theta.

    The constant is the pointwise one of the inner triple,
    diagonal_holder_constant(X_0, X_1, X_theta, theta); with equal weights
    the outer step is exact discrete Hoelder.
    """
    inner0, inner1, inner_theta = inners
    theta = float(params.theta)
    constant = diagonal_holder_constant(inner0, inner1, inner_theta, theta)
    lhs = space_norm(f, params.target_spec(inner_theta))
    n0 = space_norm(f, params.source0_spec(inner0))
    n1 = space_norm(f, params.source1_spec(inner1))
    rhs = constant * n0 ** (1.0 - theta) * n1 ** theta
    return {"lhs": lhs, "factor0": n0, "factor1": n1, "constant": constant, "rhs": rhs}


# ---------------------------------------------------------------------
# divergence witness
# ---------------------------------------------------------------------


def counterexample_norms(coefficients, u: float, q: float) -> dict:
    """Target and source norms of a lacunary block sequence.

    Blocks sit at scale ratio 2; both source norms share the weighted
    ell^q sum with weight 2^j on block j, while the would-be target needs
    the same sum in ell^u.  The common profile factor is normalized to 1.
    For u < q the ratio grows like N^{1/u - 1/q} in the number of active
    blocks, so no embedding into the ell^u side can hold; u >= q is
    rejected because nothing diverges there.
    """
    if not u >= 1:
        raise ValueError(f"need u >= 1, got {u}")
    if not u < q:
        raise ValueError(f"divergence needs u < q, got u={u}, q={q}")
    a = np.abs(np.asarray(coefficients, dtype=complex))
    if a.ndim != 1 or a.size == 0 or not np.any(a > 0) or not np.all(np.isfinite(a)):
        raise ValueError("need a nonzero finite 1-d coefficient sequence")
    seq = 2.0 ** np.arange(1, a.size + 1) * a
    target = float(_lq_combine(seq, u))
    source = float(_lq_combine(seq, q))
    return {"target": target, "source": source, "ratio": target / source}


# ---------------------------------------------------------------------
# elementary comparisons on a fixed grid
# ---------------------------------------------------------------------


def q_monotonicity_check(f, kind: str, s: float, p: float, gamma: float,
                         q_values) -> dict:
    """Norms at increasing q, which never increase: with shared nodes and
    weights this holds term by term, so up to rounding."""
    qs = sorted(float(q) for q in q_values)
    norms = [space_norm(f, SpaceSpec(kind, s, p, q, gamma)) for q in qs]
    return {"q_values": qs, "norms": norms}


def bf_sandwich_check(f, s: float, p: float, q: float, gamma: float) -> dict:
    """The three norms of B^s_{p, min(p,q)} >= F^s_{p,q} >= B^s_{p, max(p,q)},
    which hold with constant 1: on shared nodes both steps are literal
    Minkowski/monotonicity, so up to rounding."""
    fn = space_norm(f, SpaceSpec("F", s, p, q, gamma))
    b_small = space_norm(f, SpaceSpec("B", s, p, min(p, q), gamma))
    b_large = space_norm(f, SpaceSpec("B", s, p, max(p, q), gamma))
    return {"f_norm": fn, "b_small_q": b_small, "b_large_q": b_large}


def sandwich_ratios(f, spec: SpaceSpec) -> dict:
    """Ratios placing the H or W space of spec between F^s_{p,1} and
    F^s_{p,inf}: ratio_in = norm/F_1 and ratio_out = F_inf/norm are the two
    embedding constants, tracked against pinned baselines."""
    if spec.kind not in ("H", "W"):
        raise ValueError(f"sandwich ratios place H or W spaces, got {spec.kind!r}")
    norm = space_norm(f, spec)
    f1 = space_norm(f, SpaceSpec("F", spec.s, spec.p, 1.0, spec.gamma))
    finf = space_norm(f, SpaceSpec("F", spec.s, spec.p, math.inf, spec.gamma))
    if norm == 0.0:
        raise ValueError("zero function has no sandwich ratios")
    return {"norm": norm, "f_q1": f1, "f_qinf": finf,
            "ratio_in": norm / f1, "ratio_out": finf / norm}
