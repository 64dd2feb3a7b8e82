"""Function-space bookkeeping for the linearized two-phase free-boundary
problem with time integrability p and spatial integrability q.

Everything here is exact rational arithmetic: the solution, data and
trace spaces are descriptors with Fraction exponents,

    E0   = L^p(L^q)                          (forcing)
    Eu   = H^{1,p}(L^q)  &  L^p(H^{2,q})     (temperature)
    F1   = F^{1-1/(2q)}_{p,q}(L^q)  &  L^p(B^{2-1/q}_{q,q})
    F2   = F^{1/2-1/(2q)}_{p,q}(L^q)  &  L^p(B^{1-1/q}_{q,q})
    Eh   = F^{3/2-1/(2q)}_{p,q}(L^q)  &  F^{1-1/(2q)}_{p,q}(H^{2,q})
           &  L^p(B^{4-1/q}_{q,q})           (free boundary)
    Xu   = B^{2-2/p}_{q,p}                   (initial temperature)
    Xh   = B^{6-2/q-4/p}_{q,p}  if 1 - 1/(2q) < 1/p,
           B^{4-1/q-2/p}_{q,p}  otherwise    (initial height)
    Xdth = B^{2-2/q-4/p}_{q,p}  when 1/2 - 1/(2q) > 1/p

and the compatibility conditions are selected by strict exponent
comparisons (any equality is a degenerate borderline and raises):

    jump     u0 continuous across the interface     iff 2 - 2/p > 1/q
    static   boundary datum matches u0 - lap' h0    iff 1 - 1/(2q) > 1/p
    dynamic  time-derivative trace of the height    iff 1/2 - 1/(2q) > 1/p

The quantitative check replaces the spatial scales by a finite geometric
sequence model (weights 2^{sigma n}) and the interface operator by the
matching diagonal multiplier with eigenvalues 4^n, builds the height
orbit with the exact double-trace right inverse

    R0(t) = 2 (1 + tA)^{-1} - (1 + 2tA)^{-1}        R0(0) = 1, R0'(0) = 0
    R1(t) = ((1 + tA)^{-1} - (1 + 2tA)^{-1}) A^{-1}  R1(0) = 0, R1'(0) = 1

and measures the time derivative of the orbit in the F2-model spaces
against the initial-data model norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .extension import ExtensionOperator
from .grid import GridSpec, QuadratureMesh
from .operators import MultiplierOperator
from .spaces import SequenceBesovInner, SpaceSpec, space_norm, weighted_lp_norm
from .trace import ORBIT_BAND, windowed_orbit

__all__ = [
    "DegenerateCaseError",
    "StefanParams",
    "SpaceDescriptor",
    "classify_spaces",
    "compatibility_conditions",
    "dt_boundedness_check",
]


class DegenerateCaseError(ValueError):
    """A borderline equality of exponents: the space identification and
    the compatibility conditions change form across it, so no exact
    statement applies on it."""


def _frac(x, name: str) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError) as exc:  # None, NaN, inf
        raise ValueError(f"{name} must be rational, got {x!r}") from exc


@dataclass(frozen=True)
class StefanParams:
    """Time/space integrability pair (p, q), kept as exact rationals."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _frac(self.p, "p"))
        object.__setattr__(self, "q", _frac(self.q, "q"))
        if not self.p > 1:
            raise ValueError(f"need p > 1, got {self.p}")
        if not self.q > 1:
            raise ValueError(f"need q > 1, got {self.q}")

    @property
    def admissible(self) -> bool:
        """Whether (p, q) sits inside the well-posedness window
        2p/(p+1) < q < 2p."""
        return 2 * self.p / (self.p + 1) < self.q < 2 * self.p


@dataclass(frozen=True)
class SpaceDescriptor:
    """One factor of a (possibly intersected) space, exponents exact."""

    family: str                       # "L", "H", "B", "F"
    smoothness: Fraction | None       # None for L
    integrability: Fraction
    microscopic: Fraction | None      # None for L/H
    inner: "SpaceDescriptor | None" = None


def _lebesgue(p: Fraction, inner=None) -> SpaceDescriptor:
    return SpaceDescriptor("L", None, p, None, inner)


def _besov(s: Fraction, p: Fraction, q: Fraction, inner=None) -> SpaceDescriptor:
    return SpaceDescriptor("B", s, p, q, inner)


def _tl(s: Fraction, p: Fraction, q: Fraction, inner=None) -> SpaceDescriptor:
    return SpaceDescriptor("F", s, p, q, inner)


def _bessel(s: Fraction, p: Fraction, inner=None) -> SpaceDescriptor:
    return SpaceDescriptor("H", s, p, None, inner)


def _cmp_strict(lhs: Fraction, rhs: Fraction, what: str) -> bool:
    if lhs == rhs:
        raise DegenerateCaseError(
            f"borderline case: {what} ({lhs} = {rhs}); the identification "
            "changes form on this line")
    return lhs > rhs


def classify_spaces(params: StefanParams) -> dict:
    """Exact descriptors of the solution, data and initial-trace spaces."""
    p, q = params.p, params.q
    one, two = Fraction(1), Fraction(2)
    lq = _lebesgue(q)
    h2q = _bessel(two, q)

    spaces = {
        "E0": (_lebesgue(p, lq),),
        "Eu": (_bessel(one, p, lq), _lebesgue(p, h2q)),
        "F1": (_tl(1 - 1 / (2 * q), p, q, lq),
               _lebesgue(p, _besov(2 - 1 / q, q, q))),
        "F2": (_tl(Fraction(1, 2) - 1 / (2 * q), p, q, lq),
               _lebesgue(p, _besov(1 - 1 / q, q, q))),
        "Eh": (_tl(Fraction(3, 2) - 1 / (2 * q), p, q, lq),
               _tl(1 - 1 / (2 * q), p, q, h2q),
               _lebesgue(p, _besov(4 - 1 / q, q, q))),
        "Xu": (_besov(2 - 2 / p, q, p),),
    }
    if _cmp_strict(1 / p, 1 - 1 / (2 * q), "1/p vs 1 - 1/(2q)"):
        spaces["Xh"] = (_besov(6 - 2 / q - 4 / p, q, p),)
    else:
        spaces["Xh"] = (_besov(4 - 1 / q - 2 / p, q, p),)
    if _cmp_strict(Fraction(1, 2) - 1 / (2 * q), 1 / p, "1/2 - 1/(2q) vs 1/p"):
        spaces["Xdth"] = (_besov(2 - 2 / q - 4 / p, q, p),)
    else:
        spaces["Xdth"] = None
    return spaces


def compatibility_conditions(params: StefanParams) -> tuple[str, ...]:
    """The conditions the initial/boundary data must satisfy, selected by
    strict exponent comparisons (sorted for stable output)."""
    p, q = params.p, params.q
    conds = []
    if _cmp_strict(2 - 2 / p, 1 / q, "2 - 2/p vs 1/q"):
        conds.append("jump")
    if _cmp_strict(1 - 1 / (2 * q), 1 / p, "1 - 1/(2q) vs 1/p"):
        conds.append("static")
    if _cmp_strict(Fraction(1, 2) - 1 / (2 * q), 1 / p, "1/2 - 1/(2q) vs 1/p"):
        conds.append("dynamic")
    return tuple(sorted(conds))


def dt_boundedness_check(params: StefanParams, grid: GridSpec, seed: int = 7) -> dict:
    """Boundedness of the time derivative of the reconstructed height
    orbit, in the finite sequence model.

    Only meaningful in the dynamic regime.  The margin exponent
    epsilon = min(1/(8q), 0.05) stands in for the time-integrability
    loss when the continuous trace is replaced by the model; the check
    requires the shifted trace smoothness 2 - 2/q - 4 epsilon to stay
    above the interior inner smoothness 1 - 1/q.  The eigenvalue ladder
    4^n is normalized so its largest rung is 4 (a choice of time unit):
    the orbit then stays analytic far below the grid Nyquist frequency
    and its reflection joint at t = 0 is mild enough for the spectral
    time derivative to recover the trace datum accurately.  Like every
    orbit norm, the derivative's is taken on the ORBIT_BAND mesh, with
    the blocks of the grid.
    """
    conds = compatibility_conditions(params)
    if "dynamic" not in conds:
        raise ValueError("time-derivative trace needs the dynamic regime "
                         "(1/2 - 1/(2q) > 1/p)")
    p, q = float(params.p), float(params.q)
    eps = min(1.0 / (8.0 * q), 0.05)
    if not 2.0 - 2.0 / q - 4.0 * eps > 1.0 - 1.0 / q:
        raise ValueError("margin exponent too large: shifted trace smoothness "
                         "falls below the interior inner smoothness")
    spaces = classify_spaces(params)
    dim = 3  # spatial scales of the sequence model

    lam = 4.0 ** np.arange(1, dim + 1) / 4.0 ** (dim - 1)
    op = MultiplierOperator.diagonal(lam)
    rng = np.random.default_rng(seed)
    x0 = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(2)
    x1 = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(2)

    def orbit(t):
        r_a = 1.0 / (1.0 + np.multiply.outer(t, lam))
        r_2a = 1.0 / (1.0 + 2.0 * np.multiply.outer(t, lam))
        return (2.0 * r_a - r_2a) * x0[None, :] + (r_a - r_2a) / lam * x1[None, :]

    ext = ExtensionOperator(3, 0)
    u = windowed_orbit(grid, ext, orbit, x0)
    du = u.derivative(1)
    dt_trace = du.value_at_zero
    dt_err = float(np.linalg.norm(dt_trace - x1) / np.linalg.norm(x1))

    mesh = QuadratureMesh.for_band(grid, ORBIT_BAND)
    inner_flat = SequenceBesovInner(0.0, q, dim=dim)
    inner_b = SequenceBesovInner(1.0 - 1.0 / q, q, dim=dim)
    s2 = 0.5 - 1.0 / (2.0 * q)
    num = (space_norm(du, SpaceSpec("F", s2, p, q, 0.0, inner=inner_flat), mesh=mesh)
           + weighted_lp_norm(du, p, 0.0, mesh=mesh, inner=inner_b))

    sig_h = float(spaces["Xh"][0].smoothness)
    sig_dt = float(spaces["Xdth"][0].smoothness)
    den = (SequenceBesovInner(sig_h, p, dim=dim).batch_norm(x0[None, :])[0]
           + SequenceBesovInner(sig_dt, p, dim=dim).batch_norm(x1[None, :])[0])
    return {
        "admissible": params.admissible,
        "conditions": conds,
        "epsilon": eps,
        "dt_trace_error": dt_err,
        "numerator": float(num),
        "denominator": float(den),
        "ratio": float(num / den),
    }
