"""Higher-order reflection across t = 0.

The extension of f from (0, L] to negative t is

    (E f)(t) = sum_j c_j f(-j t),   t < 0,  j = 1 .. order + 1,

with c_j = (-j)^twist lambda_j, where the lambda_j solve the exact
Vandermonde system sum_j (-j)^l lambda_j = 1 for l = 0 .. order.  They
are the Lagrange basis on the nodes -1, ..., -(order+1) evaluated at 1,
lambda_j = prod_{k != j} (1 + k)/(k - j).  The untwisted operator
(twist = 0) matches one-sided derivatives up to `order` at 0;
differentiating k times turns coefficients lambda_j into (-j)^k lambda_j,
so

    d^k/dt^k (E[m, j] f) = E[m, j + k] (f^(k))

holds identically on t < 0.  Coefficients live in Fractions and stay
exact at every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "reflection_coefficients",
    "ExtensionOperator",
    "finite_difference",
    "intertwine_defect",
    "reflected_norm_ratio",
]


@lru_cache(maxsize=None)
def reflection_coefficients(order: int, twist: int = 0) -> tuple[Fraction, ...]:
    """Exact coefficients c_j, j = 1 .. order + 1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if twist < 0:
        raise ValueError("twist must be >= 0")
    js = range(1, order + 2)
    return tuple(math.prod((Fraction(1 + k, k - j) for k in js if k != j),
                           start=Fraction((-j) ** twist)) for j in js)


@dataclass(frozen=True)
class ExtensionOperator:
    """E[order, twist]: identity on t > 0, coefficient reflection on t < 0.

    Uses values of f at -j t for j up to order + 1, so on a symmetric
    domain [-L, L] the extension is meaningful for t >= -L / (order + 1).
    """

    order: int
    twist: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if not 0 <= self.twist <= self.order:
            raise ValueError("twist must lie in [0, order]")

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return reflection_coefficients(self.order, self.twist)

    @property
    def n_reflections(self) -> int:
        return self.order + 1

    def reflectable_min(self, half_width: float) -> float:
        return -half_width / self.n_reflections

    def derivative_partner(self, k: int) -> "ExtensionOperator":
        """The operator appearing on f^(k) when E[order, twist] f is
        differentiated k times."""
        return ExtensionOperator(self.order, self.twist + k)

    def apply(self, f, t, half_width: float | None = None) -> np.ndarray:
        """Evaluate the extension of a callable f (defined for t >= 0) at
        the points t.  With half_width given, reflections that would leave
        [0, half_width] raise."""
        t = np.asarray(t, dtype=float)
        if half_width is not None:
            low = self.reflectable_min(half_width)
            if np.any(t < low) or np.any(t > half_width):
                raise ValueError(
                    f"points outside the reflectable range [{low}, {half_width}]")
        flat = t.ravel()
        pos = flat >= 0
        probe = f(flat[pos]) if pos.any() else f(np.array([0.0]))
        trailing = np.shape(probe)[1:]
        out = np.zeros((flat.size,) + trailing, dtype=np.result_type(probe, float))
        if pos.any():
            out[pos] = probe
        neg = ~pos
        if neg.any():
            tn = flat[neg]
            acc = 0.0
            for j, c in enumerate(self.coefficients, start=1):
                acc = acc + float(c) * np.asarray(f(-j * tn))
            out[neg] = acc
        return out.reshape(t.shape + trailing)

    def reflected_lp_bound(self, p: float, gamma: float) -> float:
        """sum_j |c_j| j^{-(1+gamma)/p}: bounds the |t|^gamma-weighted L^p
        norm of the reflected part over [-a, 0) by the norm of f over
        (0, (order+1) a]."""
        if not p >= 1:
            raise ValueError("need p >= 1")
        if not gamma > -1:
            raise ValueError("need gamma > -1")
        e = (1.0 + gamma) / p
        return float(sum(abs(float(c)) * j ** (-e)
                         for j, c in enumerate(self.coefficients, start=1)))


# central difference stencils, accuracy 6: offsets and weights
_FD_STENCILS = {
    1: (np.arange(-3, 4),
        np.array([-1, 9, -45, 0, 45, -9, 1], dtype=float) / 60.0),
    2: (np.arange(-3, 4),
        np.array([2, -27, 270, -490, 270, -27, 2], dtype=float) / 180.0),
    3: (np.arange(-4, 5),
        np.array([-7 / 240, 3 / 10, -169 / 120, 61 / 30, 0.0,
                  -61 / 30, 169 / 120, -3 / 10, 7 / 240])),
}


def finite_difference(g, t, k: int, h: float) -> np.ndarray:
    """k-th derivative of a callable at points t by the central
    accuracy-6 stencil with step h (k in {1, 2, 3})."""
    if k not in _FD_STENCILS:
        raise ValueError(f"no stencil for derivative order {k}")
    offsets, weights = _FD_STENCILS[k]
    t = np.asarray(t, dtype=float)
    acc = 0.0
    for o, w in zip(offsets, weights):
        acc = acc + w * np.asarray(g(t + o * h))
    return acc / h ** k


def intertwine_defect(op: ExtensionOperator, f, df_k, k: int, t, h: float = 1e-3,
                      half_width: float | None = None) -> dict:
    """Defect of d^k (E f) = E_partner (f^(k)) at negative points t.

    f and df_k are callables (the function and its exact k-th
    derivative); the left side is a finite-difference derivative of the
    extension, so every stencil point must stay strictly below 0.
    """
    t = np.asarray(t, dtype=float)
    reach = max(abs(int(o)) for o in _FD_STENCILS[k][0]) * h
    if np.any(t + reach >= 0):
        raise ValueError("stencil would cross t = 0; move points left or shrink h")
    if half_width is not None and np.any(t - reach < op.reflectable_min(half_width)):
        raise ValueError("stencil would leave the reflectable range")
    lhs = finite_difference(lambda s: op.apply(f, s, half_width), t, k, h)
    rhs = op.derivative_partner(k).apply(df_k, t, half_width)
    abs_defect = float(np.max(np.abs(lhs - rhs)))
    scale = float(np.max(np.abs(rhs)))
    return {
        "abs_defect": abs_defect,
        "rel_defect": abs_defect / scale if scale > 0 else abs_defect,
        "scale": scale,
    }


def reflected_norm_ratio(op: ExtensionOperator, f, p: float, gamma: float,
                         mesh) -> dict:
    """Measured L^p(|t|^gamma) norm of the reflected part over
    [-a, 0), a = L/(order+1), against the norm of f over (0, L] and the
    closed-form coefficient bound."""
    L = mesh.half_width
    a = L / op.n_reflections
    # nodes left of -a carry weight only through cells straddling -a; clamp
    # them onto the boundary so the interpolant stays continuous there
    vals = op.apply(f, np.clip(mesh.nodes, -a, L), half_width=L)
    num = float(mesh.lp_norm(np.abs(vals), p, gamma, interval=(-a, 0.0)))
    den = float(mesh.lp_norm(np.abs(vals), p, gamma, interval=(0.0, L)))
    bound = op.reflected_lp_bound(p, gamma)
    ratio = num / den if den > 0 else float("inf")
    return {"ratio": ratio, "bound": bound}
