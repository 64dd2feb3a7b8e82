"""Verification suites.

Each runner computes one module's checkable quantities at a fixed
configuration and returns a report of cases.  Cases are either decided
on the spot against a mathematical bound (`compare="bound"`), recorded
for regression against pinned values (`compare="baseline"`), or purely
informational.  Runners perform no I/O and draw all randomness from
seeds derived from the configuration, so a repeated run reproduces every
float bit for bit.

Suite map:

    dyadic          partition of unity, disjointness, exact reconstruction
    norms           diagonal B=F agreement, q-monotonicity, B/F/H/W
                    sandwiches, difference-seminorm equivalence windows
    hardy           the scalar averaging inequality on step functions
    extension       reflection coefficients, intertwining with d/dt,
                    reflected-norm bounds, stencil self-check
    trace-f         trace continuity on the F-scale and exact right inverses
    trace-b         trace continuity on the B-scale
    sobolev         weight-trading embeddings along the invariance line
    mixed           the mixed-derivative (geometric-mean) estimate
    counterexample  lacunary divergence ratios with closed forms
    semigroup       interpolation-norm closed forms and orbit smoothing
    stefan          exact exponent bookkeeping of the free-boundary model
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicSystem, partition_check
from .embeddings import (
    EMBEDDING_EXAMPLE_PAIRS,
    MixedDerivativeParams,
    bf_sandwich_check,
    counterexample_norms,
    diagonal_holder_constant,
    mixed_derivative_check,
    q_monotonicity_check,
    sandwich_ratios,
    sobolev_embed_ratio,
    validate_embedding_pair,
)
from .extension import (
    ExtensionOperator,
    finite_difference,
    intertwine_defect,
    reflected_norm_ratio,
    reflection_coefficients,
)
from .grid import GridFunction, GridSpec, QuadratureMesh, random_band_limited
from .operators import (
    MultiplierOperator,
    closed_form_resolvent_norm,
    closed_form_semigroup_norm,
    interp_norm_resolvent,
    interp_norm_semigroup,
    reiteration_ratio,
)
from .report import CaseRecord, VerificationReport
from .spaces import (
    SpaceSpec,
    WeightedEuclideanInner,
    norm_equivalence_ratio,
    space_norm,
    weighted_lp_norm,
)
from .stefan import (
    DegenerateCaseError,
    SpaceDescriptor,
    StefanParams,
    classify_spaces,
    compatibility_conditions,
    dt_boundedness_check,
)
from .trace import (
    TraceProblem,
    hardy_young_check,
    frac_power_reparam_ratio,
    orbit_time_unit,
    resolvent_orbit,
    right_inverse_check,
    semigroup_orbit,
    semigroup_orbit_ratio,
    trace_at_zero,
    trace_continuity_ratio,
)

__all__ = ["SuiteConfig", "SUITE_ORDER", "run_suite", "run_all"]


# ---------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Shared knobs of every suite.  Everything that influences a computed
    value lives here, so the derived hash keys the baseline store."""

    half_width: float = 1.0
    n_samples: int = 1024
    seed: int = 2024
    family_size: int = 50

    def __post_init__(self):
        for name in ("n_samples", "seed", "family_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer hashes as an int
        n = self.n_samples
        if n < 64 or n & (n - 1):
            raise ValueError(f"n_samples must be a power of two >= 64, got {n}")
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.family_size < 2:
            raise ValueError("family_size must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def config_dict(self) -> dict:
        return {
            "half_width": self.half_width,
            "n_samples": self.n_samples,
            "max_block": DyadicSystem.for_grid(self.grid()).max_block,
            "seed": self.seed,
            "family_size": self.family_size,
        }

    def grid(self) -> GridSpec:
        return GridSpec(self.half_width, self.n_samples)

    def family(self, band: float, count: int, stream: int,
               dim: int = 1) -> Iterator[GridFunction]:
        """Seeded band-limited test functions on the config's grid on
        |xi| <= band, capped at the largest representable frequency, drawn
        one at a time; the stream index separates the draws of different
        suites.  Every suite iterates its family once and takes each draw
        through all of its cases before the next, so a draw and its caches
        are dropped once the next is drawn: at most two are alive."""
        grid = self.grid()
        band = min(band, grid.top)
        for i in range(count):
            yield random_band_limited(grid, (-band, band), (self.seed, stream, i), dim)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, stream))


def _report(config: SuiteConfig, suite: str, cases: list[CaseRecord]) -> VerificationReport:
    return VerificationReport(suite=suite, config=config.config_dict(), cases=cases)


def _flag(exact_ok: bool) -> float:
    """0.0 for a satisfied structural identity, 1.0 otherwise (compared
    against the bound 0)."""
    return 0.0 if exact_ok else 1.0


def _refusal(call, error: type[Exception]) -> float:
    """0.0 when call() raises error, 1.0 when it returns (compared against
    the bound 0)."""
    try:
        call()
    except error:
        return 0.0
    return 1.0


# ---------------------------------------------------------------------
# dyadic
# ---------------------------------------------------------------------


def run_dyadic(config: SuiteConfig) -> VerificationReport:
    grid = config.grid()
    sys = DyadicSystem.for_grid(grid)
    top = 2.0 ** sys.max_block
    xi = np.concatenate([
        np.linspace(-top, top, 8193),
        config.rng(101).uniform(-top, top, 2000),
    ])

    cases = [CaseRecord("partition_max_deviation", partition_check(sys, xi), 1e-12)]

    mid = sys.generator(1.25)  # half-transition point of the generator
    cases.append(CaseRecord("generator_midpoint_half", abs(float(mid) - 0.5), 0.0))

    symbols = sys.symbols(xi)
    worst = 0.0
    for k in range(sys.max_block + 1):
        for l in range(k + 2, sys.max_block + 1):
            worst = max(worst, float(np.max(np.abs(symbols[k] * symbols[l]))))
    cases.append(CaseRecord("disjoint_blocks_max_product", worst, 0.0))

    # reconstruction is bitwise on single-precision coefficient data:
    # the snapped symbols of the two blocks meeting at any frequency are
    # complementary 26-bit values, so both products and their sum are exact
    err = 0.0
    blocks = sys.grid_symbols(grid)
    for f in config.family(250.0, config.family_size, stream=100):
        f = GridFunction(grid, f.coeffs.astype(np.complex64).astype(complex))
        total = np.zeros_like(f.coeffs)
        for block in blocks:
            total = total + f.multiplied(block).coeffs
        err = max(err, float(np.max(np.abs(total - f.coeffs))))
    cases.append(CaseRecord("reconstruction_max_error", err, 0.0))

    return _report(config, "dyadic", cases)


# ---------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------

_BF_DIAGONAL_PARAMS = ((0.5, 2.0, 0.0), (1.0, 3.0, 0.5), (-0.5, 2.0, 0.3))
_QMONO_PAIRS = ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf))
_DIFFNORM_PARAMS = (
    (0.5, 2.0, 1.0, 0.0, 1),
    (0.5, 2.0, 2.0, 0.5, 1),
    (1.5, 2.0, 1.0, 0.0, 2),
)


def diffnorm_windows(config: SuiteConfig) -> list[tuple[float, float]]:
    """(min, max) of the difference-characterization ratio over the seeded
    family of the config's grid, one window per _DIFFNORM_PARAMS set.  The
    family is drawn once and normed function by function through every set,
    so the sets share each function's cached magnitudes and seminorm
    averages, which go with the function once its ratios are taken."""
    specs = [(SpaceSpec("F", s, p, q, gamma), m) for s, p, q, gamma, m in _DIFFNORM_PARAMS]
    ratios = [[norm_equivalence_ratio(f, spec, m) for spec, m in specs]
              for f in config.family(8.0, config.family_size, stream=2)]
    return [(min(col), max(col)) for col in zip(*ratios)]


def _family_norm_cases(config: SuiteConfig) -> list[CaseRecord]:
    """The B/F diagonal, q-monotonicity and sandwich cases over the band-24
    family, each draw taken through all of them before the next; the last
    draw goes when this returns."""
    qs = (1.0, 2.0, math.inf)
    diagonal = [0.0] * len(_BF_DIAGONAL_PARAMS)
    qmono = {(kind, pair): 0.0 for kind in ("B", "F") for pair in _QMONO_PAIRS}
    sandwich = 0.0
    hw = {(kind, side): 0.0 for kind in ("h", "w") for side in ("in", "out")}
    hw_specs = (("h", SpaceSpec("H", 0.5, 2.0, gamma=0.3)),
                ("w", SpaceSpec("W", 1.0, 2.0, gamma=0.3)))
    for i, f in enumerate(config.family(24.0, config.family_size, stream=1)):
        for j, (s, p, g) in enumerate(_BF_DIAGONAL_PARAMS):
            b = space_norm(f, SpaceSpec("B", s, p, p, g))
            fn = space_norm(f, SpaceSpec("F", s, p, p, g))
            diagonal[j] = max(diagonal[j], abs(b - fn) / max(b, fn))
        for kind in ("B", "F"):
            n = dict(zip(qs, q_monotonicity_check(f, kind, 0.5, 2.0, 0.3, qs)["norms"]))
            for q0, q1 in _QMONO_PAIRS:
                qmono[kind, (q0, q1)] = max(qmono[kind, (q0, q1)], n[q1] / n[q0])
        got = bf_sandwich_check(f, 0.5, 2.0, 1.5, 0.3)
        sandwich = max(sandwich, got["f_norm"] / got["b_small_q"],
                       got["b_large_q"] / got["f_norm"])
        if i < 8:
            for kind, spec in hw_specs:
                got = sandwich_ratios(f, spec)
                for side in ("in", "out"):
                    hw[kind, side] = max(hw[kind, side], got[f"ratio_{side}"])

    cases = [CaseRecord(f"bf_diagonal_s{s:g}_p{p:g}_g{g:g}", rel, 1e-8)
             for (s, p, g), rel in zip(_BF_DIAGONAL_PARAMS, diagonal)]
    cases += [CaseRecord(f"qmono_{kind}_q{q0:g}_to_q{q1:g}", ratio, 1.0 + 1e-12)
              for (kind, (q0, q1)), ratio in qmono.items()]
    cases.append(CaseRecord("bf_sandwich_max_ratio", sandwich, 1.0 + 1e-12))
    cases += [CaseRecord(f"{kind}_sandwich_{side}", worst, compare="baseline")
              for (kind, side), worst in hw.items()]
    return cases


def run_norms(config: SuiteConfig) -> VerificationReport:
    cases = _family_norm_cases(config)
    for (s, p, q, gamma, m), (lo, hi) in zip(_DIFFNORM_PARAMS, diffnorm_windows(config)):
        tag = f"s{s:g}_q{q:g}_g{gamma:g}_m{m}"
        cases.append(CaseRecord(f"diffnorm_hi_{tag}", hi, compare="baseline"))
        cases.append(CaseRecord(f"diffnorm_lo_{tag}", 1.0 / lo, compare="baseline"))

    return _report(config, "norms", cases)


# ---------------------------------------------------------------------
# hardy
# ---------------------------------------------------------------------


def run_hardy(config: SuiteConfig) -> VerificationReport:
    rng = config.rng(11)
    breakpoints, values, betas, ps = [], [], [], []
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        breakpoints.append(np.cumsum(rng.uniform(0.05, 1.0, n)))
        values.append(rng.uniform(0.0, 3.0, n))
        betas.append(float(rng.uniform(0.05, 0.95)))
        ps.append(float(rng.choice([1.0, 1.25, 2.0, 3.0])))
    got = hardy_young_check(breakpoints, values, betas, ps)
    closed = hardy_young_check([[1.0]], [[1.0]], beta=0.5, p=2.0)
    return _report(config, "hardy", [
        CaseRecord("family_max_ratio", float(np.max(got["lhs"] / got["bound"])), 1.0 + 1e-9),
        CaseRecord("family_failures", float(np.sum(~got["passed"])), 0.0),
        CaseRecord("closed_form_lhs_two", abs(float(closed["lhs"][0]) - 2.0), 1e-9),
        CaseRecord("closed_form_bound_four", abs(float(closed["bound"][0]) - 4.0), 1e-9),
    ])


# ---------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------

_EXPECTED_SMALL_COEFFS = {0: (1,), 1: (3, -2), 2: (6, -8, 3)}
_FD_STEPS = {1: 1e-3, 2: 2e-3, 3: 4e-3}


def _intertwine_test_functions():
    """Polynomials (the stencils are exact on them) and single trig modes."""
    fns = []
    for coeffs in ((1.0, -2.0, 0.5, 3.0), (0.25, 1.0, -1.0, 2.0, -0.5, 1.0)):
        poly = np.polynomial.Polynomial(coeffs)
        fns.append((f"poly_deg{poly.degree()}",
                    lambda t, P=poly: P(t),
                    lambda t, k, P=poly: P.deriv(k)(t)))
    for omega in (1.0, 2.0):
        fns.append((f"mode_w{omega:g}",
                    lambda t, w=omega: np.sin(w * t + 0.3),
                    lambda t, k, w=omega: w ** k * np.sin(w * t + 0.3 + k * np.pi / 2)))
    return fns


def run_extension(config: SuiteConfig) -> VerificationReport:
    L = config.half_width
    cases = []

    small_ok = all(reflection_coefficients(m) == exp
                   for m, exp in _EXPECTED_SMALL_COEFFS.items())
    cases.append(CaseRecord("coefficients_low_order_exact", _flag(small_ok), 0.0))

    moment_dev = 0.0
    for m in range(9):
        lam = reflection_coefficients(m)
        for l in range(m + 1):
            total = sum(Fraction(-j) ** l * c for j, c in enumerate(lam, start=1))
            moment_dev = max(moment_dev, abs(float(total - 1)))
    cases.append(CaseRecord("moment_identity_deviation", moment_dev, 0.0))

    worst = 0.0
    for m in (1, 2, 3):
        op = ExtensionOperator(m, 0)
        # the sample points span at most the reach of L = 1: further out the
        # test polynomials grow, and the stencils' rounding with them
        lo = op.reflectable_min(min(L, 1.0))
        for k in range(1, m + 1):
            h = _FD_STEPS[k]
            reach = 4 * h
            t = np.linspace(lo + reach + h, -0.05, 9)
            for _, f, df in _intertwine_test_functions():
                got = intertwine_defect(op, f, lambda s, kk=k, d=df: d(s, kk),
                                        k, t, h=h, half_width=L)
                worst = max(worst, got["rel_defect"])
    cases.append(CaseRecord("intertwine_max_rel_defect", worst, 1e-6))

    # twice the cells of band 32, ceil(12 * 32 L) a side: a reflected
    # function has a joint of finite smoothness at t = 0
    mesh = QuadratureMesh.for_band(config.grid(), 64.0)
    test_fns = (lambda t: np.exp(np.sin(2.0 * np.pi * t)),
                lambda t: 1.0 / (1.0 + (2.0 * t) ** 2))
    refl_worst = 0.0
    for order in (1, 2, 3):
        op = ExtensionOperator(order, 0)
        for p, gamma in ((2.0, 0.3), (3.0, 0.0)):
            for f in test_fns:
                got = reflected_norm_ratio(op, f, p, gamma, mesh)
                refl_worst = max(refl_worst, got["ratio"] / got["bound"])
    cases.append(CaseRecord("reflected_norm_vs_bound", refl_worst, 1.0))

    t = np.linspace(-0.8, -0.1, 7)
    fd_worst = 0.0
    for k, h in _FD_STEPS.items():
        approx = finite_difference(lambda s: np.sin(2.0 * s + 0.3), t, k, h)
        exact = 2.0 ** k * np.sin(2.0 * t + 0.3 + k * np.pi / 2)
        fd_worst = max(fd_worst, float(np.max(np.abs(approx - exact))
                                       / np.max(np.abs(exact))))
    cases.append(CaseRecord("stencil_self_check", fd_worst, 1e-6))

    return _report(config, "extension", cases)


# ---------------------------------------------------------------------
# trace suites
# ---------------------------------------------------------------------

_TRACE_PROBLEM_PARAMS = ((0.0, 1.0, 2.0, 0.0), (-0.2, 1.0, 2.0, 0.5),
                         (0.3, 0.9, 3.0, 1.0))
_TRACE_EIGENVALUES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
_MICRO = (1.0, 2.0, math.inf)


def _trace_ratio_pass(config: SuiteConfig) -> dict[str, list[CaseRecord]]:
    """The trace-continuity cases of both scales, by kind ("F", "B"), from
    one pass over the seeded draws.  Each draw's magnitudes are cached on it
    under keys without the kind, so its F and B ratios share them while
    the draw is alive; only the case records outlive the pass."""
    op = MultiplierOperator.diagonal(_TRACE_EIGENVALUES)
    cases: dict[str, list[CaseRecord]] = {"F": [], "B": []}
    spread = dict.fromkeys(cases, 0.0)
    for i, (s, alpha, p, gamma) in enumerate(_TRACE_PROBLEM_PARAMS):
        family = list(config.family(16.0, 3, stream=30 + i, dim=op.dim))
        worst = {}  # (kind, q) -> worst ratio over the draws and r
        for q in _MICRO:
            problem = TraceProblem(op, s, p, q, gamma, alpha)
            for u in family:
                for kind in cases:
                    got = [trace_continuity_ratio(problem, u, kind=kind, r=r) for r in _MICRO]
                    worst[kind, q] = max([worst.get((kind, q), 0.0)] + [g["ratio"] for g in got])
                    nums = [g["numerator"] for g in got]
                    spread[kind] = max(spread[kind],
                                       (max(nums) - min(nums)) / max(max(nums), 1e-300))
        for q in _MICRO:
            cases["B"].append(CaseRecord(f"continuity_ratio_set{i}_q{q:g}", worst["B", q],
                                         compare="baseline"))
        cases["F"].append(CaseRecord(f"continuity_ratio_set{i}",
                                     max(worst["F", q] for q in _MICRO), compare="baseline"))
    for kind, kind_cases in cases.items():
        # for fixed target index the numerator must not feel r at all
        kind_cases.append(CaseRecord("target_norm_r_spread", spread[kind], 1e-12))
    return cases


def _trace_ratio_cases(config: SuiteConfig, kind: str, store: dict) -> list[CaseRecord]:
    """The trace-continuity cases of one scale.  trace-f (target
    D_A(theta, p)) and trace-b (target D_A(theta, q)) norm the same draws,
    so the first of them to run in a store computes both kinds in one pass
    and leaves the other kind's records there, which the second takes.
    The store lives one run (`run_all`, `cli.main`), so a later run with
    changed settings computes the pass again."""
    pending = store.setdefault(("trace-ratio-cases", config), {})
    if kind not in pending:
        pending.update(_trace_ratio_pass(config))
    return pending.pop(kind)


def run_trace_f(config: SuiteConfig, store: dict) -> VerificationReport:
    grid = config.grid()
    cases = _trace_ratio_cases(config, "F", store)

    scalar = MultiplierOperator.scalar(1.0)
    diag = MultiplierOperator.diagonal(_TRACE_EIGENVALUES)
    rng = config.rng(40)
    dev = 0.0
    for op in (scalar, diag):
        x = (rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim))
        for j in (1, 2, 3):
            for m in range(j, 4):
                u = resolvent_orbit(grid, op, x, j, ExtensionOperator(m, 0))
                dev = max(dev, float(np.max(np.abs(trace_at_zero(u) - x))))
    cases.append(CaseRecord("right_inverse_trace_deviation", dev, 0.0))

    rng = config.rng(41)
    for i, (s, alpha, p, gamma) in enumerate(_TRACE_PROBLEM_PARAMS):
        problem = TraceProblem(diag, s, p, 2.0, gamma, alpha)
        worst = 0.0
        exact = True
        for _ in range(2):
            x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
            got = right_inverse_check(problem, x, grid)
            worst = max(worst, got["ratio"])
            exact = exact and got["trace_exact"]
        cases.append(CaseRecord(f"right_inverse_ratio_set{i}", worst,
                                compare="baseline"))
        cases.append(CaseRecord(f"right_inverse_exact_set{i}", _flag(exact), 0.0))

    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    got = frac_power_reparam_ratio(diag, theta=0.5, p=2.0, rho=2.0, x=x)
    cases.append(CaseRecord("frac_power_reparam_ratio", got["ratio"],
                            compare="baseline"))

    return _report(config, "trace-f", cases)


def run_trace_b(config: SuiteConfig, store: dict) -> VerificationReport:
    return _report(config, "trace-b", _trace_ratio_cases(config, "B", store))


# ---------------------------------------------------------------------
# sobolev
# ---------------------------------------------------------------------


def run_sobolev(config: SuiteConfig) -> VerificationReport:
    for src, dst in EMBEDDING_EXAMPLE_PAIRS:
        validate_embedding_pair(src, dst)
    worst = [0.0] * len(EMBEDDING_EXAMPLE_PAIRS)
    for f in config.family(24.0, 12, stream=50):
        for i, (src, dst) in enumerate(EMBEDDING_EXAMPLE_PAIRS):
            worst[i] = max(worst[i], sobolev_embed_ratio(f, src, dst)["ratio"])
    cases = [CaseRecord(f"embed_ratio_pair{i}", ratio, compare="baseline")
             for i, ratio in enumerate(worst)]

    off_line = _refusal(lambda: validate_embedding_pair(SpaceSpec("F", 1.0, 2.0, 2.0, 0.0),
                                                        SpaceSpec("F", 0.5, 2.0, 2.0, 0.0)),
                        ValueError)
    cases.append(CaseRecord("rejects_off_line_pair", off_line, 0.0))
    return _report(config, "sobolev", cases)


# ---------------------------------------------------------------------
# mixed derivative
# ---------------------------------------------------------------------


def _family_worst(fns, checks) -> list[float]:
    """The largest lhs / rhs of each (params, inners) mixed-derivative check
    over the draws fns, each draw taken through every check in turn."""
    worst = [0.0] * len(checks)
    for f in fns:
        for i, (params, inners) in enumerate(checks):
            got = mixed_derivative_check(f, params, inners)
            worst[i] = max(worst[i], got["lhs"] / got["rhs"])
    return worst


def _single_plateau_modes(grid: GridSpec) -> list[float]:
    """The modes 1, 2 and 4 of the mixed suite's single-mode case, each
    capped below Nyquist, as the families are, and floored onto the lattice
    of multiples of 1/(2L).  A capped mode is kept while it lies on a
    plateau (|xi| <= 1 for block 0, 1.5 * 2^(k-1) <= |xi| <= 2^k for block
    k), where one block is active; a mode the cap takes into a transition
    band, or onto a mode already kept, is dropped."""
    dyadic = DyadicSystem.for_grid(grid)
    modes = []
    for xi in (1.0, 2.0, 4.0):
        xi = math.floor(min(xi, grid.top) / grid.fundamental + 1e-9) * grid.fundamental
        if xi not in modes and np.max(dyadic.symbols([xi])) >= 1.0:
            modes.append(xi)
    return modes


def run_mixed(config: SuiteConfig) -> VerificationReport:
    grid = config.grid()
    theta = Fraction(1, 2)
    shared = dict(s=Fraction(1, 2), alpha=Fraction(1, 2), theta=theta,
                  p0=Fraction(2), q0=Fraction(2), p1=Fraction(3), q1=Fraction(2))
    params_f = MixedDerivativeParams("F", gamma0=Fraction(3, 10),
                                     gamma1=Fraction(3, 10), **shared)
    params_b = MixedDerivativeParams("B", gamma0=Fraction(3, 10),
                                     gamma1=Fraction(3, 10), **shared)
    params_x = MixedDerivativeParams("F", gamma0=Fraction(0),
                                     gamma1=Fraction(3, 4), **shared)
    one = WeightedEuclideanInner([1.0])
    scalar = (one, one, one)
    cases = []

    # single plateau modes: one active block, so the chain collapses to an
    # identity and both sides agree to rounding
    dev = 0.0
    for xi in _single_plateau_modes(grid):
        f = GridFunction.from_coeff_map(grid, {xi: [1.2 + 0.7j]})
        got = mixed_derivative_check(f, params_f, scalar)
        dev = max(dev, abs(got["lhs"] / got["rhs"] - 1.0))
    cases.append(CaseRecord("single_mode_equality", dev, 1e-12))

    unit_f, unit_b, crossweight = _family_worst(
        config.family(16.0, 12, stream=60),
        ((params_f, scalar), (params_b, scalar), (params_x, scalar)))
    cases.append(CaseRecord("scalar_family_F_unit_constant", unit_f, 1.0 + 1e-9))
    cases.append(CaseRecord("scalar_family_B_unit_constant", unit_b, 1.0 + 1e-9))

    inner0 = WeightedEuclideanInner([1.0, 0.6, 0.25])
    inner1 = WeightedEuclideanInner([0.4, 1.0, 0.7])
    computed = (inner0, inner1, WeightedEuclideanInner([0.8, 0.75, 0.5]))
    geometric = (inner0, inner1, inner0.geometric_mix(inner1, float(theta)))
    computed_worst, geometric_worst = _family_worst(
        config.family(16.0, 12, stream=61, dim=3),
        ((params_f, computed), (params_f, geometric)))
    cases.append(CaseRecord("diagonal_family_computed_constant", computed_worst, 1.0 + 1e-9))
    cases.append(CaseRecord("diagonal_holder_constant",
                            diagonal_holder_constant(*computed, float(theta)),
                            compare="info"))
    cases.append(CaseRecord("diagonal_family_geometric_mean", geometric_worst, 1.0 + 1e-9))
    cases.append(CaseRecord("crossweight_family", crossweight, 1.0 + 1e-6))

    return _report(config, "mixed", cases)


# ---------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------

_COUNTEREXAMPLE_PAIRS = ((1.0, 2.0), (1.0, math.inf), (2.0, 4.0))


def run_counterexample(config: SuiteConfig) -> VerificationReport:
    cases = []
    for u, q in _COUNTEREXAMPLE_PAIRS:
        dev = 0.0
        for n in range(2, 257):
            a = 2.0 ** (-np.arange(1, n + 1))
            got = counterexample_norms(a, u, q)
            expected = n ** (1.0 / u - (0.0 if math.isinf(q) else 1.0 / q))
            dev = max(dev, abs(got["ratio"] / expected - 1.0))
        cases.append(CaseRecord(f"divergence_u{u:g}_q{q:g}", dev, 1e-12))

    got = counterexample_norms(2.0 ** (-np.arange(1, 17)), 1.0, 2.0)
    cases.append(CaseRecord("n16_ratio_four", abs(got["ratio"] - 4.0), 0.0))

    accepted = max(_refusal(lambda: counterexample_norms(np.ones(4), u, q), ValueError)
                   for u, q in ((2.0, 2.0), (3.0, 2.0)))
    cases.append(CaseRecord("rejects_nondivergent_exponents", accepted, 0.0))
    return _report(config, "counterexample", cases)


# ---------------------------------------------------------------------
# semigroup / interpolation norms
# ---------------------------------------------------------------------


# Q(a, x) = Gamma(a, x) / Gamma(a) at the plateau's a = gamma + 1 in {1, 3/2},
# from Gamma(1, x) = e^{-x}, Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) and
# Gamma(a + 1, x) = a Gamma(a, x) + x^a e^{-x} (DLMF 8.4 and 8.8.2)
_UPPER_GAMMA_RATIO = {
    1.0: lambda x: math.exp(-x),
    1.5: lambda x: math.erfc(math.sqrt(x)) + 2.0 * math.sqrt(x / math.pi) * math.exp(-x),
}


def run_semigroup(config: SuiteConfig) -> VerificationReport:
    grid = config.grid()
    cases = []

    unit = MultiplierOperator.scalar(1.0)
    res = interp_norm_resolvent(unit, 0.5, 2.0, [1.0])
    cases.append(CaseRecord("resolvent_norm_unit", abs(res - 1.0), 1e-6))
    semi = interp_norm_semigroup(unit, 0.5, 2.0, [1.0])
    cases.append(CaseRecord("semigroup_norm_root_half",
                            abs(semi - math.sqrt(0.5)), 1e-6))

    scale_dev = 0.0
    for a in (0.25, 1.0, 4.0, 16.0):
        val = interp_norm_resolvent(MultiplierOperator.scalar(a), 0.5, 2.0, [1.0])
        scale_dev = max(scale_dev, abs(val / a ** 0.5 / res - 1.0))
    cases.append(CaseRecord("resolvent_scaling_law", scale_dev, 1e-6))

    diag = MultiplierOperator.diagonal(_TRACE_EIGENVALUES)
    rng = config.rng(70)
    x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
    got = interp_norm_resolvent(diag, 0.6, 2.0, x)
    want = closed_form_resolvent_norm(diag, 0.6, 2.0, x)
    cases.append(CaseRecord("resolvent_closed_form_diagonal",
                            abs(got / want - 1.0), 1e-6))
    got = interp_norm_semigroup(diag, 0.6, 2.0, x)
    want = closed_form_semigroup_norm(diag, 0.6, 2.0, x)
    cases.append(CaseRecord("semigroup_closed_form_diagonal",
                            abs(got / want - 1.0), 1e-6))

    r1 = reiteration_ratio(MultiplierOperator.scalar(2.0), 0.8, 0.5, 2.0, [1.0])
    r2 = reiteration_ratio(MultiplierOperator.scalar(2.0), 0.8, 0.5, 2.0, [2.3])
    cases.append(CaseRecord("reiteration_scalar_constancy", abs(r1 / r2 - 1.0), 1e-12))

    rng = config.rng(71)
    for i, (s, alpha, p, gamma) in enumerate(_TRACE_PROBLEM_PARAMS):
        problem = TraceProblem(diag, s, p, 2.0, gamma, alpha)
        worst = 0.0
        for _ in range(2):
            x = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
            got = semigroup_orbit_ratio(problem, x, grid)
            worst = max(worst, got["ratio"])
        cases.append(CaseRecord(f"orbit_ratio_set{i}", worst, compare="baseline"))

    # windowed scalar orbit against the incomplete-gamma closed form on the
    # window plateau [-0.75 a, 0.6 L], where the orbit is exactly e^{-t/T}
    # with T the orbit time unit; the interval (0.05, 0.5) L lies there
    T = orbit_time_unit(grid)
    u = semigroup_orbit(grid, MultiplierOperator.scalar(1.0 / T), [1.0],
                        ExtensionOperator(3, 0))
    t0, t1 = 0.05 * config.half_width, 0.5 * config.half_width
    for tag, p, gamma in (("flat", 2.0, 0.0), ("weighted", 2.0, 0.5)):
        computed = weighted_lp_norm(u, p, gamma, interval=(t0, t1))
        a = gamma + 1.0
        q = _UPPER_GAMMA_RATIO[a]
        # int t^gamma e^{-p t / T} dt = T^a int tau^gamma e^{-p tau} dtau
        mass = T ** a * math.gamma(a) / p ** a * (q(p * t0 / T) - q(p * t1 / T))
        cases.append(CaseRecord(f"orbit_plateau_norm_{tag}",
                                abs(computed / mass ** (1.0 / p) - 1.0), 1e-4))

    return _report(config, "semigroup", cases)


# ---------------------------------------------------------------------
# stefan
# ---------------------------------------------------------------------

_STEFAN_EXPECTED = (
    ((2, 2), ("B", Fraction(5, 2), Fraction(2), Fraction(2)), None,
     ("jump", "static")),
    ((8, 2), ("B", Fraction(13, 4), Fraction(2), Fraction(8)),
     ("B", Fraction(1, 2), Fraction(2), Fraction(8)),
     ("dynamic", "jump", "static")),
    ((Fraction(4, 3), Fraction(3, 2)),
     ("B", Fraction(5, 3), Fraction(3, 2), Fraction(4, 3)), None, ()),
)


def run_stefan(config: SuiteConfig) -> VerificationReport:
    cases = []
    for (p, q), want_h, want_dt, want_conds in _STEFAN_EXPECTED:
        params = StefanParams(p, q)
        spaces = classify_spaces(params)
        conds = compatibility_conditions(params)
        ok = spaces["Xh"] == (SpaceDescriptor(*want_h),)
        if want_dt is None:
            ok = ok and spaces["Xdth"] is None
        else:
            ok = ok and spaces["Xdth"] == (SpaceDescriptor(*want_dt),)
        ok = ok and conds == want_conds and params.admissible
        tag = f"p{Fraction(p)}_q{Fraction(q)}".replace("/", "over")
        cases.append(CaseRecord(f"classification_{tag}", _flag(ok), 0.0))

    degenerate = _refusal(lambda: classify_spaces(StefanParams(Fraction(4, 3), 2)),
                          DegenerateCaseError)
    cases.append(CaseRecord("degenerate_line_rejected", degenerate, 0.0))

    got = dt_boundedness_check(StefanParams(8, 2), config.grid(), seed=config.seed + 7)
    cases.append(CaseRecord("dt_trace_error", got["dt_trace_error"], 1e-3))
    cases.append(CaseRecord("dt_ratio", got["ratio"], compare="baseline"))

    nondynamic = _refusal(lambda: dt_boundedness_check(StefanParams(2, 2), config.grid()),
                          ValueError)
    cases.append(CaseRecord("dt_rejects_nondynamic", nondynamic, 0.0))

    return _report(config, "stefan", cases)


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------

_RUNNERS = {
    "dyadic": run_dyadic,
    "norms": run_norms,
    "hardy": run_hardy,
    "extension": run_extension,
    "trace-f": run_trace_f,
    "trace-b": run_trace_b,
    "sobolev": run_sobolev,
    "mixed": run_mixed,
    "counterexample": run_counterexample,
    "semigroup": run_semigroup,
    "stefan": run_stefan,
}

SUITE_ORDER = tuple(_RUNNERS)
# the suites that share work through a run's store
_SHARING = frozenset({"trace-f", "trace-b"})


def run_suite(name: str, config: SuiteConfig | None = None,
              store: dict | None = None) -> VerificationReport:
    """One suite's report.  `store` is a dict that one run (`run_all`,
    `cli.main`) passes to each of its suites, so trace-f and trace-b share
    one pass over their draws; without it the suite computes alone.

    A suite that raises gives a report of one failed `error` case, and its
    `name: error: Type: message` line goes to stderr, so one failing suite
    never aborts a run."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_ORDER}")
    config = config or SuiteConfig()
    args = (config, {} if store is None else store) if name in _SHARING else (config,)
    try:
        return _RUNNERS[name](*args)
    except Exception as exc:
        print(f"{name}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _report(config, name, [CaseRecord("error", 1.0, 0.0)])


def run_all(config: SuiteConfig | None = None) -> list[VerificationReport]:
    config = config or SuiteConfig()
    store: dict = {}
    return [run_suite(name, config, store) for name in SUITE_ORDER]
