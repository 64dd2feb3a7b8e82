import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tracespaces import (
    EMBEDDING_EXAMPLE_PAIRS,
    GridFunction,
    MixedDerivativeParams,
    SpaceSpec,
    WeightedEuclideanInner,
    bf_sandwich_check,
    counterexample_norms,
    diagonal_holder_constant,
    mixed_derivative_check,
    q_monotonicity_check,
    random_band_limited,
    sobolev_embed_ratio,
    validate_embedding_pair,
)


def test_example_pairs_sit_on_invariance_line():
    for src, dst in EMBEDDING_EXAMPLE_PAIRS:
        validate_embedding_pair(src, dst)  # must not raise


def test_off_line_pair_rejected():
    src = SpaceSpec("F", 1.0, 2.0, 2.0, 0.0)
    dst = SpaceSpec("F", 0.5, 2.0, 2.0, 0.0)  # same p, smaller s: off the line
    with pytest.raises(ValueError):
        validate_embedding_pair(src, dst)


def test_mixed_scale_pair_rejected():
    src = SpaceSpec("B", 1.0, 2.0, 1.0, 0.5)
    dst = SpaceSpec("F", 7.0 / 12.0, 3.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        validate_embedding_pair(src, dst)


def test_embedding_ratio_structure(grid):
    src, dst = EMBEDDING_EXAMPLE_PAIRS[0]
    f = random_band_limited(grid, (-24.0, 24.0), seed=3)
    got = sobolev_embed_ratio(f, src, dst)
    assert got["ratio"] == pytest.approx(got["dst_norm"] / got["src_norm"],
                                         rel=1e-14)
    assert got["ratio"] > 0.0


def test_q_monotonicity_check_passes(grid):
    f = random_band_limited(grid, (-24.0, 24.0), seed=4)
    got = q_monotonicity_check(f, "B", 0.5, 2.0, 0.3, (1.0, 2.0, math.inf))
    assert got["norms"][0] >= got["norms"][1] >= got["norms"][2]


def test_bf_sandwich(grid):
    f = random_band_limited(grid, (-24.0, 24.0), seed=5)
    got = bf_sandwich_check(f, 0.5, 2.0, 1.5, 0.3)
    assert got["b_small_q"] * (1 + 1e-12) >= got["f_norm"] >= \
        got["b_large_q"] / (1 + 1e-12)


# -- counterexample ----------------------------------------------------


@pytest.mark.parametrize("u,q", [(1.0, 2.0), (1.0, math.inf), (2.0, 4.0)])
@pytest.mark.parametrize("n", [2, 16, 171, 256])
def test_counterexample_ratio_closed_form(u, q, n):
    a = 2.0 ** (-np.arange(1, n + 1))
    got = counterexample_norms(a, u, q)
    want = n ** (1.0 / u - (0.0 if math.isinf(q) else 1.0 / q))
    assert got["ratio"] == pytest.approx(want, rel=1e-13)


def test_counterexample_n16_exact():
    got = counterexample_norms(2.0 ** (-np.arange(1, 17)), 1.0, 2.0)
    assert got["ratio"] == 4.0


def test_counterexample_needs_strictly_smaller_u():
    with pytest.raises(ValueError):
        counterexample_norms(np.ones(4), 2.0, 2.0)
    with pytest.raises(ValueError):
        counterexample_norms(np.ones(4), 3.0, 2.0)


@pytest.mark.parametrize("coefficients", [[1.0, math.nan], [math.inf, 1.0],
                                          [1.0, complex(math.nan, 0.0)]])
def test_counterexample_rejects_non_finite_coefficients(coefficients):
    """A NaN coefficient once gave ratio NaN without an error."""
    with pytest.raises(ValueError, match="finite"):
        counterexample_norms(coefficients, 1.0, 2.0)


# -- mixed derivative estimate -----------------------------------------


def _mixed_params(kind="F", gamma0=Fraction(3, 10), gamma1=Fraction(3, 10)):
    return MixedDerivativeParams(kind, s=Fraction(1, 2), alpha=Fraction(1, 2),
                                 theta=Fraction(1, 2), p0=Fraction(2),
                                 q0=Fraction(2), gamma0=gamma0, p1=Fraction(3),
                                 q1=Fraction(2), gamma1=gamma1)


def test_mixed_interpolated_exponents():
    params = _mixed_params()
    assert params.p == Fraction(12, 5)     # 1/p = (1-th)/p0 + th/p1
    assert params.target_smoothness == Fraction(3, 4)


@pytest.mark.parametrize("field", ["q0", "q1"])
def test_mixed_params_reject_infinite_q(field):
    kwargs = dict(s=Fraction(1, 2), alpha=Fraction(1, 2), theta=Fraction(1, 2),
                  p0=Fraction(2), q0=Fraction(2), gamma0=Fraction(0), p1=Fraction(3),
                  q1=Fraction(2), gamma1=Fraction(0))
    kwargs[field] = math.inf
    with pytest.raises(ValueError):
        MixedDerivativeParams("F", **kwargs)


def test_single_mode_equality(grid):
    one = WeightedEuclideanInner([1.0])
    f = GridFunction.from_coeff_map(grid, {2.0: [1.0 + 0.5j]})
    got = mixed_derivative_check(f, _mixed_params(), (one, one, one))
    assert got["constant"] == 1.0
    assert got["lhs"] == pytest.approx(got["rhs"], rel=1e-12)


def test_mixed_family_bounded(grid):
    one = WeightedEuclideanInner([1.0])
    for seed in range(4):
        f = random_band_limited(grid, (-16.0, 16.0), seed=seed)
        got = mixed_derivative_check(f, _mixed_params(), (one, one, one))
        assert got["lhs"] <= got["rhs"] * (1.0 + 1e-9)


def test_holder_constant_geometric_mix_is_one():
    w0 = WeightedEuclideanInner([1.0, 0.5, 0.25])
    w1 = WeightedEuclideanInner([0.3, 1.0, 0.7])
    got = diagonal_holder_constant(w0, w1, w0.geometric_mix(w1, 0.5), 0.5)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_holder_constant_matches_brute_force():
    w0 = np.array([1.0, 0.6, 0.25])
    w1 = np.array([0.4, 1.0, 0.7])
    wt = np.array([0.8, 0.75, 0.5])
    theta = 0.5
    got = diagonal_holder_constant(WeightedEuclideanInner(w0),
                                   WeightedEuclideanInner(w1),
                                   WeightedEuclideanInner(wt), theta)
    # brute force over a simplex sample of direction vectors
    best = 1.0
    pts = np.linspace(0.0, 1.0, 41)
    for a, b in itertools.product(pts, pts):
        c = 1.0 - a - b
        if c < 0.0:
            continue
        v = np.sqrt(np.array([a, b, c]))
        num = float(np.linalg.norm(v * wt))
        den = (float(np.linalg.norm(v * w0)) ** (1 - theta)
               * float(np.linalg.norm(v * w1)) ** theta)
        best = max(best, num / den)
    assert got >= best * (1.0 - 1e-9)
    assert got <= best * 1.05  # the dense search is a lower bound


def test_mixed_diagonal_inner_with_constant(grid):
    inners = (WeightedEuclideanInner([1.0, 0.6, 0.25]),
              WeightedEuclideanInner([0.4, 1.0, 0.7]),
              WeightedEuclideanInner([0.8, 0.75, 0.5]))
    f = random_band_limited(grid, (-16.0, 16.0), seed=9, dim=3)
    got = mixed_derivative_check(f, _mixed_params(), inners)
    assert got["constant"] == diagonal_holder_constant(*inners, 0.5) > 1.0
    assert got["lhs"] <= got["rhs"] * (1.0 + 1e-12)
