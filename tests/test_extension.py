from fractions import Fraction

import numpy as np
import pytest

from tracespaces import (
    ExtensionOperator,
    QuadratureMesh,
    finite_difference,
    intertwine_defect,
    reflected_norm_ratio,
    reflection_coefficients,
)


@pytest.mark.parametrize("order,expected", [
    (0, (1,)),
    (1, (3, -2)),
    (2, (6, -8, 3)),
])
def test_low_order_coefficients_exact(order, expected):
    got = reflection_coefficients(order)
    assert got == tuple(Fraction(c) for c in expected)


@pytest.mark.parametrize("order", range(9))
def test_moment_identities(order):
    lam = reflection_coefficients(order)
    for power in range(order + 1):
        total = sum(Fraction(-j) ** power * c for j, c in enumerate(lam, start=1))
        assert total == 1


@pytest.mark.parametrize("twist", [1, 2])
def test_twisted_coefficients_follow_moment_shift(twist):
    base = reflection_coefficients(3)
    twisted = reflection_coefficients(3, twist=twist)
    assert twisted == tuple(Fraction(-j) ** twist * c
                            for j, c in enumerate(base, start=1))


def test_extension_matches_function_on_right_half():
    op = ExtensionOperator(2, 0)
    t = np.linspace(0.0, 1.0, 11)
    got = op.apply(np.cos, t, half_width=1.0)
    np.testing.assert_allclose(got, np.cos(t), atol=1e-15)


def test_extension_continuous_at_zero():
    op = ExtensionOperator(3, 0)
    eps = 1e-9
    left = op.apply(np.cos, np.array([-eps]), half_width=1.0)[0]
    assert left == pytest.approx(1.0, abs=1e-7)


def test_extension_rejects_points_beyond_reach():
    op = ExtensionOperator(1, 0)  # reflections reach only to -L/2
    with pytest.raises(ValueError):
        op.apply(np.cos, np.array([-0.75]), half_width=1.0)


@pytest.mark.parametrize("k,h", [(1, 1e-3), (2, 2e-3), (3, 4e-3)])
def test_finite_difference_stencils(k, h):
    t = np.linspace(-0.8, -0.2, 5)
    got = finite_difference(lambda s: np.sin(2.0 * s), t, k, h)
    want = 2.0 ** k * np.sin(2.0 * t + k * np.pi / 2.0)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("order,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_derivative_intertwines_with_twisted_extension(order, k):
    op = ExtensionOperator(order, 0)
    h = {1: 1e-3, 2: 2e-3, 3: 4e-3}[k]
    t = np.linspace(op.reflectable_min(1.0) + 5.0 * h, -0.05, 7)
    poly = np.polynomial.Polynomial((1.0, -1.0, 0.5, 2.0, -0.25))
    got = intertwine_defect(op, poly, lambda s: poly.deriv(k)(s), k, t,
                            h=h, half_width=1.0)
    assert got["rel_defect"] < 1e-6


def test_reflected_norm_within_coefficient_bound():
    mesh = QuadratureMesh(1.0, 512)
    op = ExtensionOperator(2, 0)
    got = reflected_norm_ratio(op, lambda t: np.exp(np.sin(2.0 * np.pi * t)),
                               2.0, 0.3, mesh)
    assert got["ratio"] <= got["bound"]


def test_reflected_bound_closed_form():
    op = ExtensionOperator(1, 0)
    lam = [float(c) for c in op.coefficients]
    want = sum(abs(c) * j ** (-(1.0 + 0.0) / 2.0)
               for j, c in enumerate(lam, start=1))
    assert op.reflected_lp_bound(2.0, 0.0) == pytest.approx(want, rel=1e-14)
