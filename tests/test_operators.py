import math

import numpy as np
import pytest

from tracespaces import (
    InterpQuadSpec,
    MultiplierOperator,
    batch_interp_norm_resolvent,
    closed_form_resolvent_norm,
    closed_form_semigroup_norm,
    interp_norm_resolvent,
    interp_norm_semigroup,
    reiteration_ratio,
)


@pytest.fixture(scope="module")
def diag():
    return MultiplierOperator.diagonal((0.5, 1.0, 2.0, 4.0, 8.0, 16.0))


@pytest.fixture(scope="module")
def x6():
    rng = np.random.default_rng(3)
    return rng.standard_normal(6) + 1j * rng.standard_normal(6)


def test_operator_validation(diag, x6):
    with pytest.raises(ValueError):
        MultiplierOperator.diagonal((1.0, -2.0))
    with pytest.raises(ValueError):
        MultiplierOperator.scalar(0.0)
    with pytest.raises(ValueError):
        batch_interp_norm_resolvent(diag, 0.5, 0.5, x6[None, :])   # r below 1
    with pytest.raises(ValueError):
        batch_interp_norm_resolvent(diag, -0.5, 2.0, x6[None, :])  # alpha not positive


def test_resolvent_norm_unit_scalar():
    got = interp_norm_resolvent(MultiplierOperator.scalar(1.0), 0.5, 2.0, [1.0])
    assert got == pytest.approx(1.0, abs=1e-9)


def test_semigroup_norm_unit_scalar():
    got = interp_norm_semigroup(MultiplierOperator.scalar(1.0), 0.5, 2.0, [1.0])
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-9)


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0, 16.0])
def test_resolvent_scaling_law(a):
    base = interp_norm_resolvent(MultiplierOperator.scalar(1.0), 0.5, 2.0, [1.0])
    got = interp_norm_resolvent(MultiplierOperator.scalar(a), 0.5, 2.0, [1.0])
    assert got == pytest.approx(a ** 0.5 * base, rel=1e-9)


@pytest.mark.parametrize("alpha,p", [(0.3, 1.0), (0.5, 2.0), (0.9, 3.0), (1.7, 2.0)])
def test_resolvent_matches_closed_form_scalar(alpha, p):
    op = MultiplierOperator.scalar(2.5)
    got = interp_norm_resolvent(op, alpha, p, [1.5])
    want = closed_form_resolvent_norm(op, alpha, p, [1.5])
    assert got == pytest.approx(want, rel=1e-9)


def test_resolvent_matches_closed_form_diagonal(diag, x6):
    got = interp_norm_resolvent(diag, 0.6, 2.0, x6)
    want = closed_form_resolvent_norm(diag, 0.6, 2.0, x6)
    assert got == pytest.approx(want, rel=1e-9)


def test_semigroup_matches_closed_form_diagonal(diag, x6):
    got = interp_norm_semigroup(diag, 0.6, 2.0, x6)
    want = closed_form_semigroup_norm(diag, 0.6, 2.0, x6)
    assert got == pytest.approx(want, rel=1e-9)


def test_small_exponent_window_stays_finite(diag, x6):
    """sigma^{alpha p} decays so slowly for small alpha*p that the window
    cannot be widened until the tail vanishes; the closed-form tail pieces
    must carry it instead."""
    got = interp_norm_resolvent(diag, 0.05, 1.0, x6)
    fine = interp_norm_resolvent(diag, 0.05, 1.0, x6,
                                 quad=InterpQuadSpec(1e-8, 1e8, 160))
    assert math.isfinite(got)
    assert got == pytest.approx(fine, rel=1e-5)


_NARROW = InterpQuadSpec(1e-1, 1e1, nodes_per_decade=4)


@pytest.mark.parametrize("quad", [None, _NARROW], ids=["default", "narrow"])
@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
def test_batch_matches_single_vector(diag, x6, r, quad):
    """At r = inf the integrands of these rows still peak near the ends of
    the narrow window, so the batch must widen it as one vector does."""
    batch = np.stack([x6[::-1], 2.0 * x6[::-1], np.roll(x6, 2)])
    got = batch_interp_norm_resolvent(diag, 0.6, r, batch, quad=quad)
    for row, x in zip(got, batch):
        want = interp_norm_resolvent(diag, 0.6, r, x, quad=quad)
        assert row == pytest.approx(want, rel=1e-9)


def test_batch_zero_rows(diag):
    got = batch_interp_norm_resolvent(diag, 0.5, 2.0, np.zeros((4, 6)))
    np.testing.assert_array_equal(got, np.zeros(4))
    # the nonzero rows peak inside the narrow window and have a second,
    # higher hump near sigma = 1e4 beyond it; a zero row (peak 0 at both
    # ends) that widened the window would reach that hump
    op = MultiplierOperator.diagonal((1.0, 1e4))
    batch = np.array([[1.0, 0.02], [0.0, 0.0], [2.0, 0.03]])
    got = batch_interp_norm_resolvent(op, 0.5, math.inf, batch, quad=_NARROW)
    assert got[1] == 0.0
    for i in (0, 2):
        want = interp_norm_resolvent(op, 0.5, math.inf, batch[i], quad=_NARROW)
        assert got[i] == pytest.approx(want, rel=1e-12)


def test_batch_sup_norm_scales_linearly(diag, x6):
    one = batch_interp_norm_resolvent(diag, 0.5, math.inf, x6[None, :])
    three = batch_interp_norm_resolvent(diag, 0.5, math.inf, 3.0 * x6[None, :])
    assert three[0] == pytest.approx(3.0 * one[0], rel=1e-12)


def test_reiteration_ratio_constant_in_x():
    op = MultiplierOperator.scalar(2.0)
    r1 = reiteration_ratio(op, 0.8, 0.5, 2.0, [1.0])
    r2 = reiteration_ratio(op, 0.8, 0.5, 2.0, [-3.7])
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_frac_power_spectrum(diag):
    half = diag.frac_power(0.5)
    np.testing.assert_allclose(half.eigenvalues, np.sqrt(diag.eigenvalues),
                               rtol=1e-15)


def test_norm_order_equivalence_near_integer():
    """Raising the integer power m changes the norm by a bounded equivalence
    factor only; both orders must land within the same decade."""
    op = MultiplierOperator.scalar(1.0)
    a = interp_norm_resolvent(op, 0.5, 2.0, [1.0], quad=InterpQuadSpec(m=1))
    b = interp_norm_resolvent(op, 0.5, 2.0, [1.0], quad=InterpQuadSpec(m=2))
    assert 0.1 < a / b < 10.0
