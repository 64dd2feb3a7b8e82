import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from tracespaces import (
    MultiplierOperator,
    batch_interp_norm_resolvent,
    closed_form_resolvent_norm,
    closed_form_semigroup_norm,
    interp_norm_resolvent,
    interp_norm_semigroup,
    reiteration_ratio,
)
from tracespaces import operators


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
    for bad in (math.nan, math.inf):                               # not finite
        with pytest.raises(ValueError):
            MultiplierOperator.diagonal((1.0, bad))
    with pytest.raises(ValueError):
        batch_interp_norm_resolvent(diag, 0.5, 0.5, x6[None, :])   # r below 1
    with pytest.raises(ValueError):
        batch_interp_norm_resolvent(diag, -0.5, 2.0, x6[None, :])  # alpha not positive
    with pytest.raises(ValueError):
        batch_interp_norm_resolvent(diag, math.inf, 2.0, x6[None, :])  # alpha not finite
    for norm in (interp_norm_resolvent, interp_norm_semigroup):
        for shape in ((1, 6), (2, 6)):  # a single-vector norm takes one vector, not a stack
            with pytest.raises(ValueError, match="one vector of length 6"):
                norm(diag, 0.5, 2.0, np.ones(shape))


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
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("spectrum", ["diag", "wide"])
@pytest.mark.parametrize("alpha", [0.05, 0.6, 1.7, 2.5])
def test_resolvent_matches_closed_form_diagonal(diag, x6, alpha, spectrum):
    """At p = 2 the rule contracts to one weight per component; the norm
    meets the Beta closed form across orders m = 1, 2, 3 and on a spectrum
    four decades wide."""
    op, x = (diag, x6) if spectrum == "diag" else (MultiplierOperator.diagonal((1.0, 1e4)), x6[:2])
    got = interp_norm_resolvent(op, alpha, 2.0, x)
    want = closed_form_resolvent_norm(op, alpha, 2.0, x)
    assert got == pytest.approx(want, rel=1e-12)


def test_semigroup_matches_closed_form_diagonal(diag, x6):
    got = interp_norm_semigroup(diag, 0.6, 2.0, x6)
    want = closed_form_semigroup_norm(diag, 0.6, 2.0, x6)
    assert got == pytest.approx(want, rel=1e-9)


def _dense_resolvent_norm(op, alpha, p, x):
    """The resolvent-form integral by adaptive quadrature in sigma, with
    the sigma^{alpha p - 1} singularity at 0 taken as a quadrature weight."""
    lam, sq = op.eigenvalues, np.abs(np.asarray(x)) ** 2
    m = math.floor(alpha) + 1

    def h(s):
        return np.sum(sq * (lam / (s + lam)) ** (2 * m)) ** (0.5 * p)

    near = quad(h, 0.0, 1.0, weight="alg", wvar=(alpha * p - 1.0, 0.0),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    far = quad(lambda s: s ** (alpha * p - 1.0) * h(s), 1.0, np.inf,
               epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return (near + far) ** (1.0 / p)


def test_small_exponent_window_stays_finite(diag, x6):
    """sigma^{alpha p} decays so slowly for small alpha*p that no window
    reaches far enough for the tail to vanish; the closed-form tail pieces
    must carry it instead."""
    got = interp_norm_resolvent(diag, 0.05, 1.0, x6)
    assert math.isfinite(got)
    assert got == pytest.approx(_dense_resolvent_norm(diag, 0.05, 1.0, x6), rel=1e-10)


@pytest.mark.parametrize("a", [0.25, 2.5, 16.0])
@pytest.mark.parametrize("alpha,m", [(0.05, None), (0.5, None), (0.9, None), (1.7, None),
                                     (0.5, 2), (1.7, 3)])
def test_sup_norm_matches_closed_form_scalar(a, alpha, m):
    """sup_sigma sigma^alpha (a / (sigma + a))^m |x| is attained at
    sigma = alpha a / (m - alpha); the window around that one peak must
    keep a decade of margin on both sides."""
    order = m or math.floor(alpha) + 1
    got = interp_norm_resolvent(MultiplierOperator.scalar(a), alpha, math.inf, [1.5], m)
    want = (a ** alpha * 1.5 * alpha ** alpha * (order - alpha) ** (order - alpha)
            / order ** order)
    assert got == pytest.approx(want, rel=2e-4)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.7])
def test_sup_norm_matches_dense_supremum(diag, x6, alpha):
    m = math.floor(alpha) + 1
    sigma = np.geomspace(1e-4, 1e5, 200001)
    lam = diag.eigenvalues
    for x in (x6, x6[::-1], np.roll(x6, 2)):
        grand = np.sqrt(np.abs(x) ** 2 @ (lam[:, None] / (sigma + lam[:, None])) ** (2 * m))
        want = float(np.max(grand * sigma ** alpha))
        got = interp_norm_resolvent(diag, alpha, math.inf, x)
        assert got == pytest.approx(want, rel=2e-4)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 1.7])
def test_semigroup_matches_closed_form_scalar(alpha, p):
    op = MultiplierOperator.scalar(2.5)
    got = interp_norm_semigroup(op, alpha, p, [1.5])
    assert got == pytest.approx(closed_form_semigroup_norm(op, alpha, p, [1.5]), rel=1e-11)


@pytest.mark.parametrize("a", [0.25, 2.5, 16.0])
@pytest.mark.parametrize("alpha", [0.05, 0.6, 1.7])
def test_semigroup_sup_norm_matches_closed_form_scalar(a, alpha):
    """sup_t t^e a^m e^{-t a} |x| = a^alpha |x| (e / exp(1))^e, e = m - alpha."""
    e = math.floor(alpha) + 1 - alpha
    got = interp_norm_semigroup(MultiplierOperator.scalar(a), alpha, math.inf, [1.5])
    assert got == pytest.approx(a ** alpha * 1.5 * (e / math.e) ** e, rel=2e-4)


@pytest.mark.parametrize("case", ["default", "wide-spectrum", "chunk-edge"])
@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
def test_batch_matches_single_vector(diag, x6, r, case):
    """The window depends on the operator alone, so each row of a batch,
    a zero row among them, is its norm computed alone, bitwise.  The
    wide-spectrum rows peak near sigma = 1 and have a second, higher hump
    near sigma = 1e4.  The chunk-edge batch holds more nonzero rows than
    one chunk, with zero rows on both sides of the edge, and equals the
    same rows taken in two batches of under one chunk each."""
    if case == "default":
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
        op, batch = diag, np.vstack([x6[::-1], np.zeros(6), 2.0 * x6[::-1], np.roll(x6, 2), rows])
    elif case == "wide-spectrum":
        op = MultiplierOperator.diagonal((1.0, 1e4))
        batch = np.array([[1.0, 0.02], [0.0, 0.0], [2.0, 0.03], [0.0, 1.0]])
    else:
        edge = operators._BATCH_ROWS
        rng = np.random.default_rng(7)
        op = diag
        batch = rng.standard_normal((edge + 600, 6)) + 1j * rng.standard_normal((edge + 600, 6))
        # nonzero row `edge` is the last of the first chunk, `edge + 2` the
        # first of the second
        batch[[1, edge + 1, edge + 3]] = 0.0
    got = batch_interp_norm_resolvent(op, 0.6, r, batch)
    assert got[1] == 0.0
    checked = range(len(batch))
    if case == "chunk-edge":
        split = [batch_interp_norm_resolvent(op, 0.6, r, part) for part in np.split(batch, [2000])]
        np.testing.assert_array_equal(got, np.concatenate(split))
        assert got[edge + 1] == got[edge + 3] == 0.0
        checked = (0, 2, edge - 1, edge, edge + 2, edge + 4, len(batch) - 1)
    for i in checked:
        assert got[i] == interp_norm_resolvent(op, 0.6, r, batch[i])


def test_batch_zero_rows(diag):
    for r in (1.0, 2.0, math.inf):
        got = batch_interp_norm_resolvent(diag, 0.5, r, np.zeros((4, 6)))
        np.testing.assert_array_equal(got, np.zeros(4))


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
    a = interp_norm_resolvent(op, 0.5, 2.0, [1.0], m=1)
    b = interp_norm_resolvent(op, 0.5, 2.0, [1.0], m=2)
    assert 0.1 < a / b < 10.0


def _gammaln_beta(a, b):
    return math.exp(gammaln(a) + gammaln(b) - gammaln(a + b))


@pytest.mark.parametrize("alpha,p", [(0.3, 1.0), (0.5, 2.0), (0.6, 2.0), (0.9, 3.0), (1.7, 2.0)])
def test_closed_forms_match_a_gammaln_reference(diag, x6, alpha, p):
    """math.lgamma in the closed forms agrees with scipy's gammaln to 1e-14:
    lambda^alpha B(alpha p, (m - alpha) p)^(1/p) |x| and lambda^alpha
    (Gamma((m - alpha) p) / p^((m - alpha) p))^(1/p) |x|."""
    m = math.floor(alpha) + 1
    e = (m - alpha) * p
    op = MultiplierOperator.scalar(2.5)
    want_res = 2.5 ** alpha * _gammaln_beta(alpha * p, e) ** (1.0 / p) * 1.5
    want_semi = 2.5 ** alpha * math.exp((gammaln(e) - e * math.log(p)) / p) * 1.5
    assert closed_form_resolvent_norm(op, alpha, p, [1.5]) == pytest.approx(want_res, rel=1e-14)
    assert closed_form_semigroup_norm(op, alpha, p, [1.5]) == pytest.approx(want_semi, rel=1e-14)
    if p == 2.0:
        e = 2.0 * (m - alpha)
        scale = np.abs(x6) ** 2 * diag.eigenvalues ** (2.0 * alpha)
        want_res = math.sqrt(np.sum(scale * _gammaln_beta(2.0 * alpha, e)))
        want_semi = math.sqrt(np.sum(scale * math.exp(gammaln(e)) / 2.0 ** e))
        assert closed_form_resolvent_norm(diag, alpha, p, x6) == pytest.approx(want_res, rel=1e-14)
        assert closed_form_semigroup_norm(diag, alpha, p, x6) == pytest.approx(want_semi, rel=1e-14)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_nan_vector_has_nan_norm(diag, x6, r):
    """A row with a NaN is live, not a zero row: its norm is NaN in both
    forms, while the other rows of its batch keep their values."""
    nan = np.full(6, math.nan)
    with np.errstate(all="ignore"):
        got = batch_interp_norm_resolvent(diag, 0.6, r, np.vstack([x6, nan, np.zeros(6)]))
        assert math.isnan(got[1])
        assert math.isnan(interp_norm_resolvent(diag, 0.6, r, nan))
        assert math.isnan(interp_norm_semigroup(diag, 0.6, r, nan))
    assert got[0] == interp_norm_resolvent(diag, 0.6, r, x6)
    assert got[2] == 0.0
    assert interp_norm_semigroup(diag, 0.6, r, np.zeros(6)) == 0.0


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_kept_rule_matches_a_fresh_operator(x6, r):
    """In both forms the rule kept on an operator gives norms bitwise equal
    to a fresh operator with the same eigenvalues, for a batch and for
    single rows, and a second call builds no rule.  The forms keep one rule
    each at the same (alpha, r, m)."""
    eigs = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    rng = np.random.default_rng(11)
    batch = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    op = MultiplierOperator.diagonal(eigs)
    for form, one in (("resolvent", interp_norm_resolvent), ("semigroup", interp_norm_semigroup)):
        first = operators._batch_norm(op, form, 0.6, r, batch, None)
        rule = op._rules[(form, 0.6, r, 1)]
        np.testing.assert_array_equal(operators._batch_norm(op, form, 0.6, r, batch, None), first)
        assert op._rules[(form, 0.6, r, 1)] is rule
        np.testing.assert_array_equal(
            operators._batch_norm(MultiplierOperator.diagonal(eigs), form, 0.6, r, batch, None),
            first)
        for row, want in ((batch[0], first[0]), (batch[-1], first[-1]), (x6, None)):
            kept = one(op, 0.6, r, row)
            assert kept == one(MultiplierOperator.diagonal(eigs), 0.6, r, row)
            assert want is None or kept == want
    np.testing.assert_array_equal(batch_interp_norm_resolvent(op, 0.6, r, batch),
                                  operators._batch_norm(op, "resolvent", 0.6, r, batch, None))
    assert list(op._rules) == [("resolvent", 0.6, r, 1), ("semigroup", 0.6, r, 1)]


def test_each_alpha_and_power_gets_its_own_rule(x6):
    eigs = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    op = MultiplierOperator.diagonal(eigs)
    forms, orders = ("resolvent", "semigroup"), ((0.6, 1), (0.7, 1), (0.6, 2))
    for form in forms:
        for alpha, m in orders:
            got = operators._batch_norm(op, form, alpha, 2.0, x6[None, :], m)
            assert got == operators._batch_norm(MultiplierOperator.diagonal(eigs), form, alpha,
                                                2.0, x6[None, :], m)
    assert list(op._rules) == [(form, alpha, 2.0, m) for form in forms for alpha, m in orders]
    # a sweep keeps the newest _MAX_RULES rules, the oldest dropped first
    op = MultiplierOperator.diagonal(eigs)
    alphas = np.linspace(0.1, 0.9, operators._MAX_RULES + 5)
    for alpha in alphas:
        interp_norm_resolvent(op, alpha, 2.0, x6)
    assert list(op._rules) == [("resolvent", a, 2.0, 1) for a in alphas[5:]]
    assert interp_norm_resolvent(op, 0.6, 2.0, x6) == interp_norm_resolvent(
        MultiplierOperator.diagonal(eigs), 0.6, 2.0, x6)
