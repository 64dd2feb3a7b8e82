from fractions import Fraction

import pytest

from tracespaces import (
    DegenerateCaseError,
    SpaceDescriptor,
    StefanParams,
    classify_spaces,
    compatibility_conditions,
    dt_boundedness_check,
)


def test_params_require_exponents_above_one():
    with pytest.raises(ValueError):
        StefanParams(1, 2)
    with pytest.raises(ValueError):
        StefanParams(2, Fraction(1, 2))


@pytest.mark.parametrize("p,q,admissible", [
    (2, 2, True),
    (8, 2, True),
    (Fraction(4, 3), Fraction(3, 2), True),
    (2, 8, False),                # q too large: above 2p
    (8, Fraction(3, 2), False),   # q too small: below 2p/(p+1)
])
def test_admissibility_window(p, q, admissible):
    assert StefanParams(p, q).admissible is admissible


def test_classification_p2_q2():
    spaces = classify_spaces(StefanParams(2, 2))
    assert spaces["Xh"] == (SpaceDescriptor("B", Fraction(5, 2), Fraction(2),
                                            Fraction(2)),)
    assert spaces["Xdth"] is None
    assert compatibility_conditions(StefanParams(2, 2)) == ("jump", "static")


def test_classification_p8_q2():
    spaces = classify_spaces(StefanParams(8, 2))
    assert spaces["Xh"] == (SpaceDescriptor("B", Fraction(13, 4), Fraction(2),
                                            Fraction(8)),)
    assert spaces["Xdth"] == (SpaceDescriptor("B", Fraction(1, 2), Fraction(2),
                                              Fraction(8)),)
    assert compatibility_conditions(StefanParams(8, 2)) == \
        ("dynamic", "jump", "static")


def test_classification_p4over3_q3over2():
    params = StefanParams(Fraction(4, 3), Fraction(3, 2))
    spaces = classify_spaces(params)
    assert spaces["Xh"] == (SpaceDescriptor("B", Fraction(5, 3),
                                            Fraction(3, 2), Fraction(4, 3)),)
    assert spaces["Xdth"] is None
    assert compatibility_conditions(params) == ()


def test_exact_arithmetic_no_float_drift():
    # exponents must come out as exact rationals, not nearby floats
    spaces = classify_spaces(StefanParams(8, 2))
    s = spaces["Xh"][0].smoothness
    assert isinstance(s, Fraction)
    assert s == Fraction(13, 4)


def test_degenerate_line_raises():
    with pytest.raises(DegenerateCaseError):
        classify_spaces(StefanParams(Fraction(4, 3), 2))


def test_render():
    d = SpaceDescriptor("B", Fraction(5, 2), Fraction(2), Fraction(2))
    assert d.render() == "B^{5/2}_{2,2}"


def test_classification_returns_all_slots():
    spaces = classify_spaces(StefanParams(8, 2))
    for key in ("E0", "Eu", "F1", "F2", "Eh", "Xu", "Xh", "Xdth"):
        assert key in spaces


def test_dt_check_requires_dynamic_condition(grid):
    with pytest.raises(ValueError):
        dt_boundedness_check(StefanParams(2, 2), grid)


def test_dt_check_runs_on_dynamic_case(grid):
    got = dt_boundedness_check(StefanParams(8, 2), grid, seed=2031)
    assert got["admissible"]
    assert "dynamic" in got["conditions"]
    assert got["dt_trace_error"] < 1e-3
    assert got["ratio"] > 0.0
