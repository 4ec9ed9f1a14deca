from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings.bounds import (
    asymptotic_ratio,
    exact,
    knn_table,
    lift_bound,
    plain,
    quadratic_bound,
    truncated,
    zarankiewicz,
)
from crossings.errors import ArgumentError
from oracles import rounded

# Every target below is frozen by hand from the published tables, never read
# from the library it checks.

# strongest certified optimum per level: the full relaxation at ten rows,
# the single block above
LEVELS = {
    10: "9.7411403685",
    11: "11.9987919703",
    12: "14.5115811776",
    13: "17.3135089904",
}

# coefficient of n^2 (five places, cut down) and of -n (exact)
QUADRATIC_COEFFS = {
    10: ("4.87057", "10"),
    11: ("5.99939", "12.5"),
    12: ("7.25579", "15"),
    13: ("8.65675", "18"),
}

# coefficient of m(m-1)n^2 (four places, cut down) and of -m(m-1)n (exact)
LIFTED_COEFFS = {
    10: ("0.0541", "1/9"),
    11: ("0.0545", "5/44"),
    12: ("0.0549", "5/44"),
    13: ("0.0554", "3/26"),
}

# balanced bounds ceil(g n^2 / 2 - B n) at n = level
BALANCED_BOUNDS = {10: 388, 11: 589, 12: 865, 13: 1229}


def test_quadratic_coefficients_match_published_forms():
    for m, (a5, b_exact) in QUADRATIC_COEFFS.items():
        qb = quadratic_bound(m, LEVELS[m])
        assert truncated(qb.a, 5) == a5
        assert plain(qb.b) == b_exact


def test_lifted_coefficients_match_published_forms():
    for m, (c4, e_exact) in LIFTED_COEFFS.items():
        lb = lift_bound(quadratic_bound(m, LEVELS[m]))
        assert truncated(lb.c, 4) == c4
        assert plain(lb.e) == e_exact


def test_balanced_table():
    assert knn_table(LEVELS) == BALANCED_BOUNDS


def test_balanced_bounds_stay_under_the_grid_count():
    for n, value in knn_table(LEVELS).items():
        assert value <= zarankiewicz(n, n)


def test_asymptotic_ratio_values():
    assert asymptotic_ratio(4, 1) == Fraction(2, 3)
    assert truncated(asymptotic_ratio(13, LEVELS[13]), 4) == "0.8878"
    assert rounded(asymptotic_ratio(9, "7.7352125975"), 4) == "0.8595"


def test_zarankiewicz_values():
    assert [zarankiewicz(n, n) for n in (10, 11, 12, 13)] == [400, 625, 900, 1296]
    assert zarankiewicz(7, 5) == 36
    assert zarankiewicz(2, 50) == 0


def test_inflated_optimum_is_rejected():
    qb = quadratic_bound(10, 50)
    with pytest.raises(ArgumentError):
        qb.evaluate(10)
    lb = lift_bound(quadratic_bound(10, 50))
    with pytest.raises(ArgumentError):
        lb.evaluate(10, 10)


def test_lift_needs_enough_rows():
    lb = lift_bound(quadratic_bound(10, LEVELS[10]))
    with pytest.raises(ArgumentError):
        lb.evaluate(9, 20)


@given(n=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_lift_at_its_own_level_reproduces_the_quadratic(n):
    qb = quadratic_bound(10, LEVELS[10])
    assert lift_bound(qb).evaluate(10, n) == qb.evaluate(n)


def test_quadratic_floor_at_zero():
    assert quadratic_bound(4, 1).evaluate(1) == 0


def test_negative_column_counts_are_refused():
    # the quadratic is positive again below zero, so a negative count would
    # print a bound for a graph that does not exist
    qb = quadratic_bound(7, 4.3107391257)
    with pytest.raises(ArgumentError, match="-5"):
        qb.evaluate(-5)
    with pytest.raises(ArgumentError, match="-1"):
        lift_bound(qb).evaluate(7, -1)
    assert qb.evaluate(0) == 0


def test_exact_reads_decimals_not_binary_floats():
    assert exact(0.1) == Fraction(1, 10)
    assert exact("9.7411403685") == Fraction(97411403685, 10**10)
    assert exact(Fraction(3, 7)) == Fraction(3, 7)
    assert exact(4) == Fraction(4)


def test_display_helpers():
    assert truncated(Fraction(2, 3), 4) == "0.6666"
    assert rounded(Fraction(2, 3), 4) == "0.6667"
    assert truncated(1, 4) == "1.0000"
    assert truncated(Fraction(-5, 3), 2) == "-1.66"
    assert rounded(Fraction(-5, 3), 2) == "-1.67"
    assert truncated(Fraction(1, 2), 0) == "0"
    assert rounded(Fraction(1, 2), 0) == "1"
    assert plain(Fraction(25, 2)) == "12.5"
    assert plain(Fraction(1, 9)) == "1/9"
    assert plain(Fraction(1, 10)) == "0.1"
    assert plain(Fraction(10)) == "10"


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**4), places=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_display_helpers_bracket_the_value(num, den, places):
    f = Fraction(num, den)
    step = Fraction(1, 10**places)
    cut = Fraction(truncated(f, places))
    assert abs(cut) <= abs(f) < abs(cut) + step or f == cut
    near = Fraction(rounded(f, places))
    assert abs(near - f) <= step / 2
