from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.algebra import (
    LinearForm,
    MultiPoly,
    NotDivisible,
    PolyRing,
    TruncSeries,
    bernoulli,
    falling_factorial,
    rising_factorial,
    s_of,
    s_power_series,
    sigma_of,
)

R = PolyRing(("x", "y"))


def test_multipoly_arithmetic():
    x, y = R.var("x"), R.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.substitute("x", y).is_zero()
    assert (x * y + 2).evaluate({"x": Fraction(3), "y": Fraction(1, 2)}) == Fraction(7, 2)


def test_multipoly_exact_divide():
    x, y = R.var("x"), R.var("y")
    p = (x + 2 * y) * (x * y + 3)
    assert p.exact_divide(x + 2 * y) == x * y + 3
    with pytest.raises(NotDivisible):
        (x + 1).exact_divide(y)


def test_sorted_terms_deterministic():
    x, y = R.var("x"), R.var("y")
    p = x * x + y + x * y + 1
    degs = [sum(e) for e, _ in p.sorted_terms()]
    assert degs == sorted(degs)


def test_linear_form_basics():
    a = LinearForm.unit("x") + LinearForm({"y": 2})
    assert a.evaluate({"x": Fraction(1), "y": Fraction(3)}) == 7
    assert (a - a).is_zero()
    assert a.as_poly(R) == R.var("x") + 2 * R.var("y")


def test_series_inverse_roundtrip():
    t = TruncSeries.from_linear(("v",), (6,), {"v": 1})
    s = TruncSeries.one(("v",), (6,)) + t + t * t
    assert s * s.inverse() == TruncSeries.one(("v",), (6,))


def test_series_block_truncation():
    # joint total degree in (a, b) capped at 2 even though each cap is 4
    names, caps = ("a", "b"), (4, 4)
    blocks = (((0, 1), 2),)
    a = TruncSeries.from_linear(names, caps, {"a": 1}, None, blocks)
    b = TruncSeries.from_linear(names, caps, {"b": 1}, None, blocks)
    prod = (a + b) * (a + b) * (a + b)
    assert prod.data == {}  # all degree-3 monomials fall outside the block
    sq = (a + b) * (a + b)
    assert sq.coeff({"a": 1, "b": 1}) == 2


def test_sigma_of_matches_exponential_difference():
    # sigma(t) = e^{t/2} - e^{-t/2}; check via the defining odd-term series
    t = TruncSeries.from_linear(("t",), (7,), {"t": 1})
    s = sigma_of(t)
    from math import factorial

    for k in range(8):
        want = Fraction(1, 2 ** (k - 1) * factorial(k)) if k % 2 else Fraction(0)
        assert s.coeff({"t": k}) == want


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 2)])
def test_s_power_quartic_coefficient(c):
    # [v^4] S(v)^c = c/1920 + c(c-1)/1152
    s = s_power_series(c, "v", 4)
    assert s.coeff({"v": 4}) == c / 1920 + c * (c - 1) / 1152


def test_s_power_polynomial_exponent():
    ring = PolyRing(("n",))
    nvar = ring.var("n")
    s = s_power_series(nvar - 2, "v", 4)
    # evaluating the coefficient polynomials at n=5 matches the numeric run
    direct = s_power_series(Fraction(3), "v", 4)
    for k in range(5):
        cp = s.coeff({"v": k})
        val = cp.evaluate({"n": Fraction(5)}) if isinstance(cp, MultiPoly) else cp
        assert val == direct.coeff({"v": k})


@pytest.mark.parametrize(
    "g,expected",
    [(1, Fraction(1)), (2, Fraction(-1, 12)), (3, Fraction(1, 240))],
)
def test_s_power_at_zero_exponent_matches_bernoulli(g, expected):
    # [z^{2g-2}] S(z)^{nu-2} at nu=0 equals -(2g-3) B_{2g-2} / (2g-2)!
    from math import factorial

    ring = PolyRing(("nu",))
    s = s_power_series(ring.var("nu") - 2, "z", 2 * g - 2)
    cp = s.coeff({"z": 2 * g - 2})
    got = cp.evaluate({"nu": Fraction(0)}) if isinstance(cp, MultiPoly) else cp
    assert got == expected
    assert got == -(2 * g - 3) * bernoulli(2 * g - 2) / factorial(2 * g - 2)


def test_bernoulli_numbers():
    assert [bernoulli(k) for k in range(7)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
    ]


def test_factorial_helpers():
    assert rising_factorial(Fraction(3), 4) == 3 * 4 * 5 * 6
    assert falling_factorial(Fraction(3), 4) == 0
    assert falling_factorial(Fraction(5), 3) == 60
    assert rising_factorial(Fraction(1), 0) == 1


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_series_product_commutes(acoef, bcoef):
    names, caps = ("v",), (5,)
    a = TruncSeries(names, caps, None, {(k,): Fraction(c) for k, c in enumerate(acoef)})
    b = TruncSeries(names, caps, None, {(k,): Fraction(c) for k, c in enumerate(bcoef)})
    assert a * b == b * a


@given(st.integers(-6, 6), st.integers(0, 5))
def test_rising_falling_reflection(x, k):
    # (-1)^k * falling(-x, k) == rising(x, k)
    assert rising_factorial(Fraction(x), k) == (-1) ** k * falling_factorial(Fraction(-x), k)
