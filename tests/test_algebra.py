from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import algebra
from hurwitz.algebra import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    MultiPoly,
    NotDivisible,
    PolyRing,
    Space,
    bernoulli,
    factorial_column,
    s_inverse_of,
    s_of,
    s_power_column,
    s_power_series,
    s_ratio_of,
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


def test_series_inverse_roundtrip():
    space = Space.of(("v",), (6,))
    t = space.linear({"v": 1})
    s = space.one() + t + t * t
    assert s * s.inverse() == space.one()


def test_series_block_truncation():
    # joint total degree in (a, b) capped at 2 even though each cap is 4
    names, caps = ("a", "b"), (4, 4)
    blocks = (((0, 1), 2),)
    a = Space.of(names, caps, blocks).linear({"a": 1})
    b = Space.of(names, caps, blocks).linear({"b": 1})
    prod = (a + b) * (a + b) * (a + b)
    assert prod.data == {}  # all degree-3 monomials fall outside the block
    sq = (a + b) * (a + b)
    assert sq.coeff({"a": 1, "b": 1}) == 2
    # a zero cap or a zero block cap admits no term of its variables
    assert Space.of(names, (4, 0), blocks).linear({"a": 1, "b": 1}).data == {(1, 0): 1}
    assert Space.of(names, caps, (((0, 1), 0),)).linear({"a": 1, "b": 1}).data == {}


def test_sigma_of_matches_exponential_difference():
    # sigma(t) = e^{t/2} - e^{-t/2}; check via the defining odd-term series
    t = Space.of(("t",), (7,)).linear({"t": 1})
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
    assert factorial_column(3, 4, 1) == [1, 3, 12, 60, 360]
    assert factorial_column(3, 4, -1) == [1, 3, 6, 6, 0]
    assert factorial_column(Fraction(5), 3, -1)[3] == 60
    assert factorial_column(1, 0, 1) == [1]
    ring = PolyRing(("x",))
    x = ring.var("x")
    assert factorial_column(x, 2, -1) == [ring.one(), x, x * (x - 1)]


@pytest.mark.parametrize("x", [2.5, 0.0, "3", None], ids=repr)
def test_factorial_column_rejects_what_is_not_exact(x):
    with pytest.raises(TypeError, match="expected int, Fraction or MultiPoly"):
        factorial_column(x, 3, 1)


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_series_product_commutes(acoef, bcoef):
    names, caps = ("v",), (5,)
    a = Space.of(names, caps).series({(k,): Fraction(c) for k, c in enumerate(acoef)})
    b = Space.of(names, caps).series({(k,): Fraction(c) for k, c in enumerate(bcoef)})
    assert a * b == b * a


@given(st.integers(-6, 6), st.integers(0, 5))
def test_rising_falling_reflection(x, k):
    # (-1)^k * falling(-x, k) == rising(x, k)
    assert factorial_column(x, k, 1)[k] == (-1) ** k * factorial_column(-x, k, -1)[k]


# -- the integer kernel against a dict-of-Fraction reference --------------------

NAMES = ("a", "b", "c")
COEFFS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_scale(x, c):
    return _ref_clean({e: v * c for e, v in x.items()})


def _ref_mul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref_clean(out)


def _ref_substitute(x, i, y):
    out = {}
    for e, c in x.items():
        term = {e[:i] + (0,) + e[i + 1:]: c}
        for _ in range(e[i]):
            term = _ref_mul(term, y)
        out = _ref_add(out, term)
    return out


def _ref_evaluate(x, point):
    total = Fraction(0)
    for e, c in x.items():
        for v, k in zip(point, e):
            c *= v ** k
        total += c
    return total


def _ref_divide(x, y):
    lead = max(y)
    rem, quot = dict(x), {}
    while rem:
        e = max(rem)
        shift = tuple(a - b for a, b in zip(e, lead))
        if min(shift) < 0:
            raise NotDivisible
        quot[shift] = rem[e] / y[lead]
        rem = _ref_add(rem, _ref_scale(_ref_mul({shift: quot[shift]}, y), -1))
    return quot


@st.composite
def _terms(draw, nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return _ref_clean(draw(st.dictionaries(exps, COEFFS, max_size=6)))


def _assert_canonical(poly):
    assert poly.den > 0
    assert all(isinstance(c, int) and c for c in poly.num.values())
    if poly.num:
        assert math.gcd(poly.den, *poly.num.values()) == 1
    else:
        assert poly.den == 1
    built = MultiPoly(poly.ring, poly.terms)
    assert built == poly and hash(built) == hash(poly)
    assert (built.num, built.den) == (poly.num, poly.den)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_integer_kernel_matches_fraction_reference(data):
    nvars = data.draw(st.integers(2, 3))
    ring = PolyRing(NAMES[:nvars])
    tx, ty = data.draw(_terms(nvars)), data.draw(_terms(nvars))
    c = data.draw(COEFFS)
    x, y = MultiPoly(ring, tx), MultiPoly(ring, ty)
    i = data.draw(st.integers(0, nvars - 1))
    cases = [
        (x + y, _ref_add(tx, ty)),
        (x - y, _ref_add(tx, _ref_scale(ty, -1))),
        (x * y, _ref_mul(tx, ty)),
        (x * c, _ref_scale(tx, c)),
        (c * x, _ref_scale(tx, c)),
        (x.substitute(NAMES[i], y), _ref_substitute(tx, i, ty)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == want
    point = data.draw(st.tuples(*[COEFFS] * nvars))
    assert x.evaluate(dict(zip(NAMES, point))) == _ref_evaluate(tx, point)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_change_of_variables_matches_fraction_reference(data):
    # a permutation of the names and at most one substitution, against the
    # permuted exponents and `_ref_substitute`; then names of a larger ring,
    # two of ours possibly onto one, against numeric evaluation
    nvars = data.draw(st.integers(2, 3))
    ring = PolyRing(NAMES[:nvars])
    tx, ty = data.draw(_terms(nvars)), data.draw(_terms(nvars))
    x = MultiPoly(ring, tx)
    perm = data.draw(st.permutations(range(nvars)))
    i = data.draw(st.one_of(st.none(), st.integers(0, nvars - 1)))
    images = {NAMES[k]: NAMES[perm[k]] for k in range(nvars)}
    want = {}
    for e, c in tx.items():
        moved = [0] * nvars
        for k in range(nvars):
            moved[perm[k]] = e[k]
        want[tuple(moved)] = c
    if i is not None:
        images[NAMES[i]] = MultiPoly(ring, ty)
        want = _ref_substitute(want, perm[i], ty)
    got = x.change_variables(ring, images)
    _assert_canonical(got)
    assert got.terms == want

    big = PolyRing(("p", "q", "r", "s"))
    images = dict(zip(NAMES, data.draw(st.lists(st.sampled_from(big.names), min_size=nvars, max_size=nvars))))
    if i is not None:
        images[NAMES[i]] = data.draw(st.one_of(COEFFS, st.builds(lambda t: MultiPoly(big, t), _terms(4))))
    got = x.change_variables(big, images)
    _assert_canonical(got)
    point = dict(zip(big.names, data.draw(st.tuples(*[COEFFS] * 4))))

    def value(image):
        if isinstance(image, str):
            return point[image]
        return image.evaluate(point) if isinstance(image, MultiPoly) else image

    assert got.evaluate(point) == _ref_evaluate(tx, [value(images[v]) for v in NAMES[:nvars]])


def test_change_of_variables_rejects_bad_images():
    x, y = R.var("x"), R.var("y")
    with pytest.raises(ValueError):
        x.change_variables(R, {"w": "x"})  # not a variable of ours
    with pytest.raises(ValueError):
        x.change_variables(R, {"x": "w"})  # not a variable of the target
    with pytest.raises(ValueError):
        x.change_variables(PolyRing(("x",)), {})  # y keeps a name the target lacks
    with pytest.raises(ValueError):
        (x * y).change_variables(R, {"x": y, "y": x})  # two replaced by polynomials
    with pytest.raises(ValueError):
        x.change_variables(R, {"x": PolyRing(("u",)).var("u")})  # a polynomial of another ring
    with pytest.raises(TypeError):
        x.change_variables(R, {"x": 1.5})
    # two variables renamed alike add their exponents, and overflow as products do
    assert (x * y).change_variables(R, {"y": "x"}) == x * x
    with pytest.raises(ExponentOverflow):
        MultiPoly(R, {(EXPONENT_LIMIT - 1, EXPONENT_LIMIT - 1): 1}).change_variables(R, {"y": "x"})


@pytest.mark.parametrize("lead", [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2)])
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_exact_divide_matches_fraction_reference(lead, data):
    nvars = data.draw(st.integers(2, 3))
    ring = PolyRing(NAMES[:nvars])
    tq = data.draw(_terms(nvars))
    # the divisor's lex-leading term a^4 lies above every drawn exponent
    td = dict(data.draw(_terms(nvars)))
    td[(4,) + (0,) * (nvars - 1)] = lead
    tp = _ref_mul(tq, td)
    got = MultiPoly(ring, tp).exact_divide(MultiPoly(ring, td))
    _assert_canonical(got)
    assert got.terms == tq == _ref_divide(tp, td)
    # one more constant term makes a non-multiple of a non-constant divisor
    with pytest.raises(NotDivisible):
        MultiPoly(ring, _ref_add(tp, {(0,) * nvars: Fraction(1)})).exact_divide(MultiPoly(ring, td))


def test_zero_is_canonical():
    z = R.var("x") - R.var("x")
    assert z.is_zero() and z.den == 1 and z == R.zero() and hash(z) == hash(R.zero())
    assert (R.const(Fraction(1, 3)) * 0).den == 1
    # adding or taking away a zero number hands back the polynomial itself
    x = R.var("x")
    assert x + 0 is x and x - Fraction(0) is x and 0 + x is x and sum([x, x]) == x * 2


# -- the closed-form sigma and S against the defining sum -----------------------


def _ref_half_exp_sum(arg, parity):
    out = arg.space.zero() if parity else arg.space.one()
    power = arg.space.one()
    for k in range(1, sum(arg.space.caps) + 1):
        power = power * arg
        if k % 2 == parity:
            out = out + power.scalar_mul(Fraction(1, 2 ** (k - parity) * math.factorial(k + 1 - parity)))
    return out


COEFF_RING = PolyRing(("s", "t"))


def _linear_coeffs(data, nvars, coeff):
    """One coefficient per variable: independent draws, or draws from a pool
    of two, each maybe negated, so that variables share, negate or differ in
    their numerators."""
    if data.draw(st.booleans()):
        return [data.draw(coeff) for _ in range(nvars)]
    pool = [data.draw(coeff) for _ in range(2)]
    return [pool[data.draw(st.integers(0, 1))] * data.draw(st.sampled_from([1, -1])) for _ in range(nvars)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_closed_form_sigma_and_s_match_the_defining_sum(data):
    nvars = data.draw(st.integers(2, 3))
    names = NAMES[:nvars]
    caps = data.draw(st.tuples(*[st.integers(0, 4)] * nvars))
    blocks = data.draw(st.sampled_from([(), (((nvars - 2, nvars - 1), data.draw(st.integers(0, 4))),)]))
    if data.draw(st.booleans()):
        ring = COEFF_RING
        s, t = ring.var("s"), ring.var("t")
        coeffs = _linear_coeffs(data, nvars, st.builds(lambda a, b, c: s * a + t * b + c, COEFFS, COEFFS, COEFFS))
    else:
        ring = None
        coeffs = _linear_coeffs(data, nvars, COEFFS)
    arg = Space.of(names, caps, blocks, ring).linear(dict(zip(names, coeffs)))
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    assert arg == Space.of(names, caps, blocks, ring).series(dict(zip(units, coeffs)))
    # the same argument where only the caps or the blocks differ (the caps
    # reversed, the block moved onto the first variable), each built at both
    # parities and, for sigma, cut to each top degree a product of up to
    # three factors leaves: a cached build that ignored any of these would
    # hand back the wrong series
    moved = (((0,), blocks[0][1] if blocks else 1),)
    for caps2, blocks2 in ((caps, blocks), (caps[::-1], blocks), (caps, moved)):
        arg2 = Space.of(names, caps2, blocks2, ring).linear(dict(zip(names, coeffs)))
        sigma = _ref_half_exp_sum(arg2, 1)
        assert s_of(arg2) == _ref_half_exp_sum(arg2, 0)
        assert sigma_of(arg2) == sigma
        top = _top_degree(caps2, blocks2)
        for factors in (2, 3):
            assert sigma_of(arg2, factors) == _up_to_degree(sigma, top - factors + 1)
    if ring is None:
        # the same numbers as constants of a ring: the same shape at other key shifts
        consts = {v: COEFF_RING.const(c) for v, c in zip(names, coeffs)}
        arg2 = Space.of(names, caps, blocks, COEFF_RING).linear(consts)
        assert sigma_of(arg2) == _ref_half_exp_sum(arg2, 1)


def _top_degree(caps, blocks) -> int:
    """The largest total degree of an admissible exponent, by listing them."""
    exponents = product(*(range(cap + 1) for cap in caps))
    return max(sum(e) for e in exponents if all(sum(e[i] for i in ix) <= cap for ix, cap in blocks))


def _up_to_degree(series, most):
    """The terms of the series of total degree at most `most`."""
    data = {e: c for e, c in series.data.items() if sum(e) <= most}
    return series.space.series(data)


@pytest.mark.parametrize("data", [{(0, 0): 1, (1, 0): 1}, {(1, 0): 1, (1, 1): 2}])
@pytest.mark.parametrize("fn", [sigma_of, s_of])
def test_sigma_and_s_need_a_linear_argument(data, fn):
    with pytest.raises(ValueError):
        fn(Space.of(("a", "b"), (3, 3)).series(data))


# -- the graded product against a pair-by-pair reference ------------------------


def _ref_series_mul(x, y):
    """The truncated product by every term pair, each checked for admissibility."""
    out = {}
    for e1, c1 in x.data.items():
        for e2, c2 in y.data.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if any(k > cap for k, cap in zip(e, x.space.caps)):
                continue
            if any(sum(e[i] for i in ix) > cap for ix, cap in x.space.blocks):
                continue
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if c}


NAMES_4 = ("a", "b", "c", "d")


@st.composite
def _graded_space(draw):
    """Caps and blocks with overlapping blocks, variables whose own cap is
    below (or above) their blocks' caps, and variables in no block."""
    nvars = draw(st.integers(2, 4))
    caps = draw(st.tuples(*[st.integers(0, 4)] * nvars))
    subsets = st.lists(st.integers(0, nvars - 1), min_size=1, max_size=nvars, unique=True)
    blocks = draw(st.lists(st.tuples(subsets.map(lambda ix: tuple(sorted(ix))), st.integers(0, 5)), max_size=3))
    return NAMES_4[:nvars], caps, tuple(blocks)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_graded_product_matches_the_pairwise_product(data):
    names, caps, blocks = data.draw(_graded_space())
    if data.draw(st.booleans()):
        # one block over every variable, capped at most at each own cap: one grade
        blocks = ((tuple(range(len(names))), data.draw(st.integers(0, min(caps)))),)
        assert len(Space.of(names, caps, blocks).gcaps) == 1
    if data.draw(st.booleans()):
        ring = COEFF_RING
        s, t = ring.var("s"), ring.var("t")
        coeff = st.builds(lambda a, b, c: s * a + t * b + c, COEFFS, COEFFS, COEFFS)
    else:
        ring, coeff = None, COEFFS
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    space = Space.of(names, caps, blocks, ring)
    x, y = (space.series(data.draw(st.dictionaries(exps, coeff, max_size=12))) for _ in range(2))
    got = x * y
    assert got.data == _ref_series_mul(x, y)
    assert all(c for c in got.data.values())
    assert got.space is x.space


def _ref_grade(e, caps, blocks):
    """The degree sum of each block, then the exponent of each variable whose
    own cap is below every block holding it."""
    own = [e[i] for i, cap in enumerate(caps) if all(cap < bcap for ix, bcap in blocks if i in ix)]
    return tuple([sum(e[i] for i in ix) for ix, _ in blocks] + own)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_grade_sum_matches_the_filtered_weighted_product(data):
    names, caps, blocks = data.draw(_graded_space())
    pad = data.draw(st.integers(0, 1))
    if data.draw(st.booleans()):
        ring = COEFF_RING
        s, t = ring.var("s"), ring.var("t")
        coeff = st.builds(lambda a, b, c: s * a + t * b + c, COEFFS, COEFFS, COEFFS)

        def weight(e):
            return s * e[0] - t * Fraction(1, 1 + e[-1]) + sum(e) % 3
    else:
        ring, coeff = None, COEFFS

        def weight(e):
            return Fraction(e[0] - sum(e) % 3, 1 + e[-1])

    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    terms = [data.draw(st.dictionaries(exps, coeff, max_size=12)) for _ in range(2)]
    target = dict(zip(names, data.draw(st.tuples(*[st.integers(0, cap + 1) for cap in caps]))))
    results = []
    for pad in sorted({0, pad}):
        pcaps = tuple(cap + pad for cap in caps)
        pblocks = tuple((ix, cap + pad) for ix, cap in blocks)
        x, y = (Space.of(names, pcaps, pblocks, ring).series(d) for d in terms)
        grade = _ref_grade(tuple(target.values()), pcaps, pblocks)
        want = sum(
            (c * weight(e) for e, c in _ref_series_mul(x, y).items() if _ref_grade(e, pcaps, pblocks) == grade),
            Fraction(0),
        )
        got = x.grade_sum(y, target, weight)
        assert got == want
        assert isinstance(got, Fraction if ring is None else MultiPoly)
        results.append(got)
    # terms the tighter caps drop have a grade past the target's
    exps = tuple(target.values())
    if all(k <= cap for k, cap in zip(exps, caps)) and all(sum(exps[i] for i in ix) <= cap for ix, cap in blocks):
        assert results[0] == results[-1]


def test_graded_product_in_a_space_with_every_kind_of_grade():
    # a, b, c share a block of cap 3, which overlaps the block (c, d) of cap 2;
    # a's own cap 1 is below its block's, b's cap 4 is implied by it, e sits
    # in no block
    names, caps = ("a", "b", "c", "d", "e"), (1, 4, 4, 4, 2)
    blocks = (((0, 1, 2), 3), ((2, 3), 2))
    space = Space.of(names, caps, blocks)
    x = space.one() + space.linear({v: Fraction(k + 1, 2) for k, v in enumerate(names)})
    y, ref = x, x
    for _ in range(4):
        y = y * x
        ref = space.series(_ref_series_mul(ref, x))
        assert y == ref
    assert y.coeff({"a": 2}) == 0 and y.coeff({"e": 2}) != 0 and y.coeff({"e": 3}) == 0


# -- the closed-form 1/S against the defining inverse ---------------------------


def _ref_inverse(x):
    """1/x term by term: the coefficients of y with x * y = 1, solved in
    increasing total degree over every exponent the space admits."""
    zero = (0,) * len(x.space.vars)
    lead, rest = x.data[zero], [(e, c) for e, c in x.data.items() if e != zero]
    exps = [
        e
        for e in product(*(range(cap + 1) for cap in x.space.caps))
        if not any(sum(e[i] for i in ix) > cap for ix, cap in x.space.blocks)
    ]
    y = {}
    for e in sorted(exps, key=sum):
        acc = Fraction(int(e == zero))
        for e1, c1 in rest:
            e2 = tuple(a - b for a, b in zip(e, e1))
            if e2 in y:
                acc -= c1 * y[e2]
        if acc:
            y[e] = acc / lead
    return x.space.series(y)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_s_inverse_of_inverts_s(data):
    nvars = data.draw(st.integers(2, 4))
    names = NAMES_4[:nvars]
    caps = data.draw(st.tuples(*[st.integers(1, 4)] * nvars))
    # total degrees up to 6, where B_6 first enters
    blocks = data.draw(
        st.sampled_from(
            [
                ((tuple(range(nvars)), 6),),
                (((0, 1), 3), ((1, *range(2, nvars)), 2)),
                (((nvars - 2, nvars - 1), data.draw(st.integers(1, 6))),),
            ]
        )
    )
    coeffs = _linear_coeffs(data, nvars, COEFFS.filter(bool))
    arg = Space.of(names, caps, blocks).linear(dict(zip(names, coeffs)))
    inv = s_inverse_of(arg)
    assert s_of(arg) * inv == arg.space.one()
    assert inv == _ref_inverse(s_of(arg))


def test_s_inverse_of_has_the_bernoulli_coefficients():
    # 1/S(v) = v / sigma(v) = sum_k B_k(1/2) v^k / k!, B_k(1/2) = (2^(1-k) - 1) B_k
    inv = s_inverse_of(Space.of(("v",), (8,)).linear({"v": 1}))
    want = [Fraction(1), 0, Fraction(-1, 24), 0, Fraction(7, 5760), 0, Fraction(-31, 967680), 0]
    assert [inv.coeff({"v": k}) for k in range(8)] == want


# -- the quotient S(aW)/S(bW) against its two-factor form ---------------------


def _ratio_scalar(data, ring):
    """A scale factor a or b of the quotient: 0, a negative or positive int, a
    Fraction, or, over a ring, also a polynomial."""
    number = st.one_of(st.sampled_from([0, 1, -1, 2, -3]), COEFFS)
    if ring is None:
        return data.draw(number)
    s, t = ring.var("s"), ring.var("t")
    return data.draw(st.one_of(number, st.builds(lambda a, b, c: s * a + t * b + c, COEFFS, COEFFS, COEFFS)))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_s_ratio_is_s_times_the_inverse_of_s(data):
    # caps and overlapping blocks from `_graded_space`, numeric or ring-valued
    # W, a and b, each cut at every number of factors up to three
    names, caps, blocks = data.draw(_graded_space())
    ring = data.draw(st.sampled_from([None, COEFF_RING]))
    if ring is None:
        coeffs = _linear_coeffs(data, len(names), COEFFS)
    else:
        s, t = ring.var("s"), ring.var("t")
        coeffs = _linear_coeffs(data, len(names), st.builds(lambda a, b, c: s * a + t * b + c, COEFFS, COEFFS, COEFFS))
    W = Space.of(names, caps, blocks, ring).linear(dict(zip(names, coeffs)))
    a, b = _ratio_scalar(data, ring), _ratio_scalar(data, ring)
    want = s_of(W.scalar_mul(a)) * s_inverse_of(W.scalar_mul(b))
    got = s_ratio_of(W, a, b)
    _assert_series_canonical(got)
    assert got == want
    top = _top_degree(caps, blocks)
    for factors in (2, 3):
        cut = s_ratio_of(W, a, b, factors)
        _assert_series_canonical(cut)
        assert _up_to_degree(cut, top - factors + 1) == _up_to_degree(want, top - factors + 1)
        assert all(sum(e) <= W.space.top - factors + 1 for e in cut.data)


def test_s_ratio_at_zero_is_s_or_its_inverse():
    # S(2v)/S(v) by hand: [v^2] = 4 s_2 + t_2 = 4/24 - 1/24, and
    # [v^4] = 16 s_4 + 4 s_2 t_2 + t_4 = 16/1920 - 4/576 + 7/5760
    v = Space.of(("v",), (5,)).linear({"v": 1})
    assert s_ratio_of(v, 2, 1).data == {(0,): 1, (2,): Fraction(1, 8), (4,): Fraction(1, 384)}
    W = Space.of(("a", "b"), (4, 3), (((0, 1), 5),)).linear({"a": Fraction(3, 2), "b": -2})
    assert s_ratio_of(W, 1, 0) == s_of(W)
    assert s_ratio_of(W, 0, 1) == s_inverse_of(W)
    assert s_ratio_of(W, 0, 0) == s_ratio_of(W, 3, 3) == W.space.one()


@pytest.mark.parametrize("data", [{(0, 0): 1, (1, 0): 1}, {(1, 0): 1, (1, 1): 2}])
def test_s_ratio_needs_a_linear_argument(data):
    with pytest.raises(ValueError):
        s_ratio_of(Space.of(("a", "b"), (3, 3)).series(data), 2, 1)


def test_s_ratio_takes_numbers_or_elements_of_the_space_ring():
    W = Space.of(("a",), (4,)).linear({"a": 1})
    with pytest.raises(TypeError):
        s_ratio_of(W, 0.5, 1)
    with pytest.raises(ValueError, match="a coefficient of"):
        s_ratio_of(W, 1, COEFF_RING.var("s"))


@pytest.mark.parametrize("order", [0, 1, 4])
@pytest.mark.parametrize("c", [2.5, "2", None], ids=["float", "str", "None"])
def test_s_power_column_takes_only_exact_exponents(c, order):
    with pytest.raises(TypeError, match="expected int, Fraction or MultiPoly"):
        s_power_column(c, order)


# -- the packed monomial keys ----------------------------------------------------


@st.composite
def _monomial(draw, nvars):
    """A one-term polynomial c x^d with a random sign and rational c."""
    d = draw(st.tuples(*[st.integers(0, 3)] * nvars))
    c = draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 6)))
    return d, c if draw(st.booleans()) else -c


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_division_by_a_monomial_undoes_the_product(data):
    nvars = data.draw(st.integers(2, 3))
    ring = PolyRing(NAMES[:nvars])
    p = MultiPoly(ring, data.draw(_terms(nvars)))
    d, c = data.draw(_monomial(nvars))
    m = MultiPoly(ring, {d: c})
    got = (p * m).exact_divide(m)
    _assert_canonical(got)
    assert got == p and (got.num, got.den) == (p.num, p.den)
    # one more term short of x_i^(d_i) in a variable the divisor holds
    held = [i for i, k in enumerate(d) if k]
    if held:
        i = data.draw(st.sampled_from(held))
        short = list(data.draw(st.tuples(*[st.integers(0, 3)] * nvars)))
        short[i] = data.draw(st.integers(0, d[i] - 1))
        with pytest.raises(NotDivisible):
            (p * m + MultiPoly(ring, {tuple(short): c})).exact_divide(m)


def test_an_exponent_at_the_field_limit_raises():
    top = EXPONENT_LIMIT - 1
    assert MultiPoly(R, {(top, top): 1}).terms == {(top, top): 1}
    for exps in [(EXPONENT_LIMIT, 0), (0, EXPONENT_LIMIT)]:
        with pytest.raises(ExponentOverflow):
            MultiPoly(R, {exps: 1})
    # repeated squaring of either variable: the last power below the limit
    # keeps every other field at zero, the next one raises
    for name, at in (("x", lambda k: (k, 0)), ("y", lambda k: (0, k))):
        power, k = R.var(name), 1
        while 2 * k < EXPONENT_LIMIT:
            power, k = power * power, 2 * k
            assert power.terms == {at(k): 1}
        with pytest.raises(ExponentOverflow):
            power * power
        # so does a product of many-term polynomials
        with pytest.raises(ExponentOverflow):
            (power + 1) * (power + 1)
    y_top = MultiPoly(R, {(0, top): 1})
    with pytest.raises(ExponentOverflow):
        y_top * R.var("y")
    with pytest.raises(ExponentOverflow):
        (R.var("x") * y_top).exact_divide(R.var("x") + R.var("y") * R.var("y"))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_keys_order_as_exponent_tuples(data):
    nvars = data.draw(st.integers(1, 4))
    ring = PolyRing(NAMES_4[:nvars])
    field = st.sampled_from([0, 1, 2, EXPONENT_LIMIT // 2, EXPONENT_LIMIT - 1])
    exps = data.draw(st.lists(st.tuples(*[field] * nvars), min_size=1, max_size=8, unique=True))
    p = MultiPoly(ring, {e: 1 for e in exps})
    assert MultiPoly(ring, {max(exps): 1}).num.keys() == {max(p.num)}

    def key(e):
        (k,) = MultiPoly(ring, {e: 1}).num
        return k

    assert sorted(exps, key=key) == sorted(exps)


# -- series on integer numerators ----------------------------------------------------


def _assert_series_canonical(series):
    """Integer numerators over one positive denominator in lowest terms, the
    zero series over 1, and the same pair as the series rebuilt from `data`."""
    assert isinstance(series.den, int) and series.den > 0
    assert all(isinstance(c, int) and c for c in series.num.values())
    if series.num:
        assert math.gcd(series.den, *series.num.values()) == 1
    else:
        assert series.den == 1
    built = series.space.series(series.data)
    assert (built.num, built.den) == (series.num, series.den)


def _ref_lift(x, names, caps, blocks):
    """x's coefficients re-keyed into the space (names, caps, blocks), keeping
    the admissible exponents only."""
    out = {}
    for e, c in x.data.items():
        key = tuple(e[x.space.vars.index(v)] if v in x.space.vars else 0 for v in names)
        if all(k <= cap for k, cap in zip(key, caps)) and all(sum(key[i] for i in ix) <= cap for ix, cap in blocks):
            out[key] = c
    return out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_numeric_series_stay_canonical(data):
    names, caps, blocks = data.draw(_graded_space())
    if data.draw(st.booleans()):
        ring = COEFF_RING
        s, t = ring.var("s"), ring.var("t")
        coeff = st.builds(lambda a, b, c: s * a + t * b + c, COEFFS, COEFFS, COEFFS)
    else:
        ring, coeff = None, COEFFS
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    space = Space.of(names, caps, blocks, ring)
    x, y = (space.series(data.draw(st.dictionaries(exps, coeff, max_size=12))) for _ in range(2))
    c = data.draw(coeff)
    cases = [
        (x + y, _ref_add(x.data, y.data)),
        (x - y, _ref_add(x.data, _ref_scale(y.data, -1))),
        (-x, _ref_scale(x.data, -1)),
        (x - x, {}),
        (x * y, _ref_series_mul(x, y)),
        (x.scalar_mul(c), _ref_scale(x.data, c)),
    ]
    # lifted into a space with one more variable and tighter caps and blocks
    wide = names + ("e",)
    wcaps = tuple(data.draw(st.integers(0, cap)) for cap in caps) + (2,)
    wblocks = tuple((ix, data.draw(st.integers(0, cap))) for ix, cap in blocks)
    wblocks += ((tuple(range(len(wide))), data.draw(st.integers(0, 6))),)
    cases.append((x.lift(Space.of(wide, wcaps, wblocks, ring)), _ref_lift(x, wide, wcaps, wblocks)))
    for got, want in cases:
        _assert_series_canonical(got)
        assert got.data == want


def _ref_closed_form(names, caps, blocks, coeffs, parity, weight):
    """sum over k of the parity of weight(k) W^k / k!, W = sum_v L_v v, as
    {e: weight(|e|) prod_v L_v^(e_v) / e_v!} over every admissible e."""
    out = {}
    for e in product(*(range(cap + 1) for cap in caps)):
        if sum(e) % 2 != parity or any(sum(e[i] for i in ix) > cap for ix, cap in blocks):
            continue
        c = weight(sum(e))
        for L, k in zip(coeffs, e):
            c *= L**k / math.factorial(k)
        if c:
            out[e] = c
    return out


HALF_EXP_SUMS = [
    (sigma_of, 1, lambda k: Fraction(1, 2 ** (k - 1))),
    (s_of, 0, lambda k: Fraction(1, 2**k * (k + 1))),
    (s_inverse_of, 0, lambda k: (Fraction(2, 2**k) - 1) * bernoulli(k)),
]


@pytest.mark.parametrize("fn,parity,weight", HALF_EXP_SUMS, ids=["sigma", "S", "1/S"])
@given(st.data())
@settings(max_examples=50, deadline=None)
def test_numeric_sigma_s_and_inverse_match_the_fraction_closed_form(fn, parity, weight, data):
    nvars = data.draw(st.integers(1, 4))
    names = NAMES_4[:nvars]
    caps = data.draw(st.tuples(*[st.integers(1, 5)] * nvars))
    every = tuple(range(nvars))
    blocks = data.draw(
        st.sampled_from(
            [
                (),
                ((every, data.draw(st.integers(1, 6))),),
                ((every[:2], data.draw(st.integers(1, 4))), (every[-2:], data.draw(st.integers(1, 4)))),
            ]
        )
    )
    coeffs = _linear_coeffs(data, nvars, COEFFS)
    got = fn(Space.of(names, caps, blocks).linear(dict(zip(names, coeffs))))
    _assert_series_canonical(got)
    assert got.data == _ref_closed_form(names, caps, blocks, coeffs, parity, weight)


@given(COEFFS, COEFFS, st.integers(-6, 6), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_numeric_s_power_series_is_the_ring_series_at_a_point(a, b, n, order):
    ring = PolyRing(("n",))
    c = ring.var("n") * a + b
    symbolic = s_power_series(c, "v", order)
    numeric = s_power_series(c.evaluate({"n": n}), "v", order)
    _assert_series_canonical(numeric)
    at_n = {e: p.evaluate({"n": n}) for e, p in symbolic.data.items()}
    assert numeric.data == {e: v for e, v in at_n.items() if v}


@pytest.mark.parametrize(
    "vars,caps,ring,data",
    [
        (("a", "b"), (3, 3), None, {(-1, 0): 1}),
        (("a", "b"), (3, 3), None, {(1,): 2}),
        (("a", "b"), (3, EXPONENT_LIMIT), None, {}),
        (("a", "b"), (-1, 3), None, {}),
        (("a", "s"), (3, 3), COEFF_RING, {}),
    ],
    ids=["negative-exponent", "short-exponent", "cap-at-limit", "negative-cap", "shared-name"],
)
def test_malformed_series_are_rejected(vars, caps, ring, data):
    with pytest.raises(ValueError):
        Space.of(vars, caps, (), ring).series(data)


def test_an_unknown_variable_is_named():
    x = Space.of(("a", "b"), (2, 2)).linear({"a": 1})
    for call in (
        lambda: x.space.linear({"c": 1}),
        lambda: x.coeff({"c": 1}),
        lambda: x.grade_sum(x, {"a": 1, "c": 1}, lambda e: 1),
    ):
        with pytest.raises(ValueError, match=r"'c' is not a variable of the series space \('a', 'b'\)"):
            call()
    with pytest.raises(ValueError, match=r"'b' is not a variable of the series space \('a',\)"):
        x.lift(Space.of(("a",), (2,)))


def test_series_over_different_rings_differ():
    numeric = Space.of(("v",), (2,)).one()
    over_s = Space.of(("v",), (2,), (), PolyRing(("s",))).one()
    over_t = Space.of(("v",), (2,), (), PolyRing(("t",))).one()
    assert numeric != over_s and over_s != over_t
    assert over_s == Space.of(("v",), (2,), (), PolyRing(("s",))).one()
    for x, y in [(numeric, over_s), (over_s, over_t)]:
        for op in (lambda: x + y, lambda: x * y):
            with pytest.raises(ValueError, match="different truncated rings"):
                op()
    with pytest.raises(ValueError, match="lifted into a space over"):
        numeric.lift(over_s.space)


def test_equal_spaces_are_interned_and_compare_by_their_fields():
    names, caps, blocks = ("a", "b"), (3, 2), (((0, 1), 3),)
    space = Space.of(names, caps, blocks, COEFF_RING)
    assert Space.of(list(names), list(caps), [([0, 1], 3)], COEFF_RING) is space
    x = space.linear({"a": COEFF_RING.var("s"), "b": 1})
    algebra._space.cache_clear()
    again = Space.of(names, caps, blocks, COEFF_RING)
    assert again is not space and again == space and hash(again) == hash(space)
    y = again.linear({"a": COEFF_RING.var("s"), "b": 1})
    assert x == y and x * y == y * x and (x + y).data == (y + y).data
    assert (x * y).space == again and x - y == space.zero()
    assert again != Space.of(names, caps, (), COEFF_RING) and again != Space.of(names, caps, blocks)


@pytest.mark.parametrize("name", ["s", "t"])
def test_a_coefficient_exponent_at_the_field_limit_raises(name):
    # s sits in the field just below the series exponents, t below s
    at = {"s": lambda k: (k, 0), "t": lambda k: (0, k)}[name]
    top = MultiPoly(COEFF_RING, {at(EXPONENT_LIMIT - 1): 1})
    names, caps = ("v", "w"), (2, 2)
    space = Space.of(names, caps, (), COEFF_RING)
    x = space.series({(1, 0): top, (0, 1): 1})
    assert (x * space.one()).data == x.data
    var = space.series({(0, 1): COEFF_RING.var(name)})
    with pytest.raises(ExponentOverflow):
        x * var
    with pytest.raises(ExponentOverflow):
        x.scalar_mul(COEFF_RING.var(name))


# -- products of closed-form columns ---------------------------------------------------


def _one_variable_series(v, col, ring):
    """sum_k col[k] v^k in the space of v alone, capped at the column's length."""
    return Space.of((v,), (max(len(col) - 1, 0),), (), ring).series({(k,): c for k, c in enumerate(col)})


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_columns_are_the_product_of_lifted_one_variable_series(data):
    names, caps, blocks = data.draw(_graded_space())
    if data.draw(st.booleans()):
        ring = COEFF_RING
        s, t = ring.var("s"), ring.var("t")
        # ring elements and plain numbers side by side
        coeff = st.one_of(COEFFS, st.builds(lambda a, b, c: s * a + t * b + c, COEFFS, COEFFS, COEFFS))
    else:
        ring, coeff = None, st.one_of(COEFFS, st.integers(-9, 9))
    # zero entries inside a column, and columns longer than their caps (at most 4)
    entry = st.one_of(st.just(0), coeff)
    chosen = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    cols = {v: data.draw(st.lists(entry, max_size=7)) for v in chosen}
    space = Space.of(names, caps, blocks, ring)
    got = space.columns(cols)
    want = space.one()
    for v, col in cols.items():
        want = want * _one_variable_series(v, col, ring).lift(space)
    _assert_series_canonical(got)
    assert got == want


def test_columns_of_nothing_and_of_unknown_variables():
    space = Space.of(("a", "b"), (2, 3), (((0, 1), 3),), COEFF_RING)
    assert space.columns({}) == space.one()
    assert Space.of(("a",), (0,)).columns({}) == Space.of(("a",), (0,)).one()
    # a column longer than the cap, and a zero column
    assert Space.of(("a",), (1,)).columns({"a": [1, 2, 3, 4]}).data == {(0,): 1, (1,): 2}
    assert space.columns({"a": [0, 0, 0]}).is_zero()
    with pytest.raises(ValueError, match=r"'c' is not a variable of the series space \('a', 'b'\)"):
        space.columns({"a": [1], "c": [1, 1]})
    with pytest.raises(TypeError):
        space.columns({"a": [1, 0.5]})


def _ref_s_power(c, order):
    """S(v)^c as exp(c log S) by repeated series products, the construction
    the cached table replaced."""
    ring = c.ring if isinstance(c, MultiPoly) else None
    terms = {(k,): bernoulli(k) / (k * math.factorial(k)) for k in range(2, order + 1, 2)}
    log_s = Space.of(("v",), (order,), (), ring).series(terms)
    out = power = log_s.space.one()
    cpow = 1
    for k in range(1, order // 2 + 1):
        power = power * log_s
        if power.is_zero():
            break
        cpow = cpow * c
        out = out + power.scalar_mul(cpow * Fraction(1, math.factorial(k)))
    return out


@pytest.mark.parametrize("order", range(13))
def test_s_power_column_is_the_repeated_product_exponential(order):
    ring = PolyRing(("n", "m"))
    n, m = ring.var("n"), ring.var("m")
    for c in (0, 1, -3, 7, Fraction(5, 2), Fraction(-7, 3), n - 2, n * Fraction(1, 2) - m + 3):
        want = _ref_s_power(c, order)
        assert s_power_column(c, order) == [want.coeff({"v": k}) for k in range(order + 1)], c


@pytest.mark.parametrize("order", range(13))
def test_s_power_series_is_the_repeated_product_exponential(order):
    ring = PolyRing(("n", "m"))
    n, m = ring.var("n"), ring.var("m")
    for c in (0, 1, -3, 7, Fraction(5, 2), Fraction(-7, 3), n - 2, n * Fraction(1, 2) - m + 3):
        got = s_power_series(c, "v", order)
        _assert_series_canonical(got)
        assert got == _ref_s_power(c, order), c
    for c in (2.5, 0.0):
        if order >= 2:
            with pytest.raises(TypeError):
                s_power_series(c, "v", order)
