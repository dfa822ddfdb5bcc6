from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import wallcross, wedge
from hurwitz.algebra import PolyRing, Space, factorial_column, s_inverse_of, s_of
from hurwitz.charactereval import hurwitz_disconnected
from hurwitz.partitions import PURE_KINDS, Signature, SizeMismatch
from hurwitz.verify import _WC_SAMPLES, _chambers
from hurwitz.wallcross import (
    InvalidSplit,
    WallCrossingProblem,
    refined_series,
    verify_wallcrossing,
    wallcrossing_polynomial,
)
from hurwitz.wedge import ArityMismatch, OnWall, Wall, chamber_of, chamber_polynomial, evaluate, walls

WALL = Wall((1,), (1,), 2, 2)
C2 = chamber_of((3, 1), (2, 2))  # mu1 - nu1 > 0
C1 = chamber_of((2, 2), (3, 1))  # mu1 - nu1 < 0, same side of every other wall


def _diag_pure(kind, mu, nu, b):
    """Sum of the joint marker^v expansion^v coefficients with |v| = b, in
    the pure kind's one block (t/y for monotone, u/z for strict)."""
    n = len(nu)
    (block,) = wallcross._OPENS[kind]
    s = refined_series(kind, mu, nu, 2 * b)
    tot = Fraction(0)
    for v in product(range(b + 1), repeat=n):
        if sum(v) != b:
            continue
        mono = {}
        for j in range(1, n + 1):
            mono[f"{block.marker}{j}"] = v[j - 1]
            mono[block.var(j)] = v[j - 1]
        tot += s.coeff(mono)
    return tot


def test_problem_validation():
    prob = WallCrossingProblem(WALL, C1, C2, "monotone", 0)
    assert prob.budgets.b == 2 and prob.budgets == Signature(0, 2, 0)
    with pytest.raises(InvalidSplit):
        WallCrossingProblem(WALL, C2, C1, "monotone", 0)  # orientation flipped
    with pytest.raises(ValueError):
        WallCrossingProblem(WALL, chamber_of((1, 3), (2, 2)), C2, "monotone", 0)
    with pytest.raises(ValueError):
        WallCrossingProblem(WALL, C1, C2, "nonsense", 0)


def test_degenerate_problem_gives_zero():
    prob = WallCrossingProblem(WALL, C2, C2, "strict", 1)
    assert wallcrossing_polynomial(prob).is_zero()


def test_verify_rejects_a_problem_that_crosses_no_wall(monkeypatch):
    # the product formula holds only across a wall: the degenerate problem
    # is refused before any series is built
    def no_series(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(wallcross, "correlator", no_series)
    prob = WallCrossingProblem(WALL, C2, C2, "strict", 1)
    with pytest.raises(InvalidSplit, match="crosses no wall"):
        verify_wallcrossing(prob, [((3, 1), (2, 2))])


def test_crossing_polynomial_is_signed_difference():
    prob = WallCrossingProblem(WALL, C1, C2, "monotone", 1)
    wc = wallcrossing_polynomial(prob)
    p1 = chamber_polynomial("monotone", 1, C1)
    p2 = chamber_polynomial("monotone", 1, C2)
    assert wc == p2 - p1
    assert wc == -(p1 - p2)
    # degree bound 4g - 3 + m + n
    assert wc.total_degree() <= 4 * 1 - 3 + 2 + 2


def test_refined_series_trivial_profile():
    # mu = nu = (1): the correlator core is sigma(z)/sigma(z) = 1, so the
    # series is exactly the marker sum with rising factorials of 1
    s = refined_series("monotone", (1,), (1,), 3)
    fact = 1
    for k in range(4):
        assert s.coeff({"t1": k}) == fact
        fact *= k + 1
    assert s.coeff({"t1": 1, "y1": 1}) == 0


def test_refined_series_zero_order():
    # truncating at order zero leaves at most the constant, which is the
    # weight-zero count: 1/d for a pair of single cycles, zero otherwise
    s = refined_series("strict", (3,), (3,), 0)
    assert s.coeff({}) == Fraction(1, 3)
    assert len(s.data) == 1
    s = refined_series("strict", (3, 1), (2, 2), 0)
    assert s.is_zero()  # fewer than m + n - 2 transpositions cannot connect


def test_refined_series_input_validation():
    with pytest.raises(ValueError, match="unknown kind 'hyperbolic'; expected one of simple, monotone, strict, mixed"):
        refined_series("hyperbolic", (3, 1), (2, 2), 2)
    with pytest.raises(ValueError, match="order must be at least 0, got -1"):
        refined_series("monotone", (3, 1), (2, 2), -1)
    for order in (2.5, 2.0):  # both used to raise TypeError from inside range
        with pytest.raises(ValueError, match="order must be an integer"):
            refined_series("monotone", (3, 1), (2, 2), order)
    # in a given chamber these used to give a series, the zero series, a
    # series that ignores mu3, and a KeyError
    with pytest.raises(SizeMismatch):
        refined_series("monotone", (5, 1), (2, 2), 3, chamber=C2)
    for mu, nu in [((2, 2), (4,)), ((2, 1, 1), (2, 2)), ((4,), (2, 2))]:
        with pytest.raises(ArityMismatch):
            refined_series("monotone", mu, nu, 3, chamber=C2)


def test_refined_series_on_wall():
    with pytest.raises(OnWall):
        refined_series("monotone", (2, 2), (2, 2), 2)


@pytest.mark.parametrize(
    "kind,mu,nu,b,pqr",
    [
        ("monotone", (2,), (2,), 2, (0, 2, 0)),
        ("monotone", (3, 1), (2, 2), 2, (0, 2, 0)),
        ("strict", (3, 1), (2, 2), 2, (0, 0, 2)),
        ("strict", (3,), (1, 2), 1, (0, 0, 1)),
    ],
)
def test_diagonal_extraction_recovers_counts(kind, mu, nu, b, pqr):
    assert _diag_pure(kind, mu, nu, b) == hurwitz_disconnected(mu, nu, *pqr)


def test_mixed_diagonal_extraction():
    # h(p,q,r) = p! * sum over |v|=q, |w|=r of [X^p t^v y^v u^w z^w]
    mu, nu, (p, q, r) = (3, 1), (2, 2), (1, 1, 0)
    s = refined_series("mixed", mu, nu, p + 2 * q + 2 * r)
    tot = Fraction(0)
    for v in product(range(q + 1), repeat=2):
        if sum(v) != q:
            continue
        mono = {"X": p}
        for j in (1, 2):
            mono[f"t{j}"] = v[j - 1]
            mono[f"y{j}"] = v[j - 1]
        tot += s.coeff(mono)
    assert tot == hurwitz_disconnected(mu, nu, p, q, r)


def _terms_in(series, names):
    """The series' terms {((variable, exponent), ...): coefficient} whose
    variables are all among `names`: the series at 0 in every other variable."""
    out = {}
    for e, c in series.data.items():
        mono = tuple((v, k) for v, k in zip(series.space.vars, e) if k)
        if all(v in names for v, _ in mono):
            out[mono] = c
    return out


@pytest.mark.parametrize("kind", PURE_KINDS)
@pytest.mark.parametrize("mu,nu", [((3, 1), (2, 2)), ((5, 1), (3, 3)), ((4,), (2, 1, 1))], ids=str)
def test_a_pure_series_is_the_mixed_one_at_zero_in_the_other_blocks(kind, mu, nu):
    # every kind names a block by the same variables, so the pure series is
    # a restriction of the mixed one, term by term and name by name
    for order in range(5):
        pure = refined_series(kind, mu, nu, order)
        mixed = refined_series("mixed", mu, nu, order)
        assert _terms_in(mixed, pure.space.vars) == _terms_in(pure, pure.space.vars), order
    assert len(pure.data) > 1


def test_refined_series_are_pinned():
    # every coefficient of twelve refined series, pinned by the sha256 of
    # their lines: an error that moved both sides of the product formula
    # alike would pass the wall-crossing checks, but not this
    lines = []
    for kind in ("simple", "monotone", "strict", "mixed"):
        for mu, nu in [((3, 1), (2, 2)), ((5, 1), (3, 3)), ((4,), (2, 1, 1))]:
            s = refined_series(kind, mu, nu, 4)
            lines.append(f"{kind} {mu} {nu} {s.space.vars} {sorted(s.data.items())}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ad0692b2633e2ab2aac451e935e7dde8a8d5bbf0dcfce8043e8c371d477171b8"


def _sampled_walls():
    """(wall, c1, c2) for one chamber c2 on the positive side of each wall
    of (2, 2), (2, 3) and (3, 2) whose neighbour c1 across that wall alone
    is sampled too, with d <= 8."""
    problems = []
    for m, n in ((2, 2), (2, 3), (3, 2)):
        chambers = _chambers(m, n, dmax=8)
        by_signs = {ch.key()[2]: ch for ch in chambers}
        for k, wall in enumerate(walls(m, n)):
            for c2 in chambers:
                signs = c2.key()[2]
                c1 = by_signs.get(signs[:k] + (-1,) + signs[k + 1 :]) if signs[k] == 1 else None
                if c1 is not None:
                    problems.append((wall, c1, c2))
                    break
    return problems


def test_wallcrossing_on_every_sampled_wall_of_m_n_2_3():
    # every sampled wall of (2, 2), (2, 3) and (3, 2): 2 + 6 + 6 problems,
    # each kind at g <= 1 or at mixed (1, 1, 1)
    problems = _sampled_walls()
    assert len(problems) == 14
    cases = [("simple", 0), ("simple", 1), ("monotone", 1), ("strict", 0), ("strict", 1), ("mixed", (1, 1, 1))]
    for wall, c1, c2 in problems:
        for kind, signature in cases:
            rep = verify_wallcrossing(WallCrossingProblem(wall, c1, c2, kind, signature), [c2.sample])
            assert rep["ok"], rep


@pytest.mark.parametrize("kind", ["simple", "monotone", "strict", "mixed"])
def test_the_unit_of_a_refined_series_splits_across_every_sampled_wall(kind):
    # the S-power prefactor times the markers has constant term 1, and the
    # full profile's is the J side's times the Jc + {delta} side's (the
    # delta part has no columns): so it cancels from the product formula
    blocks = wallcross._OPENS[kind]
    order = 4
    for wall, _, c2 in _sampled_walls():
        mu, nu = c2.sample
        delta = wall.value(mu, nu)
        space = wallcross._space(blocks, len(nu), order)
        Ic = tuple(i for i in range(1, len(mu) + 1) if i not in wall.I)
        Jc = tuple(j for j in range(1, len(nu) + 1) if j not in wall.J)
        unit = wallcross._unit(blocks, mu, nu, range(1, len(nu) + 1), space, order)
        mu_I, nu_J = [mu[i - 1] for i in wall.I], [nu[j - 1] for j in wall.J] + [delta]
        u1 = wallcross._unit(blocks, mu_I, nu_J, wall.J + (None,), space, order)
        u2 = wallcross._unit(blocks, [mu[i - 1] for i in Ic] + [delta], [nu[j - 1] for j in Jc], Jc, space, order)
        assert unit.coeff({}) == 1, wall
        assert unit == u1 * u2, wall
        assert (len(unit.data) > 1) == (kind != "simple")  # simple has no markers and no S-powers


def test_wallcrossing_identity_monotone_g0():
    prob = WallCrossingProblem(WALL, C1, C2, "monotone", 0)
    rep = verify_wallcrossing(prob, [((3, 1), (2, 2)), ((5, 1), (3, 3))])
    assert rep["ok"]
    assert all(s["equal"] and s["first_mismatch"] is None for s in rep["samples"])


def test_wallcrossing_identity_mixed():
    prob = WallCrossingProblem(WALL, C1, C2, "mixed", (1, 1, 0))
    rep = verify_wallcrossing(prob, [((3, 1), (2, 2)), ((5, 1), (3, 3))])
    assert rep["ok"]


_JUMP_SAMPLES = [((3, 1), (2, 2)), ((5, 1), (3, 3)), ((5, 2), (4, 3))]


def _jump(kind, mu, nu, order, chamber=C2, minus=C1):
    """One series of the jump from `minus` to `chamber`, from the one
    correlator difference `wedge.correlator` materializes, times the unit
    and the norm: by default the left side of the product formula."""
    blocks = wallcross._OPENS[kind]
    space = wallcross._space(blocks, len(nu), order)
    corr = wedge.correlator(chamber, wedge.expansion_parts(blocks, (1, 2)), space, (mu, nu), minus=minus)
    unit = wallcross._unit(blocks, mu, nu, (1, 2), space, order)
    return (corr * unit).scalar_mul(Fraction(1, prod(mu) * prod(nu)))


@pytest.mark.parametrize("g", [0, 1, 2])
def test_simple_wallcrossing_at_the_m_n_2_wall(g):
    # the simple kind has only the free block's X: the product formula holds
    # at every sample, and b! [X^b] of the jump is the wall-crossing polynomial
    problem = WallCrossingProblem(WALL, C1, C2, "simple", g)
    b = 2 * g + 2
    assert problem.budgets == Signature(b, 0, 0)
    rep = verify_wallcrossing(problem, _WC_SAMPLES)
    assert rep["ok"] and len(rep["samples"]) == len(_WC_SAMPLES)
    poly = wallcrossing_polynomial(problem)
    for mu, nu in _WC_SAMPLES:
        want = evaluate(poly, mu, nu)
        assert want != 0
        assert _jump("simple", mu, nu, b).coeff({"X": b}) * factorial(b) == want


@pytest.mark.parametrize(
    "kind,signature",
    [(kind, g) for kind in ("monotone", "strict") for g in (0, 1)]
    + [("mixed", (p, q, b - p - q)) for b in range(4) for p in range(b + 1) for q in range(b - p + 1)],
    ids=str,
)
def test_jump_series_is_the_difference_of_the_refined_series(kind, signature):
    order = Signature.of(kind, signature, 2, 2).b
    for mu, nu in _JUMP_SAMPLES:
        assert chamber_of(mu, nu) == C2
        want = refined_series(kind, mu, nu, order, chamber=C2) - refined_series(kind, mu, nu, order, chamber=C1)
        assert _jump(kind, mu, nu, order) == want
        # the other way round, C1's own sigma-product enters with sign -1
        assert _jump(kind, mu, nu, order, chamber=C1, minus=C2) == -want
        assert want.is_zero() == (order < 2)  # nothing jumps below total order 2


@pytest.mark.parametrize("kind", ["monotone", "mixed"])
def test_the_jump_materializes_only_the_patterns_that_change(monkeypatch, kind):
    # on the mu1 = nu1 wall at m = n = 2, C2 gives 2 sigma-products and C1
    # gives 1, the same as one of C2's: the jump materializes the other one
    sizes = []
    real = wedge.materialize

    def counting(products, *args):
        sizes.append(len(products))
        return real(products, *args)

    monkeypatch.setattr(wedge, "materialize", counting)
    for mu, nu in _JUMP_SAMPLES:
        sizes.clear()
        _jump(kind, mu, nu, 2)
        assert sizes == [1]
        for chamber, count in ((C2, 2), (C1, 1)):
            sizes.clear()
            refined_series(kind, mu, nu, 2, chamber=chamber)
            assert sizes == [count]


@pytest.mark.parametrize("kind", ["simple", "monotone", "strict", "mixed"])
def test_the_marker_series_is_the_product_of_factorial_column_series(kind):
    # falling columns run into zeros past small parts; None marks the delta part
    blocks = wallcross._OPENS[kind]
    for nu, index, order in [((2, 2), (1, 2), 3), ((3, 1), (1, None), 4), ((1, 5, 2), (1, 2, 3), 5), ((4,), (None,), 2)]:
        space = wallcross._space(blocks, len(nu), order)
        want = space.one()
        for v, j in zip(nu, index):
            for b in blocks:
                if b.marker and j is not None:
                    col = factorial_column(v, order, b.sign)
                    one = Space.of((f"{b.marker}{j}",), (order,)).series({(k,): c for k, c in enumerate(col)})
                    want = want * one.lift(space)
        assert wallcross._markers(blocks, nu, index, space, order) == want


def _six_factor_prefactor(blocks, J, nu, delta, space):
    """The crossing prefactor as six S-series, three of them inverted, the
    reference for the three quotients of `_crossing_prefactor`."""
    n = len(nu)
    Jc = [j for j in range(1, n + 1) if j not in J]

    def argmap(ixs, scale=1, xshift=0):
        out = {b.var(j): scale for j in ixs for b in blocks if b.sign}
        if wedge.FREE in blocks:
            out[wedge.FREE.letter] = (xshift + sum(nu[j - 1] for j in ixs)) * scale
        return space.linear(out)

    every = range(1, n + 1)
    return (
        s_of(argmap(J, 1, delta))
        * s_of(argmap(Jc, 1))
        * s_of(argmap(every, delta))
        * s_inverse_of(argmap(J, delta, delta))
        * s_inverse_of(argmap(Jc, delta))
        * s_inverse_of(argmap(every, 1))
    ).scalar_mul(delta)


@pytest.mark.parametrize("kind", ["simple", "monotone", "strict", "mixed"])
def test_crossing_prefactor_is_the_six_factor_product(kind):
    # every wall of (2, 2), (2, 3) and (3, 2), at the sample of a chamber of
    # `verify._chambers` on its positive side (or, where none is sampled, of
    # the first chamber), with that sample's |delta| and two larger ones
    blocks = wallcross._OPENS[kind]
    for m, n in ((2, 2), (2, 3), (3, 2)):
        chambers = _chambers(m, n)
        space = wallcross._space(blocks, n, 4)
        for wall in walls(m, n):
            mu, nu = next((ch.sample for ch in chambers if ch.sign(wall) == 1), chambers[0].sample)
            d = abs(wall.value(mu, nu))
            for delta in (d, d + 1, d + 3):
                got = wallcross._crossing_prefactor(blocks, wall.J, nu, delta, space)
                assert got == _six_factor_prefactor(blocks, wall.J, nu, delta, space), (wall, nu, delta)


@pytest.mark.parametrize("kind", ["monotone", "mixed"])
def test_crossing_prefactor_takes_a_polynomial_delta(kind):
    # no quotient inverts anything, so delta may be a ring element; read at
    # a number it is the prefactor at that number
    ring = PolyRing(("d",))
    blocks = wallcross._OPENS[kind]
    space = wallcross._space(blocks, 3, 4)
    symbolic = wallcross._crossing_prefactor(
        blocks, (1, 3), (2, 3, 1), ring.var("d"), Space.of(space.vars, space.caps, space.blocks, ring)
    )
    for delta in (1, 2, 7):
        at = {e: c.evaluate({"d": delta}) for e, c in symbolic.data.items()}
        numeric = wallcross._crossing_prefactor(blocks, (1, 3), (2, 3, 1), delta, space)
        assert numeric.data == {e: c for e, c in at.items() if c}


def _with_prefactor(monkeypatch, change):
    """Replace the crossing prefactor P by change(P, space)."""
    real = wallcross._crossing_prefactor

    def patched(blocks, J, nu, delta, space):
        return change(real(blocks, J, nu, delta, space), space)

    monkeypatch.setattr(wallcross, "_crossing_prefactor", patched)


def test_wallcrossing_mismatch_names_the_lowest_differing_monomial(monkeypatch):
    # a doubled prefactor doubles the right side, so the first mismatch is
    # the jump's lowest term: (degree, exponents) order over t1, t2, y1, y2
    _with_prefactor(monkeypatch, lambda pref, space: pref.scalar_mul(2))
    prob = WallCrossingProblem(WALL, C1, C2, "monotone", 1)
    rep = verify_wallcrossing(prob, [((3, 1), (2, 2)), ((5, 1), (3, 3))])
    assert rep["ok"] is False
    assert [s["equal"] for s in rep["samples"]] == [False, False]
    for sample in rep["samples"]:
        mu, nu = tuple(sample["mu"]), tuple(sample["nu"])
        jump = refined_series("monotone", mu, nu, 4, chamber=C2) - refined_series("monotone", mu, nu, 4, chamber=C1)
        e, c = min(jump.data.items(), key=lambda t: (sum(t[0]), t[0]))
        assert sample["first_mismatch"] == {
            "monomial": dict(zip(("t1", "t2", "y1", "y2"), e)),
            "left": str(c),
            "right": str(2 * c),
        }
    assert rep["samples"][0]["first_mismatch"] == {
        "monomial": {"t1": 0, "t2": 0, "y1": 1, "y2": 1},
        "left": "1/4",
        "right": "1/2",
    }


def test_wallcrossing_mismatch_skips_the_coefficients_that_agree(monkeypatch):
    # a prefactor times (1 + t2) leaves the jump's lowest term y1 y2 (1/4)
    # alone and adds it to the next one, t2 y1 y2 (1/2)
    def change(pref, space):
        return pref * (space.one() + space.linear({"t2": 1}))

    _with_prefactor(monkeypatch, change)
    prob = WallCrossingProblem(WALL, C1, C2, "monotone", 1)
    (sample,) = verify_wallcrossing(prob, [((3, 1), (2, 2))])["samples"]
    assert sample["equal"] is False
    assert sample["first_mismatch"] == {
        "monomial": {"t1": 0, "t2": 1, "y1": 1, "y2": 1},
        "left": "1/2",
        "right": "3/4",
    }


def test_wallcrossing_sample_validation():
    prob = WallCrossingProblem(WALL, C1, C2, "monotone", 0)
    with pytest.raises(InvalidSplit):
        verify_wallcrossing(prob, [((2, 2), (3, 1))])  # delta < 0 side
    with pytest.raises(OnWall):
        verify_wallcrossing(prob, [((2, 2), (2, 2))])  # on the wall itself
    with pytest.raises(ValueError, match="at least one sample"):
        verify_wallcrossing(prob, [])  # used to report "ok" after checking nothing


@st.composite
def _c2_problems(draw):
    """A kind, a genus and a sample (mu, nu) of C2 with m = n = 2 and d <= 14."""
    kind = draw(st.sampled_from(["monotone", "strict"]))
    g = draw(st.integers(0, 1))
    nu1 = draw(st.integers(2, 12))
    nu2 = draw(st.integers(2, 14 - nu1))
    mu1 = draw(st.integers(max(nu1, nu2) + 1, nu1 + nu2 - 1))
    return kind, g, (mu1, nu1 + nu2 - mu1), (nu1, nu2)


@given(_c2_problems())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_series_jump_matches_polynomial_difference(problem):
    # summing the jump's diagonal coefficients recovers the evaluated
    # wall-crossing polynomial at the sample
    kind, g, mu, nu = problem
    assert chamber_of(mu, nu) == C2
    prob = WallCrossingProblem(WALL, C1, C2, kind, g)
    b = prob.budgets.b
    jump = refined_series(kind, mu, nu, 2 * b, chamber=C2) - refined_series(kind, mu, nu, 2 * b, chamber=C1)
    (block,) = prob.blocks
    marker, var = block.marker, block.var
    tot = Fraction(0)
    for v in product(range(b + 1), repeat=2):
        if sum(v) == b:
            tot += jump.coeff({f"{marker}1": v[0], f"{marker}2": v[1], var(1): v[0], var(2): v[1]})
    assert tot == evaluate(wallcrossing_polynomial(prob), mu, nu)
