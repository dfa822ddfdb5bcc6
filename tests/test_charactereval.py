"""Character/content-sum route: cross-checks against the enumeration oracle,
the genus gate, the connected recursion, and the hypergeometric coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, prod

import pytest

from hurwitz.charactereval import (
    _connected_simple,
    box_product,
    hurwitz_connected_simple,
    hurwitz_disconnected,
    tau_coefficient,
    tau_dictionary_value,
    tau_series_factored,
)
from hurwitz.oracle import FactorizationSpec, count_factorizations
from hurwitz.partitions import (
    SizeMismatch,
    _sub_multisets,
    character,
    complete_homogeneous_at_contents,
    compositions,
    contents,
    elementary_at_contents,
    partitions,
)
from hurwitz.wallcross import WallCrossingProblem, refined_series, verify_wallcrossing
from hurwitz.wedge import OnWall, Wall, chamber_of, chamber_polynomial, evaluate


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        hurwitz_disconnected((2,), (1, 1, 1), 1, 0, 0)


def test_genus_gate():
    assert hurwitz_disconnected((2,), (2,), 1, 0, 0) == 0  # parity
    assert hurwitz_disconnected((2, 2), (2, 2), 0, 0, 0) == 0  # genus -1
    assert hurwitz_disconnected((1, 1), (1, 1), 1, 1, 0) == 2  # genus 0, fine


def test_order_within_blocks_does_not_matter():
    # profiles are partitions up to reordering
    a = hurwitz_disconnected((1, 3), (2, 2), 0, 2, 0)
    b = hurwitz_disconnected((3, 1), (2, 2), 0, 2, 0)
    assert a == b


@pytest.mark.parametrize("d", [2, 3, 4])
def test_matches_oracle(d):
    parts = list(partitions(d))
    for mu in parts:
        for nu in parts:
            for p, q, r in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                            (2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 2, 0), (0, 0, 2),
                            (1, 1, 1), (3, 0, 0), (0, 3, 0)]:
                want = count_factorizations(FactorizationSpec(mu, nu, p, q, r)).value
                got = hurwitz_disconnected(mu, nu, p, q, r)
                assert got == want, (mu, nu, (p, q, r), got, want)


def test_parts_that_are_not_whole_numbers_raise_on_every_route():
    # int() used to truncate them: (2.7,)/(2,) read as (2,)/(2,)
    for mu, nu in [((2.7,), (2,)), ((3.9, 1), (2, 2)), ((2, 2), (2.5, 1.5))]:
        with pytest.raises(ValueError, match="whole numbers"):
            count_factorizations(FactorizationSpec(mu, nu, 2, 0, 0))
        with pytest.raises(ValueError, match="whole numbers"):
            hurwitz_disconnected(mu, nu, 2, 0, 0)
        with pytest.raises(ValueError, match="whole numbers"):
            hurwitz_connected_simple(mu, nu, 1)
        with pytest.raises(ValueError, match="whole numbers"):
            chamber_of(mu, nu)


def test_profiles_of_unequal_size_raise_one_error_on_every_route():
    # the chamber route used to raise its own error, and `evaluate` and
    # `refined_series` in a given chamber returned a number
    mu, nu = (5, 1), (2, 2)
    chamber = chamber_of((3, 1), (2, 2))
    problem = WallCrossingProblem(Wall((1,), (1,), 2, 2), chamber_of((2, 2), (3, 1)), chamber, "monotone", 0)
    calls = [
        lambda: FactorizationSpec(mu, nu, 2, 0, 0),
        lambda: hurwitz_disconnected(mu, nu, 2, 0, 0),
        lambda: hurwitz_connected_simple(mu, nu, 1),
        lambda: tau_dictionary_value(mu, nu, 2, 0),
        lambda: chamber_of(mu, nu),
        lambda: evaluate(chamber_polynomial("monotone", 1, chamber), mu, nu),
        lambda: refined_series("monotone", mu, nu, 2, chamber=chamber),
        lambda: verify_wallcrossing(problem, [(mu, nu)]),
    ]
    for call in calls:
        with pytest.raises(SizeMismatch, match=r"^\|mu\|=6 != \|nu\|=4$"):
            call()


def test_budgets_and_genus_that_are_not_integers_raise_on_every_route():
    # 1.5 used to give 0 here, and 2.0 a TypeError from the content sums
    for p, q, r in [(1.5, 0, 0), (0, 2.0, 0), (0, 0, Fraction(2))]:
        with pytest.raises(ValueError, match="must be an integer"):
            hurwitz_disconnected((2, 1), (2, 1), p, q, r)
        with pytest.raises(ValueError, match="must be an integer"):
            count_factorizations(FactorizationSpec((2, 1), (2, 1), p, q, r))
        with pytest.raises(ValueError, match="must be an integer"):
            chamber_polynomial("mixed", (p, q, r), chamber_of((3, 1), (2, 2)))
    # -1.5 used to give 0: the negative-genus shortcut ran before the check
    for g in (-1.5, 1.5, 2.0):
        with pytest.raises(ValueError, match="must be an integer"):
            hurwitz_connected_simple((2, 1), (3,), g)
    # -1 used to give 0; every route reads the genus through Signature.of
    with pytest.raises(ValueError, match="genus must be >= 0"):
        hurwitz_connected_simple((2, 1), (3,), -1)
    with pytest.raises(ValueError, match="must be an integer"):
        chamber_polynomial("simple", 1.0, chamber_of((3, 1), (2, 2)))


def test_one_part_profiles_give_reciprocal():
    for d in range(1, 7):
        for pqr in [(0, 0, 0)]:
            assert hurwitz_disconnected((d,), (d,), *pqr) == Fraction(1, d)


def test_connected_simple_known_values():
    # single cycle targets are automatically transitive
    assert hurwitz_connected_simple((2,), (2,), 1) == hurwitz_disconnected((2,), (2,), 2, 0, 0)
    # two fixed sheets over an identity cover never connect
    assert hurwitz_connected_simple((1, 1), (1, 1), 0) == 2  # tau pair (01),(01) is transitive
    # d=3 with a fixed point: disconnected exceeds connected
    disc = hurwitz_disconnected((2, 1), (2, 1), 2, 0, 0)
    conn = hurwitz_connected_simple((2, 1), (2, 1), 0)
    assert conn < disc


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_connected_matches_transitive_oracle(d):
    for mu in partitions(d):
        for nu in partitions(d):
            m, n = len(mu), len(nu)
            for b in range(0, 4):
                if (b - m - n) % 2 or b < m + n - 2:
                    continue
                g = (b - m - n + 2) // 2
                want = count_factorizations(
                    FactorizationSpec(mu, nu, b, 0, 0, connected=True)
                ).value
                assert hurwitz_connected_simple(mu, nu, g) == want, (mu, nu, g)


# -- a plain Fraction reference for the integer route ----------------------------------
# The recursion as first written: a Fraction sum divided in every call, every split
# (I, J) on its own, and every b1 from 0 to b.


@lru_cache(maxsize=None)
def _ref_disconnected(mu, nu, p, q, r):
    total = Fraction(0)
    for lam in partitions(sum(mu)):
        c = character(lam, mu) * character(lam, nu)
        if c:
            term = Fraction(c) * Fraction(sum(contents(lam))) ** p
            total += term * complete_homogeneous_at_contents(lam, q) * elementary_at_contents(lam, r)
    return total / (prod(mu) * prod(nu))


def _desc(parts):
    return tuple(sorted(parts, reverse=True))


@lru_cache(maxsize=None)
def _ref_splits(mu, nu):
    """Every proper (I, J) with 0 in I and sum mu_I = sum nu_J, one entry each."""
    out = []
    m, n = len(mu), len(nu)
    for k in range(m):
        for rest in combinations(range(1, m), k):
            I = (0,) + rest
            for jsub in range(n + 1):
                for J in combinations(range(n), jsub):
                    if sum(nu[j] for j in J) != sum(mu[i] for i in I) or (k + 1 == m and jsub == n):
                        continue
                    muC = _desc(x for i, x in enumerate(mu) if i not in I)
                    nuC = _desc(x for j, x in enumerate(nu) if j not in J)
                    out.append((_desc(mu[i] for i in I), _desc(nu[j] for j in J), muC, nuC))
    return out


@lru_cache(maxsize=None)
def _ref_connected(mu, nu, b):
    total = _ref_disconnected(mu, nu, b, 0, 0)
    for muI, nuJ, muC, nuC in _ref_splits(mu, nu):
        for b1 in range(b + 1):
            c1 = _ref_connected(muI, nuJ, b1)
            a2 = _ref_disconnected(muC, nuC, b - b1, 0, 0) if c1 else 0
            if a2:
                total -= comb(b, b1) * c1 * a2
    return total


def test_connected_matches_the_fraction_reference():
    # pins the grouped splits, the parity and genus gate on b1 and the single
    # division beyond the oracle's reach
    for d in range(1, 8):
        for mu in partitions(d):
            for nu in partitions(d):
                for g in range(3):
                    b = 2 * g - 2 + len(mu) + len(nu)
                    assert hurwitz_connected_simple(mu, nu, g) == _ref_connected(mu, nu, b), (mu, nu, g)


def test_connected_spectrum_vanishes_below_the_bound_and_at_the_wrong_parity():
    # the exponential sum carries no gate on b: these zeros are the
    # transitive count's own, and they come out of the peeling identity
    cases = 0
    for d in range(1, 9):
        for mu in partitions(d):
            for nu in partitions(d):
                m, n = len(mu), len(nu)
                for b in range(m + n + 4):
                    if b < m + n - 2 or (b - m - n) % 2:
                        assert _connected_simple(mu, nu, b) == 0, (mu, nu, b)
                        cases += 1
    assert cases == 7542


def test_disconnected_matches_the_fraction_reference():
    for d in range(1, 8):
        for mu in partitions(d):
            for nu in partitions(d):
                for p in range(5):
                    for q in range(5 - p):
                        for r in range(5 - p - q):
                            b, m, n = p + q + r, len(mu), len(nu)
                            gated = (b - m - n) % 2 or b < m + n - 2
                            want = 0 if gated else _ref_disconnected(mu, nu, p, q, r)
                            assert hurwitz_disconnected(mu, nu, p, q, r) == want, (mu, nu, (p, q, r))


@pytest.mark.parametrize("d", range(1, 9))
def test_sub_multisets_cover_every_index_subset_once(d):
    for parts in partitions(d):
        entries = _sub_multisets(parts)
        assert sum(ways for _, _, ways in entries) == 2 ** len(parts), parts
        for chosen, rest, _ in entries:
            assert tuple(sorted(chosen + rest, reverse=True)) == parts, (parts, chosen, rest)
            assert list(chosen) == sorted(chosen, reverse=True) and list(rest) == sorted(rest, reverse=True)


def _adjacent_chambers(mu, nu):
    """Chambers whose closure holds (mu, nu): from 3·(mu, nu), add 1 to one part on each side."""
    for i in range(len(mu)):
        for j in range(len(nu)):
            a = tuple(3 * x + (k == i) for k, x in enumerate(mu))
            b = tuple(3 * x + (k == j) for k, x in enumerate(nu))
            try:
                yield chamber_of(a, b)
            except OnWall:
                continue


def test_connected_on_a_wall_is_an_adjacent_chamber_value():
    # on a wall the chamber polynomial of any adjacent chamber gives the
    # connected count, which differs from the disconnected one there
    cases = 0
    for d in range(1, 8):
        for mu in compositions(d):
            for nu in compositions(d):
                if len(mu) + len(nu) > 4:
                    continue
                try:
                    chamber_of(mu, nu)
                    continue
                except OnWall:
                    pass
                for chamber in _adjacent_chambers(mu, nu):
                    for g in range(2):
                        conn = hurwitz_connected_simple(mu, nu, g)
                        assert evaluate(chamber_polynomial("simple", g, chamber), mu, nu) == conn, (mu, nu, g)
                        assert conn != hurwitz_disconnected(mu, nu, 2 * g - 2 + len(mu) + len(nu), 0, 0)
                        cases += 1
    assert cases == 144


def test_tau_degree_one():
    # single box, content 0: the whole series is 1
    assert tau_coefficient(1, (1,), (1,), [0], [0]) == 1
    assert tau_coefficient(1, (1,), (1,), [1], [0]) == 0
    assert tau_coefficient(1, (1,), (1,), [0], [2]) == 0


def test_tau_series_two_routes_agree():
    for d in range(1, 5):
        for lam in partitions(d):
            assert box_product(lam, (3,), (3,)) == tau_series_factored(lam, (3,), (3,))


def test_box_product_reads_an_unsorted_shape_as_its_diagram():
    # (1, 2) is the shape (2, 1), contents {0, 1, -1}: e_2 = -1, h_2 = 1
    assert box_product((1, 2), (2,), (2,)) == box_product((2, 1), (2,), (2,))
    assert box_product((1, 2), (2,), (0,))[((2,), (0,))] == -1
    assert box_product((1, 2), (0,), (2,))[((0,), (2,))] == 1


def test_tau_multi_parameter_box_product():
    # two w-parameters: the series must be symmetric under swapping them
    series = box_product((2, 1), (2, 2), (1,))
    for (we, ze), cf in series.items():
        swapped = ((we[1], we[0]), ze)
        assert series.get(swapped, 0) == cf


def test_tau_dictionary_matches_hurwitz():
    cases = [
        ((2,), (2,), 2, 0),
        ((2,), (2,), 0, 2),
        ((3,), (2, 1), 1, 0),
        ((2, 1), (2, 1), 2, 0),
        ((2, 2), (3, 1), 0, 2),
    ]
    for mu, nu, q, r in cases:
        assert tau_dictionary_value(mu, nu, q, r) == hurwitz_disconnected(mu, nu, 0, q, r)


def test_tau_exponents_that_are_not_integers_raise():
    # 1.7 used to be truncated to 1, reading the [w^1] coefficient; the
    # exponents are the budgets r and q, so they are read as budgets are
    for c, d in [([1.7], [0]), ([0], [Fraction(1, 2)]), ([1.0], [0])]:
        with pytest.raises(ValueError, match="must be an integer"):
            tau_coefficient(3, (2, 1), (3,), c, d)
    assert tau_coefficient(3, (2, 1), (3,), [1], [0]) == 1


def test_tau_weight_mismatch():
    with pytest.raises(SizeMismatch):
        tau_coefficient(3, (2,), (1, 1, 1), [0], [0])
