from fractions import Fraction
from functools import lru_cache
from importlib import import_module
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.partitions import (
    Signature,
    SizeMismatch,
    centralizer_size,
    character,
    character_column,
    check_composition,
    complete_homogeneous_at_contents,
    compositions,
    contents,
    elementary_at_contents,
    f2_eigenvalue,
    multiplicity_factor,
    partitions,
)
from hurwitz.partitions import _character_column, _column_of_parts


def _conjugate(lam) -> tuple:
    return tuple(sum(1 for row in lam if row > i) for i in range(lam[0]))


def _hook_dimension(lam) -> int:
    """d! / prod of hook lengths."""
    cols = _conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return factorial(sum(lam)) // hooks


def test_partition_counts():
    # p(1..8) = 1, 2, 3, 5, 7, 11, 15, 22
    assert [len(list(partitions(d))) for d in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


def test_partitions_come_in_descending_lex_order():
    # the character route zips per-profile character columns against this order
    shapes = {()}
    for d in range(1, 21):
        # every partition of d is one of d - 1 with a box added to some row
        shapes = {
            tuple(sorted(lam[:i] + (lam[i] + 1,) + lam[i + 1:], reverse=True))
            for lam in shapes
            for i in range(len(lam))
        } | {lam + (1,) for lam in shapes}
        assert list(partitions(d)) == sorted(shapes, reverse=True), d
    assert len(shapes) == 627
    assert list(partitions(0)) == [()]


def test_compositions_count():
    # 2^(d-1) compositions of d
    for d in range(1, 7):
        assert len(list(compositions(d))) == 2 ** (d - 1)


def test_compositions_of_a_fixed_length_are_the_lex_filtered_ones():
    # C(d-1, k-1) compositions of d into k parts, in the order of the whole list
    for d in range(7):
        every = list(compositions(d))
        assert every == sorted(every)
        for k in range(d + 3):
            got = list(compositions(d, k))
            assert got == [c for c in every if len(c) == k], (d, k)
            assert len(got) == (comb(d - 1, k - 1) if d and k else int(d == k))
    # k = 0 has only the empty composition of 0, and k > d has none
    assert list(compositions(0, 0)) == [()] and list(compositions(3, 0)) == []
    assert list(compositions(2, 3)) == [] and list(compositions(2, -1)) == []
    for k in (1.0, Fraction(2), "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            list(compositions(3, k))


@pytest.mark.parametrize("enumerate_", [partitions, compositions])
def test_a_size_that_is_not_an_integer_is_named(enumerate_):
    # 2.5 used to raise a bare TypeError from inside the enumeration
    for d in (2.5, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="d must be an integer"):
            list(enumerate_(d))
    assert list(enumerate_(-1)) == []  # a negative size has nothing to enumerate


def test_check_composition_rejects():
    with pytest.raises(ValueError):
        check_composition(())
    with pytest.raises(ValueError):
        check_composition((2, 0))
    assert check_composition([3, 1]) == (3, 1)
    with pytest.raises(ValueError, match="whole numbers"):
        check_composition((2.7, 1))
    with pytest.raises(ValueError, match="whole numbers"):
        check_composition((Fraction(5, 2), 1))
    assert check_composition((3.0, Fraction(1))) == (3, 1)  # whole numbers become ints


def test_contents():
    assert sorted(contents((3, 1))) == [-1, 0, 1, 2]
    assert sorted(contents((2, 2))) == [-1, 0, 0, 1]


def test_f2_eigenvalue_is_content_sum():
    for lam in partitions(5):
        assert f2_eigenvalue(lam) == sum(contents(lam))


def test_an_unsorted_shape_is_read_as_its_diagram():
    assert contents((1, 2)) == contents((2, 1)) == (0, 1, -1)
    assert f2_eigenvalue((1, 2)) == f2_eigenvalue((2, 1)) == 0
    assert f2_eigenvalue((1, 3, 2)) == f2_eigenvalue((3, 2, 1)) == 0
    assert contents((1, 1, 3)) == contents((3, 1, 1))


@pytest.mark.parametrize("read", [contents, f2_eigenvalue, lambda lam: complete_homogeneous_at_contents(lam, 1)])
def test_a_shape_with_a_part_below_one_is_rejected(read):
    with pytest.raises(ValueError, match="must be >= 1"):
        read((2, 0))


def test_character_table_s3():
    # rows: shape lambda; columns: class mu -- classical S_3 table
    table = {
        ((3,), (1, 1, 1)): 1,
        ((3,), (2, 1)): 1,
        ((3,), (3,)): 1,
        ((2, 1), (1, 1, 1)): 2,
        ((2, 1), (2, 1)): 0,
        ((2, 1), (3,)): -1,
        ((1, 1, 1), (1, 1, 1)): 1,
        ((1, 1, 1), (2, 1)): -1,
        ((1, 1, 1), (3,)): 1,
    }
    for (lam, mu), want in table.items():
        assert character(lam, mu) == want, (lam, mu)


def test_character_dimension_hook_lengths():
    assert character((2, 2), (1,) * 4) == 2
    assert character((3, 1), (1,) * 4) == 3
    assert character((2, 1, 1), (1,) * 4) == 3
    assert character((5,), (1,) * 5) == 1
    for lam in partitions(6):
        assert character(lam, (1,) * 6) == _hook_dimension(lam)


def test_character_conjugate_sign():
    # chi_{lam'}(mu) = sign(mu) chi_lam(mu)
    for lam in partitions(5):
        for mu in partitions(5):
            sign = (-1) ** (5 - len(mu))
            assert character(_conjugate(lam), mu) == sign * character(lam, mu)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_character_orthogonality(d):
    parts = list(partitions(d))
    for lam in parts:
        for sig in parts:
            tot = sum(
                Fraction(character(lam, mu) * character(sig, mu), centralizer_size(mu))
                for mu in parts
            )
            assert tot == (1 if lam == sig else 0)


@pytest.mark.parametrize("lam, mu", [((2,), (2, 0)), ((1, 1), (1, 1, 0)), ((3, -1), (1, 1))])
def test_character_rejects_parts_below_one(lam, mu):
    # equal sizes, so only the part check can catch these
    with pytest.raises(ValueError):
        character(lam, mu)


@pytest.mark.parametrize("d", range(1, 8))
def test_character_column_is_character_over_partitions(d):
    for mu in partitions(d):
        assert character_column(mu) == tuple(character(lam, mu) for lam in partitions(d)), mu


@lru_cache(maxsize=None)
def _beta_number_character(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama on beta-numbers (first-column hook lengths): remove
    a mu[0]-rim hook from lam every way, with sign (-1)^height."""
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]  # strictly decreasing
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        # height of the border strip = number of beta entries passed over
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted(beta, reverse=True)
        new_beta[new_beta.index(b)] = nb
        new_beta.sort(reverse=True)
        new_lam = tuple(
            bb - (k - 1 - pos) for pos, bb in enumerate(new_beta) if bb - (k - 1 - pos) > 0
        )
        total += (-1) ** height * _beta_number_character(new_lam, rest)
    return total


@pytest.mark.parametrize("d", range(10))
def test_character_column_matches_the_beta_number_recursion(d):
    for mu in partitions(d):
        want = tuple(_beta_number_character(lam, mu) for lam in partitions(d))
        assert character_column(mu) == want, mu


def test_character_sorts_its_shape_and_cycle_type():
    for lam in partitions(6):
        for mu in partitions(6):
            assert character(lam[::-1], mu[::-1]) == character(lam, mu), (lam, mu)
    assert character((1, 3, 2), (1,) * 6) == 16  # the staircase's dimension
    assert character((1, 1, 4), (1, 3, 2)) == _beta_number_character((4, 1, 1), (3, 2, 1)) == -1


def test_reordered_profiles_share_one_character_column():
    _column_of_parts.cache_clear()
    _character_column.cache_clear()
    assert character_column((2, 1)) == character_column((1, 2)) == (1, 0, -1)
    assert _character_column.cache_info().currsize == 1


def test_a_cached_character_column_is_read_without_sorting(monkeypatch):
    column = character_column((3, 2, 1, 1))

    def no_shape(parts):
        raise AssertionError(f"a cache hit re-read its parts {parts}")

    # the package re-exports the function `partitions` under the module's name
    monkeypatch.setattr(import_module("hurwitz.partitions"), "_shape", no_shape)
    assert character_column((3, 2, 1, 1)) is column


@pytest.mark.parametrize("bad", [(2.0, 1), (Fraction(2), 1), (True, 1.0, 1), ([2], 1)])
def test_character_column_rejects_parts_that_are_not_integers_once_their_twin_is_cached(bad):
    # the whole-number twin's column is cached first; an equal float or
    # Fraction part must not read it
    character_column((2, 1))
    character_column((1, 1, 1))
    with pytest.raises(ValueError, match="must be integers"):
        character_column(bad)


@pytest.mark.parametrize("mu", [(2, 0), (0, 3), (1, 1, 0)])
def test_character_column_rejects_a_part_below_one(mu):
    with pytest.raises(ValueError, match="must be >= 1"):
        character_column(mu)


@pytest.mark.parametrize("lam, mu", [((1.5, 1.5), (3,)), ((2, 1), (1.5, 1.5)), ((2.0, 1), (3,)), ((2, 1), (Fraction(3),))])
def test_character_rejects_parts_that_are_not_integers(lam, mu):
    # equal sizes, so only the part check can catch these
    with pytest.raises(ValueError, match="must be integers"):
        character(lam, mu)


@pytest.mark.parametrize("d", range(1, 11))
def test_character_column_orthogonality(d):
    # sum_lam chi^lam(mu) chi^lam(nu) = z_mu [mu == nu]
    for mu in partitions(d):
        for nu in partitions(d):
            tot = sum(a * b for a, b in zip(character_column(mu), character_column(nu)))
            assert tot == (centralizer_size(mu) if mu == nu else 0), (mu, nu)


def test_centralizer_size():
    assert centralizer_size((1, 1, 1)) == 6
    assert centralizer_size((2, 1)) == 2
    assert centralizer_size((3,)) == 3
    assert centralizer_size((2, 2)) == 8


def test_multiplicity_factor():
    assert multiplicity_factor((3, 1)) == 1
    assert multiplicity_factor((2, 2)) == 2
    assert multiplicity_factor((1, 1, 1)) == 6
    assert multiplicity_factor((2, 2, 1, 1)) == 4


def test_class_sizes_sum_to_group_order():
    for d in range(1, 7):
        assert sum(factorial(d) // centralizer_size(mu) for mu in partitions(d)) == factorial(d)


def test_symmetric_functions_at_contents():
    # lambda = (2,): contents {0, 1}; h_2 = sum of monomials of degree 2
    lam = (2,)
    assert elementary_at_contents(lam, 1) == 1  # e_1 = 0 + 1
    assert elementary_at_contents(lam, 2) == 0  # e_2 = 0 * 1
    assert complete_homogeneous_at_contents(lam, 2) == 1  # 0^2 + 0*1 + 1^2
    assert elementary_at_contents(lam, 5) == 0  # more parts than boxes
    assert complete_homogeneous_at_contents((1, 2), 2) == complete_homogeneous_at_contents((2, 1), 2) == 1
    assert elementary_at_contents((1, 2), 2) == elementary_at_contents((2, 1), 2) == -1


@pytest.mark.parametrize("read", [complete_homogeneous_at_contents, elementary_at_contents])
@pytest.mark.parametrize("v", [2.5, 2.0, Fraction(2), "2"])
def test_a_content_sum_degree_that_is_not_an_integer_is_named(read, v):
    with pytest.raises(ValueError, match="v must be an integer"):
        read((2, 1), v)


def test_h_e_generating_identity():
    # sum_k (-1)^k e_k h_{n-k} = 0 for n >= 1, over any content alphabet
    for lam in [(3, 1), (2, 2, 1)]:
        for n in range(1, 5):
            tot = sum(
                (-1) ** k
                * elementary_at_contents(lam, k)
                * complete_homogeneous_at_contents(lam, n - k)
                for k in range(n + 1)
            )
            assert tot == 0


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_partitions_weakly_decreasing(d):
    for lam in partitions(d):
        assert sum(lam) == d
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_signature_genus_gate():
    assert Signature(0, 2, 0).b == 2
    assert Signature(0, 2, 0).genus(2, 2) == 0
    assert Signature(1, 1, 2).genus(2, 2) == 1
    assert Signature(1, 0, 0).genus(2, 2) is None  # odd parity
    assert Signature(0, 0, 1).genus(2, 3) is None  # negative genus
    assert Signature(0, 0, 0).degenerate(1, 1)
    assert not Signature(0, 0, 2).degenerate(1, 1)
    assert not Signature(0, 0, 1).degenerate(1, 2)


def test_signature_of_each_kind():
    # b = 2g - 2 + m + n goes to the budget of the kind
    assert Signature.of("simple", 1, 2, 1) == Signature(3, 0, 0)
    assert Signature.of("monotone", 0, 2, 2) == Signature(0, 2, 0)
    assert Signature.of("strict", 2, 1, 1) == Signature(0, 0, 4)
    assert Signature.of("mixed", (1, 1, 0), 2, 2) == Signature(1, 1, 0)
    assert Signature.of("mixed", Signature(1, 1, 0), 2, 2) == Signature(1, 1, 0)
    for kind in ("simple", "monotone", "strict"):
        assert Signature.of(kind, 2, 1, 2).genus(1, 2) == 2
    assert tuple(Signature(3, 1, 2)) == (3, 1, 2)


def test_signature_of_rejects():
    with pytest.raises(ValueError):
        Signature.of("monotone", -1, 1, 1)  # negative genus
    with pytest.raises(ValueError):
        Signature.of("mixed", (1, -1, 0), 1, 1)  # negative budget
    with pytest.raises(ValueError):
        Signature.of("double", 0, 1, 1)  # unknown kind
    # a genus or budget that is not an int, even a whole float
    for kind, signature in [("simple", 1.5), ("monotone", 1.0), ("strict", Fraction(1)), ("mixed", (0, 2.0, 0))]:
        with pytest.raises(ValueError, match="must be an integer"):
            Signature.of(kind, signature, 2, 1)


def test_signature_is_a_frozen_value():
    sig = Signature(1, 2, 3)
    assert repr(sig) == "Signature(p=1, q=2, r=3)"
    assert Signature(p=1, q=2, r=3) == sig and (sig.p, sig.q, sig.r) == (1, 2, 3)
    assert sig != Signature(3, 2, 1) and sig != Signature(1, 2, 4)
    assert hash(sig) == hash(Signature(1, 2, 3))
    assert len({sig, Signature(1, 2, 3), Signature(0, 2, 3)}) == 2
    for field in ("p", "q", "r", "other"):
        with pytest.raises(AttributeError):
            setattr(sig, field, 0)
    assert sig == Signature(1, 2, 3)
