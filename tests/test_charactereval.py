"""Character/content-sum route: cross-checks against the enumeration oracle,
the genus gate, the connected recursion, and the hypergeometric coefficients.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hurwitz.charactereval import (
    box_product,
    hurwitz_connected_simple,
    hurwitz_disconnected,
    tau_coefficient,
    tau_dictionary_value,
    tau_series_factored,
)
from hurwitz.oracle import FactorizationSpec, count_factorizations
from hurwitz.partitions import SizeMismatch, partitions


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


def test_tau_degree_one():
    # single box, content 0: the whole series is 1
    assert tau_coefficient(1, (1,), (1,), [0], [0]) == 1
    assert tau_coefficient(1, (1,), (1,), [1], [0]) == 0
    assert tau_coefficient(1, (1,), (1,), [0], [2]) == 0


def test_tau_series_two_routes_agree():
    for d in range(1, 5):
        for lam in partitions(d):
            assert box_product(lam, (3,), (3,)) == tau_series_factored(lam, (3,), (3,))


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


def test_tau_weight_mismatch():
    with pytest.raises(SizeMismatch):
        tau_coefficient(3, (2,), (1, 1, 1), [0], [0])
