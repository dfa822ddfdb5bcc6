"""Direct symmetric-group enumeration: hand-checked anchors and invariants.

Every expected number here was either computed by hand (tiny cases written
out as explicit permutation words) or pinned from an earlier run of this
same enumeration and re-checked against the character-sum route.
"""

import itertools
from fractions import Fraction
from math import factorial, prod

import pytest

from hurwitz.oracle import (
    CONVENTIONS,
    BoundExceeded,
    FactorizationSpec,
    MAX_DEGREE,
    _class_step,
    _segments,
    _tuple_classes,
    count_factorizations,
    cycle_type,
    identity,
)
from hurwitz.partitions import SizeMismatch, partitions
from hurwitz.wedge import OnWall, chamber_of


def _compose(p, q):
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple(p[x] for x in q)


def _of_type(d, lam):
    """Every permutation of range(d) with cycle type lam."""
    return [s for s in itertools.permutations(range(d)) if cycle_type(s) == lam]


def test_permutation_helpers():
    p = (1, 2, 0)  # the 3-cycle 0->1->2->0
    q = (1, 0, 2)  # the transposition (0 1)
    assert cycle_type(p) == (3,)
    assert cycle_type(identity(3)) == (1, 1, 1)
    assert cycle_type((0, 2, 1, 4, 3)) == (2, 2, 1)
    assert _compose(p, q) == (2, 1, 0) != _compose(q, p)


def test_both_part_orders_share_one_class_of_sigma1():
    # (3,1) and (1,3) name one conjugacy class, so the second order reads
    # only the class steps the first one filled, for both kinds of count
    for connected in (False, True):
        _class_step.cache_clear()
        for mu in ((3, 1), (1, 3)):
            count_factorizations(FactorizationSpec(mu, (2, 2), 2, 0, 0, connected=connected))
            if mu == (3, 1):
                filled = _class_step.cache_info()
        info = _class_step.cache_info()
        assert filled.currsize > 0 and info.hits > filled.hits
        assert (info.misses, info.currsize) == (filled.misses, filled.currsize), connected


def test_spec_validation():
    with pytest.raises(SizeMismatch):
        FactorizationSpec((2,), (1, 1, 1), 1, 0, 0)
    with pytest.raises(ValueError):
        FactorizationSpec((2,), (1, 1), -1, 0, 0)
    spec = FactorizationSpec((3, 1), (2, 2), 2, 0, 0)
    assert spec.d == 4 and spec.b == 2
    assert spec.genus() == 0


@pytest.mark.parametrize("lam,error", [((2, 2), SizeMismatch), ((3, 0), ValueError)])
def test_spec_rejects_a_bad_type(lam, error):
    # the class walk reads sigma1 only through mu, so the profile checks live
    # on the spec, for both kinds of count
    for connected in (False, True):
        with pytest.raises(error):
            FactorizationSpec(lam, (3,), 0, 0, 0, connected=connected)


def test_genus_gate():
    # parity mismatch: b and m+n disagree mod 2
    assert FactorizationSpec((2,), (2,), 1, 0, 0).genus() is None
    assert count_factorizations(FactorizationSpec((2,), (2,), 1, 0, 0)).value == 0
    # negative genus
    assert FactorizationSpec((2, 2), (2, 2), 0, 0, 0).genus() is None


# -- hand-checked anchors ---------------------------------------------------------
# h((2),(1,1); p=1): sigma_1 = (01), the only transposition undoing it is (01);
# 1 factorization / 2! times the labeling factor 2! for nu = (1,1).
# h((3),(3); b=0): two 3-cycles, each its own factorization; 2/3! * 1 = 1/3.
# monotone h((2),(2); q=2): tau_1 tau_2 sigma_1 with tau_i = (01) forced; 1/2! = 1/2.
# strict h((2),(2); r=2): needs s_1 < s_2 among smaller elements, impossible in S_2.
# h((1,1),(1,1); p=2): sigma_1 = id, tau_1 = tau_2 = (01); 1/2! * 2!*2! = 2.
ANCHORS = [
    ((2,), (1, 1), (1, 0, 0), Fraction(1)),
    ((3,), (3,), (0, 0, 0), Fraction(1, 3)),
    ((2,), (2,), (0, 2, 0), Fraction(1, 2)),
    ((2,), (2,), (0, 0, 2), Fraction(0)),
    ((1, 1), (1, 1), (2, 0, 0), Fraction(2)),
    ((2,), (2,), (2, 0, 0), Fraction(1, 2)),
]


@pytest.mark.parametrize("mu,nu,pqr,want", ANCHORS)
def test_anchor_counts(mu, nu, pqr, want):
    assert count_factorizations(FactorizationSpec(mu, nu, *pqr)).value == want


def test_genus_gate_negative():
    # b = 0 with m + n = 4 would need genus -1: gated to zero even though
    # disconnected identity covers exist combinatorially
    assert count_factorizations(FactorizationSpec((1, 1), (1, 1), 0, 0, 0)).value == 0


def test_connected_filter():
    # the only factorization of ((1,1),(1,1); p=2) is tau_1 = tau_2 = (01):
    # transitive, so the connected count keeps the full labeled weight 2
    disc = count_factorizations(FactorizationSpec((1, 1), (1, 1), 2, 0, 0))
    conn = count_factorizations(FactorizationSpec((1, 1), (1, 1), 2, 0, 0, connected=True))
    assert disc.value == 2 and conn.value == 2
    # a single 2-cycle is transitive on its support
    conn2 = count_factorizations(FactorizationSpec((2,), (2,), 0, 2, 0, connected=True))
    assert conn2.value == Fraction(1, 2)
    # ((2,1),(2,1); p=2) has genuine non-transitive factorizations (fixed third sheet)
    disc3 = count_factorizations(FactorizationSpec((2, 1), (2, 1), 2, 0, 0))
    conn3 = count_factorizations(FactorizationSpec((2, 1), (2, 1), 2, 0, 0, connected=True))
    assert 0 < conn3.value < disc3.value


def test_mu_nu_symmetry():
    # reading the factorization backwards swaps the roles of mu and nu
    for mu, nu, pqr in [
        ((3, 1), (2, 2), (2, 0, 0)),
        ((4,), (2, 2), (1, 0, 1)),
        ((3,), (1, 1, 1), (0, 2, 0)),
    ]:
        a = count_factorizations(FactorizationSpec(mu, nu, *pqr)).value
        b = count_factorizations(FactorizationSpec(nu, mu, *pqr)).value
        assert a == b


def test_conventions_agree_spot_checks():
    for mu, nu, q in [((3, 1), (2, 2), 2), ((2, 2, 1), (5,), 3), ((4,), (4,), 2)]:
        spec = FactorizationSpec(mu, nu, 0, q, 0)
        assert (
            count_factorizations(spec, convention="smaller").value
            == count_factorizations(spec, convention="larger").value
        )


@pytest.mark.parametrize("pqr", [(1, 0, 0), (2, 0, 0)])  # wrong parity, then valid
@pytest.mark.parametrize("connected", [False, True])
def test_unknown_convention_raises(pqr, connected):
    with pytest.raises(ValueError, match="convention"):
        count_factorizations(FactorizationSpec((2,), (2,), *pqr, connected=connected), convention="bogus")


def test_bound_guard():
    big = (MAX_DEGREE + 1,)
    with pytest.raises(BoundExceeded):
        count_factorizations(FactorizationSpec(big, big, 0, 0, 0))



# -- the definition, enumerated with no grouping -----------------------------------


def _type_of(perm):
    seen, lens = [False] * len(perm), []
    for i in range(len(perm)):
        n = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            n += 1
        if n:
            lens.append(n)
    return tuple(sorted(lens, reverse=True))


def _join_all(label, pairs):
    """Each point's label after joining every pair: the least point it reaches."""
    for a, b in pairs:
        lo, hi = sorted((label[a], label[b]))
        if lo != hi:
            label = [lo if x == hi else x for x in label]
    return label


def _definition_tally(d, p, q, r, convention):
    """{(type of sigma1, type of the product, transitive?): number of pairs}."""
    trans = list(itertools.combinations(range(d), 2))  # (s, r) with s < r
    key = 0 if convention == "smaller" else 1
    sigmas = [(s, _type_of(s), [(i, s[i]) for i in range(d)]) for s in itertools.permutations(range(d))]
    tally = {}
    for taus in itertools.product(trans, repeat=p + q + r):
        keys = [t[key] for t in taus]
        weak, strict = keys[p : p + q], keys[p + q :]
        if any(a > b for a, b in zip(weak, weak[1:])) or any(a >= b for a, b in zip(strict, strict[1:])):
            continue
        word = list(range(d))
        for s, rr in taus:  # tau_b ... tau_1, tau_1 applied first
            word = [rr if x == s else s if x == rr else x for x in word]
        joined = _join_all(list(range(d)), taus)
        for sigma, mu, pairs in sigmas:
            nu = _type_of([word[x] for x in sigma])
            transitive = not any(_join_all(joined, pairs))
            tally[mu, nu, transitive] = tally.get((mu, nu, transitive), 0) + 1
    return tally


def _labelings(lam):
    return prod(factorial(lam.count(k)) for k in set(lam))


def test_counts_match_the_definition():
    cases = [(d, p, q, b - p - q) for d, bmax in [(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)]
             for b in range(bmax + 1) for p in range(b + 1) for q in range(b - p + 1)]
    for (d, p, q, r), convention in itertools.product(cases, ("smaller", "larger")):
        tally = _definition_tally(d, p, q, r, convention)
        for mu in partitions(d):
            for nu in partitions(d):
                conn = tally.get((mu, nu, True), 0)
                disc = conn + tally.get((mu, nu, False), 0)
                for connected, want in ((False, disc), (True, conn)):
                    spec = FactorizationSpec(mu, nu, p, q, r, connected=connected)
                    if spec.genus() is None:
                        want = 0
                    got = count_factorizations(spec, convention=convention).raw
                    assert got == want * _labelings(mu) * _labelings(nu), (spec, convention)


def test_the_product_table_tallies_every_constrained_tuple():
    # the prefix walk against a tally of every transposition tuple that the
    # block rules admit, by product, for every (p, q, r) with b <= 4 at
    # d <= 5, both conventions, where test_counts_match_the_definition
    # stops at b = 3 and at d = 5, b = 2
    for d, b in itertools.product(range(1, 6), range(5)):
        # per convention, {keys of the tuple: {product: number of tuples}}:
        # the block rules read only the keys
        by_keys = ({}, {})
        for taus in itertools.product(itertools.combinations(range(d), 2), repeat=b):
            word = identity(d)
            for s, rr in taus:  # tau_b ... tau_1, tau_1 applied first
                word = tuple(rr if x == s else s if x == rr else x for x in word)
            for key, tally in enumerate(by_keys):
                words = tally.setdefault(tuple(t[key] for t in taus), {})
                words[word] = words.get(word, 0) + 1
        for p, q in itertools.product(range(b + 1), repeat=2):
            if p + q > b:
                continue
            for key, convention in enumerate(CONVENTIONS):
                want = {}
                for keys, words in by_keys[key].items():
                    weak, strict = keys[p : p + q], keys[p + q :]
                    if any(x > y for x, y in zip(weak, weak[1:])) or any(x >= y for x, y in zip(strict, strict[1:])):
                        continue
                    for word, cnt in words.items():
                        want[word] = want.get(word, 0) + cnt
                assert dict(_tuple_classes(d, p, q, b - p - q, convention)) == want, (d, (p, q), convention)


def test_disconnected_counts_match_the_tuple_table():
    # the class walk against a reference that walks whole permutations: the
    # product table summed by the cycle type of the product, one
    # word of each type scanned against every sigma1 (the number of sigma1
    # of type mu with w sigma1 of type nu is the same for every w of one
    # type, by conjugation).  Scope: every partition pair with d <= 6, every
    # (p, q, r) with b <= 4, both conventions; 14,630 counts, past
    # test_counts_match_the_definition at b = 4 and at d = 5, 6
    scans = {}  # (d, type of w) -> {(type of sigma1, type of w sigma1): number of sigma1}
    checked = 0
    for d, b in itertools.product(range(1, 7), range(5)):
        for p, q in itertools.product(range(b + 1), repeat=2):
            if p + q > b:
                continue
            r = b - p - q
            for convention in CONVENTIONS:
                by_type = {}
                for word, cnt in _tuple_classes(d, p, q, r, convention):
                    lam = cycle_type(word)
                    if (d, lam) not in scans:
                        tally = scans[d, lam] = {}
                        for sigma in itertools.permutations(range(d)):
                            key = (cycle_type(sigma), cycle_type(_compose(word, sigma)))
                            tally[key] = tally.get(key, 0) + 1
                    by_type[lam] = by_type.get(lam, 0) + cnt
                for mu, nu in itertools.product(partitions(d), repeat=2):
                    spec = FactorizationSpec(mu, nu, p, q, r)
                    want = 0
                    if spec.genus() is not None:
                        want = sum(cnt * scans[d, lam].get((mu, nu), 0) for lam, cnt in by_type.items())
                    got = count_factorizations(spec, convention=convention).raw
                    assert got == want * _labelings(mu) * _labelings(nu), (spec, convention)
                    checked += 1
    assert checked == 14630


def test_the_class_walk_rests_on_central_segments():
    # every member of a class gives the representative's distribution of
    # product types, for one free step and for every weak and strict block
    # length up to 4: each segment's tuple sum is central
    segments = [(1, 0, 0)] + [(0, k, 0) for k in range(1, 5)] + [(0, 0, k) for k in range(1, 5)]
    for d, segment, convention in itertools.product(range(1, 6), segments, CONVENTIONS):
        words = _tuple_classes(d, *segment, convention)
        for lam in partitions(d):
            want = dict(_class_step(d, *segment, convention, lam))
            for sigma in _of_type(d, lam):
                got = {}
                for word, cnt in words:
                    nu = cycle_type(_compose(word, sigma))
                    got[nu] = got.get(nu, 0) + cnt
                assert got == want, (d, segment, convention, lam, sigma)
    # and the segments the walk cuts (p, q, r) into multiply out to the
    # whole tuple, product by product: a weak or strict block is never cut
    for d, b in itertools.product(range(1, 6), range(5)):
        for p, q in itertools.product(range(b + 1), repeat=2):
            if p + q > b:
                continue
            for convention in CONVENTIONS:
                words = {identity(d): 1}
                for segment in _segments(p, q, b - p - q):
                    nxt = {}
                    for w, cnt in words.items():
                        for word, k in _tuple_classes(d, *segment, convention):
                            x = _compose(word, w)
                            nxt[x] = nxt.get(x, 0) + cnt * k
                    words = nxt
                whole = _tuple_classes(d, p, q, b - p - q, convention)
                assert words == dict(whole), (d, (p, q, b - p - q), convention)


def _blocked_table(d, p, q, r, convention):
    """{(product, blocks): number of constrained tuples}, walked prefix by
    prefix as `_tuple_classes` walks them, where blocks labels each point
    by the least point the tuple's transpositions join it to."""
    key = CONVENTIONS.index(convention)
    states = {(identity(d), identity(d), None): 1}
    for count, mode in ((p, "free"), (q, "weak"), (r, "strict")):
        for i in range(count):
            nxt = {}
            for (word, joined, last), cnt in states.items():
                for s, rr in itertools.combinations(range(d), 2):
                    k = (s, rr)[key]
                    if i and (mode == "weak" and k < last or mode == "strict" and k <= last):
                        continue
                    state = (
                        tuple(rr if x == s else s if x == rr else x for x in word),
                        tuple(_join_all(joined, [(s, rr)])),
                        None if mode == "free" else k,
                    )
                    nxt[state] = nxt.get(state, 0) + cnt
            states = nxt
    table = {}
    for (word, joined, _), cnt in states.items():
        table[word, joined] = table.get((word, joined), 0) + cnt
    return table


def test_peeled_connected_counts_match_a_transitive_walk():
    # a connected count is defined by transitivity: against a reference that
    # keys the tuples by (product, joined blocks) and keeps those that
    # sigma1's cycles make transitive, with no genus gate (a transitive
    # factorization has genus >= 0 by Riemann-Hurwitz).  Every sigma1 of
    # each class at d <= 5, b <= 4 (b <= 2 at d = 5), and the first member
    # of each class at d = 6, b <= 3; every (p, q, r), both conventions,
    # walls included
    checked = split = 0
    for d in range(1, 7):
        classes = {}
        for sigma in itertools.permutations(range(d)):
            classes.setdefault(cycle_type(sigma), []).append(sigma)
        if d == 6:
            classes = {lam: members[:1] for lam, members in classes.items()}
        for b in range({5: 3, 6: 4}.get(d, 5)):
            for p, q in itertools.product(range(b + 1), repeat=2):
                if p + q > b:
                    continue
                for convention in CONVENTIONS:
                    by_blocks = {}
                    for (word, joined), cnt in _blocked_table(d, p, q, b - p - q, convention).items():
                        by_blocks.setdefault(joined, []).append((word, cnt))
                    for mu, members in classes.items():
                        size = factorial(d) // prod(mu) // _labelings(mu)
                        tallies = []
                        for sigma in members:
                            tally = {}
                            for joined, entries in by_blocks.items():
                                if any(_join_all(joined, enumerate(sigma))):
                                    continue
                                for word, cnt in entries:
                                    nu = cycle_type(_compose(word, sigma))
                                    tally[nu] = tally.get(nu, 0) + cnt
                            tallies.append(tally)
                        for nu in partitions(d):
                            spec = FactorizationSpec(mu, nu, p, q, b - p - q, connected=True)
                            got = count_factorizations(spec, convention=convention).raw
                            for tally in tallies:
                                want = tally.get(nu, 0) * size * _labelings(mu) * _labelings(nu)
                                assert got == want, (spec, convention)
                            disc = count_factorizations(FactorizationSpec(mu, nu, p, q, b - p - q), convention=convention)
                            split += got != disc.raw
                            checked += 1
    assert checked == 8550 and split > 0


def test_connected_equals_disconnected_off_walls():
    # a disconnected factorization splits mu and nu into sub-multisets of
    # equal size, which puts (mu, nu) on a wall: off every wall both agree
    checked = nonzero = 0
    for d in range(1, 6):
        for mu in partitions(d):
            for nu in partitions(d):
                try:
                    chamber_of(mu, nu)
                except OnWall:
                    continue
                for b in range(5):
                    for p in range(b + 1):
                        for q in range(b - p + 1):
                            spec = FactorizationSpec(mu, nu, p, q, b - p - q)
                            if spec.genus() is None:
                                continue
                            disc = count_factorizations(spec)
                            conn = count_factorizations(FactorizationSpec(mu, nu, p, q, b - p - q, connected=True))
                            assert conn == disc, (mu, nu, (p, q, b - p - q))
                            checked += 1
                            nonzero += disc.raw != 0
    assert checked > 500 and nonzero > 0
