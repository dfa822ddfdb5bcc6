"""Definitional ground truth: exhaustive counting of transposition
factorizations in the symmetric group.

A factorization of type (mu, nu, p, q, r) is a permutation sigma1 of cycle
type mu together with a tuple of b = p+q+r transpositions tau_i = (r_i s_i),
written with r_i > s_i, such that tau_b ... tau_1 sigma1 has cycle type nu,
where the smaller entries satisfy s_i <= s_{i+1} on the middle block of q
consecutive positions and s_i < s_{i+1} on the final block of r positions
(no constraint couples the blocks to each other).  Counts are reported in
the labeled-parts normalization: the raw tally is multiplied by the number
of ways to assign labels to equal parts of mu and of nu, then divided by d!.

Nothing walks S_d.  The constrained transposition tuples are counted
prefix by prefix, since tuples that agree on the walk's state are never
told apart again, and every count is walked on cycle types: the number of
ways to finish a factorization from sigma1 depends on sigma1 only through
its cycle type, so each class is read at one representative.

Disconnected counts cut the tuple into segments whose tuple sums are
central elements of the group algebra: each free transposition alone (its
sum is the class sum of transpositions), then the whole weak block and the
whole strict block (complete and elementary symmetric functions of the
Jucys-Murphy elements).  For a central sum S, conjugating w by c conjugates
every product S w by c, so the number of tuples of a segment taking w to a
permutation of type nu is the same for every w of one cycle type.  The
walk starts from {mu: size of the class of mu} and maps each class through
each segment, so the final distribution gives the count for every nu at
once.  A weak or strict block is never cut: its later steps depend on the
earlier keys, and a prefix of it has no central sum.

Connected counts are peeled off disconnected ones (the exponential
formula, as in Goulden, Jackson and Vakil, and in Goulden, Guay-Paquet and
Novak on monotone Hurwitz numbers).  A factorization splits uniquely into
the orbit that holds mu's first part and the rest, on disjoint point sets.
In the count / d! normalization the disconnected count A of
(mu, nu, p, q, r) is the sum, over the splits (mu_I, nu_J) of the profiles
(`partitions.profile_splits`, with the number of index pairs that give
each) and the budgets (p1, q1, r1) of the orbit, of
binom(p, p1) * C(mu_I, nu_J, p1, q1, r1) * A(rest, p-p1, q-q1, r-r1): the
free steps interleave binomially, and a weak or strict block in one order
only, since keys on disjoint points differ.  The improper split is the
connected count C itself, so C is A less the proper splits, recursively.
C vanishes where the genus is not a non-negative integer; the rest is read
ungated, since it may have negative genus and a nonzero count
((1,1)/(1,1) at b = 0 is 2).

The caches are bounded.  Their sizes hold every key that the test suite,
run in one process, touches, so none is evicted there; in a longer run they
cap how many tables stay in memory.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, factorial

from .partitions import Signature, centralizer_size, check_profiles, multiplicity_factor, profile_splits


class BoundExceeded(ValueError):
    """Requested degree is above the configured enumeration bound."""


MAX_DEGREE = 8

# the weak and strict chains compare the smaller or the larger point of each
# transposition (r, s); both give the same counts
CONVENTIONS = ("smaller", "larger")


# -- permutation plumbing (tuples of images, 0-based) --------------------------


def identity(d: int) -> tuple:
    return tuple(range(d))


def cycle_type(p: tuple) -> tuple:
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        l = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            l += 1
        lens.append(l)
    return tuple(sorted(lens, reverse=True))


# -- factorization specs --------------------------------------------------------


class FactorizationSpec(namedtuple("FactorizationSpec", "mu nu p q r connected")):
    __slots__ = ()

    def __new__(cls, mu, nu, p, q, r, connected=False):
        mu, nu = check_profiles(mu, nu)
        Signature.of("mixed", (p, q, r), len(mu), len(nu))
        return tuple.__new__(cls, (mu, nu, p, q, r, connected))

    @property
    def d(self) -> int:
        return sum(self.mu)

    @property
    def b(self) -> int:
        return self.p + self.q + self.r

    def genus(self):
        """Integer genus g with b = 2g-2+m+n, or None when no valid g exists."""
        return Signature(self.p, self.q, self.r).genus(len(self.mu), len(self.nu))


FactorizationCount = namedtuple("FactorizationCount", "raw value")


def _transpositions(d: int) -> list:
    return [(s, r) for s in range(d - 1) for r in range(s + 1, d)]


@lru_cache(maxsize=1024)
def _tuple_classes(d: int, p: int, q: int, r: int, convention: str):
    """All constrained transposition tuples, grouped by their product.

    Returns a tuple of (product, count) where the product is tau_b ... tau_1
    as a permutation and count is how many constrained tuples produce it.
    The tuples are counted prefix by prefix: a state is (product, last key)
    with a multiplicity, and each position extends every state by every
    transposition its block rule allows, so tuples that agree on the state
    are never told apart again.

    Distinct keys measured: 423 for the test suite in one process, 62 for
    `suite_equality(6, 5)`, 27 for one seed-0 `routes` round.
    """
    keyidx = CONVENTIONS.index(convention)
    steps = []
    for sr in _transpositions(d):
        img = list(range(d))
        img[sr[0]], img[sr[1]] = img[sr[1]], img[sr[0]]
        steps.append((sr[keyidx], tuple(img)))

    states = {(identity(d), None): 1}
    for count, mode in ((p, "free"), (q, "weak"), (r, "strict")):
        # no constraint couples the blocks: each one's first key is free
        for i in range(count):
            nxt: dict = {}
            for (word, last), cnt in states.items():
                for k, tau in steps:
                    if i and (mode == "weak" and k < last or mode == "strict" and k <= last):
                        continue
                    # tau after word: x -> tau(word(x))
                    key = (tuple([tau[x] for x in word]), None if mode == "free" else k)
                    nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
    table: dict = {}
    for (word, _), cnt in states.items():
        table[word] = table.get(word, 0) + cnt
    return tuple(table.items())


def _segments(p: int, q: int, r: int) -> tuple:
    """(p, q, r) cut into the (p, q, r) of segments with central tuple sums:
    one per free transposition, then the weak block and the strict block whole."""
    return ((1, 0, 0),) * p + ((0, q, 0),) * (q > 0) + ((0, 0, r),) * (r > 0)


def _class_representative(lam: tuple) -> tuple:
    """A permutation of cycle type lam, each cycle on consecutive points."""
    return tuple(start + (i + 1) % part for start, part in zip(accumulate((0,) + lam), lam) for i in range(part))


@lru_cache(maxsize=2048)
def _class_step(d: int, p: int, q: int, r: int, convention: str, lam: tuple):
    """((nu, count), ...): how many tuples of the segment (p, q, r) take a
    permutation of cycle type lam to one of cycle type nu.

    The count is the same for every permutation of type lam, so it is read
    at one representative.
    Distinct keys measured: 537 for the test suite in one process, 315
    for `suite_equality(6, 5)`, 79 for one seed-0 `routes` round.
    """
    rep = _class_representative(lam)
    out: dict = {}
    for word, cnt in _tuple_classes(d, p, q, r, convention):
        nu = cycle_type([word[x] for x in rep])
        out[nu] = out.get(nu, 0) + cnt
    return tuple(out.items())


def _class_counts(d: int, mu: tuple, p: int, q: int, r: int, convention: str) -> dict:
    """{nu: number of (sigma1, tuple) pairs with sigma1 of type mu and the
    product of type nu}, walked on cycle types one segment at a time."""
    dist = {mu: factorial(d) // centralizer_size(mu)}
    for segment in _segments(p, q, r):
        nxt: dict = {}
        for lam, weight in dist.items():
            for nu, cnt in _class_step(d, *segment, convention, lam):
                nxt[nu] = nxt.get(nu, 0) + weight * cnt
        dist = nxt
    return dist


def _disconnected(mu: tuple, nu: tuple, p: int, q: int, r: int, convention: str) -> Fraction:
    """The labeled disconnected count / d! of sorted (mu, nu), not gated on
    the genus."""
    d = sum(mu)
    raw = _class_counts(d, mu, p, q, r, convention).get(nu, 0)
    return Fraction(raw * multiplicity_factor(mu) * multiplicity_factor(nu), factorial(d))


def _connected(mu: tuple, nu: tuple, p: int, q: int, r: int, convention: str) -> Fraction:
    """The labeled transitive count / d! of sorted (mu, nu): the
    disconnected count less every proper split, peeled recursively."""
    if Signature(p, q, r).genus(len(mu), len(nu)) is None:
        return Fraction(0)
    value = _disconnected(mu, nu, p, q, r, convention)
    for muI, nuJ, muC, nuC, mult in profile_splits(mu, nu):
        for p1, q1, r1 in product(range(p + 1), range(q + 1), range(r + 1)):
            if c := _connected(muI, nuJ, p1, q1, r1, convention):
                value -= mult * comb(p, p1) * c * _disconnected(muC, nuC, p - p1, q - q1, r - r1, convention)
    return value


def count_factorizations(spec: FactorizationSpec, convention: str = "smaller") -> FactorizationCount:
    """Count factorizations of the given type, exactly.

    Returns both the raw labeled count and the count divided by d!.  When
    the signature admits no non-negative integer genus (b+2-m-n negative or
    odd) the count is 0 by definition; the parity half of that statement is
    also what enumeration yields, the negative-genus half is imposed.  A
    convention other than "smaller" or "larger" raises ValueError, whatever
    the signature.

    Disconnected counts walk the class of mu, weighted by its size, on
    cycle types through the segments of the tuple and read nu off the final
    distribution; connected counts peel the proper splits off that count.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    d = spec.d
    if d > MAX_DEGREE:
        raise BoundExceeded(f"d={d} exceeds bound {MAX_DEGREE}")
    if spec.genus() is None:
        return FactorizationCount(0, Fraction(0))
    mu_sorted = tuple(sorted(spec.mu, reverse=True))
    nu_sorted = tuple(sorted(spec.nu, reverse=True))
    value = (_connected if spec.connected else _disconnected)(mu_sorted, nu_sorted, spec.p, spec.q, spec.r, convention)
    return FactorizationCount(int(value * factorial(d)), value)
