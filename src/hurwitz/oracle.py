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

Connected counts walk the whole tuple as one segment, grouped by (product,
blocks of points the tuple joins), and keep the entries whose blocks,
joined by the cycles of the representative, connect every point.  The
transitive count is a class function of sigma1 too.  The orbits of a
factorization cut it into pieces on disjoint point sets, each counted by a
class function; the pieces interleave in a way fixed by the budgets
(binomially for free steps, and in one order inside a weak or strict block,
since keys on disjoint points differ), and Moebius inversion over the set
partitions coarser than sigma1's cycles gives the transitive part (cf.
Goulden, Guay-Paquet and Novak on monotone Hurwitz numbers as Jucys-Murphy
sums).  No grouping changes what is counted.

The caches are bounded.  Their sizes hold every key that the test suite,
run in one process, touches, so none is evicted there; in a longer run they
cap how many tables stay in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial

from .partitions import Signature, centralizer_size, check_profiles, multiplicity_factor


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


@dataclass(frozen=True)
class FactorizationSpec:
    mu: tuple
    nu: tuple
    p: int
    q: int
    r: int
    connected: bool = False

    def __post_init__(self):
        mu, nu = check_profiles(self.mu, self.nu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        Signature.of("mixed", (self.p, self.q, self.r), len(self.mu), len(self.nu))

    @property
    def d(self) -> int:
        return sum(self.mu)

    @property
    def b(self) -> int:
        return self.p + self.q + self.r

    def genus(self):
        """Integer genus g with b = 2g-2+m+n, or None when no valid g exists."""
        return Signature(self.p, self.q, self.r).genus(len(self.mu), len(self.nu))


@dataclass(frozen=True)
class FactorizationCount:
    raw: int
    value: Fraction


def _transpositions(d: int) -> list:
    return [(s, r) for s in range(d - 1) for r in range(s + 1, d)]


@lru_cache(maxsize=1024)
def _tuple_classes(d: int, p: int, q: int, r: int, convention: str, blocks: bool = True):
    """All constrained transposition tuples, grouped.

    Returns a tuple of ((product, blocks), count) where the product is
    tau_b ... tau_1 as a permutation, blocks labels each point by the least
    point the tuple's transpositions join it to, and count is how many
    constrained tuples produce that pair.  The tuples are counted prefix by
    prefix: a state is (product, blocks, last key) with a multiplicity, and
    each position extends every state by every transposition its block rule
    allows, so tuples that agree on the state are never told apart again.

    With blocks=False the walk does not track joined blocks and never joins
    any: a state is (product, None, last key) and the table is keyed on
    (product, None).  Disconnected counts read no more than that, and the
    walk visits far fewer states.

    Distinct keys measured: 788 for the test suite in one process, 62 for
    `suite_equality(6, 5)`, 27 for one seed-0 `routes` round.
    """
    keyidx = CONVENTIONS.index(convention)
    steps = []
    for sr in _transpositions(d):
        img = list(range(d))
        img[sr[0]], img[sr[1]] = img[sr[1]], img[sr[0]]
        steps.append((sr, sr[keyidx], tuple(img)))

    states = {(identity(d), identity(d) if blocks else None, None): 1}
    for count, mode in ((p, "free"), (q, "weak"), (r, "strict")):
        # no constraint couples the blocks: each one's first key is free
        for i in range(count):
            nxt: dict = {}
            for (word, joined, last), cnt in states.items():
                for (s, rr), k, tau in steps:
                    if i and (mode == "weak" and k < last or mode == "strict" and k <= last):
                        continue
                    # tau after word: x -> tau(word(x))
                    key = (
                        tuple([tau[x] for x in word]),
                        _join(joined, s, rr) if blocks else None,
                        None if mode == "free" else k,
                    )
                    nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
    table: dict = {}
    for (word, joined, _), cnt in states.items():
        table[word, joined] = table.get((word, joined), 0) + cnt
    return tuple(table.items())


def _join(blocks: tuple, a: int, b: int) -> tuple:
    """Blocks with the blocks of a and b merged, still labeled by least point."""
    lo, hi = sorted((blocks[a], blocks[b]))
    if lo == hi:
        return blocks
    return tuple(lo if x == hi else x for x in blocks)


def _segments(p: int, q: int, r: int) -> tuple:
    """(p, q, r) cut into the (p, q, r) of segments with central tuple sums:
    one per free transposition, then the weak block and the strict block whole."""
    return ((1, 0, 0),) * p + ((0, q, 0),) * (q > 0) + ((0, 0, r),) * (r > 0)


def _class_representative(lam: tuple) -> tuple:
    """A permutation of cycle type lam, each cycle on consecutive points."""
    return tuple(start + (i + 1) % part for start, part in zip(accumulate((0,) + lam), lam) for i in range(part))


@lru_cache(maxsize=2048)
def _class_step(d: int, p: int, q: int, r: int, convention: str, lam: tuple, connected: bool):
    """((nu, count), ...): how many tuples of the segment (p, q, r) take a
    permutation of cycle type lam to one of cycle type nu, counting, when
    connected, only the tuples transitive once joined to its cycles.

    Both counts are the same for every permutation of type lam, so they are
    read at one representative: a connected count keeps the entries of the
    (product, blocks) table that its cycles make transitive.
    Distinct keys measured: 1,561 for the test suite in one process, 315
    for `suite_equality(6, 5)`, 79 for one seed-0 `routes` round.
    """
    rep = _class_representative(lam)
    table = _tuple_classes(d, p, q, r, convention, blocks=connected)
    if connected:
        table = [(key, cnt) for key, cnt in table if _is_transitive(rep, key[1])]
    out: dict = {}
    for (word, _), cnt in table:
        nu = cycle_type([word[x] for x in rep])
        out[nu] = out.get(nu, 0) + cnt
    return tuple(out.items())


def _class_counts(d: int, mu: tuple, p: int, q: int, r: int, convention: str, connected: bool) -> dict:
    """{nu: number of (sigma1, tuple) pairs with sigma1 of type mu and the
    product of type nu, transitive when connected}, walked on cycle types:
    one segment at a time, or the whole tuple as one segment when connected."""
    dist = {mu: factorial(d) // centralizer_size(mu)}
    for segment in ((p, q, r),) if connected else _segments(p, q, r):
        nxt: dict = {}
        for lam, weight in dist.items():
            for nu, cnt in _class_step(d, *segment, convention, lam, connected):
                nxt[nu] = nxt.get(nu, 0) + weight * cnt
        dist = nxt
    return dist


def _is_transitive(sigma1: tuple, blocks: tuple) -> bool:
    """Whether sigma1's cycles, joined to the tuple's blocks, connect every point."""
    for x, y in enumerate(sigma1):  # joining x to sigma1[x] joins each cycle
        blocks = _join(blocks, x, y)
    return not any(blocks)


def count_factorizations(spec: FactorizationSpec, convention: str = "smaller") -> FactorizationCount:
    """Count factorizations of the given type, exactly.

    Returns both the raw labeled count and the count divided by d!.  When
    the signature admits no non-negative integer genus (b+2-m-n negative or
    odd) the count is 0 by definition; the parity half of that statement is
    also what enumeration yields, the negative-genus half is imposed.  A
    convention other than "smaller" or "larger" raises ValueError, whatever
    the signature.

    Both kinds walk the class of mu, weighted by its size, on cycle types
    and read nu off the final distribution: disconnected counts through the
    segments of the tuple, connected counts through the whole tuple at once,
    keeping the tuples whose blocks, joined by the cycles of the class
    representative, are transitive.
    Both tally exactly the (sigma1, tuple) pairs of the definition.
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
    raw_unlabeled = _class_counts(d, mu_sorted, spec.p, spec.q, spec.r, convention, spec.connected).get(nu_sorted, 0)
    raw = raw_unlabeled * multiplicity_factor(spec.mu) * multiplicity_factor(spec.nu)
    return FactorizationCount(raw, Fraction(raw, factorial(d)))

