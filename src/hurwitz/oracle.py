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

Everything is enumerated, with two pieces of bookkeeping.  The constrained
transposition tuples are counted prefix by prefix, since tuples that agree
on the walk's state are never told apart again.  Connected counts walk them
once per (d, p, q, r) from the identity, grouped by (product permutation,
blocks of points the tuple joins), since transitivity reads only which
points the tuple joins, and scan the class of mu against every product.

Disconnected counts read only cycle types, and walk classes instead.  The
tuple is cut into segments whose tuple sums are central elements of the
group algebra: each free transposition alone (its sum is the class sum of
transpositions), then the whole weak block and the whole strict block
(complete and elementary symmetric functions of the Jucys-Murphy
elements).  For a central sum S, conjugating w by c conjugates every
product S w by c, so the number of tuples of a segment taking w to a
permutation of type nu is the same for every w of one cycle type.  The
walk starts from {mu: size of the class of mu} and maps each class through
each segment, at one representative, so the final distribution gives the
count for every nu at once and no sigma1 is scanned.  A weak or strict
block is never cut: its later steps depend on the earlier keys, and a
prefix of it has no central sum.  Neither grouping changes what is counted.

The tuple table itself is not cached: counts read it through
`_product_words` and `_segment_words`, which are.  The caches are bounded.
Their sizes hold every key that the test suite, run in one process,
touches, so none is evicted there; in a longer run they cap how many tables
stay in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations as _all_perms
from math import factorial

from .partitions import SizeMismatch, Signature, centralizer_size, check_composition, check_profiles, multiplicity_factor


class BoundExceeded(ValueError):
    """Requested degree is above the configured enumeration bound."""


MAX_DEGREE = 8

# the weak and strict chains compare the smaller or the larger point of each
# transposition (r, s); both give the same counts
CONVENTIONS = ("smaller", "larger")


# -- permutation plumbing (tuples of images, 0-based) --------------------------


def identity(d: int) -> tuple:
    return tuple(range(d))


def compose(p: tuple, q: tuple) -> tuple:
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


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


@lru_cache(maxsize=64)
def permutations_of_type(d: int, lam: tuple) -> tuple:
    """Every permutation of range(d) with cycle type lam, in any part order.

    A part below 1 raises ValueError, and parts not summing to d raise
    SizeMismatch.
    """
    lam = tuple(sorted(check_composition(lam), reverse=True))
    if sum(lam) != d:
        raise SizeMismatch(f"|lam|={sum(lam)} != d={d}")
    return tuple(p for p in _all_perms(range(d)) if cycle_type(p) == lam)


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
                    # tau after word, i.e. compose(tau, word)
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


@lru_cache(maxsize=512)
def _product_words(d: int, p: int, q: int, r: int, convention: str):
    """The tuple table grouped by product word.

    Returns ((product, ((blocks, count), ...)), ...) with one entry per
    distinct product: 60 words for the 199 classes at d = 5, b = 4.
    """
    groups: dict = {}
    for (word, blocks), cnt in _tuple_classes(d, p, q, r, convention):
        groups.setdefault(word, []).append((blocks, cnt))
    return tuple((word, tuple(blocks)) for word, blocks in groups.items())


def _segments(p: int, q: int, r: int) -> tuple:
    """(p, q, r) cut into the (p, q, r) of segments with central tuple sums:
    one per free transposition, then the weak block and the strict block whole."""
    return ((1, 0, 0),) * p + ((0, q, 0),) * (q > 0) + ((0, 0, r),) * (r > 0)


def _class_representative(lam: tuple) -> tuple:
    """A permutation of cycle type lam, each cycle on consecutive points."""
    return tuple(start + (i + 1) % part for start, part in zip(accumulate((0,) + lam), lam) for i in range(part))


@lru_cache(maxsize=128)
def _segment_words(d: int, p: int, q: int, r: int, convention: str):
    """The tuple table of one segment, without blocks: ((product, None), count), ....

    Distinct keys measured: 108 for the test suite in one process, 62 for
    `suite_equality(6, 5)`, 27 for one seed-0 `routes` round.
    """
    return _tuple_classes(d, p, q, r, convention, blocks=False)


@lru_cache(maxsize=1024)
def _class_step(d: int, p: int, q: int, r: int, convention: str, lam: tuple):
    """((nu, count), ...): how many tuples of the segment (p, q, r) take a
    permutation of cycle type lam to one of cycle type nu.

    The segment's tuple sum is central, so this is the same for every
    permutation of type lam, and it is read at one representative.
    Distinct keys measured: 518 for the test suite in one process, 315 for
    `suite_equality(6, 5)`, 79 for one seed-0 `routes` round.
    """
    rep = _class_representative(lam)
    out: dict = {}
    for (word, _), cnt in _segment_words(d, p, q, r, convention):
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

    Disconnected counts walk the class of mu, weighted by its size,
    through the segments of the tuple on cycle types and read nu off the
    final distribution; connected counts scan the class of mu once per
    distinct product word of the (product, blocks) table and, where the
    type matches, keep the classes whose blocks, joined by the cycles of
    sigma1, are transitive.
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
    raw_unlabeled = 0
    if spec.connected:
        words = _product_words(d, spec.p, spec.q, spec.r, convention)
        for sigma1 in permutations_of_type(d, mu_sorted):
            for w, classes in words:
                if cycle_type(compose(w, sigma1)) == nu_sorted:
                    raw_unlabeled += sum(cnt for blocks, cnt in classes if _is_transitive(sigma1, blocks))
    else:
        raw_unlabeled = _class_counts(d, mu_sorted, spec.p, spec.q, spec.r, convention).get(nu_sorted, 0)
    raw = raw_unlabeled * multiplicity_factor(spec.mu) * multiplicity_factor(spec.nu)
    return FactorizationCount(raw, Fraction(raw, factorial(d)))

