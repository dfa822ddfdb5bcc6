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

Everything is enumerated, with one piece of bookkeeping: the constrained
transposition tuples are generated once per (d, p, q, r) and grouped by
(product permutation, set of touched pairs), since sigma1 ranges over a full
conjugacy class independently of the tuple.  This grouping changes nothing
about what is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _all_perms
from math import factorial

from .partitions import SizeMismatch, Signature, check_composition, multiplicity_factor


class BoundExceeded(ValueError):
    """Requested degree is above the configured enumeration bound."""


MAX_DEGREE = 8


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


def cycles_of(p: tuple) -> list:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


@lru_cache(maxsize=None)
def permutations_of_type(d: int, lam: tuple) -> tuple:
    lam = tuple(sorted(lam, reverse=True))
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
        object.__setattr__(self, "mu", check_composition(self.mu))
        object.__setattr__(self, "nu", check_composition(self.nu))
        if sum(self.mu) != sum(self.nu):
            raise SizeMismatch(f"|mu|={sum(self.mu)} != |nu|={sum(self.nu)}")
        if min(self.p, self.q, self.r) < 0:
            raise ValueError("p, q, r must be >= 0")

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


@lru_cache(maxsize=None)
def _tuple_classes(d: int, p: int, q: int, r: int, convention: str):
    """All constrained transposition tuples, grouped.

    Returns a tuple of ((product, edges), count) where the product is
    tau_b ... tau_1 as a permutation, edges is the frozenset of {s,r} pairs
    used, and count is how many constrained tuples produce that pair.
    """
    if convention not in ("smaller", "larger"):
        raise ValueError(f"unknown convention {convention!r}")
    keyidx = 0 if convention == "smaller" else 1
    trans = _transpositions(d)
    perms = {}
    for sr in trans:
        s, rr = sr
        img = list(range(d))
        img[s], img[rr] = img[rr], img[s]
        perms[sr] = tuple(img)

    counter: dict = {}

    def run_block(word, edges, remaining_blocks):
        if not remaining_blocks:
            key = (word, frozenset(edges))
            counter[key] = counter.get(key, 0) + 1
            return
        count, mode = remaining_blocks[0]
        rest = remaining_blocks[1:]

        def step(i, word, edges, last_key):
            if i == count:
                run_block(word, edges, rest)
                return
            for sr in trans:
                k = sr[keyidx]
                if mode == "weak" and last_key is not None and k < last_key:
                    continue
                if mode == "strict" and last_key is not None and k <= last_key:
                    continue
                step(i + 1, compose(perms[sr], word), edges + [sr], k)

        step(0, word, edges, None)

    blocks = [(p, "free"), (q, "weak"), (r, "strict")]
    blocks = [blk for blk in blocks if blk[0] > 0]
    run_block(identity(d), [], blocks)
    return tuple(counter.items())


def _is_transitive(cycles, edges, d: int) -> bool:
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for cyc in cycles:
        for x in cyc[1:]:
            union(cyc[0], x)
    for s, rr in edges:
        union(s, rr)
    root = find(0)
    return all(find(x) == root for x in range(d))


def count_factorizations(spec: FactorizationSpec, convention: str = "smaller") -> FactorizationCount:
    """Count factorizations of the given type, exactly.

    Returns both the raw labeled count and the count divided by d!.  When
    the signature admits no non-negative integer genus (b+2-m-n negative or
    odd) the count is 0 by definition; the parity half of that statement is
    also what enumeration yields, the negative-genus half is imposed.
    """
    d = spec.d
    if d > MAX_DEGREE:
        raise BoundExceeded(f"d={d} exceeds bound {MAX_DEGREE}")
    if spec.genus() is None:
        return FactorizationCount(0, Fraction(0))
    classes = _tuple_classes(d, spec.p, spec.q, spec.r, convention)
    nu_sorted = tuple(sorted(spec.nu, reverse=True))
    raw_unlabeled = 0
    for sigma1 in permutations_of_type(d, spec.mu):
        cyc1 = cycles_of(sigma1) if spec.connected else None
        for (w, edges), cnt in classes:
            if cycle_type(compose(w, sigma1)) != nu_sorted:
                continue
            if spec.connected and not _is_transitive(cyc1, edges, d):
                continue
            raw_unlabeled += cnt
    raw = raw_unlabeled * multiplicity_factor(spec.mu) * multiplicity_factor(spec.nu)
    return FactorizationCount(raw, Fraction(raw, factorial(d)))

