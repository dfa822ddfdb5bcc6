"""Partitions, compositions, Young-diagram contents, and symmetric-group
characters.

Profiles of branch points are compositions (ordered tuples of positive
integers) because the parts carry labels; characters, contents and content
sums only depend on the underlying diagram and sort it first (`_shape`).
Characters come from expanding p_mu in the Schur basis by the
Murnaghan-Nakayama rule: a shape is one int, an abacus whose set bits are
its beads, and multiplying by p_t moves a bead from b to an empty b + t
with sign (-1)^(beads strictly between them).  The expansion is cached per
sorted prefix of mu, so cycle types that share a prefix share the work;
`character_column` reads it in `partitions(d)` order, and `character`
reads one entry of it.

`Signature` is the one place where a kind and its genus or budgets become
the transposition budgets (p, q, r) and where a genus is read back from
b = p + q + r = 2g - 2 + m + n.  A genus or budget must be an int
(`check_integer`), and a profile part a whole number (`check_composition`);
anything else raises ValueError rather than being truncated.  A profile pair
(mu, nu) is read through `check_profiles`, the one place where unequal sizes
raise SizeMismatch.  `profile_splits` is the one home of the splits of a
profile pair into the block that holds mu's first part and the rest, which
both routes that peel connected counts off disconnected ones read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod


class SizeMismatch(ValueError):
    """Two profiles/shapes that must have equal size do not."""


PURE_KINDS = ("simple", "monotone", "strict")


@dataclass(frozen=True)
class Signature:
    """Budgets of free (p), weakly monotone (q) and strictly monotone (r)
    transpositions.  The pure kinds are the triples with one nonzero budget."""

    p: int
    q: int
    r: int

    @classmethod
    def of(cls, kind: str, signature, m: int, n: int) -> "Signature":
        """Read a genus for a pure kind, or a triple (p, q, r) for "mixed"."""
        if kind == "mixed":
            p, q, r = (check_integer(x, "each of p, q, r") for x in signature)
            if min(p, q, r) < 0:
                raise ValueError("p, q, r must be >= 0")
            return cls(p, q, r)
        if kind not in PURE_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        signature = check_integer(signature, "genus")
        if signature < 0:
            raise ValueError("genus must be >= 0")
        b = 2 * signature - 2 + m + n
        return cls(*(b if k == kind else 0 for k in PURE_KINDS))

    def __iter__(self):
        return iter((self.p, self.q, self.r))

    @property
    def b(self) -> int:
        return self.p + self.q + self.r

    def genus(self, m: int, n: int):
        """Integer genus g with b = 2g-2+m+n, or None when no valid g exists."""
        twice = self.b + 2 - m - n
        if twice < 0 or twice % 2:
            return None
        return twice // 2

    def degenerate(self, m: int, n: int) -> bool:
        """(g, m+n) = (0, 2): the count is 1/d, not polynomial in the parts."""
        return self.b == 0 and m + n == 2


def check_integer(x, what: str) -> int:
    """x as an int; a float or Fraction, even a whole one, raises ValueError."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def check_composition(parts) -> tuple:
    """The parts as ints; a part that is not a whole number raises ValueError."""
    given = tuple(parts)
    parts = tuple(int(x) for x in given)
    if parts != given:
        raise ValueError(f"composition parts must be whole numbers: {given}")
    if not parts:
        raise ValueError("empty composition")
    if any(x < 1 for x in parts):
        raise ValueError(f"composition parts must be >= 1: {parts}")
    return parts


def check_profiles(mu, nu) -> tuple:
    """Both profiles through `check_composition`; unequal sizes raise SizeMismatch."""
    mu, nu = check_composition(mu), check_composition(nu)
    if sum(mu) != sum(nu):
        raise SizeMismatch(f"|mu|={sum(mu)} != |nu|={sum(nu)}")
    return mu, nu


def partitions(d: int):
    """All partitions of d as weakly decreasing tuples, in descending lex order.

    Iterative (algorithm ZS1 of Zoghbi and Stojmenovic): `x[:m]` is the
    current partition and `h` the index of its last part greater than 1.
    Each step lowers `x[h]` by one and refills the tail with copies of the
    lowered value, which gives the lex-next smaller partition.  A negative d
    has none; a d that is not an int raises ValueError (`check_integer`).
    """
    d = check_integer(d, "d")
    if d < 0:
        return
    if d == 0:
        yield ()
        return
    x = [1] * d
    x[0] = d
    m, h = 1, 0
    yield (d,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def compositions(d: int, k=None):
    """All compositions of d (ordered tuples of positive parts) in lex order,
    or with k only those of exactly k parts.  A negative d or k has none, and
    so has k > d; k = 0 gives only the empty composition of d = 0.  A d or k
    that is not an int raises ValueError (`check_integer`)."""

    def gen(rest, k):
        # k: the number of parts still to place, or None for any number
        if rest == 0 or k == 0:
            if rest == 0 and not k:
                yield ()
            return
        for first in range(1, (rest if k is None else rest - k + 1) + 1):
            for tail in gen(rest - first, None if k is None else k - 1):
                yield (first,) + tail

    d = check_integer(d, "d")
    k = None if k is None else check_integer(k, "k")
    if d >= 0 and (k is None or k >= 0):
        yield from gen(d, k)


def _shape(parts) -> tuple:
    """The parts sorted into a weakly decreasing shape (or cycle type); a part
    that is not an int, or is below 1, raises ValueError."""
    try:
        lam = tuple(sorted(map(operator.index, parts), reverse=True))
    except TypeError:
        raise ValueError(f"shape and cycle type parts must be integers: {tuple(parts)}") from None
    if lam and lam[-1] < 1:
        raise ValueError(f"shape and cycle type parts must be >= 1: {lam}")
    return lam


def contents(lam) -> tuple:
    """Multiset of box contents j - i (0-based), row by row of the sorted shape."""
    return tuple(j - i for i, row in enumerate(_shape(lam)) for j in range(row))


def f2_eigenvalue(lam) -> int:
    """Sum of the contents: the transposition-sum eigenvalue on the shape."""
    return sum(row * (row - 1) // 2 - i * row for i, row in enumerate(_shape(lam)))


def multiplicity_factor(mu) -> int:
    """prod over part values of (multiplicity)! — the label-assignment count."""
    mults = {}
    for part in mu:
        mults[part] = mults.get(part, 0) + 1
    out = 1
    for m in mults.values():
        out *= factorial(m)
    return out


def centralizer_size(mu) -> int:
    """z_mu = prod over part values l of l^(m_l) * (m_l)!"""
    return prod(mu) * multiplicity_factor(mu)


@lru_cache(maxsize=512)
def _sub_multisets(parts: tuple) -> tuple:
    """(chosen, rest, ways) for each sub-multiset of the weakly decreasing
    `parts`: both sorted, and `ways` index subsets that pick it."""
    out = [((), (), 1)]
    for v in sorted(set(parts), reverse=True):
        k = parts.count(v)
        out = [(ch + (v,) * c, rest + (v,) * (k - c), w * comb(k, c)) for ch, rest, w in out for c in range(k + 1)]
    return tuple(out)


def profile_splits(mu: tuple, nu: tuple) -> list:
    """Proper splits of the weakly decreasing (mu, nu) whose first block
    holds part 0 of mu.

    Entries are (muI, nuJ, muC, nuC, mult): the block (muI, nuJ), its
    complement, each sorted, and the number of index pairs (I, J) with
    0 in I and sum mu_I = sum nu_J that sort to them.  A full I forces a
    full J (all parts are positive), so dropping an empty muC drops the one
    improper split.
    """
    blocks = {}
    for nuJ, nuC, ways in _sub_multisets(nu):
        blocks.setdefault(sum(nuJ), []).append((nuJ, nuC, ways))
    out = []
    for rest, muC, ways in _sub_multisets(mu[1:]):
        if not muC:
            continue
        muI = (mu[0],) + rest
        for nuJ, nuC, ways_nu in blocks.get(sum(muI), ()):
            out.append((muI, nuJ, muC, nuC, ways * ways_nu))
    return out


@lru_cache(maxsize=512)
def _schur_expansion(prefix: tuple) -> dict:
    """p_prefix in the Schur basis: {abacus: chi^lam(prefix)}, zeros dropped.

    The abacus has sum(prefix) beads, bead i at lam_i + sum(prefix) - 1 - i.
    The last part t adds t beads below the previous prefix's abacus, then
    adds a t-rim hook by moving a bead from b to an empty b + t, with sign
    (-1)^(beads strictly between them).
    """
    if not prefix:
        return {0: 1}
    t = prefix[-1]
    between = (1 << (t - 1)) - 1
    out = {}
    for abacus, coeff in _schur_expansion(prefix[:-1]).items():
        abacus = (abacus << t) | ((1 << t) - 1)
        movable = abacus & ~(abacus >> t)
        while movable:
            low = movable & -movable
            movable ^= low
            moved = abacus ^ low ^ (low << t)
            c = -coeff if ((abacus >> low.bit_length()) & between).bit_count() & 1 else coeff
            c += out.get(moved, 0)
            if c:
                out[moved] = c
            else:
                del out[moved]
    return out


def _abacus(lam: tuple, beads: int) -> int:
    """The shape lam on a `beads`-bead abacus: bead i at lam_i + beads - 1 - i."""
    out = (1 << (beads - len(lam))) - 1
    for i, part in enumerate(lam):
        out |= 1 << (part + beads - 1 - i)
    return out


def character(lam, mu) -> int:
    """Irreducible symmetric-group character chi^lam at cycle type mu."""
    lam, mu = _shape(lam), _shape(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    return _schur_expansion(mu).get(_abacus(lam, sum(lam)), 0)


@lru_cache(maxsize=32)
def _abaci(d: int) -> tuple:
    """The abacus of every lam, in `partitions(d)` order."""
    return tuple(_abacus(lam, d) for lam in partitions(d))


def character_column(mu) -> tuple:
    """chi^lam(mu) for every lam, in `partitions(sum(mu))` order; every
    order of mu's parts reads one cached column."""
    try:
        return _column_of_parts(*mu)
    except TypeError:  # an unhashable part: `_shape` names it
        return _character_column(_shape(mu))


@lru_cache(maxsize=256, typed=True)
def _column_of_parts(*parts) -> tuple:
    # keyed on the parts as given, so a hit skips `_shape`; typed, so that a
    # whole float or Fraction part misses and `_shape` rejects it
    return _character_column(_shape(parts))


@lru_cache(maxsize=256)
def _character_column(shape: tuple) -> tuple:
    expansion = _schur_expansion(shape)
    return tuple(expansion.get(a, 0) for a in _abaci(sum(shape)))


@lru_cache(maxsize=1024)
def _sym_at_contents(lam: tuple, kmax: int) -> tuple:
    """(h_0..h_kmax, e_0..e_kmax) evaluated at the content multiset of lam."""
    cr = contents(lam)
    h = [0] * (kmax + 1)
    h[0] = 1
    for x in cr:
        for k in range(1, kmax + 1):
            h[k] += x * h[k - 1]
    e = [0] * (kmax + 1)
    e[0] = 1
    for x in cr:
        for k in range(min(kmax, len(cr)), 0, -1):
            e[k] += x * e[k - 1]
    return tuple(h), tuple(e)


def complete_homogeneous_at_contents(lam, v: int) -> int:
    """h_v evaluated at the contents of lam."""
    v = check_integer(v, "v")
    if v < 0:
        raise ValueError("need v >= 0")
    return _sym_at_contents(_shape(lam), v)[0][v]


def elementary_at_contents(lam, v: int) -> int:
    """e_v evaluated at the contents of lam; vanishes for v > |lam|."""
    v = check_integer(v, "v")
    if v < 0:
        raise ValueError("need v >= 0")
    lam = _shape(lam)
    if v > sum(lam):
        return 0
    return _sym_at_contents(lam, v)[1][v]
