"""Chambers, Johnson's commutation walk, and chamber polynomials.

The parameter space of profile pairs (mu, nu) with equal weight is cut by
the hyperplanes mu_I = nu_J into chambers.  On each chamber the counts are
polynomial in the parts, and every count is computed from the sigma-products
of Johnson's commutation algorithm: starting from an operator word such as

    E(mu_1) ... E(mu_m) E(-nu_1) ... E(-nu_n)

the leftmost negative-energy operator is commuted toward the left end,
branching into a swap (no factor) and a merge (one recorded factor) at
every step, until it either hits the left end (the branch dies against the
covacuum) or everything has merged into a single zero-energy operator.
An operator absorbing mu_I and nu_J is the walk label (I, J), with energy
mu_I - nu_J, so which operators count as negative is read off the chamber's
sample point, and the pattern set is the same throughout the chamber.
`johnson_expand` walks a word of labels alone (the walk sees only the
chamber's signs) and returns its patterns as sigma-products on walk labels;
`commutation_patterns` caches the standard word's walk once per chamber.
`materialize` turns those into a series, reading each label's energy and
argument (the sum of the per-part arguments of nu_J) once at one point
(mu, nu) (ring elements for polynomial coefficients, parts for numeric
ones).  The mixed generating series is two factors, each with one home:
`correlator`, the chamber's sum of those patterns (or, given a second
chamber, the jump of the correlator, from the patterns that differ across
the wall), and `prefactor`, the S-power columns of the parts of nu, which
no chamber changes and whose constant term is 1.  Chamber polynomials read
one grade of their product (`TruncSeries.grade_sum`), with one part of mu
valued on the weight shell; the refined series of `wallcross` multiply
the two, and its wall-crossing check reads the correlators alone.  The
count is symmetric under (mu, nu) <-> (nu, mu) and under permuting the
parts of mu and of nu, but the walk's pattern count is not, and each part
of nu opens its own expansion variables.  So each orbit's polynomial is built once, on its
member on the side with fewer parts of nu, mu ascending and nu descending,
in that member's own parts with its last part of mu on the shell; every
chamber of the orbit reads its own off by one change of variables
(`MultiPoly.change_variables`): the same polynomial, built once, from
fewer variables and patterns.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .algebra import (
    MultiPoly,
    PolyRing,
    Space,
    factorial_column,
    s_power_column,
    s_ratio_of,
    sigma_of,
)
from .partitions import Signature, check_profiles


class OnWall(ValueError):
    """The sample point satisfies mu_I = nu_J for a proper wall."""

    def __init__(self, wall, message=None):
        super().__init__(message or f"sample lies on wall {wall}")
        self.wall = wall


class ZeroEnergyIntermediate(RuntimeError):
    """A merged operator acquired zero energy: the data sits on a wall."""


class DegenerateSignature(ValueError):
    """(g, m+n) = (0, 2): the count is 1/d, not polynomial in the parts."""


class ArityMismatch(ValueError):
    """A profile has the wrong number of parts for its polynomial or chamber."""


# -- walls and chambers ---------------------------------------------------------


def _form(label, mu, nu):
    """The linear form mu_I - nu_J of a label (I, J) at the point (mu, nu)."""
    return sum(mu[i - 1] for i in label[0]) - sum(nu[j - 1] for j in label[1])


class Wall(namedtuple("Wall", "I J m n")):
    """The hyperplane mu_I = nu_J, canonicalized so that 1 is in I.

    A pair and its complement cut the same hyperplane (on the subspace of
    equal weights), so each class is stored once; the class of the empty
    pair / the full pair is no wall at all.
    """

    __slots__ = ()

    def __new__(cls, I, J, m, n):
        I = tuple(sorted(set(I)))
        J = tuple(sorted(set(J)))
        if any(i < 1 or i > m for i in I) or any(j < 1 or j > n for j in J):
            raise ValueError("wall indices out of range")
        if 1 not in I:
            I = tuple(i for i in range(1, m + 1) if i not in I)
            J = tuple(j for j in range(1, n + 1) if j not in J)
        if len(I) == m and len(J) == n:
            raise ValueError("the full/empty pair is not a wall")
        return tuple.__new__(cls, (I, J, m, n))

    def value(self, mu, nu) -> int:
        return _form((self.I, self.J), mu, nu)

    def __str__(self):
        return f"mu{{{','.join(map(str, self.I))}}} = nu{{{','.join(map(str, self.J))}}}"


@lru_cache(maxsize=64)
def walls(m: int, n: int) -> tuple:
    """All canonical walls for (m, n), deterministically ordered."""
    out = []
    rest = range(2, m + 1)
    for ksub in range(0, m):
        for extra in combinations(rest, ksub):
            I = (1,) + extra
            for jsub in range(0, n + 1):
                for J in combinations(range(1, n + 1), jsub):
                    if len(I) == m and len(J) == n:
                        continue
                    out.append(Wall(I, J, m, n))
    return tuple(sorted(out, key=lambda w: (w.I, w.J)))


@lru_cache(maxsize=64)
def _wall_masks(m: int, n: int) -> tuple:
    """Each wall of `walls(m, n)` as its (I, J) bit masks, bit i - 1 for index i."""
    return tuple((sum(1 << (i - 1) for i in w.I), sum(1 << (j - 1) for j in w.J)) for w in walls(m, n))


def _subset_sums(parts) -> list:
    """The sum of every subset of the parts, indexed by its bit mask."""
    sums = [0]
    for part in parts:
        sums += [s + part for s in sums]
    return sums


class Chamber:
    """A chamber of the arrangement, held by an interior sample point (mu, nu).

    The sample is read through `check_profiles`, and (m, n) and every sign
    off it, from the subset sums of mu and of nu; a sample on a wall raises
    `OnWall`, naming the first such wall in `walls(m, n)` order.  `key()`
    is (m, n, the signs in that order).
    """

    __slots__ = ("sample", "_key")

    def __init__(self, sample):
        self.sample = mu, nu = check_profiles(*sample)
        mus, nus = _subset_sums(mu), _subset_sums(nu)
        signs = tuple((v > 0) - (v < 0) for v in [mus[I] - nus[J] for I, J in _wall_masks(self.m, self.n)])
        if 0 in signs:
            raise OnWall(walls(self.m, self.n)[signs.index(0)])
        self._key = (self.m, self.n, signs)

    @property
    def m(self) -> int:
        return len(self.sample[0])

    @property
    def n(self) -> int:
        return len(self.sample[1])

    def label_sign(self, label) -> int:
        """The sign of mu_I - nu_J at the sample, for a label (I, J)."""
        v = _form(label, *self.sample)
        return (v > 0) - (v < 0)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other):
        return isinstance(other, Chamber) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Chamber(sample={self.sample!r})"


def chamber_of(mu, nu) -> Chamber:
    """Locate the chamber containing the sample (mu, nu)."""
    return Chamber((mu, nu))


# -- the commutation walk --------------------------------------------------------

# Operator labels during the walk are pairs (frozenset of mu-indices,
# frozenset of nu-indices), 1-based.  A pattern is a tuple of recorded merge
# factors (left label, right label) plus the left label of the final merge.


def _walk(word: tuple, sign) -> list:
    """Johnson's commutation walk on a word of labels, as a pattern list.

    `sign` gives each label's energy sign.  The leftmost negative label is
    commuted one step left: a swap, and a merge that records the factor
    (left label, right label).  A branch that brings it to the left end dies
    against the covacuum; the last merge of two labels ends a pattern and
    records its left label.
    """
    out = []

    def step(word, factors):
        pos = None
        for k, lab in enumerate(word):
            if sign(lab) < 0:
                pos = k
                break
        if pos is None:
            raise ZeroEnergyIntermediate(f"no negative operator in {word}")
        if pos == 0:
            return  # annihilates against the covacuum
        A, B = word[pos - 1], word[pos]
        merged = (A[0] | B[0], A[1] | B[1])
        if len(word) == 2:
            out.append((factors, A))
        else:
            if sign(merged) == 0:
                raise ZeroEnergyIntermediate(f"operator {merged} has zero energy")
            step(word[: pos - 1] + (merged,) + word[pos + 1 :], factors + ((A, B),))
        step(word[: pos - 1] + (B, A) + word[pos + 1 :], factors)

    step(word, ())
    return out


# -- public expansion into sigma-products ----------------------------------------


def standard_word(m: int, n: int) -> tuple:
    """The labels of E(mu_1) ... E(mu_m) E(-nu_1) ... E(-nu_n): ({i}, {}), then ({}, {j})."""
    word = [(frozenset([i]), frozenset()) for i in range(1, m + 1)]
    return tuple(word + [(frozenset(), frozenset([j])) for j in range(1, n + 1)])


class SigmaProduct(namedtuple("SigmaProduct", "factors final")):
    """One commutation pattern of a word, on its walk labels (see `materialize`).

    A label (I, J) stands for the operator that absorbed mu_I and nu_J: its
    energy is mu_I - nu_J and its argument the sum of the arguments of the
    parts nu_J.  Each pair (A, B) of `factors` denotes the factor
    sigma(energy(A)*arg(B) - energy(B)*arg(A)); the label `final` pairs with
    the word's total argument W as sigma(energy(final) * W) / sigma(W).
    """

    __slots__ = ()


def johnson_expand(chamber: Chamber, word) -> list:
    """Run the commutation algorithm on an explicit word of labels (I, J),
    the mu- and nu-indices each operator absorbs (any iterables of ints).

    Returns one SigmaProduct per surviving pattern; a word whose total
    energy is not zero has vanishing correlator and yields the empty list.
    These products are the formula every count is computed from: see
    `materialize`.  A word needs at least two operators.
    """
    word = tuple((frozenset(I), frozenset(J)) for I, J in word)
    if len(word) < 2:
        raise ValueError("operator word needs at least two operators")
    seen_mu, seen_nu = set(), set()
    for I, J in word:
        if not I and not J:
            raise ValueError("operator without indices")
        if I & seen_mu or J & seen_nu:
            raise ValueError("operator word reuses an index")
        if max(I, default=1) > chamber.m or max(J, default=1) > chamber.n:
            raise ValueError("operator index outside the chamber's (m, n)")
        seen_mu |= I
        seen_nu |= J
    # total energy sum(mu_I) - sum(nu_J) vanishes on the weight shell exactly
    # when every index is covered once
    if seen_mu != set(range(1, chamber.m + 1)) or seen_nu != set(range(1, chamber.n + 1)):
        return []
    return [SigmaProduct(*pattern) for pattern in _walk(word, chamber.label_sign)]


@lru_cache(maxsize=128)
def commutation_patterns(chamber: Chamber) -> tuple:
    """The sigma-products of `standard_word` on this chamber: the one walk
    every generating series reads, since the walk sees only the signs.

    The bound of 128 is kept: all of Tier-1 in one process fills 53
    entries, `suite_equality(6, 5)` 11, and one seed-0 bench round of
    `routes` or `chamber` 6 or 9, with the members of a chamber's orbit
    under part permutations and the swap counted apart."""
    return tuple(johnson_expand(chamber, standard_word(chamber.m, chamber.n)))


# -- series assembly --------------------------------------------------------------


class Block(namedtuple("Block", "letter marker sign")):
    """One kind of transposition: the free block has the one variable X, on
    which nu_j's operator carries the argument nu_j, and sign 0; any other
    has a variable letter + j per part nu_j, with argument 1 and the prefactor
    S^(sign * nu_j - 1), and its factorial column steps by its sign.  The
    refined series grades a signed block by its markers, marker + j."""

    __slots__ = ()

    def var(self, j: int) -> str:
        return f"{self.letter}{j}" if self.sign else self.letter


# the one table of the blocks, in `Signature` order (p, q, r)
FREE, MONOTONE, STRICT = BLOCKS = (Block("X", "", 0), Block("y", "t", 1), Block("z", "u", -1))


def expansion_parts(blocks, index) -> list:
    """Each part's expansion variables {variable: sign} in the given blocks,
    by its index j in nu; the index None (a split's delta part) has none."""
    return [{} if j is None else {b.var(j): b.sign for b in blocks if b.sign} for j in index]


def _space_for(sig: Signature, n: int):
    """The series space of the budgets and each part's expansion variables:
    each block of `BLOCKS` opens its variables, capped at its budget, only
    when that budget is positive (the extraction would drop them anyway)."""
    names, caps, groups = [], [], []
    opened = [(block, budget) for block, budget in zip(BLOCKS, sig) if budget]
    for block, budget in opened:
        got = list(dict.fromkeys(block.var(j) for j in range(1, n + 1)))  # X once
        if block.sign:
            groups.append((tuple(range(len(names), len(names) + n)), budget))
        names += got
        caps += [budget] * len(got)
    return Space.of(names, caps, groups), expansion_parts([b for b, _ in opened], range(1, n + 1))


def _over_ring(space, values):
    """The numeric space taken over the ring of `values` = (mu, nu), or
    itself when they are numbers."""
    return Space.of(space.vars, space.caps, space.blocks, getattr(values[1][0], "ring", None))


def materialize(products, args, space, values, signs=None):
    """Sum the sigma-products of `johnson_expand` in the given series space.

    `args[j-1]` is the argument of nu_j, a map {expansion variable: value};
    each label (I, J)'s energy mu_I - nu_J and argument (the sum of args
    over J) are read once per call, at `values` = (mu, nu): numbers, or
    elements of one ring, which is then the series' coefficient ring.  The
    total argument W is built once, and each pattern's tail
    S(eF * W) / S(W) is one quotient (`s_ratio_of`).  This is where every
    chamber polynomial and every refined series gets its numbers.  `signs`,
    when given, holds one integer multiplicity per product (a jump across a
    wall subtracts the far chamber's products).
    """
    space = _over_ring(space, values)
    read = {}

    def label(lab):
        got = read.get(lab)
        if got is None:
            arg = {}
            for j in sorted(lab[1]):
                for v, c in args[j - 1].items():
                    arg[v] = arg[v] + c if v in arg else c
            got = read[lab] = _form(lab, *values), arg
        return got

    total = space.linear(label((frozenset(), frozenset(range(1, len(args) + 1))))[1])
    acc = space.zero()
    for k, prod in enumerate(products):
        # sigma(eF * total) / sigma(total) = eF * S(eF * total) / S(total), one
        # quotient; eF (times the sign) scales the first sigma factor (or the
        # tail when there is none), not every coefficient of the quotient
        eF = label(prod.final)[0]
        lead = eF if signs is None else eF * signs[k]
        # every sigma factor meets the others, none with a constant term, so
        # each is built only up to the degree they leave room for
        term = None
        for A, B in prod.factors:
            (eA, argA), (eB, argB) = label(A), label(B)
            combo = {v: eA * c for v, c in argB.items()}
            for v, c in argA.items():
                t = -eB * c
                combo[v] = combo[v] + t if v in combo else t
            fac = sigma_of(space.linear(combo), len(prod.factors))
            term = fac.scalar_mul(lead) if term is None else term * fac
        # no sigma factor has a constant term, so their product has none below
        # the number of factors: the quotient is built only up to the degree
        # that leaves them
        tail = s_ratio_of(total, eF, 1, len(prod.factors) + 1)
        term = tail.scalar_mul(lead) if term is None else term * tail
        acc = acc + term
    return acc


def correlator(chamber: Chamber, parts, space, values, minus: Chamber | None = None):
    """The correlator of E(mu_1) ... E(mu_m) E(-nu_1) ... E(-nu_n), summed
    over the chamber's `commutation_patterns`: the factor of the mixed
    generating series that the chamber decides (`prefactor` is the other).

    `parts[j-1]` maps nu_j's expansion variables x to their signs; nu_j's
    argument is X * nu_j when the space has X, plus 1 on each of its
    expansion variables.  Coefficients are read at `values` = (mu, nu),
    numbers or ring elements (see `materialize`), whose arity must be the
    chamber's (`ArityMismatch`).

    With a second chamber `minus` of the same arrangement, this is the jump
    corr(chamber) - corr(minus) at the same values: the sigma-products both
    chambers give cancel as multisets before anything is materialized, and
    only the patterns that differ across the wall are summed, with their
    signs.
    """
    if (len(values[0]), len(values[1])) != (chamber.m, chamber.n):
        raise ArityMismatch(f"expected profiles of lengths {chamber.m}, {chamber.n}")
    args = [{FREE.letter: nu} if FREE.letter in space.vars else {} for nu in values[1]]
    for arg, signs in zip(args, parts):
        arg.update(dict.fromkeys(signs, 1))
    products = commutation_patterns(chamber)
    if minus is None:
        return materialize(products, args, space, values)
    if (minus.m, minus.n) != (chamber.m, chamber.n):
        raise ValueError("chambers live in different arrangements")
    jump = Counter(products)
    jump.subtract(commutation_patterns(minus))
    changed = [prod for prod, k in jump.items() if k]
    return materialize(changed, args, space, values, [jump[prod] for prod in changed])


def prefactor(space, parts, values):
    """The S-power prefactor prod_j prod_x S(x)^(sign * nu_j - 1) of the
    mixed generating series, over the expansion variables x of each part of
    nu (`parts`, as for `correlator`), read at `values` = (mu, nu) in the
    space taken over their ring: one `Space.columns` call.  It depends on
    nu alone, not on the chamber, and its constant term is 1."""
    space = _over_ring(space, values)
    return space.columns(
        {
            x: s_power_column((nu if sign > 0 else -nu) - 1, space.caps[space.index[x]])
            for nu, signs in zip(values[1], parts)
            for x, sign in signs.items()
        }
    )


def _numerator(sig: Signature, chamber: Chamber, values):
    """The chamber's count times the product of its parts, read at `values`
    = (mu, nu) (see `materialize`): one grade of the generating series,
    each expansion variable weighed by its part's factorial column."""
    space, parts = _space_for(sig, chamber.n)
    corr, pref = correlator(chamber, parts, space, values), prefactor(space, parts, values)

    # each expansion variable weighs its exponent by its part's factorial
    # column, rising or falling by its block's sign; the free block has none
    signed = [(b, budget) for b, budget in zip(BLOCKS, sig) if budget and b.sign]
    column = {b.var(j): factorial_column(nu, budget, b.sign) for b, budget in signed for j, nu in enumerate(values[1], 1)}
    columns = [column.get(v) for v in space.vars]

    def weight(e):
        w = 1
        for col, k in zip(columns, e):
            if k and col:
                w = w * col[k]
        return w

    target = {block.var(1): budget for block, budget in zip(BLOCKS, sig) if budget}
    return corr.grade_sum(pref, target, weight) * factorial(sig.p)


def _sorted_parts(parts, names, descending: bool) -> tuple:
    """The parts in order, and the names (one per part) permuted with them;
    among equal parts the first comes last, so that the caller's mu1 takes
    the slot `_orbit_polynomial` eliminates whenever it can."""
    sign = -1 if descending else 1
    order = sorted(range(len(parts)), key=lambda k: (sign * parts[k], k == 0))
    return tuple(parts[k] for k in order), [names[k] for k in order]


def _orbit_member(sample, names) -> tuple:
    """The member of the sample's orbit under S_m x S_n and the swap that
    `chamber_polynomial` builds, and the names of the caller's parts in its
    order: the side with fewer parts of nu, or on a tie the side whose
    sorted parts of mu come later in lex order, with mu ascending and nu
    descending."""
    if (len(sample[0]), sorted(sample[0])) < (len(sample[1]), sorted(sample[1])):
        sample, names = sample[::-1], names[::-1]
    mu, mu_names = _sorted_parts(sample[0], names[0], descending=False)
    nu, nu_names = _sorted_parts(sample[1], names[1], descending=True)
    return (mu, nu), tuple(mu_names + nu_names)


# Chamber polynomials by (signature, chamber key), a plain dict that drops its
# oldest key once full.  All of Tier-1 in one process fills 2,017 entries,
# `suite_equality(6, 5)` 721, and one seed-0 bench round of `routes` 20 and
# of `chamber` 67, so none of them evicts.
_POLY_CACHE: dict = {}
_POLY_CACHE_BOUND = 2048

# The first chamber of each orbit whose polynomial was built, by (signature,
# key of the orbit's sorted member): its chamber key, under which
# `_POLY_CACHE` holds its polynomial, and the names of its parts in the sorted
# member's order.  A plain dict that drops its oldest key once full.  Each
# entry points at an entry of `_POLY_CACHE`, so the bound is the same.  The
# 257 orbits of `suite_equality(6, 5)` hold 114 kB (tracemalloc), so a full
# index holds about 1 MB; all of Tier-1 in one process fills 217 entries,
# and one seed-0 bench round of `routes` 18 and of `chamber` 46.
_ORBITS: dict = {}
_ORBITS_BOUND = 2048


@lru_cache(maxsize=64)
def _ring(m: int, n: int) -> PolyRing:
    """The ring of mu1..mum, nu1..nun, one object shared by every polynomial
    of that shape."""
    return PolyRing([f"mu{i}" for i in range(1, m + 1)] + [f"nu{j}" for j in range(1, n + 1)])


def _orbit_polynomial(sig: Signature, chamber: Chamber) -> MultiPoly:
    """The count on a sorted chamber (see `_orbit_member`) as a polynomial in
    its own parts mu1..mum, nu1..nun, with its last part of mu eliminated
    through mum = sum(nu) - (mu1 + ... + mu(m-1)): the numerator read there,
    over the product of parts."""
    m, n = chamber.m, chamber.n
    ring = _ring(m, n)
    mus, nus = [ring.var(v) for v in ring.names[: m - 1]], [ring.var(v) for v in ring.names[m:]]
    image = sum(nus) - sum(mus)
    total = _numerator(sig, chamber, ((*mus, image), nus))
    # strip the product of parts: the monomial of every part but mum, then mum = image
    return total.exact_divide(MultiPoly(ring, {(1,) * (m - 1) + (0,) + (1,) * n: 1})).exact_divide(image)


def chamber_polynomial(kind: str, signature, chamber: Chamber) -> MultiPoly:
    """The polynomial giving the count on this chamber, on the weight shell.

    `signature` is the genus g for the pure kinds, or a triple (p, q, r) for
    kind "mixed"; a pure kind is the same polynomial as its budgets spelt as
    a mixed triple.  The returned polynomial lives in mu2..mum, nu1..nun; the
    first part is eliminated through mu1 = sum(nu) - (mu2 + ... + mum).  A
    signature with no integer genus gives the zero polynomial without
    building a series: off the walls every cover is connected, so no cover
    has that many transpositions.

    The count at (nu, mu) is the count at (mu, nu), it is the same under
    any permutation of the parts of mu and of nu, and every part of nu opens
    its own expansion variables.  So a polynomial is built once per orbit,
    on its sorted member (`_orbit_member`): the side with fewer parts of nu,
    with the parts of mu ascending and those of nu descending.  That member
    has the fewest `commutation_patterns` of the orbit, and its swap as
    many, on every chamber with m + n <= 5 sampled by `verify._chambers`
    (at (2, 4) and (4, 2) it misses the least on 8 of 76 chambers sampled
    to d = 12).  It is built in the member's own parts with its last part
    of mu eliminated (`_orbit_polynomial`), the cheap slot, and every
    chamber's polynomial is one change of variables away: from that form
    for the first chamber of the orbit, from the first chamber's polynomial
    for the others (`_ORBITS`).  Each part is renamed to the caller's part
    of the same sorted slot, and the caller's mu1 is valued on the weight
    shell unless its slot is the one eliminated (among equal parts it sorts
    last, so that it takes the eliminated slot whenever it can).
    """
    m, n = chamber.m, chamber.n
    sig = Signature.of(kind, signature, m, n)
    if sig.degenerate(m, n):
        raise DegenerateSignature("(g, m+n) = (0, 2) counts are 1/d, not polynomial")

    key = (sig, chamber.key())
    got = _POLY_CACHE.get(key)
    if got is not None:
        return got
    if len(_POLY_CACHE) >= _POLY_CACHE_BOUND:
        del _POLY_CACHE[next(iter(_POLY_CACHE))]  # the oldest inserted key

    # the ring keeps mu1, so that `evaluate` reads the arity off its names
    ring = _ring(m, n)
    names = ring.names[:m], ring.names[m:]
    if sig.genus(m, n) is None:
        _POLY_CACHE[key] = total = ring.zero()
        return total
    sample, renamed = _orbit_member(chamber.sample, names)
    member = Chamber(sample)
    first = _ORBITS.get((sig, member.key()))
    source = first and _POLY_CACHE.get((sig, first[0]))
    if source is None:
        source = _orbit_polynomial(sig, member)
        order, gone = source.ring.names, f"mu{member.m}"
        if len(_ORBITS) >= _ORBITS_BOUND:
            del _ORBITS[next(iter(_ORBITS))]  # the oldest inserted key
        _ORBITS[(sig, member.key())] = chamber.key(), renamed
    else:
        order, gone = first[1], "mu1"
    # the source's part in each sorted slot becomes the caller's part there
    images = dict(zip(order, renamed))
    at = order[renamed.index("mu1")]
    if at != gone:
        images[at] = sum(map(ring.var, names[1])) - sum(map(ring.var, names[0][1:]))
    total = source.change_variables(ring, images)
    _POLY_CACHE[key] = total
    return total


def evaluate(poly: MultiPoly, mu, nu) -> Fraction:
    """Evaluate a chamber polynomial at a concrete profile pair, arity checked first."""
    names = poly.ring.names
    m = sum(1 for s in names if s.startswith("mu"))
    n = sum(1 for s in names if s.startswith("nu"))
    if len(mu) != m or len(nu) != n:
        raise ArityMismatch(f"expected profiles of lengths {m}, {n}")
    mu, nu = check_profiles(mu, nu)
    return poly.evaluate(dict(zip(names, map(Fraction, mu + nu))))
