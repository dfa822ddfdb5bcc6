"""Chambers, operator commutation patterns, and chamber polynomials.

The parameter space of profile pairs (mu, nu) with equal weight is cut by
the hyperplanes mu_I = nu_J into chambers.  On each chamber the counts are
polynomial in the parts, and the polynomial is assembled from a finite set
of commutation patterns: starting from the operator word

    E(mu_1) ... E(mu_m) E(-nu_1) ... E(-nu_n)

the leftmost negative-energy operator is commuted toward the left end,
branching into a swap (no factor) and a merge (one recorded factor) at
every step, until it either hits the left end (the branch dies against the
covacuum) or everything has merged into a single zero-energy operator.
Which operators count as negative is determined purely by the chamber's
wall signs, so the pattern set is a function of the sign vector alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Optional

from .algebra import (
    LinearForm,
    MultiPoly,
    PolyRing,
    TruncSeries,
    exact_divide,
    falling_factorial,
    rising_factorial,
    s_power_series,
    sigma_of,
    s_of,
)
from .partitions import Signature, check_composition


class SumMismatch(ValueError):
    """The two profiles carry different total weight."""


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
    """Evaluation input has the wrong number of parts."""


# -- walls and chambers ---------------------------------------------------------


@dataclass(frozen=True)
class Wall:
    """The hyperplane mu_I = nu_J, canonicalized so that 1 is in I.

    A pair and its complement cut the same hyperplane (on the subspace of
    equal weights), so each class is stored once; the class of the empty
    pair / the full pair is no wall at all.
    """

    I: tuple
    J: tuple
    m: int
    n: int

    def __post_init__(self):
        I = tuple(sorted(set(self.I)))
        J = tuple(sorted(set(self.J)))
        if any(i < 1 or i > self.m for i in I) or any(j < 1 or j > self.n for j in J):
            raise ValueError("wall indices out of range")
        if 1 not in I:
            I = tuple(i for i in range(1, self.m + 1) if i not in I)
            J = tuple(j for j in range(1, self.n + 1) if j not in J)
        if len(I) == self.m and len(J) == self.n:
            raise ValueError("the full/empty pair is not a wall")
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)

    def value(self, mu, nu) -> Fraction:
        return Fraction(sum(mu[i - 1] for i in self.I) - sum(nu[j - 1] for j in self.J))

    def form(self) -> LinearForm:
        out = {f"mu{i}": Fraction(1) for i in self.I}
        out.update({f"nu{j}": Fraction(-1) for j in self.J})
        return LinearForm(out)

    def __str__(self):
        return f"mu{{{','.join(map(str, self.I))}}} = nu{{{','.join(map(str, self.J))}}}"


@lru_cache(maxsize=None)
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


@dataclass
class Chamber:
    """A chamber of the arrangement, held by an interior sample point."""

    m: int
    n: int
    sample: tuple
    signs: dict = field(repr=False)

    def sign(self, wall: Wall) -> int:
        return self.signs[wall]

    def key(self) -> tuple:
        return (self.m, self.n, tuple(self.signs[w] for w in walls(self.m, self.n)))

    def __eq__(self, other):
        return isinstance(other, Chamber) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def chamber_of(mu, nu) -> Chamber:
    """Locate the chamber containing the sample (mu, nu)."""
    mu = check_composition(mu)
    nu = check_composition(nu)
    if sum(mu) != sum(nu):
        raise SumMismatch(f"|mu|={sum(mu)} != |nu|={sum(nu)}")
    m, n = len(mu), len(nu)
    signs = {}
    for w in walls(m, n):
        v = w.value(mu, nu)
        if v == 0:
            raise OnWall(w)
        signs[w] = 1 if v > 0 else -1
    return Chamber(m, n, (tuple(mu), tuple(nu)), signs)


# -- the commutation walk --------------------------------------------------------

# Operator labels during the walk are pairs (frozenset of mu-indices,
# frozenset of nu-indices), 1-based.  A pattern is a tuple of recorded merge
# factors (left label, right label) plus the left label of the final merge.


def _label_signs(m: int, n: int, signs_by_wall: dict) -> dict:
    full = (frozenset(range(1, m + 1)), frozenset(range(1, n + 1)))
    out = {}
    for ki in range(0, m + 1):
        for I in combinations(range(1, m + 1), ki):
            for kj in range(0, n + 1):
                for J in combinations(range(1, n + 1), kj):
                    lab = (frozenset(I), frozenset(J))
                    if lab == full:
                        out[lab] = 0
                    elif not I and not J:
                        out[lab] = 0
                    elif not J and 1 in lab[0]:
                        out[lab] = 1
                    elif 1 in lab[0]:
                        out[lab] = signs_by_wall[Wall(I, J, m, n)]
                    else:
                        Ic = tuple(i for i in range(1, m + 1) if i not in lab[0])
                        Jc = tuple(j for j in range(1, n + 1) if j not in lab[1])
                        if not Jc:
                            out[lab] = -1
                        else:
                            out[lab] = -signs_by_wall[Wall(Ic, Jc, m, n)]
    return out


def _walk(word: tuple, lsign: dict) -> list:
    """Johnson's commutation walk on a word of labels, as a pattern list.

    The leftmost negative label is commuted one step left: a swap, and a
    merge that records the factor (left label, right label).  A branch
    that brings it to the left end dies against the covacuum; the last
    merge of two labels ends a pattern and records its left label.
    """
    out = []

    def step(word, factors):
        pos = None
        for k, lab in enumerate(word):
            if lsign[lab] < 0:
                pos = k
                break
        if pos is None:
            if len(word) == 1:
                raise AssertionError("complete pattern escaped the merge step")
            raise ZeroEnergyIntermediate(f"no negative operator in {word}")
        if pos == 0:
            return  # annihilates against the covacuum
        A, B = word[pos - 1], word[pos]
        merged = (A[0] | B[0], A[1] | B[1])
        if len(word) == 2:
            out.append((factors, A))
        else:
            if lsign[merged] == 0:
                raise ZeroEnergyIntermediate(f"operator {merged} has zero energy")
            step(word[: pos - 1] + (merged,) + word[pos + 1 :], factors + ((A, B),))
        step(word[: pos - 1] + (B, A) + word[pos + 1 :], factors)

    step(word, ())
    return out


@lru_cache(maxsize=None)
def _patterns(m: int, n: int, sign_vector: tuple) -> tuple:
    lsign = _label_signs(m, n, dict(zip(walls(m, n), sign_vector)))
    word0 = tuple(
        [(frozenset([i]), frozenset()) for i in range(1, m + 1)]
        + [(frozenset(), frozenset([j])) for j in range(1, n + 1)]
    )
    return tuple(_walk(word0, lsign))


def commutation_patterns(chamber: Chamber) -> tuple:
    """The finite pattern set for this chamber's sign vector."""
    _, _, vec = chamber.key()
    return _patterns(chamber.m, chamber.n, vec)


# -- public expansion into sigma-products ----------------------------------------


@dataclass(frozen=True)
class EOp:
    """One operator symbol: mu-indices absorbed, nu-indices absorbed, argument.

    The argument maps expansion-variable names to LinearForm coefficients
    over the symbols mu1.., nu1..; a plain number is promoted.
    """

    mu_indices: frozenset
    nu_indices: frozenset
    arg: tuple = ()  # sorted tuple of (variable, LinearForm)

    @staticmethod
    def make(mu_indices, nu_indices, arg: Optional[dict] = None) -> "EOp":
        items = []
        for v, c in (arg or {}).items():
            if isinstance(c, (int, Fraction)):
                c = LinearForm({}, c)
            if not c.is_zero():
                items.append((v, c))
        return EOp(frozenset(mu_indices), frozenset(nu_indices), tuple(sorted(items)))

    def energy(self) -> LinearForm:
        out = {f"mu{i}": Fraction(1) for i in self.mu_indices}
        out.update({f"nu{j}": Fraction(-1) for j in self.nu_indices})
        return LinearForm(out)


def standard_word(m: int, n: int) -> tuple:
    """E(mu_1)(0) ... E(mu_m)(0) E(-nu_1)(z1) ... E(-nu_n)(zn)."""
    word = [EOp.make([i], []) for i in range(1, m + 1)]
    word += [EOp.make([], [j], {f"z{j}": 1}) for j in range(1, n + 1)]
    return tuple(word)


@dataclass(frozen=True)
class SigmaProduct:
    """One commutation pattern, materialized.

    Each entry of `factors` is (energy1, arg1, energy2, arg2), denoting the
    factor sigma(energy1*arg2 - energy2*arg1); `final_energy` pairs with the
    global denominator as sigma(final_energy * total_arg) / sigma(total_arg).
    Arguments are tuples of (variable, LinearForm coefficient).
    """

    factors: tuple
    final_energy: LinearForm
    total_arg: tuple

    def __str__(self):
        def argstr(arg):
            return " + ".join(f"({c})*{v}" for v, c in arg) or "0"

        bits = []
        for e1, a1, e2, a2 in self.factors:
            bits.append(f"sigma(({e1})*[{argstr(a2)}] - ({e2})*[{argstr(a1)}])")
        bits.append(f"sigma(({self.final_energy})*[{argstr(self.total_arg)}])")
        return " * ".join(bits) + f" / sigma({argstr(self.total_arg)})"


def _merge_args(a: tuple, b: tuple) -> tuple:
    out = dict(a)
    for v, c in b:
        s = out.get(v)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(v, None)
        else:
            out[v] = s
    return tuple(sorted(out.items()))


def johnson_expand(chamber: Chamber, word) -> list:
    """Run the commutation algorithm on an explicit operator word.

    Returns one SigmaProduct per surviving pattern; a word whose total
    energy is not zero has vanishing correlator and yields the empty list.
    """
    word = tuple(word)
    seen_mu, seen_nu = set(), set()
    for op in word:
        if not op.mu_indices and not op.nu_indices:
            raise ValueError("operator without indices")
        if op.mu_indices & seen_mu or op.nu_indices & seen_nu:
            raise ValueError("operator word reuses an index")
        if max(op.mu_indices, default=1) > chamber.m or max(op.nu_indices, default=1) > chamber.n:
            raise ValueError("operator index outside the chamber's (m, n)")
        seen_mu |= op.mu_indices
        seen_nu |= op.nu_indices
    # total energy sum(mu_I) - sum(nu_J) vanishes on the weight shell exactly
    # when every index is covered once
    if seen_mu != set(range(1, chamber.m + 1)) or seen_nu != set(range(1, chamber.n + 1)):
        return []

    _, _, vec = chamber.key()
    lsign = _label_signs(chamber.m, chamber.n, dict(zip(walls(chamber.m, chamber.n), vec)))
    labels = tuple((op.mu_indices, op.nu_indices) for op in word)

    def op_of(lab):
        # a walk label is a union of word labels; its argument is their sum
        arg = ()
        for op in word:
            if op.mu_indices <= lab[0] and op.nu_indices <= lab[1]:
                arg = _merge_args(arg, op.arg)
        return EOp(lab[0], lab[1], arg)

    total_arg = op_of((frozenset(seen_mu), frozenset(seen_nu))).arg
    out = []
    for factors, final in _walk(labels, lsign):
        pairs = tuple((op_of(A), op_of(B)) for A, B in factors)
        terms = tuple((A.energy(), A.arg, B.energy(), B.arg) for A, B in pairs)
        # the last commutation is carried by final_energy, not factors
        out.append(SigmaProduct(terms, op_of(final).energy(), total_arg))
    return out


# -- series assembly --------------------------------------------------------------


def _space_for(sig: Signature, n: int, pad: int = 0):
    """Series variables of the budgets: X for p, y1..yn for q, z1..zn for r.

    A variable block exists only when its budget is positive; every
    monomial of an absent block would be dropped by the extraction anyway.
    """
    names, caps, blocks = [], [], []
    if sig.p:
        names.append("X")
        caps.append(sig.p + pad)
    for letter, budget in (("y", sig.q), ("z", sig.r)):
        if budget:
            ix = len(names)
            names += [f"{letter}{j}" for j in range(1, n + 1)]
            caps += [budget + pad] * n
            blocks.append((tuple(range(ix, ix + n)), budget + pad))
    return tuple(names), tuple(caps), tuple(blocks)


def materialize(patterns, space, ring, energies, args):
    """Sum the sigma-products over all patterns in the given series space.

    `energies` maps an operator label to its energy coefficient (MultiPoly
    or Fraction); `args` maps a label to its argument {var: coefficient}.
    Labels are resolved for merged operators by summing over members.
    """
    vars_, caps, blocks = space

    def energy_of(lab):
        e = None
        for i in lab[0]:
            t = energies[("mu", i)]
            e = t if e is None else e + t
        for j in lab[1]:
            t = -energies[("nu", j)]
            e = t if e is None else e + t
        return e

    def arg_of(lab):
        out = {}
        for j in lab[1]:
            for v, c in args[("nu", j)].items():
                out[v] = out.get(v, 0) + c
        for i in lab[0]:
            for v, c in args.get(("mu", i), {}).items():
                out[v] = out.get(v, 0) + c
        return out

    total_map = {}
    for key in args:
        for v, c in args[key].items():
            total_map[v] = total_map.get(v, 0) + c
    total_series = TruncSeries.from_linear(vars_, caps, total_map, ring, blocks)
    inv_s_total = s_of(total_series).inverse()

    acc = TruncSeries.zero(vars_, caps, ring, blocks)
    for factors, final_label in patterns:
        term = None
        for A, B in factors:
            eA, eB = energy_of(A), energy_of(B)
            argA, argB = arg_of(A), arg_of(B)
            combo = {}
            for v, c in argB.items():
                combo[v] = combo.get(v, 0) + eA * c
            for v, c in argA.items():
                combo[v] = combo.get(v, 0) - eB * c
            fac = sigma_of(TruncSeries.from_linear(vars_, caps, combo, ring, blocks))
            term = fac if term is None else term * fac
        eF = energy_of(final_label)
        tail = s_of(total_series.scalar_mul(eF)).scalar_mul(eF) * inv_s_total
        term = tail if term is None else term * tail
        acc = acc + term
    return acc


_POLY_CACHE: dict = {}


def chamber_polynomial(kind: str, signature, chamber: Chamber, pad: int = 0) -> MultiPoly:
    """The polynomial giving the count on this chamber, on the weight shell.

    `signature` is the genus g for the pure kinds, or a triple (p, q, r) for
    kind "mixed"; a pure kind is the same polynomial as its budgets spelt as
    a mixed triple.  The returned polynomial lives in mu2..mum, nu1..nun; the
    first part is eliminated through mu1 = sum(nu) - (mu2 + ... + mum).
    `pad` raises every truncation order (the result must not change).
    """
    m, n = chamber.m, chamber.n
    sig = Signature.of(kind, signature, m, n)
    if sig.degenerate(m, n):
        raise DegenerateSignature("(g, m+n) = (0, 2) counts are 1/d, not polynomial")

    key = (sig, chamber.key(), pad)
    got = _POLY_CACHE.get(key)
    if got is not None:
        return got

    p, q, r = sig
    names = tuple([f"mu{i}" for i in range(1, m + 1)] + [f"nu{j}" for j in range(1, n + 1)])
    ring = PolyRing(names)
    muv = {i: ring.var(f"mu{i}") for i in range(1, m + 1)}
    nuv = {j: ring.var(f"nu{j}") for j in range(1, n + 1)}

    space = _space_for(sig, n, pad)
    vars_, caps, blocks = space
    energies = {("mu", i): muv[i] for i in muv}
    energies.update({("nu", j): nuv[j] for j in nuv})
    args = {}
    for j in range(1, n + 1):
        a = {}
        if p:
            a["X"] = nuv[j]
        if q:
            a[f"y{j}"] = ring.one()
        if r:
            a[f"z{j}"] = ring.one()
        args[("nu", j)] = a

    corr = materialize(commutation_patterns(chamber), space, ring, energies, args)

    pref = TruncSeries.one(vars_, caps, ring, blocks)
    for j in range(1, n + 1):
        if q:
            pref = pref * s_power_series(nuv[j] - ring.one(), f"y{j}", q + pad, ring).lift(*space)
        if r:
            pref = pref * s_power_series(-nuv[j] - ring.one(), f"z{j}", r + pad, ring).lift(*space)
    corr = corr * pref

    total = ring.zero()
    yix = {f"y{j}": j for j in range(1, n + 1)}
    zix = {f"z{j}": j for j in range(1, n + 1)}
    for e, c in corr.data.items():
        mono = dict(zip(vars_, e))
        if mono.get("X", 0) != p:
            continue
        if sum(mono.get(f"y{j}", 0) for j in range(1, n + 1)) != q:
            continue
        if sum(mono.get(f"z{j}", 0) for j in range(1, n + 1)) != r:
            continue
        w = c
        for v, k in mono.items():
            if k and v in yix:
                w = w * rising_factorial(nuv[yix[v]], k)
            elif k and v in zix:
                w = w * falling_factorial(nuv[zix[v]], k)
        total = total + w
    total = total * ring.const(factorial(p))

    # on-shell reduction: express through mu1 = sum(nu) - rest, then strip
    # the product of parts
    image = ring.zero()
    for j in range(1, n + 1):
        image = image + nuv[j]
    for i in range(2, m + 1):
        image = image - muv[i]
    total = total.substitute("mu1", image)
    for j in range(1, n + 1):
        total = exact_divide(total, nuv[j])
    for i in range(2, m + 1):
        total = exact_divide(total, muv[i])
    total = exact_divide(total, image)

    _POLY_CACHE[key] = total
    return total


def evaluate(poly: MultiPoly, mu, nu) -> Fraction:
    """Evaluate a chamber polynomial at a concrete profile pair."""
    mu = check_composition(mu)
    nu = check_composition(nu)
    names = poly.ring.names
    m = sum(1 for s in names if s.startswith("mu"))
    n = sum(1 for s in names if s.startswith("nu"))
    if len(mu) != m or len(nu) != n:
        raise ArityMismatch(f"expected profiles of lengths {m}, {n}")
    values = {f"mu{i}": Fraction(mu[i - 1]) for i in range(1, m + 1)}
    values.update({f"nu{j}": Fraction(nu[j - 1]) for j in range(1, n + 1)})
    return poly.evaluate(values)
