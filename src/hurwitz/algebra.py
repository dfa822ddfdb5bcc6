"""Exact arithmetic kernel: sparse multivariate polynomials over the rationals
and truncated multivariate power series.

Every rational value is exact: a `MultiPoly` keeps integer numerators over
one denominator, keyed by monomials packed into ints (see `FIELD_BITS`), and
so does every `TruncSeries`, whose keys pack the series exponents above the
coefficient ring's monomial key; `Fraction` is the public form of a single
number.  Nothing in this module (or this package) ever touches floating
point.  A `Space` is one truncated series space, the quotient ring
Q[c][[v1, ..., vk]] / (v1^(cap1+1), ..., vk^(capk+1)), where c are the
variables of the coefficient ring (none for numeric coefficients), with
total degrees bounded on blocks of variables.  It is interned, it fixes
the packed keys, and every `TruncSeries` holds its space and is built
through it: every retained coefficient of a sum, product, or inverse is
exact, and one code path serves numeric and symbolic evaluations alike.
A product only multiplies the term pairs it keeps: the terms are bucketed
by grade (see `Space`), and only bucket pairs whose grades fit together
are visited.  A product of one-variable columns, such as the S-power
prefactor and the marker series, needs no series product at all:
`Space.columns` writes each admissible exponent's product of column
entries straight into its packed key.  A change of variables, a rename
into another ring plus at most one substitution, is likewise done on the
packed keys (`MultiPoly.change_variables`).

The special series used throughout are the odd exponential difference

    sigma(w) = exp(w/2) - exp(-w/2) = sum_{k odd} w^k / (2^(k-1) k!)

and its normalization S(w) = sigma(w)/w = sum_{k even} w^k / (2^k (k+1)!),
which is a unit (constant term 1) and so admits powers S(w)^c with an
arbitrary exponent c, rational or polynomial, via exp(c * log S(w)).  Its
inverse is w/sigma(w) = sum_{k even} B_k(1/2) w^k / k!, and its logarithm
log S(w) = sum_{k>=1} B_{2k} w^{2k} / (2k (2k)!).  S, 1/S and their
quotients are one closed form, S(aW)/S(bW) of a linear series W
(`s_ratio_of`), a and b numbers or ring elements, so nothing is inverted:
S(W) is (a, b) = (1, 0) and 1/S(W) is (0, 1).  Its coefficient of W^k
is sum_j s_j t_(k-j) a^j b^(k-j), with s_j = [w^j] S(w) and
t_j = [w^j] 1/S(w); sigma(aW)'s is a^k [w^k] sigma(w).  Both are read off
one integer table per order (`_s_table`), and the powers of W have a
closed form built on integers (see `_half_exp_sum`).  [v^k] S(v)^c is a
polynomial in c, sum_j a_kj c^j with a_kj = [v^k] (log S)^j / j!: the
a_kj are ints over one denominator in one cached table per order, so an
S-power column is read off the powers of c (`s_power_column`), with int
arithmetic at an int c.

`s_of`, `TruncSeries.inverse` and `MultiPoly.substitute` have no library
caller; they stay public because the benchmark's span table
(`bench/spans.py`) wraps them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import le, mul, or_, sub
from types import SimpleNamespace

from .partitions import check_integer

__all__ = [
    "NotDivisible",
    "ExponentOverflow",
    "EXPONENT_LIMIT",
    "PolyRing",
    "MultiPoly",
    "Space",
    "TruncSeries",
    "sigma_of",
    "s_of",
    "s_ratio_of",
    "s_power_column",
    "factorial_column",
    "bernoulli",
]

class NotDivisible(ArithmeticError):
    """An exact polynomial division left a remainder."""


class ExponentOverflow(OverflowError):
    """A monomial exponent reached EXPONENT_LIMIT, past its packed field."""


# A monomial of a `MultiPoly` is one int: each variable owns FIELD_BITS bits,
# variable 0 the highest field.  The top bit of a field is a guard that stays
# clear in every stored key, so an exponent is below EXPONENT_LIMIT, a sum of
# two keys never carries from one field into the next, and packed keys
# compare as their exponent tuples do in lex order.
FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_EXP_MASK = EXPONENT_LIMIT - 1


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _over_lcm(fracs: dict) -> tuple:
    """(numerators, denominator) of a dict of Fractions: the nonzero ones over
    the lcm of all denominators.  Reduced fractions over the lcm of their
    denominators are already in lowest terms, so the pair is canonical."""
    den = lcm(*(c.denominator for c in fracs.values()))
    num = {e: c.numerator * (den // c.denominator) for e, c in fracs.items() if c}
    return num, den if num else 1


def _reduced(num: dict, den: int) -> tuple:
    """(numerators, denominator) of nonzero numerators over den > 0 in lowest
    terms, by one gcd pass that divides `num` in place; the empty dict gets
    den 1."""
    if not num:
        return num, 1
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            for e, c in num.items():
                num[e] = c // g
            den //= g
    return num, den


def _sum_over(n1: dict, d1: int, n2: dict, d2: int) -> tuple:
    """n1/d1 + n2/d2 as (nonzero numerators, denominator), not yet reduced."""
    den = d1 * d2 // gcd(d1, d2)
    s1, s2 = den // d1, den // d2
    out = {e: c * s1 for e, c in n1.items()} if s1 != 1 else dict(n1)
    get = out.get
    for e, c in n2.items():
        s = get(e, 0) + c * s2
        if s:
            out[e] = s
        else:
            del out[e]
    return out, den


def _mul_into(out: dict, left, right: list) -> dict:
    """Add every product of a (packed key, numerator) term of `left` and one
    of `right` into `out`: keys add, numerators multiply."""
    get = out.get
    for e1, c1 in left:
        for e2, c2 in right:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out


def _settled(out: dict, guard: int) -> dict:
    """`out` with its zero numerators dropped in place, once no key has a
    bit of `guard` set; else ExponentOverflow."""
    if guard and reduce(or_, out, 0) & guard:
        raise ExponentOverflow(f"an exponent reached {EXPONENT_LIMIT}")
    for e in [e for e, c in out.items() if not c]:
        del out[e]
    return out


def _product(x: dict, y: dict, guard: int) -> dict:
    """The nonzero numerators of x * y, two dicts keyed by packed keys whose
    fields carry `guard`.  A one-term side shifts and scales the other."""
    if len(y) == 1:
        x, y = y, x
    if len(x) == 1:
        ((k, a),) = x.items()
        return _settled({e + k: c * a for e, c in y.items()}, guard)
    return _settled(_mul_into({}, x.items(), list(y.items())), guard)


class PolyRing:
    """An ordered tuple of variable names.

    Polynomials carry a reference to their ring; two rings are compatible
    when their name tuples agree.  The ring also fixes the packing of
    monomials: variable i sits `shifts[i]` bits up, and `guard` holds the
    guard bit of every field.
    """

    __slots__ = ("names", "index", "shifts", "guard")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        self.index = {nm: i for i, nm in enumerate(self.names)}
        n = len(self.names)
        self.shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self.guard = sum(EXPONENT_LIMIT << s for s in self.shifts)

    def __repr__(self):
        return f"PolyRing({list(self.names)!r})"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def _pack(self, exps) -> int:
        """The packed key of an exponent tuple."""
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise ValueError(f"expected {len(self.names)} exponents, got {exps}")
        key = 0
        for k in exps:
            if not 0 <= k < EXPONENT_LIMIT:
                if k < 0:
                    raise ValueError(f"negative exponent in {exps}")
                raise ExponentOverflow(f"exponent {k} is not below {EXPONENT_LIMIT}")
            key = key << FIELD_BITS | k
        return key

    def _unpack(self, key: int) -> tuple:
        """The exponent tuple of a packed key."""
        return tuple([key >> s & _EXP_MASK for s in self.shifts])

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def const(self, c) -> "MultiPoly":
        c = _frac(c)
        if not c:
            return self.zero()
        return MultiPoly._make(self, {0: c.numerator}, c.denominator)

    def one(self) -> "MultiPoly":
        return self.const(1)

    def var(self, name: str) -> "MultiPoly":
        return MultiPoly._make(self, {1 << self.shifts[self.index[name]]: 1}, 1)


class MultiPoly:
    """A sparse polynomial with rational coefficients.

    `num` maps packed monomial keys (see `PolyRing`) to nonzero integer
    numerators over the one positive denominator `den`.  The form is
    canonical: `den` and all the numerators have gcd 1, and the zero
    polynomial has `den == 1`, so equal polynomials have equal `(num, den)`.
    `MultiPoly(ring, terms)` takes a dict from exponent tuples to int/Fraction
    coefficients; `terms` gives them back as Fractions.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.num, self.den = _over_lcm({ring._pack(e): _frac(c) for e, c in terms.items()})

    @classmethod
    def _make(cls, ring: PolyRing, num: dict, den: int) -> "MultiPoly":
        """A polynomial from nonzero numerators over den > 0, reduced once."""
        out = object.__new__(cls)
        out.ring = ring
        out.num, out.den = _reduced(num, den)
        return out

    @property
    def terms(self) -> dict:
        """Exponent tuple -> exact Fraction coefficient (a fresh dict)."""
        unpack = self.ring._unpack
        return {unpack(e): Fraction(c, self.den) for e, c in self.num.items()}

    # -- ring plumbing -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring.names != self.ring.names:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.num.items()), self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) and not other:
            return self  # so that sum() over polynomials builds no zero
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._make(self.ring, *_sum_over(self.num, self.den, other.num, other.den))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.ring, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, MultiPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return self.ring.zero()
            a = c.numerator
            num = {e: cf * a for e, cf in self.num.items()}
            return MultiPoly._make(self.ring, num, self.den * c.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num = _product(self.num, other.num, self.ring.guard)
        return MultiPoly._make(self.ring, num, self.den * other.den)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximum total degree of a monomial (0 for the zero polynomial)."""
        unpack = self.ring._unpack
        return max((sum(unpack(e)) for e in self.num), default=0)

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get(0, 0), self.den)

    def evaluate(self, values) -> Fraction:
        """Evaluate at a mapping from variable name to int/Fraction.

        Each variable that occurs, with value p/q and top exponent t, gets
        the integer table p^k q^(t-k); the terms then sum as integers over
        den * prod q^t.
        """
        num = self.num
        tables = []
        scale = self.den
        for name, s in zip(self.ring.names, self.ring.shifts):
            top = max([e >> s & _EXP_MASK for e in num], default=0)
            if top:
                x = _frac(values[name])
                p, q = x.numerator, x.denominator
                tables.append((s, [p**k * q ** (top - k) for k in range(top + 1)]))
                scale *= q**top
        total = 0
        for e, c in num.items():
            for s, table in tables:
                c *= table[e >> s & _EXP_MASK]
            total += c
        return Fraction(total, scale)

    def sorted_terms(self):
        """Terms in a deterministic order: by total degree, then exponents."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    # -- structural operations ----------------------------------------------

    def substitute(self, name: str, replacement) -> "MultiPoly":
        """Replace a variable by a polynomial or number of this ring."""
        return self.change_variables(self.ring, {name: replacement})

    def change_variables(self, ring: PolyRing, images: dict) -> "MultiPoly":
        """This polynomial over `ring`, each of our variables replaced by its
        entry of `images`: a variable name of `ring` (a rename), or, for at
        most one variable, a polynomial of `ring` or a number.  A variable
        with no entry keeps its name, which `ring` must have.

        Every key's renamed fields move into `ring`'s packing, and the keys
        are bucketed by the exponent k of the substituted variable, B_k.  For
        the replacement R / r, the buckets sum in one integer Horner loop to
        sum_k B_k R^k r^(K-k), over den * r^K with K the top k, reduced once.
        """
        src, guard = self.ring, ring.guard
        if not set(images) <= set(src.index):
            raise ValueError(f"{sorted(set(images) - set(src.index))} are not variables of {src}")
        moves, at, repl = [], None, None
        for name, s in zip(src.names, src.shifts):
            image = images.get(name, name)
            if isinstance(image, str):
                if image not in ring.index:
                    raise ValueError(f"{image!r} is not a variable of {ring}")
                moves.append((s, ring.shifts[ring.index[image]]))
            elif at is not None:
                raise ValueError("only one variable can be replaced by a polynomial")
            else:
                at, repl = s, ring.zero()._coerce(image)
                if repl is None:
                    raise TypeError("replacement must be a name, a polynomial or a number")
        # fields that stay in place are kept by one mask
        keep = sum(_EXP_MASK << s for s, t in moves if s == t)
        moved = [(s, t) for s, t in moves if s != t]
        buckets: dict[int, dict] = {}
        for e, c in self.num.items():
            key = e & keep
            for s, t in moved:
                key += (e >> s & _EXP_MASK) << t
            bucket = buckets.setdefault(0 if at is None else e >> at & _EXP_MASK, {})
            bucket[key] = bucket.get(key, 0) + c
        for bucket in buckets.values():
            _settled(bucket, guard)  # two variables renamed alike add their exponents
        R, r = (repl.num, repl.den) if repl is not None else ({}, 1)
        top = max(buckets, default=0)
        acc: dict = {}
        for k in range(top, -1, -1):
            if acc:
                acc = _product(acc, R, guard)
            bucket = buckets.get(k)
            if bucket:
                f, get = r ** (top - k), acc.get
                for e, c in bucket.items():
                    acc[e] = get(e, 0) + c * f
        # a fresh dict, sized to the terms that survive the cancellations
        return MultiPoly._make(ring, {e: c for e, c in acc.items() if c}, self.den * r**top)

    def exact_divide(self, divisor) -> "MultiPoly":
        """Exact division; raises NotDivisible if a remainder survives.

        A one-term divisor c x^d divides when every key holds x^d: the
        quotient is every key shifted down by d, over the denominator scaled
        by c.  Any other divisor goes through single-divisor multivariate
        long division in lex order, on the numerators.  When the dividend is
        a true multiple of the divisor the lex-leading term of the running
        remainder is always divisible by the divisor's, so the loop
        terminates with zero remainder; otherwise NotDivisible.  A heap hands
        out the remainder's terms in decreasing lex order.  When the
        divisor's leading numerator does not divide the remainder's,
        remainder and quotient are both scaled by the missing factor, which
        goes into the quotient's denominator.

        Key e holds key d when `((e | guard) - d) & guard == guard`: with
        every guard bit set, a field whose exponent is below d's borrows its
        own guard bit, and never more.
        """
        divisor = self._coerce(divisor)
        if divisor is None or not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        ring = self.ring
        G = ring.guard
        dterms = divisor.num
        if len(dterms) == 1:
            ((d, dc),) = dterms.items()
            if any(((e | G) - d) & G != G for e in self.num):
                raise NotDivisible(f"a term is not divisible by x^{ring._unpack(d)}")
            sign = -1 if dc < 0 else 1
            # self / divisor = (num / den) / (dc / dden)
            f = sign * divisor.den
            return MultiPoly._make(
                ring, {e - d: c * f for e, c in self.num.items()}, self.den * abs(dc)
            )
        dlead = max(dterms)
        dc = dterms[dlead]
        rem = dict(self.num)
        quot: dict[int, int] = {}
        scale = 1
        todo = [-e for e in rem]
        heapify(todo)
        while rem:
            e = -heappop(todo)
            if e not in rem:
                continue
            if ((e | G) - dlead) & G != G:
                raise NotDivisible(
                    f"leading term x^{ring._unpack(e)} not divisible by x^{ring._unpack(dlead)}"
                )
            shift = e - dlead
            c = rem[e]
            if c % dc:
                f = abs(dc) // gcd(c, dc)
                rem = {x: v * f for x, v in rem.items()}
                quot = {x: v * f for x, v in quot.items()}
                scale *= f
                c *= f
            qc = c // dc
            quot[shift] = qc
            for de, dcf in dterms.items():
                ne = shift + de
                s = rem.get(ne, 0) - qc * dcf
                if s:
                    if ne not in rem:
                        if ne & G:
                            raise ExponentOverflow(f"an exponent reached {EXPONENT_LIMIT}")
                        heappush(todo, -ne)
                    rem[ne] = s
                else:
                    rem.pop(ne, None)
        # self / divisor = (num / den) / (dnum / dden) = (quot / scale) * dden / den
        return MultiPoly._make(
            ring, {e: c * divisor.den for e, c in quot.items()}, scale * self.den
        )

    def __str__(self):
        if not self.num:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.ring.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                bits.append(str(c))
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    __repr__ = __str__


class Space:
    """A truncated series space: variables `vars`, each exponent at most its
    entry of `caps`, and the total degree of each block at most its cap
    (`blocks`, a tuple of (variable index tuple, cap) pairs); every cap is in
    [0, EXPONENT_LIMIT).  Coefficients are numbers, or elements of `ring`
    when one is given.  `Space.of` interns a space, so the series of one
    space share it; spaces compare by those four fields, with identity as
    the fast path.  Every `TruncSeries` is built through its space:
    `linear`, `columns`, `zero` or `one`, each writing packed keys directly;
    a series of any other shape is a sum of `columns` monomials.

    The space also fixes the packed keys of its series: `low`, the bits of
    the coefficient ring's monomial key; `guard`, its guard bits; `shifts`,
    the offset of each series variable's field; `index`, each series
    variable's position; `grades`, a (mask, ones, top) reader per grade;
    `gcaps`, the cap of each grade; and `top`, the largest total degree of
    an admissible exponent: the caps of the variables in no block plus, per
    block, the lesser of its cap and its variables' caps (an upper bound
    when blocks overlap).

    A grade is the degree sum of a block, or the exponent of a variable
    whose own cap is below every block holding it (or that sits in no
    block).  Any other variable's cap is implied by a block's, so an
    exponent is admissible exactly when every grade is within its cap.
    A key masked to a grade's fields and multiplied by `ones`, a 1 at the
    distance of each field below the highest, `top`, holds the grade in
    the field at `top`: every sum of fields of a stored key is at most a
    cap, below EXPONENT_LIMIT, so nothing carries.  A pure kind's space,
    or one of X alone, has a single grade: `_graded` reads it as one int
    per key.
    """

    __slots__ = ("vars", "caps", "blocks", "ring", "low", "guard", "shifts", "index", "grades", "gcaps", "top")

    def __init__(self, vars: tuple, caps: tuple, blocks: tuple, ring):
        coeffs = PolyRing(()) if ring is None else ring
        n = len(vars)
        if (
            len(caps) != n
            or not all(0 <= cap < EXPONENT_LIMIT for cap in caps + tuple(cap for _, cap in blocks))
            or any(len(set(ix)) != len(ix) for ix, _ in blocks)
            or set(vars) & set(coeffs.names)
        ):
            raise ValueError(
                f"need one cap in [0, {EXPONENT_LIMIT}) per variable, blocks of distinct variables,"
                f" and no series variable in the ring: {vars}, {caps}, {blocks}, {ring}"
            )
        self.vars, self.caps, self.blocks, self.ring = vars, caps, blocks, ring
        self.low = FIELD_BITS * len(coeffs.names)
        self.guard = coeffs.guard
        self.shifts = shifts = tuple(self.low + FIELD_BITS * (n - 1 - i) for i in range(n))
        self.index = {v: i for i, v in enumerate(vars)}
        grades = [ix for ix, _ in blocks]
        gcaps = [cap for _, cap in blocks]
        for i, cap in enumerate(caps):
            if all(cap < bcap for ix, bcap in blocks if i in ix):
                grades.append((i,))
                gcaps.append(cap)
        readers = []
        for ix in grades:
            top = max((shifts[i] for i in ix), default=0)
            mask = sum(_EXP_MASK << shifts[i] for i in ix)
            readers.append((mask, sum(1 << top - shifts[i] for i in ix), top))
        self.grades, self.gcaps = tuple(readers), tuple(gcaps)
        blocked = {i for ix, _ in blocks for i in ix}
        self.top = sum(cap for i, cap in enumerate(caps) if i not in blocked)
        self.top += sum(min(bcap, sum(caps[i] for i in ix)) for ix, bcap in blocks)

    @staticmethod
    def of(vars, caps, blocks=(), ring=None) -> "Space":
        """The interned space of these variables, caps, blocks and ring."""
        return _space(tuple(vars), tuple(caps), tuple((tuple(ix), cap) for ix, cap in blocks), ring)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Space)
            and (self.vars, self.caps, self.blocks, self.ring) == (other.vars, other.caps, other.blocks, other.ring)
        )

    def __hash__(self):
        return hash((self.vars, self.caps, self.blocks, self.ring))

    # -- building series -------------------------------------------------------

    def linear(self, argmap: dict) -> "TruncSeries":
        """The series sum_v argmap[v] * v (each argument variable to power
        1), written straight into packed keys; a variable whose cap or block
        cap is 0 adds no term."""
        terms = []
        for v, c in argmap.items():
            i = self._index(v)
            num, den = self._terms_of(c)
            if self.caps[i] and all(cap for ix, cap in self.blocks if i in ix):
                terms.append((1 << self.shifts[i], num, den))
        den = lcm(*(d for _, _, d in terms))
        return TruncSeries(self, {hi + lo: a * (den // d) for hi, num, d in terms for lo, a in num.items()}, den)

    def columns(self, cols: dict) -> "TruncSeries":
        """The series prod_v sum_k cols[v][k] v^k over the variables v of
        `cols`, each entry a number or an element of `ring`, written
        straight into packed keys: only the exponents the caps and blocks
        admit are built, a zero entry adds no term, and the entries past a
        variable's cap are not read.  `{}` gives `one()`.

        Each column is scaled to integers over the lcm of its denominators;
        a term's numerator is an int in a numeric space, else numerators
        keyed by the ring's monomial keys."""
        blocks, guard, numeric = self.blocks, self.guard, self.ring is None
        terms = [(0, 1 if numeric else {0: 1}, tuple(cap for _, cap in blocks))]  # key, numerator, room per block
        den = 1
        for v, col in cols.items():
            i = self._index(v)
            s = self.shifts[i]
            inside = [b for b, (ix, _) in enumerate(blocks) if i in ix]
            entries = [self._terms_of(c) for c in col[: self.caps[i] + 1]]
            d = lcm(*(e for _, e in entries))
            den *= d
            scaled = [
                (k, num[0] * (d // e) if numeric else {lo: a * (d // e) for lo, a in num.items()})
                for k, (num, e) in enumerate(entries)
                if num
            ]
            grown = []
            for key, num, room in terms:
                most = min([room[b] for b in inside], default=len(entries))
                for k, part in scaled:
                    if k > most:
                        break
                    left = room
                    if inside:
                        left = list(room)
                        for b in inside:
                            left[b] -= k
                        left = tuple(left)
                    grown.append((key + (k << s), num * part if numeric else _product(num, part, guard), left))
            terms = grown
        if numeric:
            return TruncSeries(self, {key: c for key, c, _ in terms}, den)
        return TruncSeries(self, {key + lo: c for key, num, _ in terms for lo, c in num.items()}, den)

    def zero(self) -> "TruncSeries":
        return TruncSeries(self, {})

    def one(self) -> "TruncSeries":
        return TruncSeries(self, {0: 1})

    # -- keys and coefficients ---------------------------------------------------

    def _admissible(self, e) -> bool:
        if not all(map(le, e, self.caps)):
            return False
        for ix, cap in self.blocks:
            if sum([e[i] for i in ix]) > cap:
                return False
        return True

    def _pack(self, e) -> int:
        """The series part of the key of an exponent tuple."""
        return sum([k << s for k, s in zip(e, self.shifts)])

    def _unpack(self, key: int) -> tuple:
        """The exponent tuple of a key."""
        return tuple([key >> s & _EXP_MASK for s in self.shifts])

    def _index(self, v) -> int:
        """The position of a series variable."""
        i = self.index.get(v)
        if i is None:
            raise ValueError(f"{v!r} is not a variable of the series space {self.vars}")
        return i

    def _exponents(self, monomial: dict) -> list:
        """The exponent list of a monomial {variable: exponent}."""
        e = [0] * len(self.vars)
        for v, k in monomial.items():
            e[self._index(v)] = k
        return e

    def _terms_of(self, c) -> tuple:
        """(numerators, denominator) of a coefficient, a number or an element
        of `ring`, keyed by the ring's monomial keys."""
        if isinstance(c, MultiPoly):
            if c.ring != self.ring:
                raise ValueError(f"a coefficient of {c.ring} in a series over {self.ring}")
            return c.num, c.den
        if type(c) is int:  # the common case, read without building a Fraction
            return ({0: c} if c else {}), 1
        c = _frac(c)
        return ({0: c.numerator} if c else {}), c.denominator

    def _read(self, terms: dict, den: int):
        """The coefficient whose numerators over `den` are `terms`: a
        Fraction, or an element of `ring`."""
        if self.ring is None:
            return Fraction(terms.get(0, 0), den)
        return MultiPoly._make(self.ring, terms, den)


# the interned spaces, by their four fields
_space = lru_cache(maxsize=256)(Space)


class TruncSeries:
    """A truncated power series of a `Space`, with exact coefficients.

    Monomials whose exponent exceeds a cap are discarded by every operation,
    which is exactly multiplication in the quotient ring, so all retained
    coefficients are exact.  The series is one sparse polynomial, as a
    `MultiPoly` is: `num` maps packed keys to nonzero integer numerators
    over the one positive denominator `den`, in canonical form (`den` and
    all the numerators have gcd 1, and the zero series has `den == 1`), so
    equal series have equal `(space, num, den)`.  A key holds the coefficient
    ring's monomial key in its low bits and a FIELD_BITS field per series
    variable above them, variable 0 highest.  The constructor takes nonzero
    numerators over den > 0 at admissible keys and only reduces them once:
    a series is built through its space.  `data` and `coeff` give the
    coefficients back exactly.
    """

    __slots__ = ("space", "num", "den")

    def __init__(self, space: Space, num: dict, den: int = 1):
        self.space = space
        self.num, self.den = _reduced(num, den)

    @property
    def data(self) -> dict:
        """Exponent tuple -> exact coefficient, a Fraction or an element of
        the space's ring (a fresh dict)."""
        space = self.space
        lows = (1 << space.low) - 1
        groups = {}
        for k, c in self.num.items():
            lo = k & lows
            groups.setdefault(k - lo, {})[lo] = c
        return {space._unpack(hi): space._read(terms, self.den) for hi, terms in groups.items()}

    def _same_space(self, other: "TruncSeries"):
        if self.space is not other.space and self.space != other.space:
            raise ValueError("series live in different truncated rings")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._same_space(other)
        return TruncSeries(self.space, *_sum_over(self.num, self.den, other.num, other.den))

    def __neg__(self):
        return TruncSeries(self.space, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The truncated product.  Grades add under the product, so a bucket
        pair whose grades sum within the grade caps holds only admissible
        term pairs, and every other bucket pair holds none.  Keys add as
        `MultiPoly` keys do, numerators multiply over the product of the
        denominators, and the result is checked and reduced once.  Only the
        smaller factor's terms are listed as pairs; the larger one's are
        read in place."""
        self._same_space(other)
        grades, gcaps = self.space.grades, self.space.gcaps
        small, big = sorted((self.num, other.num), key=len)
        right = [(g, [(k, small[k]) for k in keys]) for g, keys in _graded(small, grades).items()]
        out = {}
        for g1, keys in _graded(big, grades).items():
            room = tuple(map(sub, gcaps, g1))
            for g2, terms2 in right:
                if all(map(le, g2, room)):
                    _mul_into(out, zip(keys, map(big.__getitem__, keys)), terms2)
        return TruncSeries(self.space, _settled(out, self.space.guard), self.den * other.den)

    def grade_sum(self, other, monomial: dict, weight):
        """sum of weight(e) * [v^e](self * other) over the exponents e whose
        grades (see `Space`) are those of `monomial` {variable: exponent}:
        a number, or an element of the space's ring.

        Only the bucket pairs whose grades add up to the target are
        multiplied.  `weight` maps an exponent tuple to a number or a ring
        element and is called once per exponent that occurs; the weighted
        numerators add up in one dict, reduced once."""
        self._same_space(other)
        space = self.space
        e = space._exponents(monomial)
        if not space._admissible(e):
            return space._read({}, 1)  # the truncated product has no term there
        (target,) = _graded((space._pack(e),), space.grades)
        small, big = sorted((self.num, other.num), key=len)
        right = _graded(small, space.grades)
        out = {}
        for g1, keys in _graded(big, space.grades).items():
            keys2 = right.get(tuple(map(sub, target, g1)))
            if keys2:
                _mul_into(out, zip(keys, map(big.__getitem__, keys)), [(k, small[k]) for k in keys2])
        lows = (1 << space.low) - 1
        groups = {}
        for k, c in _settled(out, space.guard).items():
            groups.setdefault(k - (k & lows), {})[k & lows] = c
        weighted = [(terms, *space._terms_of(weight(space._unpack(hi)))) for hi, terms in groups.items()]
        wden = lcm(*(d for _, _, d in weighted))
        total = {}
        for terms, wnum, d in weighted:
            _mul_into(total, terms.items(), [(lo, a * (wden // d)) for lo, a in wnum.items()])
        return space._read(_settled(total, space.guard), self.den * other.den * wden)

    def scalar_mul(self, c) -> "TruncSeries":
        """The series times a coefficient: a number or an element of the
        space's ring."""
        num, den = self.space._terms_of(c)
        return TruncSeries(self.space, _product(num, self.num, self.space.guard), self.den * den)

    def inverse(self) -> "TruncSeries":
        """Inverse of a unit series whose constant term is exactly 1, by
        repeated products; 1/S has the closed form `s_ratio_of(W, 0, 1)`."""
        if self.coeff({}) != 1:
            raise ValueError("inverse requires constant term 1")
        one = self.space.one()
        u = one - self  # no constant term
        out = p = one
        for _ in range(sum(self.space.caps)):
            p = p * u
            if not p.num:
                break
            out = out + p
        return out

    # -- queries and slices ---------------------------------------------------

    def coeff(self, monomial: dict):
        """The exact coefficient of a monomial {variable: exponent}."""
        space = self.space
        e = space._exponents(monomial)
        # a key below 0 matches no term: an exponent past its cap has none
        hi = space._pack(e) if all(0 <= k <= cap for k, cap in zip(e, space.caps)) else -1
        low = space.low
        return space._read({k - hi: c for k, c in self.num.items() if k >> low << low == hi}, self.den)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.space == other.space
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self):
        return f"TruncSeries({self.space.vars}, caps={self.space.caps}, {len(self.num)} terms)"


def _graded(keys, grades: tuple) -> dict:
    """grade -> the keys of that grade, read by a `Space`'s grades.  A
    space of one grade reads one int per key, and makes one tuple per grade."""
    if len(grades) == 1:
        ((mask, ones, top),) = grades
        got = _buckets(keys, [(k & mask) * ones >> top & _EXP_MASK for k in keys])
        return {(g,): bucket for g, bucket in got.items()}
    return _buckets(keys, [tuple([(k & mask) * ones >> top & _EXP_MASK for mask, ones, top in grades]) for k in keys])


def _buckets(keys, grades: list) -> dict:
    """grade -> the keys of that grade, `grades` holding each key's."""
    out = {}
    for k, g in zip(keys, grades):
        bucket = out.get(g)
        if bucket is None:
            out[g] = [k]
        else:
            bucket.append(k)
    return out


# -- the odd/even exponential series ------------------------------------------


def _half_exp_sum(arg: TruncSeries, parity: int, a, b, factors: int = 1) -> TruncSeries:
    """sum over k = parity mod 2, k <= top - (factors - 1), of c_k W^k, for a
    linear series W = sum_v L_v v, where top is the largest total degree of
    the space: sigma(aW) at odd parity, S(aW)/S(bW) at even parity, each c_k
    read off `_s_table` at a and b, numbers or elements of the space's ring.

    W is A_v / B with numerator polynomials A_v over its one denominator B
    (an A_v of a numeric W is one integer), so the coefficient at v^e, with
    k = |e| of the right parity, is c_k / B^k * multinomial(k; e) *
    prod_v A_v^(e_v).  Variables that share a numerator A_g form a group g
    with one power table, and the product is prod_g A_g^(d_g) over the
    group degrees d_g.  Which exponents occur, with their multinomials and
    group degrees, and how the products are built depend on the space and
    the grouping alone, not on the A_g: that is the plan (`_exp_plan`),
    built once per shape.  A call reads the numerators, builds the power
    tables and the products, and scales each product by its multinomial
    and by c_k B^(K - k) over one denominator (`_scales`), K the plan's
    top degree: by an int where c_k is a number, else by a product with
    c_k's numerators.

    With `factors` = s > 1 the series is one of s factors of a product
    whose other s - 1 factors have no constant term: a degree above
    top - (s - 1) cannot reach an admissible key of the product, so it is
    not built.
    """
    space = arg.space
    lows = (1 << space.low) - 1
    units = {1 << s: i for i, s in enumerate(space.shifts)}
    linear = {}
    for k, c in arg.num.items():
        i = units.get(k - (k & lows))
        if i is None:
            raise ValueError("sigma and S need a linear series without constant term")
        linear.setdefault(i, {})[k & lows] = c
    groups = {}
    for i in sorted(linear):
        groups.setdefault(frozenset(linear[i].items()), []).append(i)
    plan = _exp_plan(
        space.shifts, space.caps, space.blocks, tuple(map(tuple, groups.values())), parity, space.top - factors + 1
    )
    if not plan.leaves:
        return space.zero()
    guard = space.guard
    powers = []
    for members, top in zip(groups.values(), plan.powers):
        table = [{0: 1}, linear[members[0]]]
        while len(table) <= top:
            table.append(_product(table[-1], table[1], guard))
        powers.append(table)
    products = [{0: 1}]
    for parent, g, d in plan.steps:
        products.append(_product(products[parent], powers[g][d], guard) if parent else powers[g][d])
    scale, den = _scales(_s_table, plan.top, a, b, arg.den)
    out = {}
    for key, k, multinomial, at in plan.leaves:
        f, n = scale[k]
        f *= multinomial
        if f:
            for lo, c in (products[at] if n is None else _product(n, products[at], guard)).items():
                out[key + lo] = c * f
    return TruncSeries(space, out, den)


@lru_cache(maxsize=256)
def _exp_plan(shifts: tuple, caps: tuple, blocks: tuple, groups: tuple, parity: int, top: int) -> SimpleNamespace:
    """The value-free part of `_half_exp_sum` for the variables `groups` (a
    tuple of groups of variable indices, each group sharing one numerator)
    of a space with these key `shifts`, `caps` and `blocks`: every
    admissible exponent on them of total degree k = parity mod 2, k <= top.

    `leaves` holds (key, k, multinomial, product) per exponent, the
    multinomial grown by comb(k + j, j) at each variable; `product` indexes
    the products prod_g A_g^(d_g), one per tuple of group degrees, built in
    the order of `steps`: (parent, g, d) multiplies product `parent` (0 is
    the empty product) by A_g^d, so tuples share their prefixes.  `powers`
    is the top degree of each group's power table, and `top` the largest k.
    """
    # the variables, group by group, each with its group and its blocks
    slots = [
        (shifts[i], g, caps[i], [b for b, (ix, _) in enumerate(blocks) if i in ix])
        for g, members in enumerate(groups)
        for i in members
    ]
    room = [cap for _, cap in blocks]
    degrees = [0] * len(groups)
    found = []

    def fill(t, key, k, multinomial):
        if t == len(slots):
            if k % 2 == parity and k <= top:  # k > top only with no variables and top < 0
                found.append((key, k, multinomial, tuple(degrees)))
            return
        s, g, cap, ix = slots[t]
        most = min([cap, top - k] + [room[b] for b in ix])
        last = t == len(slots) - 1
        for j in range((k + parity) % 2 if last else 0, most + 1, 2 if last else 1):
            for b in ix:
                room[b] -= j
            degrees[g] += j
            fill(t + 1, key + (j << s), k + j, multinomial * comb(k + j, j))
            degrees[g] -= j
            for b in ix:
                room[b] += j

    fill(0, 0, 0, 1)
    del fill  # it refers to itself: free it now, not at the next collection
    at = {(): 0}
    steps = []
    for degs in sorted({degs for *_, degs in found}):
        for g in range(len(degs)):
            prefix = degs[: g + 1]
            if prefix not in at:
                parent = at[degs[:g]]
                if degs[g]:
                    steps.append((parent, g, degs[g]))
                    parent = len(steps)
                at[prefix] = parent
    return SimpleNamespace(
        leaves=[(key, k, multinomial, at[degs]) for key, k, multinomial, degs in found],
        steps=steps,
        powers=[max([degs[g] for *_, degs in found], default=0) for g in range(len(groups))],
        top=max([k for _, k, _, _ in found], default=0),
    )


@lru_cache(maxsize=64)
def _s_table(order: int) -> tuple:
    """(r, den, order, order): the nonzero ints r_kj, keyed by (k, j) for
    k <= order, with sum_j r_kj a^j b^(k-j) / den = [w^k] S(aw)/S(bw) at
    even k and [w^k] sigma(aw) at odd k, and the top powers of a and of b
    that they read.  With s_j = [w^j] S(w) and t_j = [w^j] 1/S(w), both 0 at
    odd j, r_kj / den is s_j t_(k-j) at even k, and r_kk / den is
    [w^k] sigma(w) = s_(k-1) at odd k."""
    s = {j: Fraction(1, 2**j * factorial(j + 1)) for j in range(0, order + 1, 2)}
    t = {j: (Fraction(2, 2**j) - 1) * bernoulli(j) / factorial(j) for j in s}
    sigma = {(k + 1, k + 1): s[k] for k in s if k < order}
    return (*_over_lcm({(k, j): s[j] * t[k - j] for k in s for j in s if j <= k} | sigma), order, order)


def _table_at(table, top: int, a, b, B: int = 1) -> tuple:
    """The integer table (r, den, top_a, top_b) = table(top), its nonzero
    ints r_kj keyed by (k, j), read at a and b, numbers or ring elements, as
    c_k = sum_j r_kj a^j b^(k-j) / den: ([(f_k, n_k) for k = 0..top], D)
    with c_k / B^k = f_k / D where c_k is a number (n_k is None), else
    f_k n_k / D with n_k the numerators of c_k, keyed by ring monomial keys.
    The powers of a and of b are built only up to top_a and top_b, the
    largest the table reads."""
    entries, den, top_a, top_b = table(top)
    apow, bpow = (list(accumulate([x] * most, mul, initial=1)) for x, most in ((a, top_a), (b, top_b)))
    values = [0] * (top + 1)
    for (k, j), r in entries.items():
        values[k] += r * bpow[k - j] * apow[j]
    ring = [isinstance(c, MultiPoly) for c in values]
    D = lcm(*(c.den if r else c.denominator for c, r in zip(values, ring)))
    return [
        (D // c.den * B ** (top - k), c.num) if r else (D // c.denominator * c.numerator * B ** (top - k), None)
        for k, (c, r) in enumerate(zip(values, ring))
    ], den * D * B**top


# `_half_exp_sum` reads `_s_table` at the same few (a, b, B) over and over
_scales = lru_cache(maxsize=256)(_table_at)


def sigma_of(arg: TruncSeries, factors: int = 1) -> TruncSeries:
    """sigma(W) = sum over odd k of W^k / (2^(k-1) k!) for a linear series W
    (no constant term, no term of degree 2 or more).

    `factors` is the number of sigma factors in the product the result
    enters.  The others have no constant term, so a degree above the
    space's top degree less (factors - 1) is not built (see `_half_exp_sum`)."""
    return _half_exp_sum(arg, 1, 1, 0, factors)


def s_ratio_of(arg: TruncSeries, a, b, factors: int = 1) -> TruncSeries:
    """S(aW)/S(bW) for a linear series W, a and b each a number or an element
    of the space's ring: [W^k] = sum_j s_j t_(k-j) a^j b^(k-j), read off
    `_s_table`.  Nothing is inverted, so a or b may be 0.  `factors` cuts
    the degrees as it does for `sigma_of`."""
    # TypeError or ValueError unless each is a number or an element of the space's ring
    arg.space._terms_of(a), arg.space._terms_of(b)
    return _half_exp_sum(arg, 0, a, b, factors)


def s_of(arg: TruncSeries) -> TruncSeries:
    """S(W) = sigma(W)/W = sum over even k of W^k / (2^k (k+1)!), for a linear
    series W; a unit: the quotient at (a, b) = (1, 0)."""
    return s_ratio_of(arg, 1, 0)


@lru_cache(maxsize=64)
def _s_power_table(order: int) -> tuple:
    """(A, den, order // 2, order): the nonzero ints A_kj, keyed by (k, j)
    for k <= order, with A_kj / den = [v^k] (log S(v))^j / j!, so that
    [v^k] S(v)^c = sum_j A_kj c^j / den, and the top powers of c and of 1
    that they read; (log S)^j starts at v^(2j), so j <= k/2, and odd k have
    none."""
    log_s = {k: bernoulli(k) / (k * factorial(k)) for k in range(2, order + 1, 2)}
    table = {}
    power = [1] + [0] * order  # (log S)^j / j!
    for j in range(order // 2 + 1):
        table.update({(k, j): power[k] for k in range(order + 1)})
        power = [sum([power[i] * log_s.get(k - i, 0) for i in range(k)], Fraction(0)) / (j + 1) for k in range(order + 1)]
    return (*_over_lcm(table), order // 2, order)


def s_power_column(c, order: int) -> list:
    """[[v^k] S(v)^c for k = 0..order], c an int, a Fraction or a polynomial
    (anything else raises TypeError): each entry is read off the powers of
    c with the integer table of `_s_power_table`, over its one denominator."""
    scale, den = _table_at(_s_power_table, order, _exact(c), 1)
    return [
        Fraction(f, den) if n is None else MultiPoly._make(c.ring, {lo: x * f for lo, x in n.items()}, den)
        for f, n in scale
    ]


# -- factorial-type helpers ----------------------------------------------------


def _exact(x):
    """x, an int, a Fraction or a polynomial; anything else raises TypeError."""
    if not isinstance(x, (int, Fraction, MultiPoly)):
        raise TypeError(f"expected int, Fraction or MultiPoly, got {type(x).__name__}")
    return x


def factorial_column(x, top: int, step: int) -> list:
    """[x (x + step) ... (x + (k-1) step) for k = 0..top]: the rising
    factorials of x for step 1, the falling ones for step -1; exact, for an
    int, a Fraction or a polynomial (anything else raises TypeError)."""
    col = [x.ring.one() if isinstance(_exact(x), MultiPoly) else 1]
    for i in range(top):
        col.append(col[-1] * (x + step * i))
    return col


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2 (generating series t/(e^t - 1));
    a k that is not an integer, or below 0, raises ValueError."""
    k = check_integer(k, "k")
    if k < 0:
        raise ValueError("Bernoulli numbers need k >= 0")
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[k]
