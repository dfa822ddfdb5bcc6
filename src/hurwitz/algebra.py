"""Exact arithmetic kernel: sparse multivariate polynomials over the rationals,
linear forms, and truncated multivariate power series.

Every rational value is exact: a `MultiPoly` keeps integer numerators over
one denominator, keyed by monomials packed into ints (see `FIELD_BITS`), and
so does a numeric `TruncSeries`, keyed by exponent tuples; `Fraction` is the
public form of a single coefficient.  Nothing in this module (or this
package) ever touches floating point.  `TruncSeries` implements the quotient
ring Q[c][[v1, ..., vk]] / (v1^(cap1+1), ..., vk^(capk+1)): every retained
coefficient of a sum, product, or inverse is exact, and coefficients may
themselves be `MultiPoly` values so the same series code serves both numeric
and symbolic evaluations.  A product only multiplies the term pairs it keeps:
the terms are bucketed by grade (see `_grading`), and only bucket pairs
whose grades fit together are visited.

The special series used throughout are the odd exponential difference

    sigma(w) = exp(w/2) - exp(-w/2) = sum_{k odd} w^k / (2^(k-1) k!)

and its normalization S(w) = sigma(w)/w = sum_{k even} w^k / (2^k (k+1)!),
which is a unit (constant term 1) and so admits powers S(w)^c with an
arbitrary exponent c, rational or polynomial, via exp(c * log S(w)).  Its
inverse is w/sigma(w) = sum_{k even} B_k(1/2) w^k / k!, and its logarithm
log S(w) = sum_{k>=1} B_{2k} w^{2k} / (2k (2k)!).  sigma, S and 1/S take a
linear series w, whose powers have a closed form; for a numeric w it is built
on integers (see `_half_exp_sum`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd, lcm
from operator import add, le, or_, sub

__all__ = [
    "NotDivisible",
    "ExponentOverflow",
    "EXPONENT_LIMIT",
    "PolyRing",
    "MultiPoly",
    "LinearForm",
    "TruncSeries",
    "sigma_of",
    "s_of",
    "s_inverse_of",
    "s_power_series",
    "rising_factorial",
    "falling_factorial",
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
    terms, by one gcd pass; the empty dict gets den 1."""
    if not num:
        return num, 1
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return num, den


def _sum_over(n1: dict, d1: int, n2: dict, d2: int) -> tuple:
    """n1/d1 + n2/d2 as (nonzero numerators, denominator), not yet reduced."""
    den = d1 * d2 // gcd(d1, d2)
    s1, s2 = den // d1, den // d2
    out = {e: c * s1 for e, c in n1.items()} if s1 != 1 else dict(n1)
    get = out.get
    for e, c in n2.items():
        out[e] = get(e, 0) + c * s2
    return {e: c for e, c in out.items() if c}, den


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

    def _checked(self, keys) -> None:
        """Raise ExponentOverflow if a sum of stored keys set a guard bit."""
        if reduce(or_, keys, 0) & self.guard:
            raise ExponentOverflow(f"an exponent reached {EXPONENT_LIMIT}")

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

    def from_linear(self, form: "LinearForm") -> "MultiPoly":
        terms = {}
        for name, c in form.coeffs.items():
            exps = [0] * len(self.names)
            exps[self.index[name]] = 1
            terms[tuple(exps)] = c
        return MultiPoly(self, terms)


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

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.num.items()), self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._make(self.ring, *_sum_over(self.num, self.den, other.num, other.den))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.ring, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
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
        out = {}
        get = out.get
        right = list(other.num.items())
        for e1, c1 in self.num.items():
            for e2, c2 in right:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        self.ring._checked(out)
        return MultiPoly._make(self.ring, {e: c for e, c in out.items() if c}, self.den * other.den)

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
        """Replace a variable by a polynomial (Horner in that variable)."""
        repl = self._coerce(replacement)
        if repl is None:
            raise TypeError("replacement must be a polynomial or number")
        s = self.ring.shifts[self.ring.index[name]]
        buckets: dict[int, dict] = {}
        for e, c in self.num.items():
            k = e >> s & _EXP_MASK
            bucket = buckets.setdefault(k, {})
            stripped = e - (k << s)
            bucket[stripped] = bucket.get(stripped, 0) + c
        if not buckets:
            return self.ring.zero()
        acc = self.ring.zero()
        for k in range(max(buckets), -1, -1):
            acc = acc * repl + MultiPoly._make(self.ring, buckets.get(k, {}), self.den)
        return acc

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


class LinearForm:
    """An exact linear combination of named symbols plus a rational constant.

    Used for operator energies (combinations of part sizes) and for series
    arguments before they are materialized into a polynomial ring.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        cleaned = {}
        for name, c in (coeffs or {}).items():
            c = _frac(c)
            if c:
                cleaned[name] = c
        self.coeffs = cleaned
        self.const = _frac(const)

    @classmethod
    def unit(cls, name: str) -> "LinearForm":
        return cls({name: 1})

    def __add__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        out = dict(self.coeffs)
        for name, c in other.coeffs.items():
            s = out.get(name, Fraction(0)) + c
            if s:
                out[name] = s
            else:
                out.pop(name, None)
        return LinearForm(out, self.const + other.const)

    def __neg__(self):
        return LinearForm({n: -c for n, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.coeffs and not self.const

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.const))

    def evaluate(self, values) -> Fraction:
        return sum((c * _frac(values[n]) for n, c in self.coeffs.items()), self.const)

    def as_poly(self, ring: PolyRing) -> MultiPoly:
        return ring.from_linear(self) + ring.const(self.const)

    def __repr__(self):
        bits = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            if c == 1:
                bits.append(name)
            elif c == -1:
                bits.append(f"-{name}")
            else:
                bits.append(f"{c}*{name}")
        if self.const or not bits:
            bits.append(str(self.const))
        return " + ".join(bits).replace("+ -", "- ")


class TruncSeries:
    """A truncated power series with per-variable caps and exact coefficients.

    Monomials whose exponent exceeds a cap are discarded by every operation,
    which is exactly multiplication in the quotient ring, so all retained
    coefficients are exact.  `blocks` optionally bounds the total degree
    across groups of variables: a tuple of (variable index tuple, cap)
    pairs, enforced alongside the per-variable caps.

    `num` maps exponent tuples to nonzero coefficients.  With a `ring` they
    are MultiPoly elements of it and `den` is 1.  A numeric series (`ring`
    None) holds integer numerators over the one positive denominator `den`,
    in canonical form as a `MultiPoly` is: `den` and all the numerators have
    gcd 1, and the zero series has `den == 1`, so equal series have equal
    `(num, den)`.  The constructor takes int/Fraction (or MultiPoly)
    coefficients, and `data` gives them back exactly.
    """

    __slots__ = ("vars", "caps", "ring", "blocks", "num", "den")

    def __init__(self, vars, caps, ring=None, data=None, blocks=()):
        self.vars = tuple(vars)
        self.caps = tuple(caps)
        if len(self.vars) != len(self.caps):
            raise ValueError("one cap per variable required")
        self.ring = ring
        self.blocks = tuple((tuple(ix), cap) for ix, cap in blocks)
        kept = {}
        for e, c in (data or {}).items():
            e = tuple(e)
            if c and self._admissible(e):
                kept[e] = c
        if ring is None:
            self.num, self.den = _over_lcm({e: _frac(c) for e, c in kept.items()})
        else:
            self.num, self.den = kept, 1

    def _admissible(self, e) -> bool:
        if not all(map(le, e, self.caps)):
            return False
        for ix, cap in self.blocks:
            if sum([e[i] for i in ix]) > cap:
                return False
        return True

    def _with(self, num, den=1) -> "TruncSeries":
        """A series of this space holding `num` over `den`, whose exponents
        are all admissible, whose coefficients are all nonzero and, for a
        numeric series, in lowest terms over `den` (none of it re-checked)."""
        out = object.__new__(TruncSeries)
        out.vars, out.caps, out.ring, out.blocks = self.vars, self.caps, self.ring, self.blocks
        out.num, out.den = num, den
        return out

    def _reduce(self, num, den) -> "TruncSeries":
        """`_with` for nonzero integer numerators over den, reduced once."""
        return self._with(*_reduced(num, den))

    @property
    def data(self) -> dict:
        """Exponent tuple -> exact coefficient, a Fraction or an element of
        `ring` (a fresh dict)."""
        if self.ring is None:
            den = self.den
            return {e: Fraction(c, den) for e, c in self.num.items()}
        return dict(self.num)

    def _get(self, e):
        """The exact coefficient at exponent tuple e."""
        c = self.num.get(e)
        if self.ring is None:
            return Fraction(c or 0, self.den)
        return self.ring.zero() if c is None else c

    def _same_space(self, other: "TruncSeries"):
        if (
            self.vars != other.vars
            or self.caps != other.caps
            or self.blocks != other.blocks
            or (self.ring is None) != (other.ring is None)
        ):
            raise ValueError("series live in different truncated rings")

    def zero_like(self) -> "TruncSeries":
        return self._with({})

    def one_like(self) -> "TruncSeries":
        one = 1 if self.ring is None else self.ring.one()
        return self._with({(0,) * len(self.vars): one})

    @classmethod
    def zero(cls, vars, caps, ring=None, blocks=()) -> "TruncSeries":
        return cls(vars, caps, ring, {}, blocks)

    @classmethod
    def one(cls, vars, caps, ring=None, blocks=()) -> "TruncSeries":
        return cls(vars, caps, ring, {}, blocks).one_like()

    @classmethod
    def from_linear(cls, vars, caps, argmap: dict, ring=None, blocks=()) -> "TruncSeries":
        """The series sum_v argmap[v] * v (each argument variable to power 1)."""
        s = cls(vars, caps, ring, {}, blocks)
        pos = {v: i for i, v in enumerate(s.vars)}
        terms = {}
        for v, c in argmap.items():
            if ring is None:
                c = _frac(c)
            elif isinstance(c, (int, Fraction)):
                c = ring.const(c)
            if not c:
                continue
            e = [0] * len(s.vars)
            e[pos[v]] = 1
            e = tuple(e)
            if s._admissible(e):
                terms[e] = c
        if ring is None:
            return s._with(*_over_lcm(terms))
        return s._with(terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._same_space(other)
        if self.ring is None:
            return self._reduce(*_sum_over(self.num, self.den, other.num, other.den))
        out = dict(self.num)
        for e, c in other.num.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return self._with(out)

    def __neg__(self):
        return self._with({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def _graded(self, grades) -> dict:
        """grade -> this series' (exponent, numerator) pairs of that grade."""
        out = {}
        for item in self.num.items():
            e = item[0]
            g = tuple([sum([e[i] for i in ix]) for ix in grades])
            bucket = out.get(g)
            if bucket is None:
                out[g] = [item]
            else:
                bucket.append(item)
        return out

    def __mul__(self, other):
        """The truncated product.  Grades add under the product, so a bucket
        pair whose grades sum within the grade caps holds only admissible
        term pairs, and every other bucket pair holds none.  Numerators
        multiply over the product of the denominators, reduced once."""
        self._same_space(other)
        grades, gcaps = _grading(self.caps, self.blocks)
        right = list(other._graded(grades).items())
        out = {}
        get = out.get
        for g1, terms1 in self._graded(grades).items():
            room = tuple(map(sub, gcaps, g1))
            for g2, terms2 in right:
                if not all(map(le, g2, room)):
                    continue
                for e1, c1 in terms1:
                    for e2, c2 in terms2:
                        e = tuple(map(add, e1, e2))
                        s = get(e)
                        out[e] = c1 * c2 if s is None else s + c1 * c2
        out = {e: c for e, c in out.items() if c}
        if self.ring is None:
            return self._reduce(out, self.den * other.den)
        return self._with(out)

    def scalar_mul(self, c) -> "TruncSeries":
        if self.ring is None:
            c = _frac(c)
            if not c:
                return self.zero_like()
            a = c.numerator
            return self._reduce({e: x * a for e, x in self.num.items()}, self.den * c.denominator)
        if isinstance(c, (int, Fraction)):
            c = self.ring.const(c)
        if not c:
            return self.zero_like()
        return self._with({e: cf * c for e, cf in self.num.items()})

    def inverse(self) -> "TruncSeries":
        """Inverse of a unit series whose constant term is exactly 1, by
        repeated products; the S-series have the closed form `s_inverse_of`."""
        if self._get((0,) * len(self.vars)) != 1:
            raise ValueError("inverse requires constant term 1")
        u = self.one_like() - self  # no constant term
        out = self.one_like()
        p = self.one_like()
        for _ in range(sum(self.caps)):
            p = p * u
            if not p.num:
                break
            out = out + p
        return out

    # -- queries and slices ---------------------------------------------------

    def coeff(self, monomial: dict):
        e = [0] * len(self.vars)
        pos = {v: i for i, v in enumerate(self.vars)}
        for v, k in monomial.items():
            e[pos[v]] = k
        return self._get(tuple(e))

    def lift(self, vars, caps, blocks=()) -> "TruncSeries":
        """The same series inside a larger space whose variables include ours."""
        out = TruncSeries(vars, caps, self.ring, None, blocks)
        pos = [out.vars.index(v) for v in self.vars]
        num = {}
        for e, c in self.num.items():
            key = [0] * len(out.vars)
            for i, x in zip(pos, e):
                key[i] = x
            key = tuple(key)
            if out._admissible(key):
                num[key] = c
        if self.ring is None:
            return out._reduce(num, self.den)
        return out._with(num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.vars == other.vars
            and self.caps == other.caps
            and self.blocks == other.blocks
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self):
        n = len(self.num)
        return f"TruncSeries({self.vars}, caps={self.caps}, {n} terms)"


@lru_cache(maxsize=64)
def _grading(caps: tuple, blocks: tuple) -> tuple:
    """(index tuple of each grade, grade caps) of a truncated space.

    A grade is the degree sum of a block, or the exponent of a variable
    whose own cap is below every block holding it (or that sits in no
    block).  Any other variable's cap is implied by a block's, so an
    exponent is admissible exactly when every grade is within its cap.
    """
    grades = [ix for ix, _ in blocks]
    gcaps = [cap for _, cap in blocks]
    for i, cap in enumerate(caps):
        if all(cap < bcap for ix, bcap in blocks if i in ix):
            grades.append((i,))
            gcaps.append(cap)
    return tuple(grades), tuple(gcaps)


# -- the odd/even exponential series ------------------------------------------


def _half_exp_sum(arg: TruncSeries, parity: int, weight) -> TruncSeries:
    """sum over k = parity mod 2 of weight(k) W^k / k!, for a linear series
    W = sum_v L_v v.

    In closed form, the coefficient at v^e with k = |e| of the right parity
    is weight(k) * prod_v L_v^(e_v) / e_v!.  Each admissible exponent is
    built once, its coefficient a product of per-variable power tables
    shared along the exponent prefix, and each degree k is scaled once.

    With a ring the tables hold L_v^j / j!.  A numeric W is A_v / B with
    integer A_v over its one denominator B, and the coefficient is
    weight(k) / (k! B^k) * multinomial(k; e) * prod_v A_v^(e_v): the tables
    hold A_v^j, the multinomial grows by comb(k + j, j) at each variable,
    and the per-degree scales go over their common denominator.
    """
    zero = (0,) * len(arg.vars)
    if zero in arg.num:
        raise ValueError("sigma and S need a series without constant term")
    if any(sum(e) != 1 for e in arg.num):
        raise ValueError("sigma and S need a linear series")
    numeric = arg.ring is None
    one = 1 if numeric else arg.ring.one()
    # the nonzero variables, each with its power table and the blocks it sits in
    slots = []
    room = [cap for _, cap in arg.blocks]
    for e, c in arg.num.items():
        i = e.index(1)
        blocks = [b for b, (ix, _) in enumerate(arg.blocks) if i in ix]
        powers = [one, c]
        for j in range(2, min([arg.caps[i]] + [room[b] for b in blocks]) + 1):
            powers.append(powers[-1] * c if numeric else powers[-1] * c * Fraction(1, j))
        slots.append((i, powers, blocks))
    exps = list(zero)
    leaves = []

    def fill(t, k, coeff):
        if t == len(slots):
            if k % 2 == parity:
                leaves.append((tuple(exps), k, coeff))
            return
        i, powers, blocks = slots[t]
        top = min([len(powers) - 1] + [room[b] for b in blocks])
        last = t == len(slots) - 1
        for j in range((k + parity) % 2 if last else 0, top + 1, 2 if last else 1):
            exps[i] = j
            for b in blocks:
                room[b] -= j
            c = coeff
            if j:
                c = coeff * powers[j]
                if numeric:
                    c *= comb(k + j, j)
            fill(t + 1, k + j, c)
            for b in blocks:
                room[b] += j
        exps[i] = 0

    fill(0, 0, one)
    degrees = {k for _, k, _ in leaves}
    if not numeric:
        weights = {k: weight(k) for k in degrees}
        return arg._with({e: c * weights[k] for e, k, c in leaves})
    fracs = {k: weight(k) / (factorial(k) * arg.den**k) for k in degrees}
    den = lcm(*(f.denominator for f in fracs.values()))
    scales = {k: f.numerator * (den // f.denominator) for k, f in fracs.items()}
    return arg._reduce({e: c * scales[k] for e, k, c in leaves if scales[k]}, den)


def sigma_of(arg: TruncSeries) -> TruncSeries:
    """sigma(W) = sum over odd k of W^k / (2^(k-1) k!) for a linear series W
    (no constant term, no term of degree 2 or more)."""
    return _half_exp_sum(arg, 1, lambda k: Fraction(1, 2 ** (k - 1)))


def s_of(arg: TruncSeries) -> TruncSeries:
    """S(W) = sigma(W)/W = sum over even k of W^k / (2^k (k+1)!), for a linear
    series W; a unit."""
    return _half_exp_sum(arg, 0, lambda k: Fraction(1, 2**k * (k + 1)))


def s_inverse_of(arg: TruncSeries) -> TruncSeries:
    """1/S(W) = W/sigma(W) = sum over even k of B_k(1/2) W^k / k!, for a
    linear series W, with B_k(1/2) = (2^(1-k) - 1) B_k."""
    return _half_exp_sum(arg, 0, lambda k: (Fraction(2, 2**k) - 1) * bernoulli(k))


def s_power_series(c, var: str, order: int, ring=None) -> TruncSeries:
    """S(v)^c truncated at v^order, c rational or polynomial, as exp(c log S)
    with log S(v) = sum_{k>=1} B_{2k} v^{2k} / (2k (2k)!)."""
    if isinstance(c, MultiPoly) and ring is None:
        ring = c.ring
    const = ring.const if ring is not None else _frac
    one = TruncSeries.one((var,), (order,), ring)
    log_s = TruncSeries(
        (var,),
        (order,),
        ring,
        {(k,): const(bernoulli(k) / (k * factorial(k))) for k in range(2, order + 1, 2)},
    )
    out = one
    power = one
    cpow = const(1)
    for k in range(1, order // 2 + 1):
        power = power * log_s
        if power.is_zero():
            break
        cpow = cpow * c
        out = out + power.scalar_mul(cpow * Fraction(1, factorial(k)))
    return out


# -- factorial-type helpers ----------------------------------------------------


def rising_factorial(x, k: int):
    """x (x+1) ... (x+k-1); exact, for numbers or polynomials."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    out = x.ring.one() if isinstance(x, MultiPoly) else Fraction(1)
    for i in range(k):
        out = out * (x + i)
    return out


def falling_factorial(x, k: int):
    """x (x-1) ... (x-k+1); exact, for numbers or polynomials."""
    if k < 0:
        raise ValueError("falling factorial needs k >= 0")
    out = x.ring.one() if isinstance(x, MultiPoly) else Fraction(1)
    for i in range(k):
        out = out * (x - i)
    return out


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2 (generating series t/(e^t - 1))."""
    if k < 0:
        raise ValueError("Bernoulli numbers need k >= 0")
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[k]
