"""Exact arithmetic kernel: sparse multivariate polynomials over the rationals,
linear forms, and truncated multivariate power series.

All numbers are `fractions.Fraction`; nothing in this module (or this package)
ever touches floating point.  `TruncSeries` implements the quotient ring
Q[c][[v1, ..., vk]] / (v1^(cap1+1), ..., vk^(capk+1)): every retained
coefficient of a sum, product, or inverse is exact, and coefficients may
themselves be `MultiPoly` values so the same series code serves both numeric
and symbolic evaluations.

The special series used throughout are the odd exponential difference

    sigma(w) = exp(w/2) - exp(-w/2) = sum_{k odd} w^k / (2^(k-1) k!)

and its normalization S(w) = sigma(w)/w = sum_{k even} w^k / (2^k (k+1)!),
which is a unit (constant term 1) and so admits powers S(w)^c with an
arbitrary exponent c, rational or polynomial, via exp(c * log S(w)).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__ = [
    "NotDivisible",
    "PolyRing",
    "MultiPoly",
    "LinearForm",
    "TruncSeries",
    "sigma_of",
    "s_of",
    "s_power_series",
    "rising_factorial",
    "falling_factorial",
    "bernoulli",
]

class NotDivisible(ArithmeticError):
    """An exact polynomial division left a remainder."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class PolyRing:
    """An ordered tuple of variable names.

    Polynomials carry a reference to their ring; two rings are compatible
    when their name tuples agree.
    """

    __slots__ = ("names", "index")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        self.index = {nm: i for i, nm in enumerate(self.names)}

    def __repr__(self):
        return f"PolyRing({list(self.names)!r})"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def const(self, c) -> "MultiPoly":
        c = _frac(c)
        if not c:
            return self.zero()
        return MultiPoly(self, {(0,) * len(self.names): c})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def var(self, name: str) -> "MultiPoly":
        exps = [0] * len(self.names)
        exps[self.index[name]] = 1
        return MultiPoly(self, {tuple(exps): Fraction(1)})

    def from_linear(self, form: "LinearForm") -> "MultiPoly":
        terms = {}
        for name, c in form.coeffs.items():
            exps = [0] * len(self.names)
            exps[self.index[name]] = 1
            terms[tuple(exps)] = c
        return MultiPoly(self, terms)


class MultiPoly:
    """A sparse polynomial: dict from exponent tuples to nonzero Fractions."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

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
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

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
            return MultiPoly(self.ring, {e: cf * c for e, cf in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximum total degree of a monomial (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring.names), Fraction(0))

    def evaluate(self, values) -> Fraction:
        """Evaluate at a mapping from variable name to int/Fraction."""
        point = [None] * len(self.ring.names)
        total = Fraction(0)
        for e, c in self.terms.items():
            prod = c
            for i, k in enumerate(e):
                if k:
                    if point[i] is None:
                        point[i] = _frac(values[self.ring.names[i]])
                    prod *= point[i] ** k
            total += prod
        return total

    def sorted_terms(self):
        """Terms in a deterministic order: by total degree, then exponents."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    # -- structural operations ----------------------------------------------

    def substitute(self, name: str, replacement) -> "MultiPoly":
        """Replace a variable by a polynomial (Horner in that variable)."""
        repl = self._coerce(replacement)
        if repl is None:
            raise TypeError("replacement must be a polynomial or number")
        i = self.ring.index[name]
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            stripped = e[:i] + (0,) + e[i + 1:]
            buckets.setdefault(e[i], {})[stripped] = (
                buckets.get(e[i], {}).get(stripped, Fraction(0)) + c
            )
        if not buckets:
            return self.ring.zero()
        acc = self.ring.zero()
        for k in range(max(buckets), -1, -1):
            acc = acc * repl + MultiPoly(self.ring, buckets.get(k, {}))
        return acc

    def exact_divide(self, divisor) -> "MultiPoly":
        """Exact division; raises NotDivisible if a remainder survives.

        Single-divisor multivariate long division in lex order.  When the
        dividend is a true multiple of the divisor the lex-leading term of
        the running remainder is always divisible by the divisor's, so the
        loop terminates with zero remainder; otherwise NotDivisible.
        """
        divisor = self._coerce(divisor)
        if divisor is None or not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        dlead = max(divisor.terms)
        dc = divisor.terms[dlead]
        rem = dict(self.terms)
        quot: dict[tuple, Fraction] = {}
        while rem:
            e = max(rem)
            shift = tuple(a - b for a, b in zip(e, dlead))
            if any(x < 0 for x in shift):
                raise NotDivisible(f"leading term x^{e} not divisible by x^{dlead}")
            qc = rem[e] / dc
            quot[shift] = qc
            for de, dcf in divisor.terms.items():
                ne = tuple(a + b for a, b in zip(shift, de))
                s = rem.get(ne, Fraction(0)) - qc * dcf
                if s:
                    rem[ne] = s
                else:
                    rem.pop(ne, None)
        return MultiPoly(self.ring, quot)

    def __str__(self):
        if not self.terms:
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

    Coefficients are Fractions when `ring` is None, else MultiPoly elements
    of `ring`.  Monomials whose exponent exceeds a cap are discarded by every
    operation, which is exactly multiplication in the quotient ring, so all
    retained coefficients are exact.  `blocks` optionally bounds the total
    degree across groups of variables: a tuple of (variable index tuple, cap)
    pairs, enforced alongside the per-variable caps.
    """

    __slots__ = ("vars", "caps", "ring", "data", "blocks")

    def __init__(self, vars, caps, ring=None, data=None, blocks=()):
        self.vars = tuple(vars)
        self.caps = tuple(caps)
        if len(self.vars) != len(self.caps):
            raise ValueError("one cap per variable required")
        self.ring = ring
        self.blocks = tuple((tuple(ix), cap) for ix, cap in blocks)
        self.data = {}
        for e, c in (data or {}).items():
            e = tuple(e)
            if c and self._admissible(e):
                self.data[e] = c

    def _admissible(self, e) -> bool:
        if any(x > cap for x, cap in zip(e, self.caps)):
            return False
        return all(sum(e[i] for i in ix) <= cap for ix, cap in self.blocks)

    # -- coefficient-ring helpers -------------------------------------------

    def _czero(self):
        return self.ring.zero() if self.ring is not None else Fraction(0)

    def _cone(self):
        return self.ring.one() if self.ring is not None else Fraction(1)

    def _cconst(self, c):
        return self.ring.const(c) if self.ring is not None else _frac(c)

    def _same_space(self, other: "TruncSeries"):
        if (
            self.vars != other.vars
            or self.caps != other.caps
            or self.blocks != other.blocks
            or (self.ring is None) != (other.ring is None)
        ):
            raise ValueError("series live in different truncated rings")

    def zero_like(self) -> "TruncSeries":
        return TruncSeries(self.vars, self.caps, self.ring, {}, self.blocks)

    def one_like(self) -> "TruncSeries":
        s = self.zero_like()
        s.data[(0,) * len(s.vars)] = s._cone()
        return s

    @classmethod
    def zero(cls, vars, caps, ring=None, blocks=()) -> "TruncSeries":
        return cls(vars, caps, ring, {}, blocks)

    @classmethod
    def one(cls, vars, caps, ring=None, blocks=()) -> "TruncSeries":
        s = cls(vars, caps, ring, {}, blocks)
        s.data[(0,) * len(s.vars)] = s._cone()
        return s

    @classmethod
    def from_linear(cls, vars, caps, argmap: dict, ring=None, blocks=()) -> "TruncSeries":
        """The series sum_v argmap[v] * v (each argument variable to power 1)."""
        s = cls(vars, caps, ring, {}, blocks)
        pos = {v: i for i, v in enumerate(s.vars)}
        for v, c in argmap.items():
            if isinstance(c, (int, Fraction)):
                c = s._cconst(c)
            if not c:
                continue
            e = [0] * len(s.vars)
            e[pos[v]] = 1
            if not s._admissible(tuple(e)):
                continue
            s.data[tuple(e)] = c
        return s

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._same_space(other)
        out = dict(self.data)
        for e, c in other.data.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TruncSeries(self.vars, self.caps, self.ring, out, self.blocks)

    def __neg__(self):
        return TruncSeries(self.vars, self.caps, self.ring, {e: -c for e, c in self.data.items()}, self.blocks)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_space(other)
        caps = self.caps
        out = {}
        for e1, c1 in self.data.items():
            for e2, c2 in other.data.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if not self._admissible(e):
                    continue
                p = c1 * c2
                s = out.get(e)
                s = p if s is None else s + p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return TruncSeries(self.vars, self.caps, self.ring, out, self.blocks)

    def scalar_mul(self, c) -> "TruncSeries":
        if isinstance(c, (int, Fraction)):
            c = self._cconst(c)
        if not c:
            return self.zero_like()
        return TruncSeries(self.vars, self.caps, self.ring, {e: cf * c for e, cf in self.data.items()}, self.blocks)

    def inverse(self) -> "TruncSeries":
        """Inverse of a unit series whose constant term is exactly 1."""
        const = self.data.get((0,) * len(self.vars), self._czero())
        if const != self._cone():
            raise ValueError("inverse requires constant term 1")
        u = self.one_like() - self  # no constant term
        out = self.one_like()
        p = self.one_like()
        for _ in range(sum(self.caps)):
            p = p * u
            if not p.data:
                break
            out = out + p
        return out

    # -- queries and slices ---------------------------------------------------

    def coeff(self, monomial: dict):
        e = [0] * len(self.vars)
        pos = {v: i for i, v in enumerate(self.vars)}
        for v, k in monomial.items():
            e[pos[v]] = k
        return self.data.get(tuple(e), self._czero())

    def lift(self, vars, caps, blocks=()) -> "TruncSeries":
        """The same series inside a larger space whose variables include ours."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        data = {}
        for e, c in self.data.items():
            key = [0] * len(vars)
            for i, x in zip(pos, e):
                key[i] = x
            data[tuple(key)] = c
        return TruncSeries(vars, caps, self.ring, data, blocks)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.vars == other.vars
            and self.caps == other.caps
            and self.blocks == other.blocks
            and self.data == other.data
        )

    def __repr__(self):
        n = len(self.data)
        return f"TruncSeries({self.vars}, caps={self.caps}, {n} terms)"


# -- the odd/even exponential series ------------------------------------------


def _half_exp_sum(arg: TruncSeries, parity: int) -> TruncSeries:
    """sum over k = parity mod 2 of W^k / (2^(k - parity) (k + 1 - parity)!)."""
    if (0,) * len(arg.vars) in arg.data:
        raise ValueError("sigma and S need a series without constant term")
    out = arg.zero_like() if parity else arg.one_like()
    power = arg.one_like()
    for k in range(1, sum(arg.caps) + 1):
        power = power * arg
        if not power.data:
            break
        if k % 2 == parity:
            out = out + power.scalar_mul(Fraction(1, 2 ** (k - parity) * factorial(k + 1 - parity)))
    return out


def sigma_of(arg: TruncSeries) -> TruncSeries:
    """sigma(W) = sum over odd k of W^k / (2^(k-1) k!) for a series W with no
    constant term."""
    return _half_exp_sum(arg, 1)


def s_of(arg: TruncSeries) -> TruncSeries:
    """S(W) = sigma(W)/W = sum over even k of W^k / (2^k (k+1)!); a unit."""
    return _half_exp_sum(arg, 0)


def s_power_series(c, var: str, order: int, ring=None) -> TruncSeries:
    """S(v)^c truncated at v^order, c rational or polynomial (via exp(c log S))."""
    if isinstance(c, MultiPoly) and ring is None:
        ring = c.ring
    one = TruncSeries.one((var,), (order,), ring)
    s_plain = s_of(TruncSeries.from_linear((var,), (order,), {var: 1}, ring))
    u = s_plain - one  # no constant term, starts at v^2
    log_s = TruncSeries.zero((var,), (order,), ring)
    power = one
    for j in range(1, order // 2 + 1):
        power = power * u
        if not power.data:
            break
        log_s = log_s + power.scalar_mul(Fraction((-1) ** (j + 1), j))
    out = one
    power = one
    cpow = one._cone()
    for k in range(1, order // 2 + 1):
        power = power * log_s
        if not power.data:
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
