"""Closed character sums over partitions.

The disconnected count with p unconstrained, q weakly monotone and r
strictly monotone transpositions equals

    (prod mu_i * prod nu_j)^(-1) * sum over partitions lam of d of
        chi^lam(mu) * chi^lam(nu) * f2(lam)^p * h_q(contents) * e_r(contents)

in the labeled-parts normalization, where f2 is the sum of contents and
h_k, e_k are complete homogeneous / elementary evaluations at the content
multiset.  Connected counts (simple type only) follow by peeling off the
component that carries the first part of mu.

Everything below the public functions is integer arithmetic: the sums and
the peeling recursion are kept multiplied by prod(mu) * prod(nu), and each
public count divides by that product once.  The characters come from one
cached column per profile (`partitions.character_column`) and the f2
values from one cached column per degree, so a pair of profiles costs
three column lookups; the splits come from `partitions.profile_splits`,
which the oracle's peeling reads too.

For simple counts the sum is an exponential sum in b = p over the f2
values of the shapes (`_spectrum`).  The peeling identity holds value by
value on such sums, so each profile pair gets one connected spectrum, built
once and read at every genus, and its zeros below the Riemann-Hurwitz bound
and at the wrong parity need no gate on b (see `_connected_simple`).

Every cache is bounded; each bound holds the largest table seen in a
Tier-1 run in one process, a `verify` suite at its guard bounds, or one
benchmark round.  The columns come from `partitions`' Schur expansions, one
per sorted prefix of a profile, bounded at 512: every partition with d <= 14,
against 145 after a Tier-1 run in one process and 96 after five `connected`
rounds.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import prod

from .partitions import (
    Signature,
    SizeMismatch,
    centralizer_size,
    character_column,
    check_integer,
    check_profiles,
    complete_homogeneous_at_contents,
    contents,
    elementary_at_contents,
    f2_eigenvalue,
    multiplicity_factor,
    partitions,
    profile_splits,
)


@lru_cache(maxsize=32)
def _f2_column(d: int) -> tuple:
    """f2(lam) for every lam, in `partitions(d)` order."""
    return tuple(f2_eigenvalue(lam) for lam in partitions(d))


@lru_cache(maxsize=8192)
def _disc_sum(mu: tuple, nu: tuple, p: int, q: int, r: int) -> int:
    """The integer sum chi chi f2^p h_q e_r: the count times prod(mu) * prod(nu)."""
    # Ungated: the parity constraint comes out of the sum on its own, the
    # genus >= 0 constraint does not.  Callers that want the geometric count
    # must gate.
    d = sum(mu)
    total = 0
    for lam, f2, a, b in zip(partitions(d), _f2_column(d), character_column(mu), character_column(nu)):
        if not (c := a * b):
            continue
        if p:
            c *= f2 ** p
        if q:
            c *= complete_homogeneous_at_contents(lam, q)
        if r:
            c *= elementary_at_contents(lam, r)
        total += c
    return total


def _profiles(mu, nu) -> tuple:
    mu, nu = check_profiles(mu, nu)
    return tuple(sorted(mu, reverse=True)), tuple(sorted(nu, reverse=True))


def hurwitz_disconnected(mu, nu, p: int = 0, q: int = 0, r: int = 0) -> Fraction:
    """Labeled disconnected count, zero outside the valid genus range."""
    mu, nu = _profiles(mu, nu)
    m, n = len(mu), len(nu)
    if Signature.of("mixed", (p, q, r), m, n).genus(m, n) is None:
        return Fraction(0)
    return Fraction(_disc_sum(mu, nu, p, q, r), prod(mu) * prod(nu))


def _packed(acc: dict) -> tuple:
    """A spectrum {value: weight} as (values, weights), zero weights dropped."""
    values = tuple(filter(acc.__getitem__, acc))
    return values, tuple(map(acc.__getitem__, values))


@lru_cache(maxsize=2048)
def _spectrum(mu: tuple, nu: tuple) -> tuple:
    """The simple disconnected sum as an exponential sum in b.

    S(mu, nu, b) = `_disc_sum(mu, nu, b, 0, 0)` = sum over values v of
    w_v * v^b, where v runs over the f2 values of the shapes of d and w_v
    sums chi^lam(mu) chi^lam(nu) over the shapes with f2(lam) = v.
    Returned as (values, weights), two parallel tuples.
    """
    acc = defaultdict(int)
    for v, a, b in zip(_f2_column(sum(mu)), character_column(mu), character_column(nu)):
        if c := a * b:
            acc[v] += c
    return _packed(acc)


@lru_cache(maxsize=2048)
def _connected_spectrum(mu: tuple, nu: tuple) -> tuple:
    """The transitive count C'(mu, nu, b) as an exponential sum in b.

    See `_connected_simple`: the peeling identity holds value by value, so
    C' = S - sum over grouped splits of mult * C'(mu_I, nu_J) (*) S(rest),
    where (*) adds the values and multiplies the weights.
    """
    acc = defaultdict(int, zip(*_spectrum(mu, nu)))
    for muI, nuJ, muC, nuC, mult in profile_splits(mu, nu):
        sv, sw = _spectrum(muC, nuC)
        for v1, w1 in zip(*_connected_spectrum(muI, nuJ)):
            w1 *= mult
            for v2, w2 in zip(sv, sw):
                acc[v1 + v2] -= w1 * w2
    return _packed(acc)


@lru_cache(maxsize=16384)
def _connected_simple(mu: tuple, nu: tuple, b: int) -> int:
    """Transitive count C(mu, nu, b) times prod(mu) * prod(nu), an integer.

    Every (possibly non-transitive) factorization splits uniquely into the
    orbit of the first part of mu and the rest, so with parts and
    transposition slots both labeled, A = C + sum over proper splits of
    binom(b, b1) * C(mu_I, nu_J, b1) * A(rest, b - b1).  The product of the
    parts factorises over every split, so in the scaled normalization, with
    S = `_disc_sum`,

        C'(mu, nu, b) = S(mu, nu, b) - sum over grouped splits of
            sum over b1 of mult * binom(b, b1) * C'(mu_I, nu_J, b1) * S(rest, b - b1).

    S is an exponential sum in b, sum_v w_v v^b (`_spectrum`), and the
    binomial convolution sum_b1 binom(b, b1) v1^b1 v2^(b - b1) = (v1 + v2)^b
    turns each split's inner sum into one: by induction C' is an exponential
    sum too, with one spectrum per profile pair for every b
    (`_connected_spectrum`), read here at b.  The identity holds at every
    b >= 0 and determines C' from S, so C' is the transitive count at every
    b; its zeros below the Riemann-Hurwitz bound and at the wrong parity
    are those of the count, and no gate on b is needed.
    """
    values, weights = _connected_spectrum(mu, nu)
    return sum(w * v ** b for v, w in zip(values, weights))


def hurwitz_connected_simple(mu, nu, g: int) -> Fraction:
    """Labeled transitive count with b = 2g - 2 + m + n simple transpositions."""
    mu, nu = _profiles(mu, nu)
    b = Signature.of("simple", g, len(mu), len(nu)).b
    return Fraction(_connected_simple(mu, nu, b), prod(mu) * prod(nu))


# -- hypergeometric tau coefficients --------------------------------------------


def box_product(lam: tuple, wcaps: tuple, zcaps: tuple) -> dict:
    """Expand prod over boxes of prod_a (1 + content*w_a) / prod_b (1 - content*z_b).

    Truncated at the given per-variable caps; keys are (w-exponents,
    z-exponents) pairs of tuples, values are integers.
    """
    series = {(tuple([0] * len(wcaps)), tuple([0] * len(zcaps))): 1}
    for x in contents(lam):
        for a in range(len(wcaps)):
            if not wcaps[a]:
                continue
            out = dict(series)
            for (we, ze), cf in series.items():
                if we[a] + 1 <= wcaps[a]:
                    key = (we[:a] + (we[a] + 1,) + we[a + 1:], ze)
                    out[key] = out.get(key, 0) + cf * x
            series = {k: v for k, v in out.items() if v}
        for bidx in range(len(zcaps)):
            if not zcaps[bidx]:
                continue
            out = {}
            for (we, ze), cf in series.items():
                run = cf
                for k in range(ze[bidx], zcaps[bidx] + 1):
                    key = (we, ze[:bidx] + (k,) + ze[bidx + 1:])
                    out[key] = out.get(key, 0) + run
                    run *= x
            series = {k: v for k, v in out.items() if v}
    return series


def tau_coefficient(n: int, mu, nu, c, d) -> Fraction:
    """Coefficient of p_mu(t) p_nu(tt) w^c z^d q^n in the hypergeometric tau function.

    c and d list the exponents of the w- and z-parameters.  Schur functions
    are expanded over power sums, contributing chi(mu) chi(nu) / (z_mu z_nu)
    per shape.
    """
    mu, nu = _profiles(mu, nu)
    if sum(mu) != n:
        raise SizeMismatch("profiles must weigh the requested degree")
    c = tuple(check_integer(x, "each exponent") for x in c)
    d = tuple(check_integer(x, "each exponent") for x in d)
    if any(x < 0 for x in c + d):
        raise ValueError("exponents must be >= 0")
    total = 0
    for lam, a, b in zip(partitions(n), character_column(mu), character_column(nu)):
        if a and b:
            total += a * b * box_product(lam, c, d).get((c, d), 0)
    return Fraction(total, centralizer_size(mu) * centralizer_size(nu))


def tau_series_factored(lam: tuple, wcaps, zcaps) -> dict:
    """The same box product, assembled from one-variable factors.

    Each parameter sees prod over boxes (1 + content*w) = sum_v e_v w^v and
    1/(1 - content*z) giving sum_v h_v z^v, so the joint series is a plain
    product of precomputed one-variable polynomials.  Used as a cross-check
    on the box-by-box expansion.
    """
    wcaps = tuple(wcaps)
    zcaps = tuple(zcaps)
    series = {(tuple([0] * len(wcaps)), tuple([0] * len(zcaps))): 1}
    for a, cap in enumerate(wcaps):
        out = {}
        for v in range(cap + 1):
            ev = elementary_at_contents(lam, v)
            if not ev:
                continue
            for (we, ze), cf in series.items():
                if we[a] + v <= cap:
                    key = (we[:a] + (we[a] + v,) + we[a + 1:], ze)
                    out[key] = out.get(key, 0) + cf * ev
        series = out
    for bidx, cap in enumerate(zcaps):
        out = {}
        for v in range(cap + 1):
            hv = complete_homogeneous_at_contents(lam, v)
            if not hv:
                continue
            for (we, ze), cf in series.items():
                if ze[bidx] + v <= cap:
                    key = (we, ze[:bidx] + (ze[bidx] + v,) + ze[bidx + 1:])
                    out[key] = out.get(key, 0) + cf * hv
        series = out
    return {k: v for k, v in series.items() if v}


def tau_dictionary_value(mu, nu, q_exp: int, r_exp: int) -> Fraction:
    """Monotone/strict counts read off the tau function.

    One z-parameter carries the weak steps, one w-parameter the strict
    steps; the labeled normalization restores the multiplicity factors.
    """
    mu, nu = _profiles(mu, nu)
    coeff = tau_coefficient(sum(mu), mu, nu, [r_exp], [q_exp])
    return coeff * multiplicity_factor(mu) * multiplicity_factor(nu)
