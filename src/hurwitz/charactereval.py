"""Closed character sums over partitions.

The disconnected count with p unconstrained, q weakly monotone and r
strictly monotone transpositions equals

    (prod mu_i * prod nu_j)^(-1) * sum over partitions lam of d of
        chi^lam(mu) * chi^lam(nu) * f2(lam)^p * h_q(contents) * e_r(contents)

in the labeled-parts normalization, where f2 is the sum of contents and
h_k, e_k are complete homogeneous / elementary evaluations at the content
multiset.  Connected counts (simple type only) follow by peeling off the
component that carries the first part of mu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, prod

from .partitions import (
    Signature,
    SizeMismatch,
    centralizer_size,
    character,
    check_composition,
    complete_homogeneous_at_contents,
    contents,
    elementary_at_contents,
    f2_eigenvalue,
    multiplicity_factor,
    partitions,
)


@lru_cache(maxsize=None)
def _disc_sum(mu: tuple, nu: tuple, p: int, q: int, r: int) -> Fraction:
    # Ungated: the parity constraint comes out of the sum on its own, the
    # genus >= 0 constraint does not.  Callers that want the geometric count
    # must gate; the component recursion must not.
    d = sum(mu)
    total = Fraction(0)
    for lam in partitions(d):
        c = character(lam, mu) * character(lam, nu)
        if not c:
            continue
        term = Fraction(c)
        if p:
            term *= f2_eigenvalue(lam) ** p
        if q:
            term *= complete_homogeneous_at_contents(lam, q)
        if r:
            term *= elementary_at_contents(lam, r)
        total += term
    return total / (prod(mu) * prod(nu))


def hurwitz_disconnected(mu, nu, p: int = 0, q: int = 0, r: int = 0) -> Fraction:
    """Labeled disconnected count, zero outside the valid genus range."""
    mu = tuple(sorted(check_composition(mu), reverse=True))
    nu = tuple(sorted(check_composition(nu), reverse=True))
    if sum(mu) != sum(nu):
        raise SizeMismatch(f"|mu|={sum(mu)} != |nu|={sum(nu)}")
    m, n = len(mu), len(nu)
    if Signature.of("mixed", (p, q, r), m, n).genus(m, n) is None:
        return Fraction(0)
    return _disc_sum(mu, nu, p, q, r)


@lru_cache(maxsize=None)
def _connected_simple(mu: tuple, nu: tuple, b: int) -> Fraction:
    """Count with transitivity imposed, by removing split contributions.

    Every (possibly non-transitive) factorization splits uniquely into the
    orbit of the first part of mu and the rest, so with parts and
    transposition slots both labeled:

        A(mu, nu, b) = sum over proper splits of
            binom(b, b1) * C(mu_I, nu_J, b1) * A(rest, b - b1)

    plus the transitive term C(mu, nu, b) itself.
    """
    total = _disc_sum(mu, nu, b, 0, 0)
    m, n = len(mu), len(nu)
    for ksub in range(1, m + 1):
        for rest_I in combinations(range(1, m), ksub - 1):
            I = (0,) + rest_I
            dI = sum(mu[i] for i in I)
            for jsub in range(0, n + 1):
                for J in combinations(range(n), jsub):
                    if sum(nu[j] for j in J) != dI:
                        continue
                    if ksub == m and jsub == n:
                        continue
                    muI = tuple(sorted((mu[i] for i in I), reverse=True))
                    nuJ = tuple(sorted((nu[j] for j in J), reverse=True))
                    muC = tuple(sorted((mu[i] for i in range(m) if i not in I), reverse=True))
                    nuC = tuple(sorted((nu[j] for j in range(n) if j not in J), reverse=True))
                    for b1 in range(b + 1):
                        c1 = _connected_simple(muI, nuJ, b1)
                        if not c1:
                            continue
                        if muC:
                            a2 = _disc_sum(muC, nuC, b - b1, 0, 0)
                        else:
                            a2 = Fraction(1 if b == b1 else 0)
                        if a2:
                            total -= comb(b, b1) * c1 * a2
    return total


def hurwitz_connected_simple(mu, nu, g: int) -> Fraction:
    """Labeled transitive count with b = 2g - 2 + m + n simple transpositions."""
    mu = tuple(sorted(check_composition(mu), reverse=True))
    nu = tuple(sorted(check_composition(nu), reverse=True))
    if sum(mu) != sum(nu):
        raise SizeMismatch(f"|mu|={sum(mu)} != |nu|={sum(nu)}")
    if g < 0:
        return Fraction(0)
    return _connected_simple(mu, nu, Signature.of("simple", g, len(mu), len(nu)).b)


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
    mu = tuple(sorted(check_composition(mu), reverse=True))
    nu = tuple(sorted(check_composition(nu), reverse=True))
    if sum(mu) != n or sum(nu) != n:
        raise SizeMismatch("profiles must weigh the requested degree")
    c = tuple(int(x) for x in c)
    d = tuple(int(x) for x in d)
    if any(x < 0 for x in c + d):
        raise ValueError("exponents must be >= 0")
    total = Fraction(0)
    for lam in partitions(n):
        ch = character(lam, mu) * character(lam, nu)
        if not ch:
            continue
        box = box_product(lam, c, d).get((c, d), 0)
        if box:
            total += Fraction(ch * box, centralizer_size(mu) * centralizer_size(nu))
    return total


def tau_series_factored(lam: tuple, wcaps, zcaps) -> dict:
    """The same box product, assembled from one-variable factors.

    Each parameter sees prod over boxes (1 + content*w) = sum_v e_v w^v and
    1/(1 - content*z) giving sum_v h_v z^v, so the joint series is a plain
    product of precomputed one-variable polynomials.  Used as a cross-check
    on the box-by-box expansion.
    """
    wcaps = tuple(wcaps)
    zcaps = tuple(zcaps)
    series = {(tuple([0] * len(wcaps)), tuple([0] * len(zcaps))): Fraction(1)}
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
    mu = tuple(sorted(check_composition(mu), reverse=True))
    nu = tuple(sorted(check_composition(nu), reverse=True))
    n = sum(mu)
    coeff = tau_coefficient(n, mu, nu, [r_exp], [q_exp])
    return coeff * multiplicity_factor(mu) * multiplicity_factor(nu)
