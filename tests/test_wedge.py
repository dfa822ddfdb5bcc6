"""Chamber geometry, commutation patterns, and chamber polynomials.

Frozen strings and values below were produced by this pipeline and then
cross-checked against the character-sum route (and, transitively, the
symmetric-group enumeration) before being pinned.
"""

import hashlib
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurwitz import wedge
from hurwitz.algebra import (
    PolyRing,
    Space,
    factorial_column,
    s_of,
    s_power_column,
    s_ratio_of,
    sigma_of,
)
from hurwitz.charactereval import hurwitz_disconnected
from hurwitz.oracle import MAX_DEGREE, FactorizationSpec, count_factorizations
from hurwitz.partitions import Signature, SizeMismatch, compositions
from hurwitz.verify import _chambers
from hurwitz.wedge import (
    ArityMismatch,
    Chamber,
    DegenerateSignature,
    OnWall,
    SigmaProduct,
    Wall,
    _numerator,
    _space_for,
    chamber_of,
    chamber_polynomial,
    commutation_patterns,
    correlator,
    evaluate,
    johnson_expand,
    prefactor,
    standard_word,
    walls,
)


def test_wall_counts():
    assert len(walls(1, 1)) == 1
    assert len(walls(1, 2)) == 3
    assert len(walls(2, 2)) == 7


def test_wall_canonicalization():
    # a class and its complement name the same hyperplane on the weight shell
    w = Wall((2,), (2,), 2, 2)
    assert w.I == (1,) and w.J == (1,)
    assert str(Wall((1,), (1, 2), 2, 2)) == "mu{1} = nu{1,2}"
    with pytest.raises(ValueError):
        Wall((1, 2), (1, 2), 2, 2)  # full/empty class
    with pytest.raises(ValueError):
        Wall((1, 3), (1,), 2, 2)  # index out of range


def test_wall_is_a_frozen_value():
    # built positionally, canonicalized first: equal walls are the same hyperplane
    w = Wall((2,), (2,), 2, 2)
    assert repr(w) == "Wall(I=(1,), J=(1,), m=2, n=2)"
    assert repr(Wall([3, 1, 1], {2}, 3, 2)) == "Wall(I=(1, 3), J=(2,), m=3, n=2)"
    assert w == Wall((1,), (1,), 2, 2) == Wall(I=(1,), J=(1,), m=2, n=2)
    assert w != Wall((1,), (2,), 2, 2) and w != Wall((1,), (1,), 2, 3)
    assert hash(w) == hash(Wall((1,), (1,), 2, 2))
    assert len(set(walls(2, 2)) | {w}) == 7
    for field in ("I", "J", "m", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(w, field, 1)


def test_chamber_and_sigma_product_records():
    ch = Chamber(([3, 1], (2, 2)))
    assert repr(ch) == "Chamber(sample=((3, 1), (2, 2)))"
    # equal and equally hashed exactly when the signs agree, whatever the sample
    same, other = Chamber(sample=((5, 1), (3, 3))), chamber_of((1, 3), (2, 2))
    assert ch == same and hash(ch) == hash(same) and ch != other
    assert len({ch, same, other}) == 2
    prod = SigmaProduct((), ((1,), ()))
    assert repr(prod) == "SigmaProduct(factors=(), final=((1,), ()))"
    assert prod == SigmaProduct(factors=(), final=((1,), ())) != SigmaProduct((), ((2,), ()))
    assert hash(prod) == hash(SigmaProduct((), ((1,), ())))
    for field in ("factors", "final", "other"):
        with pytest.raises(AttributeError):
            setattr(prod, field, ())


def test_wall_value_and_form():
    w = Wall((1,), (2,), 2, 2)
    assert w.value((3, 1), (2, 2)) == 1
    assert w.value((1, 3), (2, 2)) == -1


def test_chamber_of_basics():
    ch = chamber_of((3, 1), (2, 2))
    assert (ch.m, ch.n) == (2, 2)
    assert ch.label_sign(((1,), (1,))) == 1
    with pytest.raises(OnWall):
        chamber_of((2, 2), (2, 2))
    with pytest.raises(SizeMismatch):
        chamber_of((3,), (2, 2))


def test_chamber_signs_are_read_off_the_sample():
    ch = chamber_of((3, 1), (2, 2))
    assert ch == Chamber(((3, 1), (2, 2)))
    assert ch.key() == (2, 2, tuple(ch.label_sign((w.I, w.J)) for w in walls(2, 2)))
    with pytest.raises(OnWall):
        Chamber(((2, 2), (2, 2)))
    # (m, n) is read off the sample, which goes through the one profile check
    ch = Chamber(([3], [1, 2]))
    assert (ch.m, ch.n, ch.sample) == (1, 2, ((3,), (1, 2)))
    for sample in [((3, 1), (2, 1)), ((5, 1), (2, 2))]:
        with pytest.raises(SizeMismatch):
            Chamber(sample)


# every (m, n) with m + n <= 5
_SMALL_SHAPES = [(m, s - m) for s in range(2, 6) for m in range(1, s)]


def test_chamber_signs_from_subset_sums_are_the_walls_signs():
    # every composition pair with d <= 7 and m + n <= 5: the sign vector read
    # off the subset sums is each wall's own sign in `walls(m, n)` order, and
    # a pair on a wall raises OnWall naming the first zero wall
    checked = on_wall = 0
    for d in range(1, 8):
        for m, n in _SMALL_SHAPES:
            ws = walls(m, n)
            for mu in compositions(d, m):
                for nu in compositions(d, n):
                    values = [w.value(mu, nu) for w in ws]
                    if 0 in values:
                        with pytest.raises(OnWall) as err:
                            Chamber((mu, nu))
                        assert err.value.wall == ws[values.index(0)], (mu, nu)
                        on_wall += 1
                    else:
                        ch = Chamber((mu, nu))
                        assert ch.key()[2] == tuple(ch.label_sign((w.I, w.J)) for w in ws), (mu, nu)
                    checked += 1
    assert (checked, on_wall) == (630, 341)


def test_four_chambers_at_2_2():
    samples = [((3, 1), (2, 2)), ((2, 2), (3, 1)), ((1, 3), (2, 2)), ((2, 2), (1, 3))]
    keys = {chamber_of(mu, nu).key() for mu, nu in samples}
    assert len(keys) == 4


def test_pattern_counts():
    c2 = chamber_of((3, 1), (2, 2))
    c1 = chamber_of((2, 2), (3, 1))
    assert len(commutation_patterns(c2)) == 2
    assert len(commutation_patterns(c1)) == 1


def _label(I, J):
    """The walk label of the operator that absorbed mu_I and nu_J."""
    return frozenset(I), frozenset(J)


def test_johnson_expand_single_pair():
    # sigma(mu1 * z1) / sigma(z1)
    ch = chamber_of((5,), (5,))
    assert johnson_expand(ch, standard_word(1, 1)) == [SigmaProduct((), _label([1], []))]


def test_johnson_expand_one_two():
    # sigma(mu1 * z1 + nu1 * 0) * sigma((mu1 - nu1) * (z1 + z2)) / sigma(z1 + z2)
    ch = chamber_of((3,), (1, 2))
    assert johnson_expand(ch, standard_word(1, 2)) == [
        SigmaProduct(((_label([1], []), _label([], [1])),), _label([1], [1])),
    ]


def test_johnson_expand_nonzero_energy_word():
    # a word that does not cover every index has nonzero total energy
    ch = chamber_of((3,), (1, 2))
    partial = standard_word(1, 2)[:2]
    assert johnson_expand(ch, partial) == []


def test_johnson_expand_rejects_bad_words():
    ch = chamber_of((3,), (1, 2))
    with pytest.raises(ValueError):
        johnson_expand(ch, standard_word(1, 2) + (([1], []),))
    with pytest.raises(ValueError):
        johnson_expand(ch, (([1], []), ([], [5])))


def test_johnson_expand_reads_labels_given_as_tuples_or_sets():
    ch = chamber_of((3, 1), (2, 2))
    want = johnson_expand(ch, standard_word(2, 2))
    assert len(want) == 2 and tuple(want) == commutation_patterns(ch)
    assert johnson_expand(ch, [((1,), ()), ({2}, set()), ([], [1]), (frozenset(), (2,))]) == want
    # a merged operator, as a set pair, names the same label as its frozensets
    merged = johnson_expand(ch, [({1}, {1}), ((2,), ()), ((), [2])])
    assert merged == johnson_expand(ch, [_label([1], [1]), _label([2], []), _label([], [2])])


def test_every_series_of_a_chamber_reads_one_cached_walk():
    # from a cold cache, two signatures on one chamber and a jump from it
    # to its neighbour walk each of the two chambers once
    c2, c1 = chamber_of((3, 1), (2, 2)), chamber_of((2, 2), (3, 1))
    commutation_patterns.cache_clear()
    for sig in (Signature(1, 1, 0), Signature(0, 2, 0)):
        space, parts = _space_for(sig, 2)
        correlator(c2, parts, space, c2.sample)
    correlator(c2, parts, space, c2.sample, minus=c1)
    info = commutation_patterns.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    with pytest.raises(ArityMismatch):
        correlator(c2, parts, space, ((3, 1), (1, 1, 2)))


def test_monotone_torus_one_one_polynomial():
    ch = chamber_of((4,), (4,))
    poly = chamber_polynomial("monotone", 1, ch)
    assert str(poly) == "-1/12 - 1/24*nu1 + 1/12*nu1^2 + 1/24*nu1^3"
    # interpolates the classical tower
    for d, want in [(1, 0), (2, Fraction(1, 2)), (3, Fraction(5, 3)), (4, Fraction(15, 4))]:
        assert evaluate(poly, (d,), (d,)) == want
        if d >= 2:
            assert want == hurwitz_disconnected((d,), (d,), 0, 2 * 1, 0)


def test_degree_zero_sphere_polynomials():
    ch = chamber_of((3,), (1, 2))
    for kind in ("monotone", "strict"):
        poly = chamber_polynomial(kind, 0, ch)
        assert poly.total_degree() == 0
        assert poly.constant_term() == 1


def test_all_chambers_evaluate_correctly():
    # simple, genus 0, all four chambers of the (2,2) arrangement
    for mu, nu in [((3, 1), (2, 2)), ((2, 2), (3, 1)), ((1, 3), (2, 2)), ((2, 2), (1, 3))]:
        ch = chamber_of(mu, nu)
        poly = chamber_polynomial("simple", 0, ch)
        assert evaluate(poly, mu, nu) == hurwitz_disconnected(mu, nu, 2, 0, 0), (mu, nu)


def test_mixed_polynomial_matches_character_sum():
    ch = chamber_of((3, 1), (2, 2))
    poly = chamber_polynomial("mixed", (1, 1, 0), ch)
    for mu, nu in [((3, 1), (2, 2)), ((4, 1), (3, 2)), ((5, 2), (4, 3))]:
        assert chamber_of(mu, nu) == ch
        assert evaluate(poly, mu, nu) == hurwitz_disconnected(mu, nu, 1, 1, 0)


# -- the one-part closed form, expanded with Fractions alone ----------------------


def _poly_mul(x, y):
    """The product of two polynomials {exponent tuple: Fraction}."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _one_part_coefficient(n, g):
    """[t^(2g)] prod_j S(nu_j t) / S(t), S(t) = sinh(t/2)/(t/2) = sum_k
    t^(2k) / (4^k (2k+1)!), as a polynomial in nu_1..nu_n."""
    s = [Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(g + 1)]
    inv = [Fraction(1)]  # 1/S(t), solved degree by degree
    for k in range(1, g + 1):
        inv.append(-sum(s[i] * inv[k - i] for i in range(1, k + 1)))
    # a term's t-degree is its total degree in nu
    prod_s = {(0,) * n: Fraction(1)}
    for j in range(n):
        factor = {tuple(2 * k * (i == j) for i in range(n)): s[k] for k in range(g + 1)}
        prod_s = {e: c for e, c in _poly_mul(prod_s, factor).items() if sum(e) <= 2 * g}
    return {e: c * inv[g - sum(e) // 2] for e, c in prod_s.items()}


def test_one_part_simple_polynomial_is_the_closed_form():
    # H^g_{(d),nu} = r! d^(r-1) [t^(2g)] prod_j S(nu_j t) / S(t), with
    # d = nu_1 + ... + nu_n and r = 2g - 1 + n (Goulden-Jackson-Vakil,
    # arXiv:math/0309440, Theorem 3.1); a (1, n) arrangement has one chamber
    cases = [(n, g) for n in range(1, 6) for g in range(5) if n + g <= 7 and (n, g) != (1, 0)]
    assert len(cases) == 21
    for n, g in cases:
        r = 2 * g - 1 + n
        d = {tuple(int(i == j) for i in range(n)): Fraction(1) for j in range(n)}
        want = {e: c * factorial(r) for e, c in _one_part_coefficient(n, g).items()}
        for _ in range(r - 1):
            want = _poly_mul(want, d)
        poly = chamber_polynomial("simple", g, chamber_of((n,), (1,) * n))
        assert poly.terms == {(0, *e): c for e, c in want.items()}, (n, g)


def test_one_part_closed_form_is_the_character_count():
    checked = 0
    for d in range(1, 7):
        for nu in compositions(d):
            for g in range(3):
                n, r = len(nu), 2 * g - 1 + len(nu)
                coeff = sum(c * prod(x**k for x, k in zip(nu, e)) for e, c in _one_part_coefficient(n, g).items())
                assert factorial(r) * Fraction(d) ** (r - 1) * coeff == hurwitz_disconnected((d,), nu, r, 0, 0), (nu, g)
                checked += 1
    assert checked == 189
    assert hurwitz_disconnected((6,), (2, 2, 1, 1), 7, 0, 0) == 13839336


def test_higher_arity_block_truncation():
    # m + n = 5 with all three exponent classes active
    mu, nu = (5,), (1, 1, 1, 2)
    ch = chamber_of(mu, nu)
    poly = chamber_polynomial("mixed", (1, 1, 1), ch)
    assert evaluate(poly, mu, nu) == hurwitz_disconnected(mu, nu, 1, 1, 1)


@pytest.mark.parametrize("kind,signature", [("simple", 1), ("monotone", 1), ("strict", 1), ("mixed", (1, 1, 1))])
def test_number_values_give_the_ring_series_at_the_point(kind, signature):
    # one correlator, read with polynomial or with numeric coefficients
    checked = 0
    for m, n in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)):
        space, parts = _space_for(Signature.of(kind, signature, m, n), n)
        ring = PolyRing([f"mu{i}" for i in range(1, m + 1)] + [f"nu{j}" for j in range(1, n + 1)])
        symbols = tuple(map(ring.var, ring.names))
        for ch in _chambers(m, n, dmax=6):
            mu, nu = ch.sample
            point = dict(zip(ring.names, mu + nu))
            ring_values = (symbols[:m], symbols[m:])
            exact = correlator(ch, parts, space, ring_values), prefactor(space, parts, ring_values)
            at_point = correlator(ch, parts, space, ch.sample), prefactor(space, parts, ch.sample)
            for got, factor in zip(at_point, exact):
                want = {e: c.evaluate(point) for e, c in factor.data.items()}
                assert got.data == {e: c for e, c in want.items() if c}, (mu, nu)
            checked += 1
    assert checked == 9  # every chamber with m + n <= 4


@pytest.mark.parametrize("kind,signature", [("simple", 1), ("monotone", 1), ("strict", 2), ("mixed", (1, 2, 2))])
def test_the_prefactor_is_the_product_of_lifted_s_powers(kind, signature):
    # one product of closed-form columns against one S-power column series
    # per expansion variable, with numeric and with polynomial values
    for m, n in ((1, 2), (2, 2), (3, 1)):
        space, parts = _space_for(Signature.of(kind, signature, m, n), n)
        ring = PolyRing([f"mu{i}" for i in range(1, m + 1)] + [f"nu{j}" for j in range(1, n + 1)])
        symbols = tuple(map(ring.var, ring.names))
        for ch in _chambers(m, n, dmax=6):
            for values in (ch.sample, (symbols[:m], symbols[m:])):
                pref = prefactor(space, parts, values)
                want = pref.space.one()
                for nu, signs in zip(values[1], parts):
                    for x, sign in signs.items():
                        cap = pref.space.caps[pref.space.vars.index(x)]
                        want = want * pref.space.columns({x: s_power_column((nu if sign > 0 else -nu) - 1, cap)})
                assert pref == want, (ch.sample, values)


def test_the_jump_correlator_is_the_difference_of_two_chambers():
    # every ordered pair of the four chambers of m = n = 2, read with
    # polynomial coefficients: only the differing sigma-products are
    # materialized, with their signs
    space, parts = _space_for(Signature(1, 1, 1), 2)
    ring = PolyRing(["mu1", "mu2", "nu1", "nu2"])
    symbols = tuple(map(ring.var, ring.names))
    values = (symbols[:2], symbols[2:])
    chambers = list(_chambers(2, 2, dmax=6))
    assert len(chambers) == 4
    for ch in chambers:
        corr = correlator(ch, parts, space, values)
        for other in chambers:
            if other != ch:
                jump = correlator(ch, parts, space, values, minus=other)
                assert jump == corr - correlator(other, parts, space, values)
    with pytest.raises(ValueError, match="different arrangements"):
        correlator(chambers[0], parts, space, values, minus=chamber_of((3,), (1, 2)))


def _full_product_reference(kind, signature, ch, pad):
    """The chamber polynomial as the ring series' full product, walked term
    by term with its factorial weights, then put on the shell by
    substituting mu1 and divided by the parts.  `pad` raises every
    truncation order, which must not change the polynomial."""
    m, n = ch.m, ch.n
    sig = Signature.of(kind, signature, m, n)
    p, q, r = sig
    ring = PolyRing([f"mu{i}" for i in range(1, m + 1)] + [f"nu{j}" for j in range(1, n + 1)])
    tight, parts = _space_for(sig, n)
    space = Space.of(tight.vars, [cap + pad for cap in tight.caps], [(ix, cap + pad) for ix, cap in tight.blocks])
    symbols = tuple(map(ring.var, ring.names))
    corr = correlator(ch, parts, space, (symbols[:m], symbols[m:]))
    pref = prefactor(space, parts, (symbols[:m], symbols[m:]))
    signs = {x: (symbols[m + j], sign) for j, part in enumerate(parts) for x, sign in part.items()}
    total = ring.zero()
    for e, c in (corr * pref).data.items():
        mono = dict(zip(space.vars, e))
        grade = [sum(k for v, k in mono.items() if v[0] == letter) for letter in "Xyz"]
        if grade != [p, q, r]:
            continue
        for v, k in mono.items():
            if k and v != "X":
                nu, sign = signs[v]
                c = c * factorial_column(nu, k, sign)[k]
        total = total + c
    nus = [ring.var(f"nu{j}") for j in range(1, n + 1)]
    mus = [ring.var(f"mu{i}") for i in range(2, m + 1)]
    image = sum(nus, ring.zero()) - sum(mus, ring.zero())
    total = (total * factorial(p)).substitute("mu1", image)
    for part in nus + mus + [image]:
        total = total.exact_divide(part)
    return total


# at pad 1 the reference's full products cost 90 s over the whole sweep
# (64 s on the splits of b = 4 with no genus at m + n = 5) and 3.4 s on the
# mixed b = 4 splits at m + n = 4, so pad 1 stops at m + n = 4 and b = 3
@pytest.mark.parametrize("pad,size,bmax,count", [(0, 5, 4, 1923), (1, 4, 3, 230)])
def test_chamber_polynomial_matches_the_full_product_reference(pad, size, bmax, count):
    sigs = [(kind, g) for kind in ("simple", "monotone", "strict") for g in (0, 1)]
    sigs += [("mixed", (p, q, b - p - q)) for b in range(bmax + 1) for p in range(b + 1) for q in range(b - p + 1)]
    checked = 0
    for m, n in [(m, s - m) for s in range(2, size + 1) for m in range(1, s)]:
        for ch in _chambers(m, n):
            for kind, sig in sigs:
                if not Signature.of(kind, sig, m, n).degenerate(m, n):
                    assert chamber_polynomial(kind, sig, ch) == _full_product_reference(kind, sig, ch, pad)
                    checked += 1
    assert checked == count


def _first_chambers(m: int, n: int, count: int, dmax: int) -> list:
    """The first `count` chambers met by pairs of compositions of length m
    and n of d <= dmax (by d, then lex), each with its first sample."""
    found = {}
    for d in range(max(m, n), dmax + 1):
        for mu in compositions(d, m):
            for nu in compositions(d, n):
                try:
                    ch = chamber_of(mu, nu)
                except OnWall:
                    continue
                found.setdefault(ch.key(), (ch, mu, nu))
                if len(found) == count:
                    return list(found.values())
    return list(found.values())


@pytest.mark.parametrize("m,n", [(3, 3), (2, 4), (4, 2)])
def test_chamber_polynomials_at_six_parts_match_the_character_sum(m, n):
    # no pair with d <= 6 lies off every wall at these shapes, so the
    # equality sweep never reaches them; their chambers start at d = 7 to 10
    chambers = _first_chambers(m, n, 3, 10)
    assert len(chambers) == 3
    for ch, mu, nu in chambers:
        for kind in ("simple", "monotone", "strict"):
            pqr = tuple(Signature.of(kind, 0, m, n))
            assert evaluate(chamber_polynomial(kind, 0, ch), mu, nu) == hurwitz_disconnected(mu, nu, *pqr), (kind, mu, nu)


def test_mixed_chamber_polynomials_of_few_parts_are_pinned():
    # every chamber of `verify._chambers(m, n)` with m + n <= 4 at every
    # (p, q, r) with b <= 5 (but the degenerate b = 0 at m + n = 2), pinned
    # by the sha256 of their strings: a kernel change that moves any
    # coefficient of any of these 503 polynomials fails here
    lines = []
    for m, n in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
        for ch in _chambers(m, n):
            for b in range(int(m + n == 2), 6):
                for p in range(b + 1):
                    for q in range(b - p + 1):
                        sig = (p, q, b - p - q)
                        lines.append(f"{m} {n} {ch.sample} {sig} {chamber_polynomial('mixed', sig, ch)}")
    assert len(lines) == 503
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "dcc54aac6e344653a1b3d98a79b9a7d0585babeaf55656ef2082d3c0bc359742"


def test_degenerate_signature():
    ch = chamber_of((4,), (4,))
    with pytest.raises(DegenerateSignature):
        chamber_polynomial("simple", 0, ch)


def test_signature_validation():
    ch = chamber_of((4,), (4,))
    with pytest.raises(ValueError):
        chamber_polynomial("monotone", -1, ch)
    with pytest.raises(ValueError):
        chamber_polynomial("mixed", (1, -1, 0), ch)


def test_evaluate_arity_checks():
    ch = chamber_of((3, 1), (2, 2))
    poly = chamber_polynomial("monotone", 0, ch)
    with pytest.raises(ArityMismatch):
        evaluate(poly, (3,), (2, 2))
    # the right arity at unequal sizes used to read the polynomial off its shell
    with pytest.raises(SizeMismatch):
        evaluate(chamber_polynomial("monotone", 1, ch), (99, 1), (2, 2))


def test_the_polynomial_cache_drops_its_oldest_key(monkeypatch):
    monkeypatch.setattr(wedge, "_POLY_CACHE", {})
    monkeypatch.setattr(wedge, "_POLY_CACHE_BOUND", 2)
    ch = chamber_of((3, 1), (2, 2))
    first = chamber_polynomial("monotone", 0, ch)
    chamber_polynomial("monotone", 1, ch)
    chamber_polynomial("simple", 1, ch)
    assert len(wedge._POLY_CACHE) == 2
    again = chamber_polynomial("monotone", 0, ch)
    assert again == first and again is not first


def test_parity_invalid_signature_gives_zero(monkeypatch):
    # b of the wrong parity, or below m + n - 2: off the walls no cover has
    # that many transpositions, and no series is built to say so
    def no_series(*args):
        raise AssertionError("materialize called for a signature with no genus")

    monkeypatch.setattr(wedge, "_POLY_CACHE", {})
    monkeypatch.setattr(wedge, "materialize", no_series)
    samples = [((1, 1, 7), (3, 3, 3)), ((3, 1), (2, 2)), ((1, 2), (3,)), ((5,), (1, 1, 1, 2))]
    for mu, nu in samples:
        ch = chamber_of(mu, nu)
        for pqr in [(1, 0, 0), (1, 1, 1), (3, 0, 0), (0, 0, 1), (0, 0, 0)]:
            if Signature(*pqr).genus(len(mu), len(nu)) is not None:
                continue
            poly = chamber_polynomial("mixed", pqr, ch)
            assert not poly and poly.ring.names[0] == "mu1"
            if sum(mu) <= MAX_DEGREE:
                assert evaluate(poly, mu, nu) == count_factorizations(FactorizationSpec(mu, nu, *pqr)).value


# the signatures of the swap and permutation tests: every pure kind at g <= 1
# and every mixed (p, q, r) with p + q + r <= 3
_SYMMETRY_SIGS = [(kind, g) for kind in ("simple", "monotone", "strict") for g in (0, 1)]
_SYMMETRY_SIGS += [("mixed", (p, q, b - p - q)) for b in range(4) for p in range(b + 1) for q in range(b - p + 1)]


def _shell_point(ring, m: int, n: int) -> tuple:
    """The point `chamber_polynomial` reads its chamber at: mu1 on the weight shell."""
    nus = [ring.var(f"nu{j}") for j in range(1, n + 1)]
    mus = [ring.var(f"mu{i}") for i in range(2, m + 1)]
    return (sum(nus) - sum(mus), *mus), tuple(nus)


def _orbit(pair) -> list:
    """The pair (mu, nu) under every permutation of the parts of mu and of
    nu, each followed by its swap (nu, mu), in a fixed order."""
    out = []
    for a in permutations(pair[0]):
        for b in permutations(pair[1]):
            out += [(a, b), (b, a)]
    return out


def test_swapping_mu_and_nu_reads_the_same_polynomial():
    # each side is extracted directly, the given chamber at its point and the
    # swapped chamber at the swapped point, whatever orientation
    # `chamber_polynomial` would choose
    checked = 0
    for m, n in _SMALL_SHAPES:
        for ch in _chambers(m, n):
            swap = Chamber(ch.sample[::-1])
            for kind, signature in _SYMMETRY_SIGS:
                sig = Signature.of(kind, signature, m, n)
                if sig.degenerate(m, n):
                    continue
                poly = chamber_polynomial(kind, signature, ch)
                point = _shell_point(poly.ring, m, n)
                straight = _numerator(sig, ch, point)
                assert straight == _numerator(sig, swap, point[::-1]), (kind, signature, ch.sample)
                assert straight == poly * prod(point[0]) * prod(point[1]), (kind, signature, ch.sample)
                checked += 1
    assert checked == 1218


def test_permuting_the_parts_reads_the_same_polynomial():
    # every member of the chamber's orbit under S_m x S_n and the swap is
    # extracted directly, its permuted chamber at the same permutation of the
    # point, whatever member `chamber_polynomial` would walk; m + n = 5 is
    # taken at monotone g = 0 only, which keeps the test to about 3 s
    checked = 0
    for m, n in _SMALL_SHAPES:
        sigs = _SYMMETRY_SIGS if m + n <= 4 else [("monotone", 0)]
        for ch in _chambers(m, n):
            for kind, signature in sigs:
                sig = Signature.of(kind, signature, m, n)
                if sig.degenerate(m, n):
                    continue
                poly = chamber_polynomial(kind, signature, ch)
                point = _shell_point(poly.ring, m, n)
                want = poly * prod(point[0]) * prod(point[1])
                for sample, at in zip(_orbit(ch.sample), _orbit(point)):
                    assert _numerator(sig, Chamber(sample), at) == want, (kind, signature, ch.sample, sample)
                    checked += 1
    assert checked == 2668


def test_sorted_parts_walk_the_fewest_patterns_of_the_orbit():
    # the two facts `chamber_polynomial`'s rule rests on, on the walk alone:
    # mu ascending and nu descending attains the least pattern count of the
    # chamber's orbit under S_m x S_n and the swap, and so does the sorted
    # swap, so a tie in the number of parts can walk either side
    def count(sample):
        return len(commutation_patterns(Chamber(sample)))

    checked = 0
    for m, n in _SMALL_SHAPES:
        for ch in _chambers(m, n):
            mu, nu = ch.sample
            least = min(map(count, _orbit(ch.sample)))
            assert count((sorted(mu), sorted(nu, reverse=True))) == least, ch.sample
            assert count((sorted(nu), sorted(mu, reverse=True))) == least, ch.sample
            checked += 1
    assert checked == 47


def test_chamber_polynomial_walks_its_cheaper_orientation(monkeypatch):
    # the side with fewer parts of nu (on a tie, the side whose sorted parts
    # of mu come later in lex order), with mu ascending and nu descending;
    # the output is the same either way.  The orbit index is cleared for
    # each case, since the last two samples share an orbit.
    walked = []

    def recording(chamber, *args, **kwargs):
        walked.append(chamber.sample)
        return correlator(chamber, *args, **kwargs)

    monkeypatch.setattr(wedge, "_POLY_CACHE", {})
    monkeypatch.setattr(wedge, "_ORBITS", {})
    monkeypatch.setattr(wedge, "correlator", recording)
    cases = [
        (((10,), (1, 2, 7)), ((1, 2, 7), (10,))),
        (((4, 1, 1), (3, 3)), ((1, 1, 4), (3, 3))),
        (((3, 1), (2, 2)), ((2, 2), (3, 1))),
        (((1, 3), (2, 2)), ((2, 2), (3, 1))),
    ]
    for sample, want in cases:
        wedge._ORBITS.clear()
        walked.clear()
        chamber_polynomial("monotone", 1, chamber_of(*sample))
        assert walked == [want], sample
    # the member walked on the tie has as few patterns as its swap
    assert [len(commutation_patterns(chamber_of(*s))) for s in [((2, 2), (3, 1)), ((1, 3), (2, 2))]] == [1, 1]


@pytest.fixture
def numerator_calls(monkeypatch):
    """The sample of every chamber `wedge._numerator` is called on."""
    calls = []

    def counting(*args):
        calls.append(args[1].sample)
        return _numerator(*args)

    monkeypatch.setattr(wedge, "_numerator", counting)
    return calls


def test_the_orbit_index_drops_its_oldest_key(monkeypatch, numerator_calls):
    calls = numerator_calls
    monkeypatch.setattr(wedge, "_POLY_CACHE", {})
    monkeypatch.setattr(wedge, "_ORBITS", {})
    monkeypatch.setattr(wedge, "_ORBITS_BOUND", 2)
    ch = chamber_of((3, 1), (2, 2))
    chamber_polynomial("monotone", 0, ch)
    chamber_polynomial("monotone", 1, ch)
    chamber_polynomial("simple", 1, ch)
    assert len(wedge._ORBITS) == 2 and len(calls) == 3
    # the first orbit was dropped, so another of its members builds again
    other = chamber_of((2, 2), (1, 3))
    chamber_polynomial("monotone", 0, other)
    assert len(calls) == 4 and len(wedge._ORBITS) == 2
    # a kept orbit serves another member with no build
    chamber_polynomial("simple", 1, other)
    assert len(calls) == 4


def test_an_orbit_whose_source_was_dropped_builds_again(monkeypatch, numerator_calls):
    # the orbit index still names the first chamber built, but the
    # polynomial cache has dropped that chamber's polynomial: the next
    # member builds once, becomes the orbit's source, and reads what a
    # cold build reads
    calls = numerator_calls
    monkeypatch.setattr(wedge, "_POLY_CACHE", {})
    monkeypatch.setattr(wedge, "_ORBITS", {})
    monkeypatch.setattr(wedge, "_POLY_CACHE_BOUND", 2)
    first, other, third = (chamber_of(*s) for s in [((3, 1), (2, 2)), ((2, 2), (1, 3)), ((1, 3), (2, 2))])
    chamber_polynomial("monotone", 1, first)
    chamber_polynomial("monotone", 0, first)
    chamber_polynomial("simple", 1, first)
    sig = Signature.of("monotone", 1, 2, 2)
    (orbit,) = [key for key in wedge._ORBITS if key[0] == sig]
    assert wedge._ORBITS[orbit][0] == first.key() and (sig, first.key()) not in wedge._POLY_CACHE
    assert len(calls) == 3
    got = chamber_polynomial("monotone", 1, other)
    assert len(calls) == 4 and wedge._ORBITS[orbit][0] == other.key()
    # the next member reads the new source with no build
    chamber_polynomial("monotone", 1, third)
    assert len(calls) == 4
    monkeypatch.setattr(wedge, "_POLY_CACHE", {})
    monkeypatch.setattr(wedge, "_ORBITS", {})
    assert got == chamber_polynomial("monotone", 1, other)


def test_an_orbit_costs_one_numerator(monkeypatch, numerator_calls):
    # every member of a chamber's orbit under S_m x S_n and the swap reads
    # its polynomial off the first one built, by a change of variables: one
    # `_numerator` call for the whole orbit, and each member the polynomial
    # extracted directly at its own shell point; m + n = 5 at monotone g = 0
    # only
    calls = numerator_calls
    checked = 0
    for m, n in _SMALL_SHAPES:
        sigs = [("monotone", 1), ("mixed", (1, 1, m + n - 2))] if m + n <= 4 else [("monotone", 0)]
        for ch in _chambers(m, n):
            for kind, signature in sigs:
                sig = Signature.of(kind, signature, m, n)
                if sig.degenerate(m, n):
                    continue
                monkeypatch.setattr(wedge, "_POLY_CACHE", {})
                monkeypatch.setattr(wedge, "_ORBITS", {})
                calls.clear()
                members = _orbit(ch.sample)
                got = [chamber_polynomial(kind, signature, Chamber(sample)) for sample in members]
                assert len(calls) == 1, (kind, signature, ch.sample)
                for sample, poly in zip(members, got):
                    point = _shell_point(poly.ring, len(sample[0]), len(sample[1]))
                    want = _numerator(sig, Chamber(sample), point)
                    assert want == poly * prod(point[0]) * prod(point[1]), (kind, signature, sample)
                    checked += 1
    assert checked == 1092


def test_pure_kind_is_a_spelling_of_its_budgets():
    ch = chamber_of((3, 1), (2, 2))
    for kind in ("simple", "monotone", "strict"):
        for g in (0, 1):
            pqr = tuple(Signature.of(kind, g, 2, 2))
            assert chamber_polynomial(kind, g, ch) is chamber_polynomial("mixed", pqr, ch)


def test_johnson_expand_permuted_word_with_merged_operator():
    # nu3 ahead of nu1, and mu1 merged with nu2 into one operator
    ch = chamber_of((3, 3), (4, 1, 1))
    word = (([2], []), ([1], [2]), ([], [3]), ([], [1]))
    prods = johnson_expand(ch, word)
    # sigma((mu1 - nu2) * z3 + nu3 * z2) * sigma((mu1 - nu2 - nu3) * z1 + nu1 * (z2 + z3))
    #   * sigma(mu2 * W) / sigma(W), and
    # sigma(mu2 * z3 + nu3 * 0) * sigma((mu1 - nu2) * z1 + nu1 * z2)
    #   * sigma((mu2 - nu3) * W) / sigma(W), with W = z1 + z2 + z3
    assert prods == [
        SigmaProduct(
            ((_label([1], [2]), _label([], [3])), (_label([1], [2, 3]), _label([], [1]))),
            _label([2], []),
        ),
        SigmaProduct(
            ((_label([2], []), _label([], [3])), (_label([1], [2]), _label([], [1]))),
            _label([2], [3]),
        ),
    ]
    # the same two formulas at mu = (3, 3), nu = (4, 1, 1), built by hand:
    # sigma(eF * W) / sigma(W) = eF * S(eF * W) / S(W), nu_j has the
    # argument z_j, and the label (mu1, nu2 nu3) carries the sum z2 + z3
    names = ("z1", "z2", "z3")
    space = Space.of(names, (4, 4, 4), (((0, 1, 2), 4),))
    args = [{"z1": 1}, {"z2": 1}, {"z3": 1}]

    def lin(*coeffs):
        return space.linear(dict(zip(names, coeffs)))

    W = lin(1, 1, 1)
    want = [
        sigma_of(lin(0, 1, 2)) * sigma_of(lin(1, 4, 4)) * s_of(lin(3, 3, 3)).scalar_mul(3) * s_ratio_of(W, 0, 1),
        sigma_of(lin(0, 0, 3)) * sigma_of(lin(2, 4, 0)) * s_of(lin(2, 2, 2)).scalar_mul(2) * s_ratio_of(W, 0, 1),
    ]
    got = [wedge.materialize([prod], args, space, ((3, 3), (4, 1, 1))) for prod in prods]
    assert got == want
    assert all(w != space.zero() for w in want)
    # m + n = 5, so three sigma factors, in a space of top degree 3: each
    # factor is built to degree 1 only, and the product is unchanged
    mu, nu = (5, 2), (1, 3, 3)
    space = Space.of(names, (3, 3, 3), (((0, 1, 2), 3),))

    def energy(lab):
        return sum(mu[i - 1] for i in lab[0]) - sum(nu[j - 1] for j in lab[1])

    def sigma_arg(A, B):
        # eA * arg(B) - eB * arg(A), with the argument z_j on nu_j alone
        combo = {f"z{j}": energy(A) for j in B[1]}
        for j in A[1]:
            combo[f"z{j}"] = combo.get(f"z{j}", 0) - energy(B)
        return space.linear(combo)

    W = space.linear({v: 1 for v in names})
    dropped = nonzero = 0
    for pattern in commutation_patterns(chamber_of(mu, nu)):
        assert len(pattern.factors) == 3
        sigmas = [sigma_arg(A, B) for A, B in pattern.factors]
        eF = energy(pattern.final)
        a, b, c = map(sigma_of, sigmas)
        want = a * b * c * s_of(W.scalar_mul(eF)).scalar_mul(eF) * s_ratio_of(W, 0, 1)
        assert wedge.materialize([pattern], args, space, (mu, nu)) == want
        dropped += sum(sigma_of(x, 3) != sigma_of(x) for x in sigmas)
        nonzero += want != space.zero()
    assert dropped and nonzero


def test_johnson_expand_rejects_operator_without_indices():
    ch = chamber_of((3,), (1, 2))
    with pytest.raises(ValueError):
        johnson_expand(ch, (([], []),) + standard_word(1, 2))


def test_johnson_expand_rejects_a_word_of_fewer_than_two_operators():
    ch = chamber_of((1,), (1,))
    with pytest.raises(ValueError):
        johnson_expand(ch, (([1], [1]),))
    with pytest.raises(ValueError):
        johnson_expand(ch, ())


def _composition(draw, d, k):
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=k - 1, max_size=k - 1))) if k > 1 else []
    bounds = [0] + cuts + [d]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def _generic_instances(draw):
    """(mu, nu, (p, q, r)): d <= 10, m + n <= 4, b <= m + n, a valid genus."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 - m))
    d = draw(st.integers(max(m, n), 10))
    mu, nu = _composition(draw, d, m), _composition(draw, d, n)
    b = draw(st.sampled_from([b for b in range(m + n + 1) if (m + n - b) in (0, 2) and (b, m + n) != (0, 2)]))
    p = draw(st.integers(0, b))
    q = draw(st.integers(0, b - p))
    return mu, nu, (p, q, b - p - q)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_generic_instances())
def test_chamber_route_on_generic_compositions(instance):
    # the chamber value is the character sum, and mu <-> nu leaves it fixed
    mu, nu, pqr = instance
    sig = Signature(*pqr)
    assert sig.genus(len(mu), len(nu)) is not None and not sig.degenerate(len(mu), len(nu))
    try:
        ch = chamber_of(mu, nu)
    except OnWall:
        assume(False)
    value = evaluate(chamber_polynomial("mixed", pqr, ch), mu, nu)
    assert value == hurwitz_disconnected(mu, nu, *pqr)
    assert evaluate(chamber_polynomial("mixed", pqr, chamber_of(nu, mu)), nu, mu) == value
