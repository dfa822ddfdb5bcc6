"""Verification suites: each one sweeps a family of identities at desk scale
and reports every compared instance.  A suite passes only if every instance
agrees exactly (rational arithmetic, no tolerances).

Suites: equality (three computation routes agree), degree (chamber-polynomial
degree bound), constant-term (lowest coefficient of the monotone chamber
polynomial against its closed form), wallcross (the recursive product formula
across a wall), tau (hypergeometric series coefficients two ways, plus the
dictionary back to monotone/strict counts), conventions (the two monotonicity
conventions agree on symmetric-group counts).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import bernoulli
from .charactereval import (
    hurwitz_connected_simple,
    hurwitz_disconnected,
    tau_dictionary_value,
    box_product,
    tau_series_factored,
)
from .oracle import BoundExceeded, FactorizationSpec, count_factorizations
from .partitions import Signature, compositions, partitions
from .wallcross import WallCrossingProblem, verify_wallcrossing
from .wedge import (
    DegenerateSignature,
    OnWall,
    Wall,
    chamber_of,
    chamber_polynomial,
    evaluate,
)


def fraction_text(x) -> str:
    """An exact rational as "num/den", so that no reader ever rounds it."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


class Unsupported(ValueError):
    """A connected count that the chosen method has no route for."""


def count(spec: FactorizationSpec, method: str) -> Fraction:
    """The count of `spec` by the route named "oracle", "character" or "chamber";
    the one place that picks a route.  Connected counts exist on the oracle,
    and on the character route when q = r = 0 (0 with no integer genus, as on
    the oracle); any other connected query raises Unsupported."""
    mu, nu, p, q, r = spec.mu, spec.nu, spec.p, spec.q, spec.r
    if method == "oracle":
        return count_factorizations(spec).value
    if method == "character":
        if not spec.connected:
            return hurwitz_disconnected(mu, nu, p, q, r)
        if q or r:
            raise Unsupported("connected counts by the character route need q = r = 0")
        g = spec.genus()
        return Fraction(0) if g is None else hurwitz_connected_simple(mu, nu, g)
    if method == "chamber":
        if spec.connected:
            raise Unsupported("the chamber route has no connected counts")
        return evaluate(chamber_polynomial("mixed", (p, q, r), chamber_of(mu, nu)), mu, nu)
    raise ValueError(f"unknown method {method!r}")


def _fmt_or_none(x, missing: str) -> str:
    return missing if x is None else fraction_text(x)


def _guard(dmax: int, bmax: int) -> None:
    if dmax < 1 or bmax < 0:
        raise ValueError(f"suite bounds dmax={dmax}, bmax={bmax} leave nothing to compare: need dmax >= 1, bmax >= 0")
    if dmax > 6 or bmax > 5:
        raise BoundExceeded(f"suite bounds dmax={dmax}, bmax={bmax} exceed the desk scale (6, 5)")


def _report(suite: str, instances, failures) -> dict:
    """The suite's record; a sweep that compared nothing raises ValueError
    rather than passing."""
    if not instances:
        raise ValueError(f"suite {suite} compared no instances")
    return {
        "suite": suite,
        "count": len(instances),
        "instances": instances,
        "failures": failures,
        "ok": not failures,
    }


def suite_equality(dmax: int = 5, bmax: int = 4) -> dict:
    """Oracle, character sums, and chamber polynomials agree pointwise."""
    _guard(dmax, bmax)
    instances, failures = [], []
    splits = [
        (p, q, r)
        for t in range(bmax + 1)
        for p in range(t + 1)
        for q in range(t - p + 1)
        for r in [t - p - q]
    ]

    def compare(d, mu, nu, p, q, r, methods):
        spec = FactorizationSpec(mu, nu, p, q, r)
        a, b = (count(spec, method) for method in methods)
        line = f"d={d} mu={mu} nu={nu} pqr=({p},{q},{r}): {methods[0]}={a} {methods[1]}={b}"
        instances.append(line)
        if a != b:
            failures.append(line)

    for d in range(1, dmax + 1):
        parts = list(partitions(d))
        for mu in parts:
            for nu in parts:
                m, n = len(mu), len(nu)
                for p, q, r in splits:
                    if Signature(p, q, r).genus(m, n) is not None:
                        compare(d, mu, nu, p, q, r, ("oracle", "character"))
        # chamber-polynomial route, on composition pairs off every wall
        for mu in compositions(d):
            for nu in compositions(d):
                m, n = len(mu), len(nu)
                for p, q, r in splits:
                    sig = Signature(p, q, r)
                    if sig.genus(m, n) is None or sig.degenerate(m, n):
                        continue  # a zero count, or no polynomial
                    try:
                        compare(d, mu, nu, p, q, r, ("character", "chamber"))
                    except OnWall:
                        break  # the pair lies on a wall: no chamber holds it
    return _report("equality", instances, failures)


def _chambers(m: int, n: int, dmax: int = 8):
    """One Chamber per sign vector met by composition pairs of size up to
    `dmax`: a sample, which at dmax = 8 misses most (2, 4) and all (3, 3) chambers."""
    seen = {}
    for d in range(max(m, n), dmax + 1):
        for mu in compositions(d, m):
            for nu in compositions(d, n):
                try:
                    ch = chamber_of(mu, nu)
                except OnWall:
                    continue
                seen.setdefault(ch.key(), ch)
    return [seen[k] for k in sorted(seen)]


def suite_degree() -> dict:
    """Total degree of every chamber polynomial is at most 4g - 3 + m + n."""
    cases = [(0, 1, 2), (0, 1, 3), (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 1)]
    instances, failures = [], []
    for g, m, n in cases:
        b = Signature.of("simple", g, m, n).b
        bound = 4 * g - 3 + m + n
        sigs = [("simple", g), ("monotone", g), ("strict", g)]
        sigs += [
            ("mixed", (p, q, b - p - q)) for p in range(b + 1) for q in range(b - p + 1)
        ]
        for ch in _chambers(m, n):
            for kind, sig in sigs:
                poly = chamber_polynomial(kind, sig, ch)
                deg = poly.total_degree()
                line = f"(g,m,n)=({g},{m},{n}) {kind} {sig} chamber={ch.sample}: degree {deg} <= {bound}"
                instances.append(line)
                if deg > bound:
                    failures.append(line)
    return _report("degree", instances, failures)


def _closed_form_constant(g: int, m: int, n: int) -> Fraction | None:
    """-(2g-3+m+n)! (2g-1) B_{2g} / (2g)!, that is (2g-3+m+n)! [z^{2g}] S(z)^{-2};
    None where the factorial is undefined, (g, m+n) = (0, 2)."""
    k = Signature.of("monotone", g, m, n).b - 1  # 2g - 3 + m + n
    if k < 0:
        return None
    return -factorial(k) * (2 * g - 1) * bernoulli(2 * g) / factorial(2 * g)


def suite_constant_term(g=None) -> dict:
    """Constant term of the monotone chamber polynomial vs its closed form.

    The suite compares the computed constant against the closed form
    -(2g-3+m+n)! (2g-1) B_{2g} / (2g)!, symmetric in m and n, which is
    (m+n-3)! at genus zero.  At (g, m+n) = (0, 2) the form is undefined and
    no polynomial exists: that instance passes only if chamber_polynomial
    raises DegenerateSignature.  Each instance is reported; mismatches fail
    the suite.
    """
    genera = [g] if g is not None else [0, 1, 2]
    instances, failures = [], []
    for gg in genera:
        for m, n in [(1, 1), (1, 2), (2, 1)]:
            want = _closed_form_constant(gg, m, n)
            for ch in _chambers(m, n):
                try:
                    got = chamber_polynomial("monotone", gg, ch).constant_term()
                except DegenerateSignature:
                    got = None
                line = (
                    f"g={gg} (m,n)=({m},{n}) chamber={ch.sample}: "
                    f"constant {_fmt_or_none(got, 'DegenerateSignature')}, "
                    f"closed form {_fmt_or_none(want, 'undefined')}"
                )
                instances.append(line)
                if got != want:
                    failures.append(line)
    return _report("constant-term", instances, failures)


_WC_SAMPLES = [
    ((3, 1), (2, 2)),
    ((4, 1), (3, 2)),
    ((4, 2), (3, 3)),
    ((5, 2), (4, 3)),
    ((5, 3), (4, 4)),
    ((5, 1), (3, 3)),
]


def suite_wallcross() -> dict:
    """The recursive product formula across the wall mu1 = nu1 at m = n = 2."""
    wall = Wall(I=(1,), J=(1,), m=2, n=2)
    c2 = chamber_of((3, 1), (2, 2))
    c1 = chamber_of((2, 2), (3, 1))
    runs = [
        ("monotone", 0),
        ("monotone", 1),
        ("strict", 0),
        ("strict", 1),
        ("mixed", (1, 1, 0)),
    ]
    instances, failures = [], []
    for kind, sig in runs:
        problem = WallCrossingProblem(wall, c1, c2, kind, sig)
        rep = verify_wallcrossing(problem, _WC_SAMPLES)
        for s in rep["samples"]:
            line = (
                f"{kind} sig={sig} wall[{wall}] sample mu={tuple(s['mu'])} nu={tuple(s['nu'])} "
                f"delta={s['delta']} order={rep['order']}: {'equal' if s['equal'] else 'MISMATCH ' + str(s['first_mismatch'])}"
            )
            instances.append(line)
            if not s["equal"]:
                failures.append(line)
    return _report("wallcross", instances, failures)


def suite_tau(dmax: int = 4, bmax: int = 3) -> dict:
    """Hypergeometric coefficients two ways, and the Hurwitz dictionary."""
    _guard(dmax, bmax)
    instances, failures = [], []
    for nn in range(1, dmax + 1):
        for lam in partitions(nn):
            a = box_product(lam, (bmax,), (bmax,))
            bseries = tau_series_factored(lam, (bmax,), (bmax,))
            ok = a == bseries
            line = f"lambda={lam}: per-box product == factored-moment series ({'ok' if ok else 'MISMATCH'})"
            instances.append(line)
            if not ok:
                failures.append(line)
        for mu in partitions(nn):
            for nu in partitions(nn):
                m, n = len(mu), len(nu)
                for qq in range(bmax + 1):
                    for rr in range(bmax + 1 - qq):
                        if Signature(0, qq, rr).genus(m, n) is None:
                            continue
                        lhs = tau_dictionary_value(mu, nu, qq, rr)
                        rhs = hurwitz_disconnected(mu, nu, 0, qq, rr)
                        line = f"n={nn} mu={mu} nu={nu} (q,r)=({qq},{rr}): dictionary={lhs} direct={rhs}"
                        instances.append(line)
                        if lhs != rhs:
                            failures.append(line)
    return _report("tau", instances, failures)


def suite_conventions(dmax: int = 5, bmax: int = 4) -> dict:
    """Counts with the weak chains keyed on the smaller element of each
    transposition equal the counts keyed on the larger element."""
    _guard(dmax, bmax)
    instances, failures = [], []
    for d in range(1, dmax + 1):
        parts = list(partitions(d))
        for mu in parts:
            for nu in parts:
                m, n = len(mu), len(nu)
                for q in range(1, bmax + 1):
                    if Signature(0, q, 0).genus(m, n) is None:
                        continue
                    spec = FactorizationSpec(mu, nu, 0, q, 0)
                    a = count_factorizations(spec, convention="smaller").value
                    b = count_factorizations(spec, convention="larger").value
                    line = f"d={d} mu={mu} nu={nu} q={q}: smaller={a} larger={b}"
                    instances.append(line)
                    if a != b:
                        failures.append(line)
    return _report("conventions", instances, failures)


SUITES = {
    "equality": suite_equality,
    "degree": suite_degree,
    "constant-term": suite_constant_term,
    "wallcross": suite_wallcross,
    "tau": suite_tau,
    "conventions": suite_conventions,
}
