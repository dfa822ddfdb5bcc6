"""Acceptance gate: ten exact checks, one per criterion, zero tolerances.

Each test prints a single `[criterion NN] PASS/FAIL` line.  Criterion 3
compares the constant term of monotone chamber polynomials against the
closed form -(2g-3+m+n)! (2g-1) B_{2g} / (2g)!, and separately recovers the
same constants by exact interpolation of character sums alone, with no
chamber route involved.  Every criterion is expected green.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from hurwitz.algebra import PolyRing, bernoulli, s_power_column
from hurwitz.charactereval import hurwitz_connected_simple, hurwitz_disconnected
from hurwitz.oracle import FactorizationSpec, count_factorizations
from hurwitz.partitions import partitions
from hurwitz.verify import (
    _WC_SAMPLES,
    suite_constant_term,
    suite_conventions,
    suite_degree,
    suite_equality,
    suite_tau,
)
from hurwitz.wallcross import WallCrossingProblem, verify_wallcrossing
from hurwitz.wedge import OnWall, Wall, chamber_of


def _check(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}")
    assert ok, f"criterion {num}: {label}\n{detail}"


def test_criterion_01_three_way_equality():
    rep = suite_equality(dmax=5, bmax=4)
    _check(
        1,
        f"oracle == character == chamber on d <= 5, p+q+r <= 4 ({rep['count']} instances)",
        rep["ok"],
        "\n".join(rep["failures"][:20]),
    )


def test_criterion_02_degree_bound():
    rep = suite_degree()
    _check(
        2,
        f"chamber-polynomial total degree <= 4g - 3 + m + n ({rep['count']} polynomials)",
        rep["ok"],
        "\n".join(rep["failures"][:20]),
    )


def _solve_overdetermined(rows, rhs):
    """Exact Gauss-Jordan elimination on an overdetermined system.

    Returns (full_rank, consistent, solution); the solution is None unless
    the columns are independent.
    """
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncol = len(rows[0])
    rank = 0
    for c in range(ncol):
        piv = next((i for i in range(rank, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        lead = aug[rank][c]
        aug[rank] = [x / lead for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        rank += 1
    consistent = all(row[-1] == 0 for row in aug[rank:])
    full = rank == ncol
    return full, consistent, [aug[i][-1] for i in range(ncol)] if full else None


def _one_part_interpolation_rows(g, n):
    """The linear system that interpolates the monotone counts h((|nu|), nu),
    n = len(nu) in {1, 2}, at genus g from character sums alone: a polynomial
    in nu of total degree at most 4g - 3 + 1 + n, on a grid of positive nu
    with more points than unknowns.  Returns (monomials, points, rows, rhs)."""
    deg = 4 * g - 2 + n
    q = 2 * g - 1 + n
    if n == 1:
        mons = [(a,) for a in range(deg + 1)]
        pts = [(x,) for x in range(1, deg + 4)]
    else:
        mons = [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
        top = deg + 3
        pts = [(x, y) for x in range(1, top) for y in range(1, top - x + 1)]
    rows = [[prod(Fraction(x) ** a for x, a in zip(pt, e)) for e in mons] for pt in pts]
    rhs = [hurwitz_disconnected((sum(pt),), pt, 0, q, 0) for pt in pts]
    return mons, pts, rows, rhs


def test_criterion_03_monotone_constant_term():
    """The monotone one-part constant term is -(2g-3+m+n)! (2g-1) B_{2g}/(2g)!
    for every chamber with (m, n) in {(1,1), (1,2), (2,1)} and g <= 2 (at
    (g, m+n) = (0, 2) the form is undefined and no polynomial exists).  The
    constants for (1,1) and (1,2) at g in {1, 2} are also recovered from
    character sums alone, by interpolation on an overdetermined grid.
    """
    rep = suite_constant_term()
    ok, rows = rep["ok"], list(rep["failures"])
    for g in (1, 2):
        for n in (1, 2):
            mons, pts, sys_rows, rhs = _one_part_interpolation_rows(g, n)
            full, consistent, sol = _solve_overdetermined(sys_rows, rhs)
            want = (
                -factorial(2 * g - 2 + n) * (2 * g - 1) * bernoulli(2 * g) / factorial(2 * g)
            )
            got = sol[mons.index((0,) * n)] if full else None
            good = len(pts) > len(mons) and full and consistent and got == want
            ok = ok and good
            if not good:
                rows.append(
                    f"interpolation g={g} (m,n)=(1,{n}): {len(pts)} points, "
                    f"{len(mons)} unknowns, full rank {full}, consistent {consistent}, "
                    f"constant {got}, closed form {want}"
                )
    _check(
        3,
        f"monotone constant term equals -(2g-3+m+n)! (2g-1) B_{{2g}}/(2g)! "
        f"(g <= 2, {rep['count']} instances; character-sum interpolation agrees)",
        ok,
        "\n".join(rows),
    )


def test_criterion_04_bernoulli_identity():
    ring = PolyRing(("nu",))
    ok, rows = True, []
    for g in (1, 2, 3):
        cp = s_power_column(ring.var("nu") - 2, 2 * g - 2)[2 * g - 2]
        got = cp.evaluate({"nu": Fraction(0)}) if not isinstance(cp, Fraction) else cp
        want = -(2 * g - 3) * bernoulli(2 * g - 2) / factorial(2 * g - 2)
        rows.append(f"g={g}: [z^{2 * g - 2}] S^(nu-2) |_(nu=0) = {got}, closed form {want}")
        ok = ok and got == want
    _check(4, "[z^{2g-2}] S(z)^{nu-2} at nu=0 equals -(2g-3) B_{2g-2}/(2g-2)!, g <= 3", ok, "\n".join(rows))


def test_criterion_05_one_part_specialization():
    ok, rows = True, []
    for d in range(1, 7):
        for kind, pqr in [("simple", (0, 0, 0)), ("monotone", (0, 0, 0)), ("strict", (0, 0, 0))]:
            a = count_factorizations(FactorizationSpec((d,), (d,), *pqr)).value
            c = hurwitz_disconnected((d,), (d,), *pqr)
            rows.append(f"d={d} {kind}: oracle={a} character={c} expected 1/{d}")
            ok = ok and a == c == Fraction(1, d)
    _check(5, "h((d),(d)) at genus 0 equals 1/d for d <= 6, all pure kinds, both routes", ok, "\n".join(rows))


def _wallcross_runs(runs):
    wall = Wall((1,), (1,), 2, 2)
    c2 = chamber_of((3, 1), (2, 2))
    c1 = chamber_of((2, 2), (3, 1))
    ok, rows = True, []
    for kind, sig in runs:
        problem = WallCrossingProblem(wall, c1, c2, kind, sig)
        rep = verify_wallcrossing(problem, _WC_SAMPLES)
        for s in rep["samples"]:
            rows.append(
                f"{kind} sig={sig} mu={tuple(s['mu'])} nu={tuple(s['nu'])} delta={s['delta']}: "
                + ("equal" if s["equal"] else f"MISMATCH {s['first_mismatch']}")
            )
        ok = ok and rep["ok"]
    return ok, rows


def test_criterion_06_wallcrossing_pure():
    ok, rows = _wallcross_runs([("monotone", 0), ("monotone", 1), ("strict", 0), ("strict", 1)])
    _check(
        6,
        "wall mu1=nu1 (m=n=2): series jump == delta^2 * prefactor * split product, "
        "monotone and strict, g in {0,1}, 6 samples",
        ok,
        "\n".join(rows),
    )


def test_criterion_07_wallcrossing_mixed():
    ok, rows = _wallcross_runs([("mixed", (1, 1, 0))])
    _check(7, "same harness for the mixed split (p,q,r) = (1,1,0) at g=0, m=n=2", ok, "\n".join(rows))


def test_criterion_08_tau_coefficients():
    rep = suite_tau()
    _check(
        8,
        f"hypergeometric coefficients: two expansions agree and the dictionary "
        f"reproduces monotone/strict counts ({rep['count']} instances)",
        rep["ok"],
        "\n".join(rep["failures"][:20]),
    )


def test_criterion_09_convention_cross_check():
    rep = suite_conventions(dmax=5, bmax=4)
    _check(
        9,
        f"smaller-element and larger-element weak chains count identically, d <= 5 "
        f"({rep['count']} instances)",
        rep["ok"],
        "\n".join(rep["failures"][:20]),
    )


def test_criterion_10_connected_disconnected():
    ok, rows = True, []
    for d in range(1, 6):
        for mu in partitions(d):
            for nu in partitions(d):
                m, n = len(mu), len(nu)
                for b in range(5):
                    if (b - m - n) % 2 or b < m + n - 2:
                        continue
                    g = (b - m - n + 2) // 2
                    conn = hurwitz_connected_simple(mu, nu, g)
                    trans = count_factorizations(
                        FactorizationSpec(mu, nu, b, 0, 0, connected=True)
                    ).value
                    if conn != trans:
                        ok = False
                        rows.append(f"recursion vs transitive oracle: mu={mu} nu={nu} g={g}: {conn} != {trans}")
                    try:
                        chamber_of(mu, nu)
                    except OnWall:
                        continue
                    disc = hurwitz_disconnected(mu, nu, b, 0, 0)
                    if conn != disc:
                        ok = False
                        rows.append(f"off-wall split-freeness: mu={mu} nu={nu} g={g}: {conn} != {disc}")
    _check(
        10,
        "connected == transitive oracle (d <= 5), and connected == disconnected off every wall",
        ok,
        "\n".join(rows[:20]),
    )
