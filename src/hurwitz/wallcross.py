"""Wall-crossing: chamber-polynomial differences and the recursive product
formula for the refined generating series.

The refined series for a numeric profile pair (mu, nu) keeps one marker
variable per part of nu and per monotone or strict block, grading how
many of that block's transpositions touch that part, times the operator
correlator in the expansion variables (blocks from `wedge.BLOCKS`).  Crossing
the wall mu_I = nu_J, the jump of the series factors — up to an explicit
prefactor, pole-free after rewriting every sigma as (linear form) * S — into
the product of the refined series of the two split profiles, with delta =
mu_I - nu_J joining one profile on each side.

The series is linear in its correlator, so the jump is one series: the
commutation patterns both chambers share give the same sigma-products and
cancel, and only those that differ across the wall are materialized.  The
rest of a refined series is its unit, the S-power prefactor times the
marker series (constant term 1), and the norm 1/(prod mu prod nu).  The
jump's unit is the product of the two split sides' units, so the formula
is checked on correlators and norms alone; the unit is multiplied in only
to report a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Optional, Union

from .algebra import Space, TruncSeries, factorial_column, s_ratio_of
from .partitions import PURE_KINDS, Signature, check_integer, check_profiles
from .wedge import ArityMismatch, Chamber, Wall, chamber_of, chamber_polynomial, correlator, prefactor, walls
from .wedge import BLOCKS, FREE, expansion_parts


class InvalidSplit(ValueError):
    """delta = mu_I - nu_J is not positive where it has to be."""


# a pure kind opens its own block (`PURE_KINDS` is in `BLOCKS` order), mixed all three, even at (1, 1, 0)
_OPENS = dict(zip(PURE_KINDS, zip(BLOCKS)), mixed=BLOCKS)


@dataclass
class WallCrossingProblem:
    wall: Wall
    c1: Chamber
    c2: Chamber
    kind: str  # simple | monotone | strict | mixed
    signature: Union[int, tuple]  # genus, or (p, q, r) for mixed
    budgets: Signature = field(init=False)
    blocks: tuple = field(init=False)

    def __post_init__(self):
        self.budgets = Signature.of(self.kind, self.signature, self.c1.m, self.c1.n)
        self.blocks = _OPENS[self.kind]
        if (self.c1.m, self.c1.n) != (self.c2.m, self.c2.n):
            raise ValueError("chambers live in different arrangements")
        if (self.wall.m, self.wall.n) != (self.c1.m, self.c1.n):
            raise ValueError("wall belongs to a different arrangement")
        for w in walls(self.c1.m, self.c1.n):
            if w != self.wall and self.c1.sign(w) != self.c2.sign(w):
                raise ValueError("chambers are not adjacent across the wall")
        if self.c1.key() != self.c2.key():
            if self.c2.sign(self.wall) != 1 or self.c1.sign(self.wall) != -1:
                raise InvalidSplit("need delta < 0 on c1 and delta > 0 on c2")


def wallcrossing_polynomial(problem: WallCrossingProblem):
    """P_{c2} - P_{c1} for the problem's kind and signature."""
    p2 = chamber_polynomial(problem.kind, problem.signature, problem.c2)
    p1 = chamber_polynomial(problem.kind, problem.signature, problem.c1)
    return p2 - p1


# -- refined generating series ----------------------------------------------------


def _space(blocks, n: int, order: int) -> Space:
    """The numeric space of the markers of the opened blocks, then their
    expansion variables, all under one total order."""
    names = [f"{b.marker}{j}" for b in blocks if b.marker for j in range(1, n + 1)]
    names += dict.fromkeys(b.var(j) for b in blocks for j in range(1, n + 1))  # X once
    return Space.of(names, (order,) * len(names), ((tuple(range(len(names))), order),))


def _markers(blocks, nu, index, space, order) -> TruncSeries:
    """The marker series of every indexed part of nu, as one series.

    Each marker variable carries its block's factorial column of its part's
    value, so the coefficient at e is the product of the columns at e's
    exponents, kept while the total order stays within `order`.
    """
    markers = [b for b in blocks if b.marker]
    # the delta part (index None) is extracted at marker power 0: no column
    return space.columns(
        {f"{b.marker}{j}": factorial_column(v, order, b.sign) for v, j in zip(nu, index) if j is not None for b in markers}
    )


def _unit(blocks, mu, nu, index, space, order) -> TruncSeries:
    """The S-power prefactor (`wedge.prefactor`) times the marker series of
    the indexed parts of nu: the factor of a refined series that no chamber
    changes.  Its constant term is 1, so it is a unit of the truncated
    ring, and on the parts of a split it is the product of the two sides'
    (the delta part, index None, has no columns in either)."""
    return prefactor(space, expansion_parts(blocks, index), (mu, nu)) * _markers(blocks, nu, index, space, order)


def _h_series(blocks, mu, nu, index, space, chamber=None):
    """The refined series of one (possibly split) profile, in ambient vars,
    without its unit (`_unit`): the correlator (`wedge.correlator`) over
    prod mu prod nu.

    mu, nu: the parts, the delta part included on a split side.
    index: each nu-part's parent index j (vars tj/uj/yj/zj), in profile
    order; None marks the delta part, which carries no markers and no
    expansion variables of its own.
    """
    ch = chamber if chamber is not None else chamber_of(mu, nu)
    corr = correlator(ch, expansion_parts(blocks, index), space, (mu, nu))
    return corr.scalar_mul(Fraction(1, prod(mu) * prod(nu)))


def refined_series(kind: str, mu, nu, order: int, chamber: Optional[Chamber] = None) -> TruncSeries:
    """The refined generating series of (mu, nu), truncated at total order.

    Variables, by the blocks of `wedge.BLOCKS` the kind opens: X alone for
    simple; markers t1..tn and y1..yn for monotone; markers u1..un and
    z1..zn for strict; t, u, X, y, z for mixed, so a pure kind's series is
    the mixed one at 0 in the other blocks' variables.  `chamber` overrides
    the sample's own chamber, which is how the series is continued across a
    wall; a profile whose (m, n) is not the chamber's raises
    `ArityMismatch`.  An unknown kind or a negative order raises
    `ValueError`, as does an order that is not an integer.
    """
    blocks = _OPENS.get(kind)
    if blocks is None:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(_OPENS)}")
    order = check_integer(order, "order")
    if order < 0:
        raise ValueError(f"order must be at least 0, got {order}")
    mu, nu = check_profiles(mu, nu)
    if chamber is not None and (chamber.m, chamber.n) != (len(mu), len(nu)):
        raise ArityMismatch(f"expected profiles of lengths {chamber.m}, {chamber.n}")
    space = _space(blocks, len(nu), order)
    index = range(1, len(nu) + 1)
    return _h_series(blocks, mu, nu, index, space, chamber) * _unit(blocks, mu, nu, index, space, order)


# -- the recursive product formula -------------------------------------------------


def _crossing_prefactor(blocks, J, nu, delta, space) -> TruncSeries:
    """delta^2 * sigma-ratio, as the pole-free S-series times the scalar delta.

    Every sigma(L) is L * S(L); the linear forms of numerator and denominator
    cancel exactly up to one factor of delta, which combines with delta^2.
    What is left is three quotients S(aL)/S(bL) (`s_ratio_of`), on
    L_J = the J-side form shifted by delta in X, L_Jc and L_all, with no
    series inverted.  J is the wall's nu-side index tuple.
    """
    n = len(nu)
    Jc = [j for j in range(1, n + 1) if j not in J]

    def form(ixs, xshift=0):
        out = dict.fromkeys((b.var(j) for j in ixs for b in blocks if b.sign), 1)
        if FREE in blocks:
            out[FREE.letter] = xshift + sum(nu[j - 1] for j in ixs)
        return space.linear(out)

    return (
        s_ratio_of(form(range(1, n + 1)), delta, 1)
        * s_ratio_of(form(J, delta), 1, delta)
        * s_ratio_of(form(Jc), 1, delta)
    ).scalar_mul(delta)


def verify_wallcrossing(problem: WallCrossingProblem, samples) -> dict:
    """Check the product formula at each sample, coefficient by coefficient.

    The left side is the jump of the refined series across the wall — the
    c2-chamber series minus the c1-chamber continuation at the same profile
    — built as one series from the sigma-products that differ across the
    wall (`wedge.correlator` with `minus=c1`).  A problem whose two
    chambers coincide crosses no wall and raises `InvalidSplit`.
    The right side multiplies the two split refined series (with the delta
    slot's markers extracted at power zero and its arguments set to zero)
    by the pole-free prefactor, truncated at total order b = p + q + r.

    Each refined series is its correlator over its parts times its unit
    (`_unit`: the S-power prefactor and the markers), and the left side's
    unit is the product of the two split sides' (the same parts of nu; the
    delta part has none).  A unit's constant term is 1, and multiplying by
    a unit of the truncated ring is injective, so both sides are compared
    with it cancelled: on correlators alone, with the same verdict.  Only
    an unequal sample multiplies both sides by the unit, so that its first
    mismatch reads the refined series' own coefficients.
    """
    if problem.c1.key() == problem.c2.key():
        raise InvalidSplit("the problem crosses no wall")
    order = problem.budgets.b
    blocks = problem.blocks
    wall = problem.wall
    samples = list(samples)
    if not samples:
        raise ValueError("verify_wallcrossing needs at least one sample")
    m, n = problem.c2.m, problem.c2.n
    space = _space(blocks, n, order)
    full = tuple(range(1, n + 1))
    Ic = tuple(i for i in range(1, m + 1) if i not in wall.I)
    Jc = tuple(j for j in full if j not in wall.J)
    parts = expansion_parts(blocks, full)
    report = {"wall": str(wall), "kind": problem.kind, "order": order, "samples": [], "ok": True}
    for mu, nu in samples:
        ch = chamber_of(mu, nu)  # checks the profiles; raises OnWall on a wall
        mu, nu = ch.sample
        if ch.key() != problem.c2.key():
            raise InvalidSplit(f"sample {(mu, nu)} is not in the delta > 0 chamber")
        delta = wall.value(mu, nu)
        if delta <= 0:
            raise InvalidSplit(f"delta = {delta} at {(mu, nu)}")

        jump = correlator(problem.c2, parts, space, (mu, nu), minus=problem.c1)
        lhs = jump.scalar_mul(Fraction(1, prod(mu) * prod(nu)))
        nu_J = [nu[j - 1] for j in wall.J] + [delta]
        f1 = _h_series(blocks, [mu[i - 1] for i in wall.I], nu_J, wall.J + (None,), space)
        f2 = _h_series(blocks, [mu[i - 1] for i in Ic] + [delta], [nu[j - 1] for j in Jc], Jc, space)
        rhs = _crossing_prefactor(blocks, wall.J, nu, delta, space) * f1 * f2

        entry = {
            "mu": list(mu),
            "nu": list(nu),
            "delta": str(delta),
            "equal": lhs == rhs,
            "first_mismatch": None,
        }
        if not entry["equal"]:
            unit = _unit(blocks, mu, nu, full, space, order)
            lhs, rhs = lhs * unit, rhs * unit
            e = min((lhs - rhs).data, key=lambda e: (sum(e), e))
            monomial = dict(zip(space.vars, e))
            entry["first_mismatch"] = {
                "monomial": monomial,
                "left": str(lhs.coeff(monomial)),
                "right": str(rhs.coeff(monomial)),
            }
            report["ok"] = False
        report["samples"].append(entry)
    return report
