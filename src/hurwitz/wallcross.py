"""Wall-crossing: chamber-polynomial differences and the recursive product
formula for the refined generating series.

The refined series for a numeric profile pair (mu, nu) keeps one marker
variable per part of nu grading how many of the constrained transpositions
touch that part, times the operator correlator in the z-variables.  Crossing
the wall mu_I = nu_J, the jump of the series factors — up to an explicit
prefactor, pole-free after rewriting every sigma as (linear form) * S — into
the product of the refined series of the two split profiles, with delta =
mu_I - nu_J joining one profile on each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Optional, Union

from .algebra import TruncSeries, s_inverse_of, s_of
from .partitions import Signature, check_composition
from .wedge import Chamber, Wall, chamber_of, chamber_polynomial, generating_series, walls


class InvalidSplit(ValueError):
    """delta = mu_I - nu_J is not positive where it has to be."""


# The refined series of each kind, per nu-part j of value v: each marker
# variable (letter + j) carries sum_k v (v + step) ... (v + (k-1) step) *
# marker^k, the rising factorial for step 1 and the falling one for step -1,
# and each expansion variable carries S^(sign * v - 1) and the operator
# argument 1.  The mixed kind also has the variable X.
_SERIES = {
    "monotone": ({"u": 1}, {"z": 1}),
    "strict": ({"u": -1}, {"z": -1}),
    "mixed": ({"t": 1, "u": -1}, {"y": 1, "z": -1}),
}


@dataclass
class WallCrossingProblem:
    wall: Wall
    c1: Chamber
    c2: Chamber
    kind: str  # monotone | strict | mixed
    signature: Union[int, tuple]  # genus, or (p, q, r) for mixed
    budgets: Signature = field(init=False)

    def __post_init__(self):
        if self.kind not in _SERIES:
            raise ValueError(f"unknown kind {self.kind!r}")
        self.budgets = Signature.of(self.kind, self.signature, self.c1.m, self.c1.n)
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


def _space(kind: str, n: int, order: int):
    markers, expansions = _SERIES[kind]
    names = [f"{x}{j}" for x in markers for j in range(1, n + 1)]
    names += ["X"] if kind == "mixed" else []
    names += [f"{x}{j}" for x in expansions for j in range(1, n + 1)]
    caps = (order,) * len(names)
    blocks = ((tuple(range(len(names))), order),)
    return tuple(names), caps, blocks


@dataclass(frozen=True)
class _Slot:
    """One nu-part of a split profile inside the ambient variable space.

    `index` is the parent index j (vars uj/zj/tj/yj); None marks the delta
    part, which carries no markers and no expansion variables of its own.
    """

    value: Fraction
    index: Optional[int]


def _h_series(kind, mu_parts, slots, space, order, chamber=None):
    """The refined series of one (possibly split) profile, in ambient vars.

    mu_parts: the mu-side parts (Fractions; may include the delta part).
    slots: nu-side _Slot list, in profile order.
    The generating series comes from `wedge.generating_series`, with the
    kind's expansion variables on each slot (none on the delta slot); the
    markers are multiplied in here.
    """
    names, caps, blocks = space
    nu_vals = tuple(int(s.value) for s in slots)
    mu_vals = tuple(int(x) for x in mu_parts)
    ch = chamber if chamber is not None else chamber_of(mu_vals, nu_vals)

    markers, expansions = _SERIES[kind]
    parts = [{} if s.index is None else {f"{x}{s.index}": sign for x, sign in expansions.items()} for s in slots]
    point = {f"mu{i}": v for i, v in enumerate(mu_vals, start=1)}
    point.update({f"nu{j}": v for j, v in enumerate(nu_vals, start=1)})

    out = generating_series(ch, parts, space, None, point)
    for s in slots:
        if s.index is None:
            continue  # extraction at marker power 0 with zero argument
        v = int(s.value)
        for x, step in markers.items():
            ix = names.index(f"{x}{s.index}")
            marker, fact = {}, 1
            for k in range(order + 1):
                marker[(0,) * ix + (k,) + (0,) * (len(names) - ix - 1)] = fact
                fact *= v + step * k
            out = out * TruncSeries(names, caps, None, marker, blocks)
    norm = prod(mu_vals) * prod(int(s.value) for s in slots)
    return out.scalar_mul(Fraction(1, norm))


def refined_series(kind: str, mu, nu, order: int, chamber: Optional[Chamber] = None) -> TruncSeries:
    """The refined generating series of (mu, nu), truncated at total order.

    Variables: u1..un (markers) and z1..zn for the pure kinds; t, u, X, y, z
    for the mixed kind.  `chamber` overrides the sample's own chamber, which
    is how the series is continued across a wall.
    """
    mu = check_composition(mu)
    nu = check_composition(nu)
    space = _space(kind, len(nu), order)
    slots = [_Slot(Fraction(v), j + 1) for j, v in enumerate(nu)]
    return _h_series(kind, [Fraction(v) for v in mu], slots, space, order, chamber=chamber)


# -- the recursive product formula -------------------------------------------------


def _crossing_prefactor(kind, problem, nu, delta, space) -> TruncSeries:
    """delta^2 * sigma-ratio, as the pole-free S-series times the scalar delta.

    Every sigma(L) is L * S(L); the linear forms of numerator and denominator
    cancel exactly up to one factor of delta, which combines with delta^2.
    Each S of the denominator is inverted in closed form (`s_inverse_of`).
    """
    names, caps, blocks = space
    n = len(nu)
    J = set(problem.wall.J)
    Jc = [j for j in range(1, n + 1) if j not in J]

    _, expansions = _SERIES[kind]

    def argmap(ixs, scale=1, xshift=0):
        out = {f"{x}{j}": Fraction(scale) for j in ixs for x in expansions}
        if kind == "mixed":
            out["X"] = (xshift + sum(Fraction(nu[j - 1]) for j in ixs)) * scale
        return out

    def series(args):
        return TruncSeries.from_linear(names, caps, args, None, blocks)

    return (
        s_of(series(argmap(sorted(J), 1, delta)))
        * s_of(series(argmap(Jc, 1)))
        * s_of(series(argmap(range(1, n + 1), delta)))
        * s_inverse_of(series(argmap(sorted(J), delta, delta)))
        * s_inverse_of(series(argmap(Jc, delta)))
        * s_inverse_of(series(argmap(range(1, n + 1), 1)))
    ).scalar_mul(delta)


def verify_wallcrossing(problem: WallCrossingProblem, samples) -> dict:
    """Check the product formula at each sample, coefficient by coefficient.

    The left side is the jump of the refined series across the wall — the
    c2-chamber series minus the c1-chamber continuation at the same profile.
    The right side multiplies the two split refined series (with the delta
    slot's markers extracted at power zero and its arguments set to zero)
    by the pole-free prefactor, truncated at total order b = p + q + r.
    """
    order = problem.budgets.b
    kind = problem.kind
    wall = problem.wall
    report = {"wall": str(wall), "kind": kind, "order": order, "samples": [], "ok": True}
    for mu, nu in samples:
        mu = check_composition(mu)
        nu = check_composition(nu)
        ch = chamber_of(mu, nu)  # raises OnWall on a wall
        if ch.key() != problem.c2.key():
            raise InvalidSplit(f"sample {(mu, nu)} is not in the delta > 0 chamber")
        delta = wall.value(mu, nu)
        if delta <= 0:
            raise InvalidSplit(f"delta = {delta} at {(mu, nu)}")
        space = _space(kind, len(nu), order)

        lhs = refined_series(kind, mu, nu, order, chamber=problem.c2) - refined_series(
            kind, mu, nu, order, chamber=problem.c1
        )

        I, J = set(wall.I), set(wall.J)
        mu_I = [Fraction(mu[i - 1]) for i in sorted(I)]
        mu_Ic = [Fraction(mu[i - 1]) for i in range(1, len(mu) + 1) if i not in I]
        slots_J = [_Slot(Fraction(nu[j - 1]), j) for j in sorted(J)] + [_Slot(Fraction(delta), None)]
        slots_Jc = [_Slot(Fraction(nu[j - 1]), j) for j in range(1, len(nu) + 1) if j not in J]
        f1 = _h_series(kind, mu_I, slots_J, space, order)
        f2 = _h_series(kind, mu_Ic + [Fraction(delta)], slots_Jc, space, order)
        rhs = _crossing_prefactor(kind, problem, nu, delta, space) * f1 * f2

        entry = {
            "mu": list(mu),
            "nu": list(nu),
            "delta": str(delta),
            "equal": lhs == rhs,
            "first_mismatch": None,
        }
        if not entry["equal"]:
            left, right = lhs.data, rhs.data
            for e in sorted(set(left) | set(right), key=lambda e: (sum(e), e)):
                a = left.get(e, Fraction(0))
                b = right.get(e, Fraction(0))
                if a != b:
                    entry["first_mismatch"] = {
                        "monomial": dict(zip(space[0], e)),
                        "left": str(a),
                        "right": str(b),
                    }
                    break
            report["ok"] = False
        report["samples"].append(entry)
    return report
