"""Seeded instance generators, one per workload.

The generators import nothing from `hurwitz`: which profile pairs lie on a
wall, and which chamber a pair lies in, are decided here from the subset
sums, so a change to the library cannot change what the benchmark runs.
Every instance is picked off the walls and away from degenerate signatures
at generation time, so no instance is expected to raise.

A run is a sequence of rounds, each a fresh interpreter with cold caches.
`instances(workload, seed, round_index)` gives one round's instance list.
Instance costs differ a hundredfold, so every round of a workload holds the
same classes of instance (or the same share of each stratum), and the seed
picks members of a class that cost about the same.  That way rounds cost
about the same whatever the seed, and run-to-run spread stays small.
"""

from __future__ import annotations

import json
import os
import random
from functools import lru_cache
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTED_REF = os.path.join(HERE, "connected_ref.json")


# -- profiles, walls and chambers --------------------------------------------------


def partitions(d: int, largest: int | None = None):
    largest = d if largest is None else largest
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest), 0, -1):
        for rest in partitions(d - first, first):
            yield (first,) + rest


def compositions(d: int):
    if d == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            yield (first,) + rest


def _subset_sums(parts, must_hold_first: bool):
    """(index set, sum) for every subset; optionally only those holding part 0."""
    idx = range(len(parts))
    for k in range(len(parts) + 1):
        for s in combinations(idx, k):
            if must_hold_first and 0 not in s:
                continue
            yield s, sum(parts[i] for i in s)


def wall_values(mu, nu) -> tuple:
    """mu_I - nu_J over the canonical walls (1 in I, (I, J) not full), in a fixed order."""
    m, n = len(mu), len(nu)
    out = []
    for I, sI in _subset_sums(mu, True):
        for J, sJ in _subset_sums(nu, False):
            if len(I) == m and len(J) == n:
                continue
            out.append(sI - sJ)
    return tuple(out)


def on_wall(mu, nu) -> bool:
    return 0 in wall_values(mu, nu)


def chamber_key(mu, nu) -> tuple:
    """The sign vector of an off-wall pair: equal keys mean the same chamber."""
    return (len(mu), len(nu)) + tuple(1 if v > 0 else -1 for v in wall_values(mu, nu))


def valid_genus(m: int, n: int, b: int) -> bool:
    return (b - m - n) % 2 == 0 and b >= m + n - 2


def pure_pqr(kind: str, b: int) -> tuple:
    return {"simple": (b, 0, 0), "monotone": (0, b, 0), "strict": (0, 0, b)}[kind]


def _splits(b: int):
    return [(p, q, b - p - q) for p in range(b + 1) for q in range(b - p + 1)]


def _draw_share(rng: random.Random, strata: list, share: float) -> list:
    """The same share of every stratum (at least one instance of each)."""
    out = []
    for pool in strata:
        out += rng.sample(pool, max(1, round(share * len(pool))))
    return out


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


# -- routes --------------------------------------------------------------------------
# Why: acceptance criterion 1's shape, the three-way equality sweep that takes
# most of the test suite's time.  The oracle and the chamber route each take
# about half of it; the oracle regrouping and the exact-kernel work both act
# here.  Caches are reused across the instances of a round, as in the sweep.


@lru_cache(maxsize=None)
def routes_pool() -> list:
    """The chamber-route instance space of suite_equality(5, 4): 1,167 instances."""
    out = []
    splits = [s for t in range(5) for s in _splits(t)]
    for d in range(1, 6):
        for mu in compositions(d):
            for nu in compositions(d):
                if on_wall(mu, nu):
                    continue
                m, n = len(mu), len(nu)
                for p, q, r in splits:
                    b = p + q + r
                    if not valid_genus(m, n, b) or (b == 0 and m + n == 2):
                        continue
                    out.append({"mu": list(mu), "nu": list(nu), "pqr": [p, q, r]})
    return out


ROUTES_FAMILY_STEP = 8
ROUTES_WIDE_FAMILIES = [(1, 5, (0, 4, 0)), (5, 1, (0, 4, 0))]


def routes_instances(seed: int, round_index: int) -> list:
    """Every ROUTES_FAMILY_STEP-th family of the pool, one seeded member per degree.

    A family is (m, n, p, q, r), and a class is a family at one degree d
    with one pair of profiles (the first in pool order).  Members of a class
    differ only in the order of parts, hence in the chamber: the oracle's
    work is the same for all, and the chamber route's about the same.  Costs
    across classes differ a hundredfold, so every round runs the same
    classes, and the seed and round choose the members.
    Taking each family at every degree keeps the sweep's cache reuse: the
    chamber-polynomial key does not depend on d, and the oracle's tuple
    classes are shared by every family with the same (d, p, q, r).

    Families with m + n = 6, the pairs of (5) with (1, 1, 1, 1, 1), take 40%
    of the sweep's time in 3% of its instances, mostly in the chamber route,
    and one alone takes 0.6 to 6.5 s against at most 0.3 s for any other
    instance.  One signature of them, (0, 4, 0) in both orientations, is
    always run, so that the chamber route keeps about half of the time as in
    the sweep; the rest are left out, so that no draw swings a round.
    """
    classes = {}
    for inst in routes_pool():
        family = (len(inst["mu"]), len(inst["nu"]), tuple(inst["pqr"]))
        if family[0] + family[1] < 6 or family in ROUTES_WIDE_FAMILIES:
            classes.setdefault(family, {}).setdefault(sum(inst["mu"]), []).append(inst)
    narrow = [f for f in sorted(classes) if f not in ROUTES_WIDE_FAMILIES]
    rng = _rng("routes", seed, round_index)
    out = []
    for f in narrow[::ROUTES_FAMILY_STEP] + ROUTES_WIDE_FAMILIES:
        for members in classes[f].values():
            out.append(rng.choice([x for x in members if _profiles(x) == _profiles(members[0])]))
    return sorted(out, key=lambda inst: sum(inst["mu"]))


def _profiles(inst) -> tuple:
    return tuple(sorted(inst["mu"])), tuple(sorted(inst["nu"]))


# -- chamber -------------------------------------------------------------------------
# Why: chamber_polynomial alone, with no oracle.  Every (kind, signature,
# chamber) key of a round is distinct, so the polynomial cache never hits.
# The exact-kernel options act here, and it is the bypass for oracle changes.

CHAMBER_SHAPES = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2)]
CHAMBER_GMAX = 2
# Every chamber of these shapes has sample points of degree 10.  One degree
# for all keeps the cost of the character-sum check (3 ms at d = 6, 11 ms
# at d = 14) from moving with the draw.
CHAMBER_DEGREE = 10


@lru_cache(maxsize=None)
def _chamber_samples(m: int, n: int) -> dict:
    """chamber key -> every off-wall sample pair of degree CHAMBER_DEGREE."""
    out = {}
    mus = [c for c in compositions(CHAMBER_DEGREE) if len(c) == m]
    nus = [c for c in compositions(CHAMBER_DEGREE) if len(c) == n]
    for mu in mus:
        for nu in nus:
            if not on_wall(mu, nu):
                out.setdefault(chamber_key(mu, nu), []).append((mu, nu))
    return out


def chamber_classes() -> list:
    """(kind, m, n, g, (p, q, r)) for every class a round computes.

    Pure kinds at g <= 2, and mixed with all three kinds of transposition
    once b >= 3, (b - 2, 1, 1), at g <= 1.  At m + n = 5 the pure kinds stop
    at g = 1 and mixed at g = 0: one such key takes 0.3 to 1.9 s, and its
    cost varies threefold between chambers, so one draw would swing a round.
    """
    out = []
    for m, n in CHAMBER_SHAPES:
        heavy = m + n >= 5
        for g in range(CHAMBER_GMAX + 1):
            b = 2 * g - 2 + m + n
            for kind in ("simple", "monotone", "strict"):
                if not (heavy and g == 2):
                    out.append((kind, m, n, g, pure_pqr(kind, b)))
            if g == 0 or (g == 1 and not heavy):
                q, r = min(1, b - 1), min(1, b)
                out.append(("mixed", m, n, g, (b - q - r, q, r)))
    return out


def chamber_instances(seed: int, round_index: int) -> list:
    """One chamber and a seeded sample point of it for every class.

    The chamber cycles with the round, not the seed: a key's cost varies
    threefold between chambers, so every seed computes the same keys and
    the seed picks where each polynomial is evaluated and checked.
    """
    rng = _rng("chamber", seed, round_index)
    out = []
    for i, (kind, m, n, g, pqr) in enumerate(chamber_classes()):
        by_chamber = _chamber_samples(m, n)
        keys = sorted(by_chamber)
        mu, nu = rng.choice(by_chamber[keys[(i + round_index) % len(keys)]])
        sig = list(pqr) if kind == "mixed" else g
        out.append({"kind": kind, "sig": sig, "pqr": list(pqr), "mu": list(mu), "nu": list(nu)})
    return out


# -- wallcross -----------------------------------------------------------------------
# Why: the same algebra layer as the chamber route, but every TruncSeries has
# numeric Fraction coefficients rather than polynomial ones, so a kernel
# change tuned for polynomial coefficients that slows numeric series shows
# up here.  The wall is mu1 = nu1 at m = n = 2, as in the verify suite.

WALLCROSS_DMAX = 12


@lru_cache(maxsize=None)
def wallcross_samples() -> list:
    """Interior points of the delta = mu1 - nu1 > 0 side: mu1 > max(nu)."""
    out = []
    for d in range(3, WALLCROSS_DMAX + 1):
        for mu1 in range(1, d):
            for nu1 in range(1, d):
                mu, nu = (mu1, d - mu1), (nu1, d - nu1)
                if mu1 > max(nu) and not on_wall(mu, nu):
                    out.append([list(mu), list(nu)])
    return out


def wallcross_instances(seed: int, round_index: int) -> list:
    """Pure kinds at every g <= 3, and mixed at b = 2, 3 and twice at b = 4.

    A mixed signature is drawn from the splits of b with the most kinds of
    transposition present, which cost about the same, and each instance
    checks one drawn sample, which barely moves the cost.  Two of the twelve
    instances are the costly b = 4 ones, so the 90th percentile falls inside
    that class rather than on its edge.
    """
    rng = _rng("wallcross", seed, round_index)
    runs = [("monotone", g) for g in range(4)] + [("strict", g) for g in range(4)]
    for b in (2, 3, 4, 4):
        widest = max(sum(1 for x in s if x) for s in _splits(b))
        runs.append(("mixed", list(rng.choice([s for s in _splits(b) if sum(1 for x in s if x) == widest]))))
    pool = wallcross_samples()
    return [{"kind": kind, "sig": sig, "samples": [rng.choice(pool)]} for kind, sig in runs]


# -- connected -----------------------------------------------------------------------
# Why: the character route and the partitions layer, which take a tiny share
# of `routes`.  hurwitz_connected_simple's memoised peeling recursion takes
# most of the time; bounding its caches or generalising connected counts
# shows up here.  Off every wall the count must equal the disconnected one;
# on a wall it must equal the value recorded in connected_ref.json.

CONNECTED_DMAX = 9
CONNECTED_GMAX = 2
# The peeling recursion's cost doubles with each part: one pair with 16
# parts takes as long as a hundred pairs with 8, so the pool stops at 10.
CONNECTED_MAX_PARTS = 10
CONNECTED_SHARE = 1 / 8


@lru_cache(maxsize=None)
def connected_pool() -> list:
    """Partition pairs of d <= 9 with at most 10 parts in all, at g <= 2."""
    out = []
    for d in range(1, CONNECTED_DMAX + 1):
        parts = list(partitions(d))
        for mu in parts:
            for nu in parts:
                if len(mu) + len(nu) > CONNECTED_MAX_PARTS:
                    continue
                for g in range(CONNECTED_GMAX + 1):
                    out.append({"mu": list(mu), "nu": list(nu), "g": g, "wall": on_wall(mu, nu)})
    return out


def ref_key(inst) -> str:
    return f"{inst['mu']}|{inst['nu']}|{inst['g']}"


@lru_cache(maxsize=None)
def load_connected_ref() -> dict:
    with open(CONNECTED_REF) as fh:
        return json.load(fh)


def connected_instances(seed: int, round_index: int) -> list:
    """A seeded eighth of every (d, g, parts) stratum of the pool."""
    strata = {}
    for inst in connected_pool():
        key = (sum(inst["mu"]), inst["g"], len(inst["mu"]) + len(inst["nu"]))
        strata.setdefault(key, []).append(inst)
    rng = _rng("connected", seed, round_index)
    out = [dict(inst) for inst in _draw_share(rng, [strata[k] for k in sorted(strata)], CONNECTED_SHARE)]
    ref = load_connected_ref()
    for inst in out:
        if inst["wall"]:
            inst["expect"] = ref[ref_key(inst)]
    return out


GENERATORS = {
    "routes": routes_instances,
    "chamber": chamber_instances,
    "wallcross": wallcross_instances,
    "connected": connected_instances,
}


def instances(workload: str, seed: int, round_index: int) -> list:
    """One round's instances; a fresh list, safe to change."""
    return json.loads(json.dumps(GENERATORS[workload](seed, round_index)))
