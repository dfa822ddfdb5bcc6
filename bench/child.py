"""One benchmark round in a fresh interpreter.

Usage: python3 child.py <workload> <trace 0|1>

The child imports `hurwitz` from the checkout's `src`, prints one JSON line
saying it is ready (and whether every library cache is still empty), reads
the round's instance list as one JSON line from stdin (`null` ends a
set-up-only probe), runs and checks every instance, and prints one JSON
line with per-instance latencies, failures, its peak RSS and, when traced,
the per-layer aggregates.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from hurwitz import (  # noqa: E402  (set-up ends once this import is done)
    FactorizationSpec,
    Wall,
    WallCrossingProblem,
    chamber_of,
    chamber_polynomial,
    count_factorizations,
    evaluate,
    hurwitz_connected_simple,
    hurwitz_disconnected,
    verify_wallcrossing,
)


# -- one instance per workload: compute through the library, then check exactly -----
# Each returns None when the answer checks, else a one-line description.


def run_routes(inst):
    mu, nu, (p, q, r) = tuple(inst["mu"]), tuple(inst["nu"]), inst["pqr"]
    a = count_factorizations(FactorizationSpec(mu, nu, p, q, r)).value
    c = hurwitz_disconnected(mu, nu, p, q, r)
    v = evaluate(chamber_polynomial("mixed", (p, q, r), chamber_of(mu, nu)), mu, nu)
    if not a == c == v:
        return f"oracle={a} character={c} chamber={v}"
    return None


def run_chamber(inst):
    mu, nu, (p, q, r) = tuple(inst["mu"]), tuple(inst["nu"]), inst["pqr"]
    sig = tuple(inst["sig"]) if inst["kind"] == "mixed" else inst["sig"]
    v = evaluate(chamber_polynomial(inst["kind"], sig, chamber_of(mu, nu)), mu, nu)
    c = hurwitz_disconnected(mu, nu, p, q, r)
    if v != c:
        return f"chamber={v} character={c}"
    return None


_WALL = Wall((1,), (1,), 2, 2)
_C1_SAMPLE, _C2_SAMPLE = ((2, 2), (3, 1)), ((3, 1), (2, 2))


def run_wallcross(inst):
    sig = tuple(inst["sig"]) if inst["kind"] == "mixed" else inst["sig"]
    problem = WallCrossingProblem(_WALL, chamber_of(*_C1_SAMPLE), chamber_of(*_C2_SAMPLE), inst["kind"], sig)
    samples = [(tuple(mu), tuple(nu)) for mu, nu in inst["samples"]]
    report = verify_wallcrossing(problem, samples)
    bad = [s for s in report["samples"] if not s["equal"]]
    if bad or len(report["samples"]) != len(samples):
        return f"{len(bad)} of {len(samples)} samples unequal"
    return None


def run_connected(inst):
    mu, nu, g = tuple(inst["mu"]), tuple(inst["nu"]), inst["g"]
    conn = hurwitz_connected_simple(mu, nu, g)
    if inst["wall"]:
        ref = Fraction(inst["expect"])
    else:
        ref = hurwitz_disconnected(mu, nu, 2 * g - 2 + len(mu) + len(nu), 0, 0)
    if conn != ref:
        return f"connected={conn} reference={ref}"
    return None


RUNNERS = {
    "routes": run_routes,
    "chamber": run_chamber,
    "wallcross": run_wallcross,
    "connected": run_connected,
}


REFERENCE_EVERY_S = 0.1


def reference_kernel() -> float:
    """Duration of a fixed piece of work of the library's kind: exact sparse
    products with Fraction coefficients, and permutation composition.  It is
    written here, so no change to the library changes it."""
    s = time.perf_counter()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    p, q = tuple(range(7)), (1, 2, 3, 4, 5, 6, 0)
    for _ in range(1000):
        p = tuple(q[p[k]] for k in range(7))
    return time.perf_counter() - s


def run_round(workload: str, instances: list) -> dict:
    """Run and check every instance; an exception counts as a failure.

    The reference kernel runs before the first instance, after the last, and
    between instances every REFERENCE_EVERY_S, so that each latency comes
    with the kernel's mean duration on either side of it: how fast the
    machine ran at the time.
    """
    runner = RUNNERS[workload]
    latencies, failures, chunk_of = [], [], []
    refs = [reference_kernel()]
    last = time.perf_counter()
    for inst in instances:
        if time.perf_counter() - last >= REFERENCE_EVERY_S:
            refs.append(reference_kernel())
            last = time.perf_counter()
        chunk_of.append(len(refs) - 1)
        s = time.perf_counter()
        try:
            err = runner(inst)
        except Exception as exc:  # recorded and counted, the round goes on
            err = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - s)
        if err is not None:
            failures.append({"instance": inst, "error": err})
    refs.append(reference_kernel())
    reference = [(refs[c] + refs[c + 1]) / 2 for c in chunk_of]
    return {"latencies_s": latencies, "reference_s": reference, "failures": failures}


def caches_cold() -> bool:
    """True while every library cache is empty."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("hurwitz."):
            continue
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if info is not None and info().currsize:
                return False
    return not sys.modules["hurwitz.wedge"]._POLY_CACHE


def main(argv) -> int:
    workload, traced = argv[0], argv[1] == "1"
    print(json.dumps({"ready": True, "cold": caches_cold()}), flush=True)
    instances = json.loads(sys.stdin.readline())
    setup_reference = statistics.median(reference_kernel() for _ in range(3))
    if instances is None:
        print(json.dumps({"setup_reference_s": setup_reference}), flush=True)
        return 0
    if traced:
        import spans  # the benchmark's own module, outside set-up

        recorder = spans.Recorder.install()
    out = run_round(workload, instances)
    out["setup_reference_s"] = setup_reference
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        recorder.uninstall()
        out["layers"] = recorder.summary()
        out["layers"].update(spans.counters(workload, instances, out["layers"]))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
