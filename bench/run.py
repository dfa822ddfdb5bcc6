"""Benchmark runner for the hurwitz library.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload's instances come from
`gen.py` and the seed.  A run is a closed loop of rounds: one child
interpreter at a time (`child.py`) imports the library from `src/` with
cold caches, runs one round's instances and checks every answer exactly.
Rounds start until `--seconds` have passed (at least MIN_ROUNDS of them,
holding at least MIN_INSTANCES instances).
No thread or process pool is used.

Times are reported at nominal machine speed.  The shared host this was
built on runs the same code up to 1.7 times slower for tens of seconds at a
time, so each child runs a fixed reference kernel (written in the benchmark,
untouched by library changes) between instances, and every measured time is
scaled by REFERENCE_NOMINAL_S over the kernel's duration around it.  The
unscaled figures are printed too.  Timings: `setup_s`, interpreter start
plus `import hurwitz`, median over all children; `wall_s`, the time to run
one round's instances, median over rounds; `instance_ms_p50`/`_p90`, over
every instance of the run; `peak_rss_mb`, a child's ru_maxrss, median over
rounds.  A failed or raising instance counts in `failed` (and `error_rate`).

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
every round runs twice on the same instances, untraced and then traced, and
the run reports the per-layer metrics.  Without `--workload` every workload
runs in turn.  The last line of standard output is one JSON object; the
lines before it give each metric by name and unit.  The exit code is 1 when
any instance failed its check, and 2, with no result printed, when a child
could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import LAYERS  # noqa: E402

WORKLOADS = list(gen.GENERATORS)
SETUP_PROBES = 5
MIN_ROUNDS = 3
# so that at least ten instances lie above the 90th percentile
MIN_INSTANCES = 100
CHILD_TIMEOUT_S = 150
# About the reference kernel's median duration (child.reference_kernel),
# run between instances, on the 2-core Xeon host (2.0 GHz) of the baseline.
REFERENCE_NOMINAL_S = 0.0025

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_ms_p50": "ms",
    "instance_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; values are means over the traced rounds of a run
LAYER_UNITS = {
    "trace_overhead": "ratio",
    "traced_wall_s": "s",
    "oracle.busy_s": "s",
    "oracle.calls": "count",
    "oracle.pair_checks": "count",
    "oracle.tuple_classes": "count",
    "charactereval.busy_s": "s",
    "charactereval.cache_hit_ratio": "ratio",
    "partitions.busy_s": "s",
    "partitions.character.calls": "count",
    "wedge.chamber_polynomial.busy_s": "s",
    "wedge.chamber_polynomial.calls": "count",
    "wedge.chamber_polynomial.hit_ratio": "ratio",
    "wedge.commutation_patterns.busy_s": "s",
    "wedge.patterns": "count",
    "wedge.evaluate.busy_s": "s",
    "wedge.poly_terms": "count",
    "algebra.MultiPoly.mul.self_s": "s",
    "algebra.MultiPoly.mul.calls": "count",
    "algebra.TruncSeries.mul.self_s": "s",
    "algebra.TruncSeries.mul.calls": "count",
    "algebra.TruncSeries.inverse.self_s": "s",
    "algebra.TruncSeries.inverse.calls": "count",
    "algebra.sigma_s_of.self_s": "s",
    "algebra.sigma_s_of.calls": "count",
    "algebra.onshell.self_s": "s",
    "algebra.onshell.calls": "count",
    "wallcross.verify_wallcrossing.busy_s": "s",
    "wallcross.refined_series.busy_s": "s",
}
LAYER_UNITS.update({f"{layer}.self_share": "ratio" for layer in LAYERS})


class ChildFailed(RuntimeError):
    """A child interpreter could not import the library or did not finish."""


def run_child(workload: str, traced: bool, instances) -> dict:
    """Start one child, time its set-up, hand it `instances` (None: probe only)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, "1" if traced else "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if not ready:
                raise ChildFailed(f"{workload} child exited during set-up (code {proc.wait()})")
            out, _ = proc.communicate(json.dumps(instances) + "\n", timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildFailed(f"{workload} child ran past {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{workload} child exited with code {proc.returncode}")
    result = json.loads(out)
    result["setup_s"] = setup
    result["cold"] = json.loads(ready)["cold"]
    return result


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def highest_tail(n: int):
    """The highest of p90/p99/p99.9 with at least ten samples above it, or None."""
    best = None
    for pct in (90, 99, 99.9):
        if n - -(-n * pct // 100) >= 10:
            best = pct
    return best


def normalised(seconds: float, reference_s: float) -> float:
    """Seconds at nominal machine speed: scaled by REFERENCE_NOMINAL_S over
    the reference kernel's duration measured alongside."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    t_start = time.perf_counter()
    children = [run_child(workload, False, None) for _ in range(SETUP_PROBES)]
    plain, tracedr = [], []
    r = 0
    n = 0
    while r < MIN_ROUNDS or n < MIN_INSTANCES or time.perf_counter() - t_start < seconds:
        instances = gen.instances(workload, seed, r)
        plain.append(run_child(workload, False, instances))
        n += len(instances)
        if traced:
            tracedr.append(run_child(workload, True, instances))
        r += 1
    children += plain + tracedr

    rounds = plain + tracedr
    attempted = sum(len(res["latencies_s"]) for res in rounds)
    failures = [f for res in rounds for f in res["failures"]]
    lat_ms = sorted(
        1000 * normalised(x, ref) for res in plain for x, ref in zip(res["latencies_s"], res["reference_s"])
    )
    summary = {
        "workload": workload,
        "rounds": len(plain),
        "instances": len(lat_ms),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "cold": all(res["cold"] for res in children),
        "tail_pct": highest_tail(len(lat_ms)),
        "lat_ms": lat_ms,
        "raw": {
            "setup_s": statistics.median(res["setup_s"] for res in children),
            "wall_s": statistics.median(sum(res["latencies_s"]) for res in plain),
            "reference_ms": 1000 * statistics.median(x for res in plain for x in res["reference_s"]),
        },
    }
    if not traced:
        summary["metrics"] = {
            "setup_s": statistics.median(normalised(res["setup_s"], res["setup_reference_s"]) for res in children),
            "wall_s": statistics.median(
                sum(map(normalised, res["latencies_s"], res["reference_s"])) for res in plain
            ),
            "instance_ms_p50": statistics.median(lat_ms),
            "instance_ms_p90": percentile(lat_ms, 90),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
        }
        return summary

    def mean(key):
        return statistics.fmean(tr["layers"][key] for tr in tracedr)

    traced_wall = statistics.fmean(sum(tr["latencies_s"]) for tr in tracedr)
    metrics = {
        "trace_overhead": statistics.median(
            sum(map(normalised, tr["latencies_s"], tr["reference_s"]))
            / sum(map(normalised, p["latencies_s"], p["reference_s"]))
            for tr, p in zip(tracedr, plain)
        ),
        "traced_wall_s": traced_wall,
        "oracle.calls": mean("oracle.count_factorizations.calls"),
    }
    for name in LAYER_UNITS:
        if name.endswith(".self_share"):
            metrics[name] = mean(name.replace(".self_share", ".self_s")) / traced_wall
        elif name not in metrics:
            metrics[name] = mean(name)
    summary["metrics"] = metrics
    summary["spans"] = mean("spans")
    return summary


def report_lines(s: dict, traced: bool) -> list:
    units = LAYER_UNITS if traced else END_TO_END_UNITS
    n = s["instances"]
    lines = [f"[{s['workload']}] rounds={s['rounds']} instances={n} (sample count of the latency percentiles)"]
    for name, value in s["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    if not traced:
        if s["tail_pct"] not in (None, 90):
            pct = s["tail_pct"]
            lines.append(f"  instance_ms_p{pct:g} = {percentile(s['lat_ms'], pct):.6g} ms")
        rate = s["failed"] / s["attempted"]
        lines.append(f"  error_rate = {rate:.6g} ratio ({s['failed']} of {s['attempted']} instances)")
    else:
        lines.append(f"  spans recorded per traced round = {s['spans']:.0f}")
    raw = s["raw"]
    lines.append(
        f"  measured, not normalised: setup {raw['setup_s']:.6g} s, wall {raw['wall_s']:.6g} s, "
        f"reference kernel {raw['reference_ms']:.4g} ms (nominal {REFERENCE_NOMINAL_S * 1000:g} ms)"
    )
    if not s["cold"]:
        lines.append("  a child started with a warm library cache")
    for f in s["failures"]:
        lines.append(f"  FAILED {json.dumps(f['instance'])}: {f['error']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced = args.trace == 1
    workloads = [args.workload] if args.workload else WORKLOADS
    try:
        summaries = [run_workload(w, args.seed, args.seconds, traced) for w in workloads]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    units = LAYER_UNITS if traced else END_TO_END_UNITS
    metrics = {}
    for s in summaries:
        print("\n".join(report_lines(s, traced)))
        prefix = "" if args.workload else f"{s['workload']}."
        for name, value in s["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(s["failed"] for s in summaries)
    correct = failed == 0 and all(s["cold"] for s in summaries)
    result = {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
