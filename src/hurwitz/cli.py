"""Command-line front end.

Three subcommands: `compute` (one number, by any of the three methods),
`chamber-poly` (the polynomial of a chamber, serialized), and `verify`
(run a named identity suite).  All structured output is JSON on stdout;
rationals are strings "num/den" so no consumer ever rounds them.

Exit codes: 0 success; 1 verification mismatch; 2 malformed arguments,
or a connected count the method has no route for (`verify.Unsupported`);
3 evaluation point on a wall; 4 size/order bound exceeded, or a monomial
exponent past `algebra.EXPONENT_LIMIT`; 5 degenerate signature (no
polynomial exists).  A reader that closes stdout early (`| head`) leaves
the exit code as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import ExponentOverflow
from .oracle import BoundExceeded, FactorizationSpec
from .partitions import PURE_KINDS, Signature
from .wedge import DegenerateSignature, OnWall, chamber_of, chamber_polynomial, walls
from . import verify as verify_mod
from .verify import fraction_text

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ON_WALL = 3
EXIT_BOUND = 4
EXIT_DEGENERATE = 5


class _UsageError(ValueError):
    pass


def _parts(text: str) -> tuple:
    # the library rejects a part below 1 (`partitions.check_composition`)
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")


def _signature(args, m: int, n: int) -> Signature:
    """The budgets from --g or --p/--q/--r, depending on the type."""
    has_pqr = any(v is not None for v in (args.p, args.q, args.r))
    if args.type == "mixed":
        if args.g is not None or not has_pqr:
            raise _UsageError("mixed type takes --p/--q/--r, not --g")
        given = (args.p or 0, args.q or 0, args.r or 0)
    else:
        if has_pqr or args.g is None:
            raise _UsageError(f"type {args.type} takes --g, not --p/--q/--r")
        given = args.g
    return Signature.of(args.type, given, m, n)  # ValueError exits 2


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early (`| head`): what is left of stdout goes
        # nowhere, and the exit code is the command's own
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def cmd_compute(args) -> int:
    mu, nu = _parts(args.mu), _parts(args.nu)
    p, q, r = _signature(args, len(mu), len(nu))
    spec = FactorizationSpec(mu, nu, p, q, r, connected=args.connected)
    value = verify_mod.count(spec, args.method)

    payload = {
        "input": {
            "type": args.type,
            "mu": list(mu),
            "nu": list(nu),
            "p": p,
            "q": q,
            "r": r,
            "connected": bool(args.connected),
        },
        "method": args.method,
        "value": fraction_text(value),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _poly_json(poly) -> list:
    names = poly.ring.names
    terms = []
    for exps, coeff in poly.sorted_terms():
        terms.append(
            {"exps": {v: e for v, e in zip(names, exps)}, "coeff": fraction_text(coeff)}
        )
    return terms


def cmd_chamber_poly(args) -> int:
    if ":" not in args.sample:
        raise _UsageError("--sample wants M1,M2,..:N1,N2,..")
    left, right = args.sample.split(":", 1)
    mu, nu = _parts(left), _parts(right)
    sig = _signature(args, len(mu), len(nu))
    ch = chamber_of(mu, nu)
    poly = chamber_polynomial("mixed", sig, ch)
    payload = {
        "chamber": {
            "sample": {"mu": list(mu), "nu": list(nu)},
            "signs": [
                {"I": list(w.I), "J": list(w.J), "sign": sign}
                for w, sign in zip(walls(ch.m, ch.n), ch.key()[2])
            ],
        },
        "polynomial": _poly_json(poly),
        "degree": poly.total_degree(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # a suite reads the flags named by its parameters; any other flag is an error
    suite = verify_mod.SUITES[args.suite]
    code = suite.__code__
    takes = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    given = {f: getattr(args, f) for f in ("dmax", "bmax", "g") if getattr(args, f) is not None}
    ignored = [f"--{f}" for f in given if f not in takes]
    if ignored:
        raise _UsageError(f"suite {args.suite} does not take {', '.join(ignored)}")
    report = suite(**given)
    status = "PASS" if report["ok"] else "FAIL"
    print(f"suite {args.suite}: {status} ({report['count']} instances, "
          f"{len(report['failures'])} failures)", file=sys.stderr)
    for line in report["failures"]:
        print(f"  FAIL {line}", file=sys.stderr)
    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hurwitz",
        description="Exact double Hurwitz numbers: enumeration, character sums, chamber polynomials.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="one Hurwitz number, by the chosen method")
    pc.add_argument("--type", required=True, choices=PURE_KINDS + ("mixed",))
    pc.add_argument("--mu", required=True)
    pc.add_argument("--nu", required=True)
    pc.add_argument("--g", type=int)
    pc.add_argument("--p", type=int)
    pc.add_argument("--q", type=int)
    pc.add_argument("--r", type=int)
    pc.add_argument("--method", required=True, choices=("oracle", "character", "chamber"))
    pc.add_argument("--connected", action="store_true")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_compute)

    pp = sub.add_parser("chamber-poly", help="the chamber polynomial at a sample point")
    pp.add_argument("--type", required=True, choices=PURE_KINDS + ("mixed",))
    pp.add_argument("--g", type=int)
    pp.add_argument("--p", type=int)
    pp.add_argument("--q", type=int)
    pp.add_argument("--r", type=int)
    pp.add_argument("--sample", required=True)
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_chamber_poly)

    pv = sub.add_parser("verify", help="run one verification suite")
    pv.add_argument("--suite", required=True, choices=sorted(verify_mod.SUITES))
    pv.add_argument("--dmax", type=int)
    pv.add_argument("--bmax", type=int)
    pv.add_argument("--g", type=int)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OnWall as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ON_WALL
    except (BoundExceeded, ExponentOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BOUND
    except DegenerateSignature as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as e:  # SizeMismatch, Unsupported and _UsageError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
