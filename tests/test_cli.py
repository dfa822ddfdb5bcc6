import json
import os
import subprocess
import sys
from math import factorial

import pytest

import hurwitz
from hurwitz import verify
from hurwitz.algebra import EXPONENT_LIMIT, ExponentOverflow, bernoulli
from hurwitz.cli import main
from hurwitz.oracle import FactorizationSpec
from hurwitz.partitions import PURE_KINDS, Signature, partitions


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_compute_oracle_basic(capsys):
    code, doc, _ = run_json(
        capsys,
        ["compute", "--type", "simple", "--mu", "2", "--nu", "1,1", "--g", "0", "--method", "oracle"],
    )
    assert code == 0
    assert doc["value"] == "1/1"
    assert doc["input"]["mu"] == [2] and doc["input"]["nu"] == [1, 1]
    assert doc["input"]["p"] == 1 and doc["method"] == "oracle"


def test_compute_character_one_cycle(capsys):
    code, doc, _ = run_json(
        capsys,
        ["compute", "--type", "simple", "--mu", "3", "--nu", "3", "--g", "0", "--method", "character"],
    )
    assert (code, doc["value"]) == (0, "1/3")


def test_compute_methods_agree(capsys):
    values = set()
    for method in ("oracle", "character", "chamber"):
        code, doc, _ = run_json(
            capsys,
            ["compute", "--type", "mixed", "--mu", "3,1", "--nu", "2,2",
             "--p", "1", "--q", "1", "--r", "0", "--method", method],
        )
        assert code == 0
        values.add(doc["value"])
    assert values == {"6/1"}


def test_compute_size_mismatch_exits_2(capsys):
    code, _, err = run(
        capsys,
        ["compute", "--type", "simple", "--mu", "2", "--nu", "1,1,1", "--g", "0", "--method", "oracle"],
    )
    assert code == 2 and "error" in err


def test_compute_flag_validation(capsys):
    # mixed wants --p/--q/--r, pure wants --g
    code, _, _ = run(capsys, ["compute", "--type", "mixed", "--mu", "2", "--nu", "2",
                              "--g", "1", "--method", "oracle"])
    assert code == 2
    code, _, _ = run(capsys, ["compute", "--type", "simple", "--mu", "2", "--nu", "2",
                              "--p", "2", "--method", "oracle"])
    assert code == 2
    code, _, _ = run(capsys, ["compute", "--type", "simple", "--mu", "2", "--nu", "2",
                              "--g", "1", "--method", "chamber", "--connected"])
    assert code == 2


def test_compute_connected_rules(capsys):
    code, doc, _ = run_json(
        capsys,
        ["compute", "--type", "monotone", "--mu", "2", "--nu", "2", "--g", "1",
         "--method", "oracle", "--connected"],
    )
    assert (code, doc["value"]) == (0, "1/2")
    code, _, _ = run(
        capsys,
        ["compute", "--type", "monotone", "--mu", "2", "--nu", "2", "--g", "1",
         "--method", "character", "--connected"],
    )
    assert code == 2  # the connected character route needs q = r = 0


def test_compute_connected_character_route(capsys):
    argv = ["compute", "--connected", "--type", "simple", "--g"]
    code, doc, _ = run_json(capsys, argv + ["1", "--method", "character", "--mu", "3,2,1", "--nu", "2,2,2"])
    assert (code, doc["value"]) == (0, "457920/1")
    # an instance whose connected count (54) differs from the disconnected one (72)
    for method in ("character", "oracle"):
        code, doc, _ = run_json(capsys, argv + ["0", "--method", method, "--mu", "2,1,1", "--nu", "3,1"])
        assert (code, doc["value"]) == (0, "54/1")
        # the same budgets spelt as a mixed triple
        code, doc, _ = run_json(capsys, ["compute", "--connected", "--type", "mixed", "--p", "3", "--q", "0",
                                         "--r", "0", "--method", method, "--mu", "2,1,1", "--nu", "3,1"])
        assert (code, doc["value"]) == (0, "54/1")
    code, _, err = run(capsys, ["compute", "--connected", "--type", "mixed", "--p", "3", "--q", "0",
                                "--r", "0", "--method", "chamber", "--mu", "2,1,1", "--nu", "3,1"])
    assert code == 2 and len(err.splitlines()) == 1


@pytest.mark.parametrize("kind,method,want", [
    ("simple", "oracle", "5888/1"),
    ("simple", "character", "5888/1"),
    ("monotone", "oracle", "1325/2"),
    ("strict", "oracle", "111/2"),
])
def test_compute_connected_at_degree_eight(capsys, kind, method, want):
    # connected oracle counts at MAX_DEGREE, peeled off the disconnected class walk
    code, doc, _ = run_json(capsys, ["compute", "--connected", "--method", method, "--type", kind,
                                     "--g", "1", "--mu", "4,4", "--nu", "4,4"])
    assert (code, doc["value"]) == (0, want)


def test_count_has_no_route_for_other_connected_queries():
    spec = FactorizationSpec((3, 1), (2, 2), 2, 0, 0, connected=True)
    with pytest.raises(verify.Unsupported):
        verify.count(spec, "chamber")
    for q, r in [(1, 0), (0, 1), (1, 1)]:
        with pytest.raises(verify.Unsupported):
            verify.count(FactorizationSpec((3, 1), (2, 2), 1, q, r, connected=True), "character")
    with pytest.raises(ValueError, match="unknown method"):
        verify.count(spec, "tau")


def test_count_connected_character_equals_the_oracle_when_q_and_r_are_zero():
    # the rule reads the budgets, not the kind that spelt them: a pure kind
    # at b = 0 is the triple (0, 0, 0)
    checked = zeros = 0
    for d in range(1, 6):
        for mu in partitions(d):
            for nu in partitions(d):
                m, n = len(mu), len(nu)
                sigs = [Signature(p, 0, 0) for p in range(5)]
                sigs += [Signature.of(kind, g, m, n) for kind in PURE_KINDS for g in range(3)]
                for sig in sigs:
                    if sig.b > 4:
                        continue
                    spec = FactorizationSpec(mu, nu, *sig, connected=True)
                    if sig.q or sig.r:
                        with pytest.raises(verify.Unsupported):
                            verify.count(spec, "character")
                        continue
                    got = verify.count(spec, "character")
                    assert got == verify.count(spec, "oracle")
                    if sig.genus(m, n) is None:
                        assert got == 0
                        zeros += 1
                    checked += 1
    assert zeros and checked > zeros


def test_compute_bound_guard(capsys):
    code, _, _ = run(
        capsys,
        ["compute", "--type", "simple", "--mu", "9", "--nu", "9", "--g", "0", "--method", "oracle"],
    )
    assert code == 4


def test_compute_exponent_overflow_exits_4(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise ExponentOverflow(f"an exponent reached {EXPONENT_LIMIT}")

    monkeypatch.setattr(verify, "chamber_polynomial", overflow)
    code, out, err = run(
        capsys,
        ["compute", "--type", "monotone", "--mu", "3,1", "--nu", "2,2", "--g", "1", "--method", "chamber"],
    )
    assert code == 4 and not out and "error" in err


def test_chamber_poly_json_schema(capsys):
    code, doc, _ = run_json(
        capsys,
        ["chamber-poly", "--type", "monotone", "--g", "1", "--sample", "2:2"],
    )
    assert code == 0
    assert doc["degree"] == 3
    assert doc["chamber"]["sample"] == {"mu": [2], "nu": [2]}
    assert all(set(t) == {"exps", "coeff"} for t in doc["polynomial"])
    signs = doc["chamber"]["signs"]
    assert signs == [{"I": [1], "J": [], "sign": 1}]
    consts = [t["coeff"] for t in doc["polynomial"] if not any(t["exps"].values())]
    assert consts == ["-1/12"]


def test_chamber_poly_round_trip(capsys):
    from fractions import Fraction

    from hurwitz.wedge import chamber_of, chamber_polynomial

    code, doc, _ = run_json(
        capsys,
        ["chamber-poly", "--type", "mixed", "--p", "1", "--q", "1", "--r", "0",
         "--sample", "3,1:2,2"],
    )
    assert code == 0
    poly = chamber_polynomial("mixed", (1, 1, 0), chamber_of((3, 1), (2, 2)))
    rebuilt = {}
    for term in doc["polynomial"]:
        exps = tuple(term["exps"][v] for v in poly.ring.names)
        num, den = term["coeff"].split("/")
        rebuilt[exps] = Fraction(int(num), int(den))
    assert rebuilt == dict(poly.terms)


def test_chamber_poly_on_wall_exits_3(capsys):
    code, _, _ = run(
        capsys,
        ["chamber-poly", "--type", "monotone", "--g", "0", "--sample", "2,2:2,2"],
    )
    assert code == 3


def test_chamber_poly_degenerate_exits_5(capsys):
    code, _, _ = run(
        capsys,
        ["chamber-poly", "--type", "monotone", "--g", "0", "--sample", "2:2"],
    )
    assert code == 5


def test_verify_conventions_passes(capsys):
    code, doc, err = run_json(capsys, ["verify", "--suite", "conventions", "--dmax", "3", "--bmax", "3"])
    assert code == 0
    assert doc["ok"] is True and doc["count"] > 0
    assert "PASS" in err


def test_verify_unknown_suite_exits_2(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "nosuch"])
    assert code == 2 and not out and "nosuch" in err


def test_verify_bound_guard(capsys):
    code, _, _ = run(capsys, ["verify", "--suite", "equality", "--dmax", "99"])
    assert code == 4


@pytest.mark.parametrize(
    "flags,cause",
    [
        (["equality", "--dmax", "0"], "leave nothing"),
        (["equality", "--bmax", "-1"], "leave nothing"),
        (["tau", "--dmax", "0"], "leave nothing"),
        (["tau", "--bmax", "-1"], "leave nothing"),
        (["conventions", "--bmax", "0"], "compared no instances"),
    ],
)
def test_verify_a_sweep_that_compares_nothing_is_an_error(capsys, flags, cause):
    # such sweeps used to report PASS and exit 0
    code, out, err = run(capsys, ["verify", "--suite", *flags])
    assert code == 2 and not out and cause in err
    assert len(err.strip().splitlines()) == 1


def test_verify_constant_term_reports_mismatch(capsys, monkeypatch):
    # inject the closed form once recorded for the constant term,
    # -n (2g-3+m+n)! (2g-3) B_{2g-2} / (2g-2)!, which the computed polynomials
    # contradict at every g = 1 instance; the suite must say so and exit 1
    def recorded(g, m, n):
        return (
            -n * factorial(2 * g - 3 + m + n) * (2 * g - 3)
            * bernoulli(2 * g - 2) / factorial(2 * g - 2)
        )

    monkeypatch.setattr(verify, "_closed_form_constant", recorded)
    code, doc, err = run_json(capsys, ["verify", "--suite", "constant-term", "--g", "1"])
    assert code == 1
    assert doc["ok"] is False and len(doc["failures"]) == 3
    assert "FAIL" in err


def test_verify_rejects_size_flags_the_suite_ignores(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "degree", "--dmax", "3"])
    assert code == 2 and "--dmax" in err and not out
    code, _, err = run(capsys, ["verify", "--suite", "constant-term", "--bmax", "3"])
    assert code == 2 and "--bmax" in err


def test_verify_tau_honours_size_flags(capsys):
    code, doc, err = run_json(capsys, ["verify", "--suite", "tau", "--dmax", "5", "--bmax", "4"])
    assert code == 0 and doc["ok"] is True
    assert doc["count"] == verify.suite_tau(dmax=5, bmax=4)["count"] == 431
    assert "431 instances" in err


def test_verify_tau_bound_guard(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "tau", "--dmax", "7"])
    assert code == 4 and not out and "exceed" in err


def test_verify_rejects_genus_flag_the_suite_ignores(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "equality", "--g", "1"])
    assert code == 2 and "--g" in err and not out
    code, _, err = run(capsys, ["verify", "--suite", "wallcross", "--g", "0"])
    assert code == 2 and "--g" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, doc, _ = run_json(
        capsys,
        ["compute", "--type", "strict", "--mu", "3", "--nu", "1,2", "--g", "0",
         "--method", "character", "--out", str(target)],
    )
    assert code == 0
    assert json.loads(target.read_text()) == doc


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["chamber-poly", "--type", "simple", "--g", "1", "--sample", "5,3,2:6,4"],
        ["verify", "--suite", "conventions", "--dmax", "3", "--bmax", "3"],
    ],
    ids=["chamber-poly", "verify"],
)
def test_a_reader_that_stops_early_leaves_the_exit_code(argv):
    # the reader closes the pipe before anything is written, as `| head` may
    src = os.path.dirname(os.path.dirname(hurwitz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "hurwitz.cli", *argv]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err
