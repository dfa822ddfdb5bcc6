"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts the checkout's src on the path)
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from hurwitz import OnWall, chamber_of, verify, wedge  # noqa: E402
from hurwitz import oracle as hz_oracle  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_gives_one_instance_list(workload):
    assert gen.instances(workload, 7, 0) == gen.instances(workload, 7, 0)
    assert gen.instances(workload, 7, 1) == gen.instances(workload, 7, 1)
    assert gen.instances(workload, 7, 0) != gen.instances(workload, 8, 0)


def test_wall_test_agrees_with_the_library():
    for d in range(1, 7):
        for mu in gen.compositions(d):
            for nu in gen.compositions(d):
                try:
                    chamber_of(mu, nu)
                    library_on_wall = False
                except OnWall:
                    library_on_wall = True
                assert gen.on_wall(mu, nu) == library_on_wall, (mu, nu)


def test_generated_instances_avoid_walls_and_degenerate_signatures():
    assert len(gen.routes_pool()) == 1167
    for inst in gen.routes_instances(3, 0):
        m, n, b = len(inst["mu"]), len(inst["nu"]), sum(inst["pqr"])
        assert not gen.on_wall(inst["mu"], inst["nu"])
        assert gen.valid_genus(m, n, b) and not (b == 0 and m + n == 2)
    keys = set()
    for inst in gen.chamber_instances(3, 0):
        assert not gen.on_wall(inst["mu"], inst["nu"])
        keys.add((inst["kind"], tuple(inst["pqr"]), gen.chamber_key(inst["mu"], inst["nu"])))
    assert len(keys) == len(gen.chamber_classes()), "a chamber round repeats a polynomial key"
    for inst in gen.wallcross_instances(3, 0):
        for mu, nu in inst["samples"]:
            assert mu[0] > max(nu) and not gen.on_wall(mu, nu)
    for inst in gen.connected_instances(3, 0):
        assert inst["wall"] == ("expect" in inst)


def test_wrong_answer_counts_as_failure_in_a_child():
    instances = gen.connected_instances(0, 0)[:20]
    on_wall = next(i for i, inst in enumerate(instances) if inst["wall"])
    instances[on_wall]["expect"] = str(Fraction(instances[on_wall]["expect"]) + 1)
    res = run.run_child("connected", False, instances)
    assert len(res["failures"]) == 1
    assert res["failures"][0]["instance"] == instances[on_wall]
    assert len(res["latencies_s"]) == len(res["reference_s"]) == 20


def test_wrong_route_and_exception_count_as_failures(monkeypatch):
    instances = gen.routes_instances(0, 0)[:4]
    real = child.hurwitz_disconnected
    monkeypatch.setattr(child, "hurwitz_disconnected", lambda *a: real(*a) + 1)
    assert len(child.run_round("routes", instances)["failures"]) == 4
    monkeypatch.setattr(child, "hurwitz_disconnected", lambda *a: 1 / 0)
    failures = child.run_round("routes", instances)["failures"]
    assert [f["error"].split(":")[0] for f in failures] == ["ZeroDivisionError"] * 4


def test_failures_make_the_command_exit_nonzero(monkeypatch, capsys):
    def corrupted(workload, seed, round_index):
        out = gen.connected_instances(seed, round_index)[:10]
        out[0] = dict(out[0], wall=True, expect="-1/1")
        return out

    monkeypatch.setattr(run.gen, "instances", corrupted)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", "connected", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == run.MIN_INSTANCES  # one wrong answer in each round of ten
    assert not result["correct"] and result["failed"] == run.MIN_INSTANCES // 10


def test_every_child_starts_with_cold_caches():
    assert run.run_child("routes", False, None)["cold"]
    res = run.run_child("routes", False, gen.routes_instances(0, 0)[:3])
    assert res["cold"] and not res["failures"]
    child.run_round("routes", gen.routes_instances(0, 0)[:3])
    assert not child.caches_cold()  # the check can see a warm cache


def test_recorder_wraps_every_copy_and_restores_them():
    original = hz_oracle.count_factorizations
    wedge._POLY_CACHE.clear()  # earlier tests in this process filled it
    recorder = spans.Recorder.install(extra_modules=(child.__name__,))
    try:
        assert verify.count_factorizations is not original
        assert child.count_factorizations is verify.count_factorizations
        res = child.run_round("routes", gen.routes_instances(0, 0)[:5])
    finally:
        recorder.uninstall()
    assert verify.count_factorizations is original and child.count_factorizations is original
    assert not res["failures"]
    s = recorder.summary()
    assert s["oracle.count_factorizations.calls"] == 5
    assert s["wedge.chamber_polynomial.calls"] == 5
    assert s["partitions.partitions.calls"] > 0
    assert s["oracle.busy_s"] <= sum(res["latencies_s"])
    assert 0 < s["algebra.self_s"] <= s["wedge.chamber_polynomial.busy_s"]
