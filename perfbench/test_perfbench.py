"""Tests of the benchmark itself: its checks catch wrong answers, tracing
does not change verdicts, and it refuses to run without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import speed
import workloads
from golay486 import permaction

ROOT = Path(__file__).resolve().parent.parent


def _small_ladder_inputs(seed):
    inputs = workloads.make_inputs("ladder", seed, "")
    return {"rungs": ["ag3", "truncated"], "relabel": {"ag3": inputs["relabel"]["ag3"]}}


def _run_small(workload, inputs, trace=False):
    """Run a workload body on trimmed inputs; return (observations, tracer)."""
    clock = workloads.Clock()
    tracer = None
    if trace:
        with layers.Tracer() as tracer:
            observations = workloads.run(workload, inputs, clock)
    else:
        observations = workloads.run(workload, inputs, clock)
    assert clock.total > 0
    return observations, tracer


@pytest.fixture(scope="module")
def group_inputs():
    inputs = workloads.make_inputs("group", 7, "")
    return {"gens": inputs["gens"][:1]}


@pytest.fixture(scope="module")
def group_run(group_inputs):
    return _run_small("group", group_inputs)


def test_inputs_follow_the_seed():
    assert workloads.make_inputs("ladder", 3, "") == workloads.make_inputs("ladder", 3, "")
    assert workloads.make_inputs("ladder", 3, "") != workloads.make_inputs("ladder", 4, "")
    assert workloads.make_inputs("ladder", 3, "") != workloads.make_inputs("ladder", 3, "", 1)
    gens = workloads.make_inputs("group", 3, "")["gens"]
    assert len(set(gens)) == workloads.GROUP_ACTIONS
    asset = (ROOT / "src/golay486/data/generators_486.txt").read_text()
    bundled = permaction.parse_generator_file(asset).generators
    relabelled = permaction.parse_generator_file(gens[0]).generators
    assert relabelled != bundled  # never the identity relabelling


def test_ladder_checks_pass_and_catch_a_wrong_array(monkeypatch):
    observations, _ = _run_small("ladder", _small_ladder_inputs(5))
    results = dict(workloads.check("ladder", observations))
    assert results == {
        "ag3.array": True, "ag3.graph6": True, "ag3.isomorphism": True,
        "truncated.array": True, "truncated.graph6": True,
    }
    monkeypatch.setitem(workloads.LADDER_ARRAYS, "truncated", "{20,18; 1,5}")
    results = dict(workloads.check("ladder", observations))
    assert results["truncated.array"] is False
    assert workloads.unexpected_failures("ladder", list(results.items())) == [
        "truncated.array"
    ]


def test_ladder_closed_form_matches_known_arrays():
    assert workloads.ag_array(3) == "{9,8,6,1; 1,3,8,9}"
    assert workloads.ag_array(5) == "{81,80,54,1; 1,27,80,81}"


def test_group_fails_only_the_known_blocks_defect(group_run):
    observations, _ = group_run
    results = workloads.check("group", observations)
    assert len(results) == len(workloads.GROUP_CHECKS)
    failed = {name for name, ok in results if not ok}
    assert failed <= workloads.KNOWN_DEFECTS["group"]
    assert workloads.unexpected_failures("group", results) == []


def test_group_catches_a_wrong_order(group_run, monkeypatch):
    observations, _ = group_run
    monkeypatch.setattr(workloads, "GROUP_ORDER", 349921)
    results = workloads.check("group", observations)
    assert dict(results)["order"] is False
    assert workloads.unexpected_failures("group", results) == ["order"]


def test_verify_check_needs_every_claim_and_a_consistent_exit():
    verdicts = {c: "PASS" for c in workloads.VERIFY_CLAIMS}
    ok = workloads.check("verify", [{"exit": 0, "verdicts": verdicts}])
    assert all(passed for _, passed in ok)
    wrong_exit = workloads.check("verify", [{"exit": 1, "verdicts": verdicts}])
    assert not any(passed for _, passed in wrong_exit)
    one_fails = dict(verdicts, **{"group.order": "FAIL"})
    results = dict(workloads.check("verify", [{"exit": 1, "verdicts": one_fails}]))
    assert [c for c, passed in results.items() if not passed] == ["group.order"]


def test_traced_run_gives_the_same_verdicts(group_inputs, group_run):
    untraced, _ = group_run
    traced, tracer = _run_small("group", group_inputs, trace=True)
    assert workloads.check("group", traced) == workloads.check("group", untraced)
    metrics = tracer.metrics()
    assert metrics["permaction.group_order.calls"] == 1
    assert metrics["gf3.subspace_weight_counts.calls"] == 0
    ladder_inputs = _small_ladder_inputs(5)
    plain, _ = _run_small("ladder", ladder_inputs)
    traced, tracer = _run_small("ladder", ladder_inputs, trace=True)
    assert workloads.check("ladder", traced) == workloads.check("ladder", plain)
    metrics = tracer.metrics()
    assert metrics["graph.is_distance_regular.calls"] == 2
    assert metrics["graph.drg_vertices"] == 54 + 81
    assert metrics["graph.are_isomorphic.self_s"] <= metrics["graph.are_isomorphic.s"]


def test_tracer_restores_every_binding():
    from golay486 import cli, graph

    before = cli.are_isomorphic
    with layers.Tracer():
        assert cli.are_isomorphic is not before
        assert cli.are_isomorphic is graph.are_isomorphic
    assert cli.are_isomorphic is before is graph.are_isomorphic


def test_declared_per_layer_metrics_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layers.Tracer().metrics())
    for metric in spec["per_layer"]:
        name = metric["name"]
        run_level = name.startswith(("cli.stage.", "speed.")) or name == "trace.overhead_s"
        assert name in produced or run_level, name


def test_speed_correction_rescales_by_the_probe():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_PROBE_S
    tick = 0.001
    # A tick every 0.1 s that ends at t = 0.1, 0.2, ...; its probe took twice
    # the reference time up to t = 0.5 and the reference time after it.
    for k in range(1, 11):
        n = probe._count
        probe._begun[n] = k / 10 - tick
        probe._ended[n] = k / 10
        probe._took[n] = 2 * ref if k <= 5 else ref
        probe._count += 1
    wall, corrected = probe.corrected(0.0, 1.0)
    assert wall == pytest.approx(1.0 - 10 * tick)
    slow = fast = 0.5 - 5 * tick
    # Only the stretch at the switch sees a mixed neighbourhood of probes.
    assert corrected == pytest.approx(slow / 2 + fast, rel=0.03)
    assert probe.corrected(0.0, 0.2)[1] == pytest.approx((0.2 - 2 * tick) / 2)
    assert probe.corrected(0.65, 0.75) == pytest.approx((0.1 - tick, 0.1 - tick))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
