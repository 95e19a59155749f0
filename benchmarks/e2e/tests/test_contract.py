"""``BENCHMARK.json`` and the code name the same things, and the op
generators are seeded, stratified and oracle-checked."""

import json
import os

from benchmarks.e2e import ROOT, domain, ops
from benchmarks.e2e.cli import DEFAULT_SECONDS
from benchmarks.e2e.layers import PER_LAYER
from benchmarks.e2e.loadgen import Phase
from benchmarks.e2e.workloads import (
    SEGMENTS, WORKLOADS, Result, Segment, _phase_steps,
)


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_contract_names_the_workloads_and_the_run_length():
    contract = _contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert contract["run_seconds"] == DEFAULT_SECONDS
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "-m", "benchmarks.e2e",
                                   "run"]


def test_contract_end_to_end_metrics_match_the_runner():
    measured = Phase(wall=1.0, attempted=4, correct=4,
                     admit_latencies=[0.001, 0.002])
    result = Result(
        workload="w", seed=1, digest="", answers="",
        setup_times=[1.0, 2.0, 3.0], warmup=Phase(),
        segments=[Segment(measured, 0.5)], rss_mb=10.0, problems=[])
    produced = {name: unit
                for name, (_v, unit) in result.end_to_end().items()}
    declared = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert produced == declared
    bounds = {m["name"]: m["bound"] for m in _contract()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_contract_per_layer_metrics_match_the_traced_run():
    declared = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert declared == PER_LAYER


def test_same_seed_same_ops_other_seed_other_ops():
    first = ops.rest_plan(3, lifecycles=200)
    again = ops.rest_plan(3, lifecycles=200)
    other = ops.rest_plan(4, lifecycles=200)
    assert first.digest == again.digest != other.digest
    assert first.lifecycles == again.lifecycles


def test_rest_mix_is_exact_whatever_the_seed():
    for seed in (1, 2):
        plan = ops.rest_plan(seed, lifecycles=200)
        kinds = [item.kind for item in plan.lifecycles]
        assert (kinds.count("local"), kinds.count("span"),
                kinds.count("full")) == (140, 40, 20)
        # The oracle refuses exactly the admits aimed at the full pod.
        refused = {item.flow_id for item in plan.lifecycles
                   if not plan.expected[item.flow_id].admitted}
        assert refused == {item.flow_id for item in plan.lifecycles
                           if item.kind == "full"}
        assert len(plan.standing) == 3 * 10 + 30


def test_rest_plan_sized_by_requests():
    plan = ops.rest_plan(1, requests=3700)
    requests = sum(4 if plan.expected[item.flow_id].admitted else 1
                   for item in plan.lifecycles)
    assert abs(requests - 3700) <= 4


def test_engine_plan_asks_every_seed_for_the_same_deadlines():
    first, other = ops.engine_plan(1, 200), ops.engine_plan(2, 200)
    assert first.digest != other.digest

    def deadlines(plan):
        return sorted(op.delay for op in plan.ops if op.op == "admit")

    assert deadlines(first) == deadlines(other)
    assert len(set(deadlines(first))) == 100
    assert len(first.standing) == domain.ENGINE_STANDING
    assert len(first.final_flows) == domain.ENGINE_STANDING


def test_edge_windows_spread_evenly_over_the_paths():
    plan = ops.edge_plan(1, 3)
    for window in plan.rounds:
        assert len(window) == domain.EDGE_WINDOW
        per_path = {}
        for flow in window:
            per_path[flow.nodes] = per_path.get(flow.nodes, 0) + 1
        assert set(per_path.values()) == {
            domain.EDGE_WINDOW // domain.EDGE_PATHS}


def test_matches_compares_decision_and_rate():
    admitted = ops.Expected(True, 1500000.0, 0.0)
    assert ops.matches(admitted, True, 1500000.0)
    assert not ops.matches(admitted, True, 1500001.0)
    assert not ops.matches(admitted, False, 0.0)
    assert ops.matches(ops.Expected(False, 0.0, 0.0), False, 123.0)


def test_phases_are_warmup_then_segments_in_whole_units():
    units = [[(index, part) for part in range(4)] for index in range(205)]
    warm_up, *segments = _phase_steps(units)
    assert warm_up + [step for part in segments for step in part] == [
        step for unit in units for step in unit]
    assert len(warm_up) == 21 * 4                   # ceil(10 %) units
    assert len(segments) == SEGMENTS
    # 184 units in nine segments: 20 or 21 whole units each.
    assert {len(part) for part in segments} == {20 * 4, 21 * 4}


def _segment(wall, latency, cpu_s, ops=100):
    return Segment(Phase(wall=wall, attempted=ops, correct=ops,
                         admit_latencies=[latency] * 20), cpu_s)


def _metrics(segments):
    result = Result(
        workload="w", seed=1, digest="", answers="",
        setup_times=[0.9, 1.0, 3.0], warmup=Phase(),
        segments=segments, rss_mb=10.0, problems=[])
    return result, {k: v for k, (v, _u) in result.end_to_end().items()}


def test_end_to_end_metrics_are_the_better_quartile_of_the_segments():
    """A spell that slows six of the nine segments (the host's doing)
    moves no gated figure; the whole-phase figures, printed beside
    them, carry all of it."""
    calm = [_segment(1.0, 0.002, 0.10) for _ in range(3)]
    slow = [_segment(1.5, 0.003, 0.15) for _ in range(6)]
    result, metrics = _metrics(slow[:3] + calm + slow[3:])
    assert metrics["setup_s"] == 1.0
    assert metrics["goodput_rps"] == 100.0
    assert metrics["admit_p50_ms"] == 2.0
    assert metrics["admit_p90_ms"] == 2.0
    assert metrics["cpu_ms_per_op"] == 1.0
    whole = {k: v for k, (v, _u) in result.whole_phase().items()}
    assert whole["goodput_rps"] == 900 / 12.0
    assert whole["admit_p50_ms"] == whole["admit_p90_ms"] == 3.0
    assert abs(whole["cpu_ms_per_op"] - 1200.0 / 900) < 1e-9


def test_a_program_that_got_slower_is_slower_in_every_segment():
    _result, metrics = _metrics(
        [_segment(1.5, 0.003, 0.15) for _ in range(9)])
    assert metrics["goodput_rps"] == 100 / 1.5
    assert metrics["admit_p50_ms"] == 3.0
    assert metrics["cpu_ms_per_op"] == 1.5
