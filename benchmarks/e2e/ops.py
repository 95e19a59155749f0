"""Seeded op lists and the sequential-broker oracle.

Every op list is built from ``--seed`` before any clock starts, and
work is a fixed op *count* (a per-second constant times ``--seconds``),
never a duration: state depth and the admit/refuse mix repeat exactly
from run to run.  Each list is then replayed through one sequential
:class:`~repro.core.broker.BandwidthBroker` provisioned with the same
topology as the SUT; its answers are what the SUT must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.cluster import domain_atlas, plan_pod_domain
from repro.core.broker import BandwidthBroker
from repro.service.loadgen import provision_parallel_paths
from repro.traffic.spec import TSpec

from benchmarks.e2e import domain

__all__ = [
    "Expected", "Lifecycle", "RestPlan", "EdgePlan", "EnginePlan",
    "WorkloadError", "digest", "rest_plan", "edge_plan", "engine_plan",
    "matches",
]


class WorkloadError(RuntimeError):
    """The workload is mis-sized: the oracle itself hit an answer the
    workload's definition rules out (e.g. a refused standing flow)."""


class Expected(NamedTuple):
    """The oracle's answer to one admit."""

    admitted: bool
    rate: float
    delay: float


def matches(expected: Expected, admitted: bool, rate: float) -> bool:
    """Does a SUT answer agree with the oracle's?"""
    if bool(admitted) != expected.admitted:
        return False
    return not expected.admitted or math.isclose(
        rate, expected.rate, rel_tol=1e-9)


def stratified(rng: random.Random, shares: Sequence[Tuple[object, float]],
               count: int) -> List[object]:
    """*count* labels in seeded order whose proportions are exactly
    *shares* (largest remainders), so every seed gives the same mix
    and only the order differs — the run-to-run spread then measures
    the system, not the sampling of its inputs."""
    exact = [(label, share * count) for label, share in shares]
    counts = {label: int(amount) for label, amount in exact}
    leftovers = sorted(exact, key=lambda e: e[1] - int(e[1]),
                       reverse=True)
    for label, _amount in leftovers[:count - sum(counts.values())]:
        counts[label] += 1
    labels = [label for label, _share in shares
              for _ in range(counts[label])]
    rng.shuffle(labels)
    return labels


def digest(items: Sequence) -> str:
    """SHA-256 of an op list's canonical JSON form."""
    blob = json.dumps(items, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _admit(oracle: BandwidthBroker, flow_id: str, spec: TSpec,
           delay: float, nodes: Sequence[str]) -> Expected:
    decision = oracle.request_service(
        flow_id, spec, delay, nodes[0], nodes[-1], path_nodes=nodes)
    return Expected(decision.admitted, decision.rate, decision.delay)


def _link_loads(oracle: BandwidthBroker) -> Dict[str, float]:
    return {
        f"{link.link_id[0]}->{link.link_id[1]}": link.reserved_rate
        for link in oracle.node_mib.links()
    }


# ----------------------------------------------------------------------
# REST stack: lifecycles on the pod domain
# ----------------------------------------------------------------------


class Lifecycle(NamedTuple):
    """POST admit -> POST refresh -> GET -> DELETE on one flow; ends
    after the admit when admission control refuses it."""

    flow_id: str
    kind: str               #: "local", "span" or "full"
    nodes: Tuple[str, ...]


@dataclass
class RestPlan:
    standing: List[Lifecycle]
    lifecycles: List[Lifecycle]
    expected: Dict[str, Expected]
    final_loads: Dict[str, float]
    digest: str

    @property
    def standing_ids(self) -> List[str]:
        return [item.flow_id for item in self.standing]


def rest_domain():
    return plan_pod_domain(
        domain.REST_SHARDS, pods=domain.REST_PODS,
        capacity=domain.REST_CAPACITY,
    )


def rest_plan(seed: int, *, lifecycles: int = 0, requests: int = 0,
              tag: str = "f") -> RestPlan:
    """Seeded lifecycles — *lifecycles* of them, or as many as make
    about *requests* HTTP requests — in exactly the workload's mix,
    plus the standing population, with the oracle's answer to every
    admit."""
    pods = rest_domain()
    oracle = domain_atlas(pods)
    rng = random.Random(seed)
    expected: Dict[str, Expected] = {}

    standing: List[Lifecycle] = []
    for pod in domain.REST_LOCAL_PODS:
        for index in range(domain.REST_STANDING_PER_LOCAL_POD):
            standing.append(Lifecycle(
                f"st-p{pod}-{index}", "local", pods.pod_paths[pod]))
    for item in standing:
        answer = _admit(oracle, item.flow_id, domain.REST_SPEC,
                        domain.REST_DELAY, item.nodes)
        if not answer.admitted:
            raise WorkloadError(f"standing flow {item.flow_id} refused")
        expected[item.flow_id] = answer
    full_nodes = pods.pod_paths[domain.REST_FULL_POD]
    while True:
        flow_id = f"st-full-{len(standing)}"
        answer = _admit(oracle, flow_id, domain.REST_SPEC,
                        domain.REST_DELAY, full_nodes)
        if not answer.admitted:
            break
        standing.append(Lifecycle(flow_id, "full", full_nodes))
        expected[flow_id] = answer

    span_nodes = pods.spanning_paths[domain.REST_SPAN_INDEX]
    if requests:
        per_lifecycle = sum(share * (1 if kind == "full" else 4)
                            for kind, share in domain.REST_MIX)
        lifecycles = int(round(requests / per_lifecycle))
    local_share = 1.0 / len(domain.REST_LOCAL_PODS)
    kinds = stratified(rng, domain.REST_MIX, lifecycles)
    local_pods = stratified(
        rng, [(pod, local_share) for pod in domain.REST_LOCAL_PODS],
        kinds.count("local"))
    plan: List[Lifecycle] = []
    for kind in kinds:
        if kind == "local":
            nodes = pods.pod_paths[local_pods.pop()]
        elif kind == "span":
            nodes = span_nodes
        else:
            nodes = full_nodes
        plan.append(Lifecycle(f"{tag}{len(plan)}", kind, nodes))

    for item in plan:
        answer = _admit(oracle, item.flow_id, domain.REST_SPEC,
                        domain.REST_DELAY, item.nodes)
        if answer.admitted != (item.kind != "full"):
            raise WorkloadError(
                f"{item.kind} admit {item.flow_id} answered "
                f"admitted={answer.admitted} by the oracle")
        expected[item.flow_id] = answer
        if answer.admitted:
            oracle.terminate(item.flow_id)
    return RestPlan(
        standing=standing, lifecycles=plan, expected=expected,
        final_loads=_link_loads(oracle),
        digest=digest([standing, plan]),
    )


# ----------------------------------------------------------------------
# edge stack: pipelined windows on disjoint rate-based paths
# ----------------------------------------------------------------------


class EdgeFlow(NamedTuple):
    flow_id: str
    nodes: Tuple[str, ...]


@dataclass
class EdgePlan:
    standing: List[EdgeFlow]
    rounds: List[List[EdgeFlow]]
    expected: Dict[str, Expected]
    final_loads: Dict[str, float]
    digest: str

    @property
    def standing_ids(self) -> List[str]:
        return [item.flow_id for item in self.standing]


def edge_plan(seed: int, rounds: int) -> EdgePlan:
    oracle = BandwidthBroker()
    paths = provision_parallel_paths(
        oracle, paths=domain.EDGE_PATHS, hops=domain.EDGE_HOPS,
        capacity=domain.EDGE_CAPACITY,
    )
    rng = random.Random(seed)
    expected: Dict[str, Expected] = {}

    def admit(flow: EdgeFlow) -> None:
        answer = _admit(oracle, flow.flow_id, domain.EDGE_SPEC,
                        domain.EDGE_DELAY, flow.nodes)
        if not answer.admitted:
            raise WorkloadError(f"edge flow {flow.flow_id} refused")
        expected[flow.flow_id] = answer

    standing = [
        EdgeFlow(f"st-{index}", paths[index % len(paths)])
        for index in range(domain.EDGE_STANDING)
    ]
    for flow in standing:
        admit(flow)
    plan_rounds: List[List[EdgeFlow]] = []
    for number in range(rounds):
        order = stratified(
            rng, [(path, 1.0 / len(paths)) for path in paths],
            domain.EDGE_WINDOW)
        window = [EdgeFlow(f"r{number}-{slot}", nodes)
                  for slot, nodes in enumerate(order)]
        for flow in window:
            admit(flow)
        for flow in window:
            oracle.terminate(flow.flow_id)
        plan_rounds.append(window)
    return EdgePlan(
        standing=standing, rounds=plan_rounds, expected=expected,
        final_loads=_link_loads(oracle),
        digest=digest([standing, plan_rounds]),
    )


# ----------------------------------------------------------------------
# engine: admits and teardowns at depth on mixed paths
# ----------------------------------------------------------------------


class EngineOp(NamedTuple):
    op: str                 #: "admit" or "teardown"
    flow_id: str
    path: int               #: index into the provisioned paths
    delay: float            #: delay requirement (admits only)


@dataclass
class EnginePlan:
    standing: List[EngineOp]
    ops: List[EngineOp]
    expected: Dict[str, Expected]
    final_flows: List[str]
    digest: str


def engine_broker() -> Tuple[BandwidthBroker, List[Tuple[str, ...]]]:
    """A fresh broker on the engine_deep topology (used for the SUT
    and the oracle alike)."""
    broker = BandwidthBroker()
    paths = provision_parallel_paths(
        broker, paths=domain.ENGINE_PATHS, hops=domain.ENGINE_HOPS,
        delay_hops=domain.ENGINE_DELAY_HOPS,
        capacity=domain.ENGINE_CAPACITY,
    )
    return broker, paths


def engine_apply(broker: BandwidthBroker, paths, op: EngineOp):
    """Run one engine op; admits return the broker's decision."""
    if op.op == "admit":
        nodes = paths[op.path]
        return broker.request_service(
            op.flow_id, domain.ENGINE_SPEC, op.delay,
            nodes[0], nodes[-1], path_nodes=nodes)
    broker.terminate(op.flow_id)
    return None


def engine_plan(seed: int, count: int) -> EnginePlan:
    """*count* ops alternating an admit at a random deadline with the
    teardown of a random live flow.  The generator assumes every
    admit succeeds (so the list does not depend on the engine's
    answers); the oracle replay below confirms it."""
    rng = random.Random(seed)
    low, high = domain.ENGINE_DELAY_RANGE

    def deadlines(total: int, offset: float) -> List[float]:
        """An even grid over the range in seeded order: every seed
        asks for the same deadlines, only in another order."""
        grid = [low + (high - low) * (k + offset) / total
                for k in range(total)]
        rng.shuffle(grid)
        return grid

    standing = [
        EngineOp("admit", f"st-{index}", index % domain.ENGINE_PATHS,
                 delay)
        for index, delay in enumerate(
            deadlines(domain.ENGINE_STANDING, 0.25))
    ]
    live = [op.flow_id for op in standing]
    admits = count // 2
    delays = deadlines(admits, 0.75)
    paths_order = stratified(
        rng, [(path, 1.0 / domain.ENGINE_PATHS)
              for path in range(domain.ENGINE_PATHS)], admits)
    ops: List[EngineOp] = []
    for index in range(count):
        if index % 2 == 0:
            flow_id = f"m{index // 2}"
            ops.append(EngineOp("admit", flow_id,
                                paths_order[index // 2],
                                delays[index // 2]))
            live.append(flow_id)
        else:
            slot = rng.randrange(len(live))
            live[slot], live[-1] = live[-1], live[slot]
            ops.append(EngineOp("teardown", live.pop(), 0, 0.0))

    oracle, paths = engine_broker()
    expected: Dict[str, Expected] = {}
    for op in standing + ops:
        decision = engine_apply(oracle, paths, op)
        if decision is None:
            continue
        if not decision.admitted:
            raise WorkloadError(
                f"engine admit {op.flow_id} refused by the oracle: "
                f"{decision.detail}")
        expected[op.flow_id] = Expected(
            True, decision.rate, decision.delay)
    return EnginePlan(
        standing=standing, ops=ops, expected=expected,
        final_flows=sorted(live), digest=digest([standing, ops]),
    )
