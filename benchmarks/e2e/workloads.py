"""The four workloads and the runner that measures one of them.

============== =====================================================
rest_closed    one closed-loop REST client through every stage of the
               stack — the per-admit latency budget
rest_open      the same stack under two independent Poisson senders
               at about half its capacity — queueing and contention
edge_pipelined pipelined 64-admit windows straight into the gateway —
               wire codec, batching and WAL group commit
engine_deep    the admission engine alone on deep mixed paths — the
               Figure-4 scan and the deadline ledgers
============== =====================================================

Run protocol (all workloads): plan the op list and its oracle answers
from the seed; set the SUT up :data:`SETUPS` times (timed, the median
is ``setup_s``) and keep the last; freeze the heap; run the first
tenth of the ops as warm-up; measure the rest in :data:`SEGMENTS`
consecutive segments; check the end state; reap the SUT.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import (
    Any, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.controlplane import ControlPlaneClient
from repro.edge.agent import AdmitOp, EdgeAgent, tcp_connector
from repro.edge.protocol import encode_spec

from benchmarks.e2e import domain, ops, procstat
from benchmarks.e2e.harness import (
    ALL_CPUS, GENERATOR_CPUS, KeepAwake, RunDir, Sut,
)
from benchmarks.e2e.loadgen import (
    Phase, Span, Step, poisson_schedule, run_closed, run_open,
)
from benchmarks.e2e.stats import median, percentile

__all__ = ["WORKLOADS", "SETUPS", "SEGMENTS", "Result", "Segment",
           "run_workload"]

#: Set-ups per run; ``setup_s`` is their median, so one slow spawn
#: (a cold page cache, the first byte-compile) does not decide it.
SETUPS = 3

#: Consecutive segments of the measured phase.  Each yields its own
#: goodput, admit percentiles and CPU per op, and a run reports the
#: third best of the nine (the quartile on the better side).  The host
#: only ever *adds* delay, in spells of one to ten seconds during
#: which the same code runs 1.1x to 1.45x slower (README, "Host
#: caveats"); whole-phase numbers measured how much of a run such
#: spells covered, so ``admit_p90_ms`` of identical code differed by a
#: quarter between runs.  A third of the segments on an undisturbed
#: host is enough for this figure to hold still, and what the program
#: itself got slower at is slower in every segment.
SEGMENTS = 9


@dataclass
class Segment:
    """One consecutive ninth of the measured phase and the SUT CPU
    seconds it consumed."""

    phase: Phase
    cpu_s: float


@dataclass
class Result:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    digest: str
    answers: str
    setup_times: List[float]
    warmup: Phase
    segments: List[Segment]
    rss_mb: float
    problems: List[str]
    counters: Dict[str, float] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)

    @functools.cached_property
    def measured(self) -> Phase:
        """The whole measured phase: every segment, merged."""
        whole = Phase(wall=sum(segment.phase.wall
                               for segment in self.segments))
        for segment in self.segments:
            whole.merge(segment.phase)
        return whole

    @property
    def correct(self) -> bool:
        return not self.problems and self.measured.failed == 0 \
            and self.warmup.failed == 0

    def whole_phase(self) -> Dict[str, Tuple[float, str]]:
        """The four rate and time figures over the whole measured
        phase, host spells and stalls included (printed beside the
        gated ones, and what ``tail.admit_p99_ms`` ranks)."""
        return _figures(self.measured,
                        sum(segment.cpu_s for segment in self.segments))

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The six end-to-end metrics (see :data:`SEGMENTS`)."""
        per_segment = [_figures(segment.phase, segment.cpu_s)
                       for segment in self.segments]
        metrics = {"setup_s": (median(self.setup_times), "s")}
        for name, (_value, unit) in per_segment[0].items():
            values = sorted(figures[name][0] for figures in per_segment)
            if name == "goodput_rps":
                values.reverse()
            metrics[name] = (values[len(values) // 4], unit)
        metrics["rss_mb"] = (self.rss_mb, "MB")
        return metrics


def _figures(phase: Phase, cpu_s: float) -> Dict[str, Tuple[float, str]]:
    latencies = phase.admit_latencies
    return {
        "goodput_rps": (phase.correct / phase.wall, "1/s"),
        "admit_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "admit_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "cpu_ms_per_op": (cpu_s * 1e3 / max(phase.correct, 1), "ms"),
    }


# ----------------------------------------------------------------------
# REST workloads
# ----------------------------------------------------------------------

_SPEC_BODY = encode_spec(domain.REST_SPEC)


def rest_admit_body(item: ops.Lifecycle) -> Dict[str, Any]:
    return {
        "flow_id": item.flow_id,
        "spec": _SPEC_BODY,
        "delay_requirement": domain.REST_DELAY,
        "ingress": item.nodes[0],
        "egress": item.nodes[-1],
        "service_class": "",
        "path_nodes": list(item.nodes),
    }


def rest_admit_step(client: ControlPlaneClient, index: int,
                    item: ops.Lifecycle, expected: ops.Expected,
                    record: Dict[str, tuple]) -> Step:
    body = rest_admit_body(item)
    flow_id = item.flow_id

    def send() -> int:
        reply = client.request("POST", "/v1/flows", body=body)
        answer = reply.body if isinstance(reply.body, dict) else {}
        decision = answer.get("decision") or {}
        record[flow_id] = (
            reply.status, decision.get("admitted"), decision.get("rate"))
        if "admitted" not in decision:
            return 0
        if reply.status != (201 if expected.admitted else 409):
            return 0
        if not expected.admitted and answer.get("lease"):
            return 0  # an adopted orphan, not an admission refusal
        return int(ops.matches(expected, decision["admitted"],
                               decision.get("rate", 0.0)))

    return Step("rest.admit", index, send, is_admit=True)


def rest_lifecycle_steps(client: ControlPlaneClient, index: int,
                         item: ops.Lifecycle, expected: ops.Expected,
                         record: Dict[str, tuple]) -> List[Step]:
    """The requests of one lifecycle, bodies and checks pre-built."""
    steps = [rest_admit_step(client, index, item, expected, record)]
    if not expected.admitted:
        return steps
    flow_id = item.flow_id
    flow_path = f"/v1/flows/{flow_id}"
    refresh_path = f"{flow_path}/refresh"

    def refresh() -> int:
        reply = client.request("POST", refresh_path, body={})
        return int(reply.status == 200
                   and flow_id in reply.body["refreshed"])

    def get() -> int:
        reply = client.request("GET", flow_path)
        return int(reply.status == 200
                   and reply.body["flow_id"] == flow_id)

    def delete() -> int:
        return int(client.request("DELETE", flow_path, body={}
                                  ).status == 200)

    steps.append(Step("rest.refresh", index, refresh))
    steps.append(Step("rest.get", index, get))
    steps.append(Step("rest.teardown", index, delete))
    return steps


def rest_units(clients: Sequence[ControlPlaneClient],
               plan: ops.RestPlan, record: Dict[str, tuple]
               ) -> List[List[List[Step]]]:
    """Per client, the step groups of the lifecycles it sends (dealt
    round-robin)."""
    per_client: List[List[List[Step]]] = [[] for _ in clients]
    for index, item in enumerate(plan.lifecycles):
        slot = index % len(clients)
        per_client[slot].append(rest_lifecycle_steps(
            clients[slot], index, item, plan.expected[item.flow_id],
            record))
    return per_client


def schedule_rngs(seed: int, count: int) -> List[random.Random]:
    return [random.Random(seed * 7919 + slot) for slot in range(count)]


def open_schedules(rngs: Sequence[random.Random], rate: float,
                   per_slot: Sequence[Sequence[Step]]
                   ) -> List[List[Tuple[float, Step]]]:
    """One Poisson schedule of *rate* per second per sender."""
    return [
        list(zip(poisson_schedule(rng, rate, len(steps)), steps))
        for rng, steps in zip(rngs, per_slot)
    ]


def _answers_digest(record: Dict[str, tuple]) -> str:
    blob = repr(sorted(record.items())).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class _RestContext(NamedTuple):
    sut: Sut
    clients: List[ControlPlaneClient]


class RestWorkload:
    """``rest_closed`` and ``rest_open``: lifecycles over the full
    stack, one closed-loop client or two open-loop senders."""

    sut_kind = "rest"
    #: One request hops through five processes, and the SUT's CPU
    #: would halt between every two hops: no CPU is left to idle.
    awake = ALL_CPUS

    def __init__(self, name: str, open_loop: bool) -> None:
        self.name = name
        self.open_loop = open_loop
        self.connections = domain.REST_OPEN_THREADS if open_loop else 1

    def plan(self, seed: int, seconds: float) -> ops.RestPlan:
        if self.open_loop:
            requests = int(round(
                domain.REST_OPEN_RATE_PER_THREAD
                * domain.REST_OPEN_THREADS * seconds))
            return ops.rest_plan(seed, requests=requests)
        lifecycles = int(round(
            domain.REST_CLOSED_LIFECYCLES_PER_S * seconds))
        return ops.rest_plan(seed, lifecycles=lifecycles)

    def setup(self, plan: ops.RestPlan, run_dir: str,
              stack: contextlib.ExitStack) -> _RestContext:
        sut = stack.enter_context(Sut(self.sut_kind, run_dir))
        clients = [
            stack.enter_context(ControlPlaneClient(sut.host, sut.port))
            for _ in range(self.connections)
        ]
        record: Dict[str, tuple] = {}
        preload = [
            rest_admit_step(clients[0], index, item,
                            plan.expected[item.flow_id], record)
            for index, item in enumerate(plan.standing)
        ]
        phase = run_closed(preload)
        if phase.failed:
            raise ops.WorkloadError(
                f"{phase.failed} standing flows not admitted: "
                f"{phase.errors}")
        return _RestContext(sut, clients)

    def tree(self, context: _RestContext) -> List[int]:
        return context.sut.tree()

    def phases(self, plan: ops.RestPlan, context: _RestContext,
               seed: int, record: Dict[str, tuple]):
        """Thunks ``spans -> Phase``: the warm-up, then each measured
        segment."""
        per_client = rest_units(context.clients, plan, record)
        if not self.open_loop:
            return _closed_phases(per_client[0])
        # Open loop: each phase is a fresh pair of Poisson schedules,
        # so a backlog cannot leak from the warm-up, or from one
        # segment, into the next.
        rngs = schedule_rngs(seed, len(per_client))
        return [
            functools.partial(run_open, open_schedules(
                rngs, domain.REST_OPEN_RATE_PER_THREAD, per_slot))
            for per_slot in zip(*map(_phase_steps, per_client))
        ]

    def counters(self, context: _RestContext) -> Dict[str, float]:
        return context.sut.call("stats")

    def verify(self, plan: ops.RestPlan, context: _RestContext
               ) -> List[str]:
        state = context.sut.call("verify")
        problems = _verify_state(state, plan.standing_ids,
                                 plan.final_loads)
        if state["registry"] != sorted(plan.standing_ids):
            problems.append("REST registry differs from the standing "
                            "population")
        return problems


def _warmup_count(total: int) -> int:
    return int(math.ceil(total * domain.WARMUP_SHARE))


def _phase_steps(units: Sequence[Sequence[Step]]) -> List[List[Step]]:
    """The steps of the warm-up, then of each measured segment.
    *units* are indivisible step groups (a lifecycle, a round): no
    boundary cuts one in half."""
    cut = _warmup_count(len(units))
    rest = len(units) - cut
    edges = [cut + rest * k // SEGMENTS for k in range(SEGMENTS + 1)]
    parts = [units[:cut]] + [units[low:high]
                             for low, high in zip(edges, edges[1:])]
    return [[step for unit in part for step in unit] for part in parts]


def _closed_phases(units: Sequence[Sequence[Step]]):
    return [functools.partial(run_closed, steps)
            for steps in _phase_steps(units)]


def _verify_state(state: Dict[str, Any], standing: Sequence[str],
                  loads: Dict[str, float]) -> List[str]:
    """End-of-run invariants shared by the socket workloads: only the
    standing population remains, with the oracle's link loads, and no
    two-phase hold or parked coordinator op is left behind."""
    problems = []
    if state["flows"] != sorted(standing):
        extra = sorted(set(state["flows"]) - set(standing))[:5]
        missing = sorted(set(standing) - set(state["flows"]))[:5]
        problems.append(
            f"flows left differ from the standing population "
            f"(extra {extra}, missing {missing})")
    if state["holds"]:
        problems.append(f"outstanding 2PC holds: {state['holds'][:5]}")
    if state["unresolved"]:
        problems.append(f"parked coordinator ops: {state['unresolved']}")
    for link, load in loads.items():
        if not math.isclose(state["link_loads"].get(link, -1.0), load,
                            rel_tol=1e-9, abs_tol=1e-6):
            problems.append(
                f"link {link} carries {state['link_loads'].get(link)} "
                f"b/s, oracle {load}")
            break
    return problems


# ----------------------------------------------------------------------
# edge_pipelined
# ----------------------------------------------------------------------


class _EdgeContext(NamedTuple):
    sut: Sut
    agent: EdgeAgent


def _admit_ops(flows: Sequence[ops.EdgeFlow]) -> List[AdmitOp]:
    return [
        AdmitOp(flow.flow_id, domain.EDGE_SPEC, domain.EDGE_DELAY,
                flow.nodes[0], flow.nodes[-1], path_nodes=flow.nodes)
        for flow in flows
    ]


def edge_window_steps(agent: EdgeAgent, number: int,
                      flows: Sequence[ops.EdgeFlow],
                      expected: Dict[str, ops.Expected],
                      record: Dict[str, tuple]) -> List[Step]:
    """One round: a pipelined admit window, then its teardowns."""
    admits = _admit_ops(flows)
    flow_ids = [flow.flow_id for flow in flows]

    def admit_many() -> int:
        replies = agent.admit_many(admits)
        good = 0
        for flow_id in flow_ids:
            reply = replies.get(flow_id) or {}
            decision = reply.get("decision") or {}
            record[flow_id] = (reply.get("status"),
                               decision.get("admitted"),
                               decision.get("rate"))
            good += int(
                reply.get("status") == "ok" and "admitted" in decision
                and ops.matches(expected[flow_id], decision["admitted"],
                                decision.get("rate", 0.0)))
        return good

    def teardown_many() -> int:
        replies = agent.teardown_many(flow_ids)
        return sum(
            1 for flow_id in flow_ids
            if (replies.get(flow_id) or {}).get("status") == "ok")

    return [
        Step("edge.admit_many", number, admit_many, ops=len(flows),
             is_admit=True),
        Step("edge.teardown_many", number, teardown_many,
             ops=len(flows)),
    ]


class EdgeWorkload:
    name = "edge_pipelined"
    #: Only the generator's CPU is kept awake.  Beside this
    #: one-process SUT a spinner cost more than it saved: windows ran
    #: a quarter slower, and one in seven waited 43 ms longer on WAL
    #: fsyncs that returned at the 4 ms tick, so ``admit_p90_ms``
    #: flipped between 30 and 68 ms from run to run.
    awake = GENERATOR_CPUS

    def plan(self, seed: int, seconds: float) -> ops.EdgePlan:
        rounds = int(round(domain.EDGE_ROUNDS_PER_S * seconds))
        return ops.edge_plan(seed, rounds)

    def setup(self, plan: ops.EdgePlan, run_dir: str,
              stack: contextlib.ExitStack) -> _EdgeContext:
        sut = stack.enter_context(Sut("edge", run_dir))
        agent = stack.enter_context(EdgeAgent(
            "edge-0", tcp_connector(sut.host, sut.port),
            op_budget=30.0, seed=0,
        ))
        record: Dict[str, tuple] = {}
        window = domain.EDGE_WINDOW
        for start in range(0, len(plan.standing), window):
            flows = plan.standing[start:start + window]
            step = edge_window_steps(
                agent, start, flows, plan.expected, record)[0]
            if step.send() != len(flows):
                raise ops.WorkloadError(
                    "standing edge flows not admitted")
        return _EdgeContext(sut, agent)

    def tree(self, context: _EdgeContext) -> List[int]:
        return context.sut.tree()

    def phases(self, plan: ops.EdgePlan, context: _EdgeContext,
               seed: int, record: Dict[str, tuple]):
        units = [
            edge_window_steps(context.agent, number, flows,
                              plan.expected, record)
            for number, flows in enumerate(plan.rounds)
        ]
        return _closed_phases(units)

    def counters(self, context: _EdgeContext) -> Dict[str, float]:
        counters = context.sut.call("stats")
        counters["edge.agent.retries"] = context.agent.retries
        return counters

    def verify(self, plan: ops.EdgePlan, context: _EdgeContext
               ) -> List[str]:
        return _verify_state(context.sut.call("verify"),
                             plan.standing_ids, plan.final_loads)


# ----------------------------------------------------------------------
# engine_deep
# ----------------------------------------------------------------------


class _EngineContext(NamedTuple):
    broker: Any
    paths: List[Tuple[str, ...]]


class EngineWorkload:
    """The engine runs in the harness thread: no sockets, threads or
    WAL.  Its "process tree" is this process, so CPU and memory
    include the (pre-built, negligible) generator."""

    name = "engine_deep"
    #: One thread that never sleeps: nothing to keep awake.
    awake = frozenset()

    def plan(self, seed: int, seconds: float) -> ops.EnginePlan:
        count = int(round(domain.ENGINE_OPS_PER_S * seconds))
        return ops.engine_plan(seed, count - count % 2)

    def setup(self, plan: ops.EnginePlan, run_dir: str,
              stack: contextlib.ExitStack) -> _EngineContext:
        broker, paths = ops.engine_broker()
        for op in plan.standing:
            decision = ops.engine_apply(broker, paths, op)
            if not ops.matches(plan.expected[op.flow_id],
                               decision.admitted, decision.rate):
                raise ops.WorkloadError(
                    f"standing flow {op.flow_id} differs from oracle")
        return _EngineContext(broker, paths)

    def tree(self, context: _EngineContext) -> List[int]:
        return [os.getpid()]

    def phases(self, plan: ops.EnginePlan, context: _EngineContext,
               seed: int, record: Dict[str, tuple]):
        broker, paths = context.broker, context.paths
        spec = domain.ENGINE_SPEC
        steps: List[Step] = []
        for index, op in enumerate(plan.ops):
            if op.op == "admit":
                steps.append(Step(
                    "core.request_service", index,
                    _engine_admit(broker, spec, op, paths[op.path],
                                  plan.expected[op.flow_id], record),
                    is_admit=True))
            else:
                steps.append(Step(
                    "core.terminate", index,
                    _engine_teardown(broker, op.flow_id)))
        return _closed_phases(
            [steps[i:i + 2] for i in range(0, len(steps), 2)])

    def counters(self, context: _EngineContext) -> Dict[str, float]:
        broker = context.broker
        totals = {
            "service.scan_tests": 0, "service.scan_intervals": 0,
            "service.scan_early_breaks": 0, "service.bp_delta_folds": 0,
            "service.bp_full_rebuilds": 0, "service.ledger_updates": 0,
        }
        for path in broker.path_mib.records():
            totals["service.scan_tests"] += path.scan_tests
            totals["service.scan_intervals"] += path.scan_intervals
            totals["service.scan_early_breaks"] += path.scan_early_breaks
            totals["service.bp_delta_folds"] += path.bp_delta_folds
            totals["service.bp_full_rebuilds"] += path.bp_full_rebuilds
        for link in broker.node_mib.links():
            if link.ledger is not None:
                totals["service.ledger_updates"] += \
                    link.ledger.incremental_updates
        return totals

    def verify(self, plan: ops.EnginePlan, context: _EngineContext
               ) -> List[str]:
        broker = context.broker
        problems = []
        flows = sorted(r.flow_id for r in broker.flow_mib.records())
        if flows != plan.final_flows:
            problems.append("live flows differ from the oracle's")
        # The paper's promise, checked on what is left standing:
        # every admitted flow's analytic end-to-end bound meets its
        # requirement and every delay-based hop is schedulable.
        for record in broker.flow_mib.records():
            bound = broker.perflow.granted_delay_bound(record.flow_id)
            if bound > record.delay_requirement * (1 + 1e-9):
                problems.append(
                    f"{record.flow_id}: bound {bound} exceeds "
                    f"{record.delay_requirement}")
                break
        for link in broker.node_mib.links():
            if link.ledger is not None and \
                    not link.ledger.is_schedulable():
                problems.append(f"link {link.link_id} unschedulable")
        return problems


def _engine_admit(broker, spec, op: ops.EngineOp, nodes,
                  expected: ops.Expected, record: Dict[str, tuple]):
    flow_id, delay = op.flow_id, op.delay
    ingress, egress = nodes[0], nodes[-1]

    def send() -> int:
        decision = broker.request_service(
            flow_id, spec, delay, ingress, egress, path_nodes=nodes)
        record[flow_id] = (decision.admitted, decision.rate,
                           decision.delay)
        return int(ops.matches(expected, decision.admitted,
                               decision.rate)
                   and decision.delay == expected.delay)

    return send


def _engine_teardown(broker, flow_id: str):
    def send() -> int:
        broker.terminate(flow_id)
        return 1

    return send


WORKLOADS = {
    "rest_closed": RestWorkload("rest_closed", open_loop=False),
    "rest_open": RestWorkload("rest_open", open_loop=True),
    "edge_pipelined": EdgeWorkload(),
    "engine_deep": EngineWorkload(),
}


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, *,
                 trace: bool = False, log=print) -> Result:
    """Plan, set up, warm up, measure and verify one workload."""
    workload = WORKLOADS[name]
    plan = workload.plan(seed, seconds)
    log(f"[{name}] seed {seed}: op list sha256 {plan.digest[:16]}")

    setup_times: List[float] = []
    # A traced run does not report ``setup_s``: one set-up will do.
    setups = 1 if trace else SETUPS
    with contextlib.ExitStack() as outer:
        outer.enter_context(KeepAwake(workload.awake))
        context = None
        for attempt in range(setups):
            stack = contextlib.ExitStack()
            with stack:
                run_dir = stack.enter_context(RunDir())
                began = time.perf_counter()
                context = workload.setup(plan, run_dir, stack)
                setup_times.append(time.perf_counter() - began)
                if attempt == setups - 1:
                    # Keep the last set-up: it runs the workload.
                    outer.enter_context(stack.pop_all())
        log(f"[{name}] set-ups: "
            + ", ".join(f"{t:.3f}s" for t in setup_times))

        record: Dict[str, tuple] = {}
        warm_up, *measure = workload.phases(plan, context, seed, record)
        tree = workload.tree(context)
        spans: Optional[List[Span]] = [] if trace else None
        # Everything built so far (op lists, steps, expected answers)
        # lives for the whole run: park it where the collector will
        # not walk it again while the clock runs.
        gc.collect()
        gc.freeze()
        try:
            warmup = warm_up(spans)
            before = workload.counters(context) if trace else {}
            segments: List[Segment] = []
            cpu_before = procstat.cpu_seconds(tree)
            for segment in measure:
                phase = segment(spans)
                cpu_after = procstat.cpu_seconds(tree)
                segments.append(Segment(phase, cpu_after - cpu_before))
                cpu_before = cpu_after
            rss_mb = procstat.peak_rss_mb(tree)
        finally:
            gc.unfreeze()
        counters: Dict[str, float] = {}
        if trace:
            after = workload.counters(context)
            counters = {key: after[key] - before.get(key, 0)
                        for key in after}
        problems = workload.verify(plan, context)
        if sorted(workload.tree(context)) != sorted(tree):
            problems.append("the SUT process tree changed mid-run")
    result = Result(
        workload=name, seed=seed, digest=plan.digest,
        answers=_answers_digest(record), setup_times=setup_times,
        warmup=warmup, segments=segments, rss_mb=rss_mb,
        problems=problems, counters=counters, spans=spans or [],
    )
    for text in (warmup.errors + result.measured.errors)[:5]:
        problems.append(f"op error: {text}")
    return result
