"""The traced run: where one admit spends its time, layer by layer.

End-to-end numbers are always taken with tracing off.  ``--trace 1``
runs this module instead, which records spans in the harness around
calls into public functions (spans inside the program are a later
change), keeps them in memory and has them written to
``out/spans.jsonl`` at exit.
It reports three families of per-layer metrics:

1. the **boundary ladder** — the ``rest_closed`` op mix replayed by
   one closed-loop caller at each public boundary, bottom-up, on a
   fresh stack each; a layer's self time is the p50 at its boundary
   minus the p50 at the boundary below;
2. **micro-drivers** on the workload's own frames — wire codec,
   loopback transport, WAL append and commit;
3. **counts** read from public snapshots around the measured phase of
   the chosen workload (run traced at half its usual length), plus
   the open-loop knee and the tracing overhead.

The ladder, the micro-drivers and the knee do not depend on the
chosen workload: one invocation measures them once and reports them
beside the counts of every workload it traces, because a traced run
reports every per-layer metric.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.cluster import build_pod_cluster, build_proc_cluster, domain_atlas
from repro.controlplane import ControlPlaneClient
from repro.edge import protocol
from repro.edge.agent import EdgeAgent, tcp_connector
from repro.service.durability import FileJournal
from repro.service.runtime import BrokerService
from repro.service.transport import TcpListener, TransportClosed, connect_tcp
from repro.service.wire import (
    CODEC_BINARY, CODEC_JSON, decode_payload, encode_payload,
)

from benchmarks.e2e import domain, ops
from benchmarks.e2e.harness import (
    GENERATOR_CPUS, KeepAwake, RunDir, Sut, on_sut_cpus,
)
from benchmarks.e2e.loadgen import Span, Step, run_closed, run_open
from benchmarks.e2e.stats import median, percentile
from benchmarks.e2e.workloads import (
    WORKLOADS, Result, open_schedules, rest_admit_body, rest_units,
    run_workload, schedule_rngs,
)

__all__ = ["PER_LAYER", "BOUNDARIES", "Shared", "run_shared",
           "run_traced", "write_spans"]

#: The traced pass of the chosen workload runs at this share of its
#: usual op count (counts are reported per op, so they do not care).
TRACE_SCALE = 0.5

#: Boundaries bottom-up, with the layer whose self time each adds.
BOUNDARIES = (
    ("core", "core.self_us"),
    ("service", "service.runtime.self_us"),
    ("coordinator", "cluster.coordinator.self_us"),
    ("rpc", "cluster.procs.self_us"),
    ("edge", "edge.self_us"),
    ("rest", "controlplane.self_us"),
)
#: Boundaries at or above the coordinator see two-phase admits.
_SPAN_BOUNDARIES = ("coordinator", "rpc", "rest")
#: SUT counters reported as they are (the rest are turned into ratios).
_RAW_COUNTS = (
    "controlplane.requests", "controlplane.backpressured",
    "edge.agent.retries", "edge.gateway.frames_served",
    "edge.gateway.dedup_hits", "cluster.coordinator.local_admits",
    "cluster.coordinator.spanning_commits",
    "cluster.coordinator.spanning_aborts", "cluster.procs.reconnects",
)


def _per_layer() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for boundary, _self in BOUNDARIES:
        units[f"ladder.{boundary}.admit_p50_us"] = "us"
        units[f"ladder.{boundary}.teardown_p50_us"] = "us"
    for boundary in _SPAN_BOUNDARIES:
        units[f"ladder.{boundary}.span_admit_p50_us"] = "us"
    for _boundary, self_name in BOUNDARIES:
        units[self_name] = "us"
    for name in ("encode_admit", "decode_admit", "encode_reply",
                 "decode_reply", "json_encode_admit",
                 "json_decode_admit"):
        units[f"service.wire.{name}_us"] = "us"
    units["service.wire.admit_bytes"] = "B"
    units["service.wire.reply_bytes"] = "B"
    units["service.transport.rtt_us"] = "us"
    units["service.transport.send_many64_us"] = "us"
    units["service.durability.append_us"] = "us"
    units["service.durability.commit_us"] = "us"
    for name in _RAW_COUNTS + (
            "service.runtime.shed", "core.scan_early_breaks",
            "core.bp_delta_folds", "core.bp_full_rebuilds"):
        units[name] = "count"
    units["service.runtime.mean_batch"] = "count"
    units["service.durability.fsyncs_per_op"] = "1/op"
    units["service.durability.mean_group"] = "count"
    units["core.scan_intervals_per_admit"] = "1/op"
    units["core.ledger_updates_per_op"] = "1/op"
    units["loadgen.late_p99_ms"] = "ms"
    units["loadgen.knee_rps"] = "1/s"
    units["trace.overhead_pct"] = "%"
    units["tail.admit_p99_ms"] = "ms"
    return units


#: Every per-layer metric and its unit (mirrors ``BENCHMARK.json``).
PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# 1. the boundary ladder
# ----------------------------------------------------------------------


class _Caller(NamedTuple):
    """Admit/teardown at one public boundary.  ``admit`` returns
    ``(admitted, rate)``; ``teardown`` returns success."""

    admit: Callable[[ops.Lifecycle], Tuple[bool, float]]
    teardown: Callable[[str], bool]


def _open_core(run_dir: str, stack) -> _Caller:
    broker = domain_atlas(ops.rest_domain())
    def admit(item):
        decision = broker.request_service(
            item.flow_id, domain.REST_SPEC, domain.REST_DELAY,
            item.nodes[0], item.nodes[-1], path_nodes=item.nodes)
        return decision.admitted, decision.rate

    def teardown(flow_id):
        broker.terminate(flow_id)
        return True

    return _Caller(admit, teardown)


def _open_service(run_dir: str, stack) -> _Caller:
    broker = domain_atlas(ops.rest_domain())
    wal = FileJournal(os.path.join(run_dir, "wal"), fsync=True)
    stack.callback(wal.close)
    # Worker and lock-shard counts of one shard process.
    service = stack.enter_context(
        BrokerService(broker, workers=2, shards=4, wal=wal))
    def admit(item):
        reply = service.request(
            item.flow_id, domain.REST_SPEC, domain.REST_DELAY,
            item.nodes[0], item.nodes[-1], path_nodes=item.nodes)
        return reply.admitted, reply.decision.rate

    def teardown(flow_id):
        return service.teardown(flow_id).status == "ok"

    return _Caller(admit, teardown)


def _coordinator_caller(coordinator) -> _Caller:
    def admit(item):
        decision = coordinator.admit(
            item.flow_id, domain.REST_SPEC, domain.REST_DELAY,
            item.nodes[0], item.nodes[-1], path_nodes=item.nodes)
        return decision.admitted, decision.rate

    def teardown(flow_id):
        return coordinator.teardown(flow_id).status in ("ok", "released")

    return _Caller(admit, teardown)


def _open_coordinator(run_dir: str, stack) -> _Caller:
    cluster = stack.enter_context(build_pod_cluster(
        domain.REST_SHARDS, pods=domain.REST_PODS,
        capacity=domain.REST_CAPACITY,
        wal_root=os.path.join(run_dir, "wal"), fsync=True,
    ))
    return _coordinator_caller(cluster.coordinator)


def _open_rpc(run_dir: str, stack) -> _Caller:
    # The shard processes start when the cluster is entered.
    with on_sut_cpus():
        cluster = stack.enter_context(build_proc_cluster(
            domain.REST_SHARDS, run_dir=run_dir, pods=domain.REST_PODS,
            capacity=domain.REST_CAPACITY, durable=True, fsync=True,
        ))
    return _coordinator_caller(cluster.coordinator)


def _open_edge(run_dir: str, stack) -> _Caller:
    sut = stack.enter_context(Sut("cluster", run_dir))
    agent = stack.enter_context(EdgeAgent(
        "ladder-0", tcp_connector(sut.host, sut.port), seed=0))
    def admit(item):
        reply = agent.admit(
            item.flow_id, domain.REST_SPEC, domain.REST_DELAY,
            item.nodes[0], item.nodes[-1], path_nodes=item.nodes)
        decision = reply["decision"]
        return decision["admitted"], decision["rate"]

    def teardown(flow_id):
        return agent.teardown(flow_id)["status"] == protocol.STATUS_OK

    return _Caller(admit, teardown)


def _open_rest(run_dir: str, stack) -> _Caller:
    sut = stack.enter_context(Sut("rest", run_dir))
    client = stack.enter_context(ControlPlaneClient(sut.host, sut.port))
    def admit(item):
        reply = client.request("POST", "/v1/flows",
                               body=rest_admit_body(item))
        decision = reply.body["decision"]
        return decision["admitted"], decision["rate"]

    def teardown(flow_id):
        return client.request("DELETE", f"/v1/flows/{flow_id}",
                              body={}).status == 200

    return _Caller(admit, teardown)


_OPENERS = {
    "core": _open_core, "service": _open_service,
    "coordinator": _open_coordinator, "rpc": _open_rpc,
    "edge": _open_edge, "rest": _open_rest,
}


def _caller_steps(boundary: str, caller: _Caller,
                  items: Sequence[ops.Lifecycle],
                  expected: Dict[str, ops.Expected], *,
                  teardown: bool = True) -> List[Step]:
    """Admit (and, unless it is a standing flow, tear down again)
    every item through *caller*."""
    steps: List[Step] = []
    for index, item in enumerate(items):
        answer = expected[item.flow_id]

        def admit(item=item, answer=answer) -> int:
            admitted, rate = caller.admit(item)
            return int(ops.matches(answer, admitted, rate))

        steps.append(Step(f"ladder.{boundary}.admit", index, admit,
                          is_admit=True))
        if teardown and answer.admitted:
            def release(flow_id=item.flow_id) -> int:
                return int(caller.teardown(flow_id))

            steps.append(Step(f"ladder.{boundary}.teardown", index,
                              release))
    return steps


def _p50_us(spans: Sequence[Span], name: str,
            only: Optional[set] = None) -> float:
    samples = [
        (end - start) * 1e6 for span_name, op, start, end in spans
        if span_name == name and (only is None or op in only)
    ]
    return median(samples) if samples else 0.0


def run_ladder(seed: int, seconds: float, spans: List[Span],
               log=print) -> Tuple[Dict[str, float], int]:
    """Replay the rest_closed mix at every boundary; returns the
    ladder metrics (plus ``trace.overhead_pct``) and the failed ops."""
    pairs = int(round(domain.LADDER_PAIRS_PER_S * seconds))
    plan = ops.rest_plan(seed, lifecycles=pairs, tag="L")
    span_ops = {index for index, item in enumerate(plan.lifecycles)
                if item.kind == "span"}
    warm = int(len(plan.lifecycles) * domain.WARMUP_SHARE)
    metrics: Dict[str, float] = {}
    failed = 0

    def record(boundary: str, kept: List[Span]) -> None:
        spans.extend(kept)
        prefix = f"ladder.{boundary}"
        metrics[f"{prefix}.admit_p50_us"] = _p50_us(
            kept, f"{prefix}.admit")
        metrics[f"{prefix}.teardown_p50_us"] = _p50_us(
            kept, f"{prefix}.teardown")
        if boundary in _SPAN_BOUNDARIES:
            metrics[f"{prefix}.span_admit_p50_us"] = _p50_us(
                kept, f"{prefix}.admit", span_ops)

    goodput = {False: [], True: []}
    for boundary, _self_name in BOUNDARIES:
        # The REST boundary also prices the tracing itself: the same
        # list replayed untraced, traced, traced, untraced.
        passes = (False, True, True, False) if boundary == "rest" \
            else (True,)
        mine: List[Span] = []
        with contextlib.ExitStack() as stack:
            run_dir = stack.enter_context(RunDir())
            caller = _OPENERS[boundary](run_dir, stack)
            # The standing population goes in through the boundary.
            preload = run_closed(_caller_steps(
                boundary, caller, plan.standing, plan.expected,
                teardown=False))
            if preload.failed:
                raise ops.WorkloadError(
                    f"ladder {boundary}: standing flows refused "
                    f"{preload.errors}")
            steps = _caller_steps(boundary, caller, plan.lifecycles,
                                  plan.expected)
            failed += run_closed(
                [step for step in steps if step.op < warm]).failed
            steps = [step for step in steps if step.op >= warm]
            for traced in passes:
                phase = run_closed(steps, mine if traced else None)
                failed += phase.failed
                goodput[traced].append(phase.correct / phase.wall)
        record(boundary, mine)
        log(f"[ladder] {boundary}: {phase.attempted} ops a pass, "
            f"{failed} failed so far")
    plain = sum(goodput[False]) / len(goodput[False])
    traced_rest = sum(goodput[True][-2:]) / 2
    metrics["trace.overhead_pct"] = (plain - traced_rest) / plain * 100.0
    log(f"[ladder] rest goodput: untraced {plain:.1f}/s, traced "
        f"{traced_rest:.1f}/s")

    below = 0.0
    for boundary, self_name in BOUNDARIES:
        here = metrics[f"ladder.{boundary}.admit_p50_us"]
        metrics[self_name] = here - below
        below = here
    return metrics, failed


# ----------------------------------------------------------------------
# 2. micro-drivers
# ----------------------------------------------------------------------


def _time_us(call: Callable[[], Any], *, batches: int = 7,
             loops: int = 300) -> float:
    """Median over *batches* of the mean time of *loops* calls."""
    means = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        means.append((time.perf_counter() - start) / loops * 1e6)
    return median(means)


def _sample_frames() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """An admit frame and its reply as edge_pipelined sends them."""
    nodes = ("I0", "C0_1", "C0_2", "E0")
    admit = protocol.make_admit(
        "edge-0", "edge-0#1234", "r17-42", domain.EDGE_SPEC,
        domain.EDGE_DELAY, nodes[0], nodes[-1], path_nodes=nodes,
        now=0.0, budget_ms=29876.5,
    )
    reply = protocol.make_reply(
        "admit", "edge-0#1234", protocol.STATUS_OK,
        decision={
            "admitted": True, "flow_id": "r17-42",
            "path_id": "I0->C0_1->C0_2->E0", "rate": 62295.08196721311,
            "delay": 0.0, "reason": None, "detail": "",
        },
        lease={"duration": 1e9, "expires_at": 1e9,
               "macroflow_key": "", "drain_bound": 0.0},
    )
    return admit, reply


def _echo_server(listener: TcpListener, stop: threading.Event) -> None:
    """Echo every burst of frames back with one coalesced write."""
    conn = None
    while conn is None and not stop.is_set():
        conn = listener.accept(timeout=0.2)
    if conn is None:
        return
    conn.set_codec(CODEC_BINARY)
    try:
        while not stop.is_set():
            frame = conn.recv(timeout=0.2)
            if frame is None:
                continue
            burst = [frame]
            while True:
                frame = conn.recv(timeout=0.0)
                if frame is None:
                    break
                burst.append(frame)
            conn.send_many(burst)
    except TransportClosed:
        pass
    finally:
        conn.close()


def run_micro() -> Dict[str, float]:
    admit, reply = _sample_frames()
    metrics: Dict[str, float] = {}
    admit_bin = encode_payload(admit, CODEC_BINARY)
    reply_bin = encode_payload(reply, CODEC_BINARY)
    admit_json = encode_payload(admit, CODEC_JSON)
    if decode_payload(admit_bin) != admit or \
            decode_payload(reply_bin) != reply:
        raise ops.WorkloadError("wire codec does not round-trip")
    wire = "service.wire"
    metrics[f"{wire}.encode_admit_us"] = _time_us(
        lambda: encode_payload(admit, CODEC_BINARY))
    metrics[f"{wire}.decode_admit_us"] = _time_us(
        lambda: decode_payload(admit_bin))
    metrics[f"{wire}.encode_reply_us"] = _time_us(
        lambda: encode_payload(reply, CODEC_BINARY))
    metrics[f"{wire}.decode_reply_us"] = _time_us(
        lambda: decode_payload(reply_bin))
    metrics[f"{wire}.json_encode_admit_us"] = _time_us(
        lambda: encode_payload(admit, CODEC_JSON))
    metrics[f"{wire}.json_decode_admit_us"] = _time_us(
        lambda: decode_payload(admit_json))
    metrics[f"{wire}.admit_bytes"] = float(len(admit_bin))
    metrics[f"{wire}.reply_bytes"] = float(len(reply_bin))

    listener = TcpListener("127.0.0.1", 0)
    stop = threading.Event()
    server = threading.Thread(
        target=_echo_server, args=(listener, stop), daemon=True,
        name="micro-echo")
    server.start()
    conn = connect_tcp(listener.host, listener.port)
    try:
        conn.set_codec(CODEC_BINARY)

        def round_trip() -> None:
            conn.send(admit)
            if conn.recv(timeout=5.0) is None:
                raise ops.WorkloadError("echo timed out")

        burst = [admit] * 64

        def burst_round_trip() -> None:
            conn.send_many(burst)
            for _ in burst:
                if conn.recv(timeout=5.0) is None:
                    raise ops.WorkloadError("echo timed out")

        metrics["service.transport.rtt_us"] = _time_us(
            round_trip, loops=200)
        metrics["service.transport.send_many64_us"] = _time_us(
            burst_round_trip, loops=20)
    finally:
        stop.set()
        conn.close()
        listener.close()
        server.join(timeout=5.0)

    with RunDir() as run_dir:
        journal = FileJournal(os.path.join(run_dir, "wal"), fsync=True)
        try:
            payload = {"flow_id": "r17-42", "now": 0.0,
                       "spec": protocol.encode_spec(domain.EDGE_SPEC),
                       "delay_requirement": domain.EDGE_DELAY,
                       "path_nodes": ["I0", "C0_1", "C0_2", "E0"]}
            appends, commits = [], []
            for _ in range(300):
                start = time.perf_counter()
                journal.append("admit", payload)
                middle = time.perf_counter()
                journal.commit()
                commits.append((time.perf_counter() - middle) * 1e6)
                appends.append((middle - start) * 1e6)
        finally:
            journal.close()
    metrics["service.durability.append_us"] = median(appends)
    metrics["service.durability.commit_us"] = median(commits)
    return metrics


# ----------------------------------------------------------------------
# 3. the open-loop knee
# ----------------------------------------------------------------------


def run_knee(seed: int, seconds: float, log=print
             ) -> Tuple[Dict[str, float], int]:
    """Sweep the REST stack at fixed offered rates; the knee is the
    highest rate whose admit p90 stays within the limit without the
    generator falling behind its schedule."""
    duration = seconds * 0.2
    knee, previous, late_p99_ms, failed = 0.0, 0.0, 0.0, 0
    workload = WORKLOADS["rest_open"]
    threads = domain.REST_OPEN_THREADS
    with contextlib.ExitStack() as stack:
        run_dir = stack.enter_context(RunDir())
        context = workload.setup(ops.rest_plan(seed), run_dir, stack)
        for number, rate in enumerate(domain.KNEE_RATES):
            plan = ops.rest_plan(
                seed + number, requests=int(rate * duration),
                tag=f"k{number}-")
            schedules = open_schedules(
                schedule_rngs(seed + number, threads), rate / threads,
                [[step for unit in units for step in unit]
                 for units in rest_units(context.clients, plan, {})])
            scheduled = max(s[-1][0] for s in schedules)
            phase = run_open(schedules)
            failed += phase.failed
            p90 = percentile(phase.admit_latencies, 90) * 1e3
            keeps_up = phase.wall <= scheduled * 1.05 + 0.05
            holds = p90 <= domain.KNEE_P90_LIMIT_MS and keeps_up \
                and not phase.failed
            log(f"[knee] {rate:.0f} ops/s: admit p90 {p90:.2f} ms, "
                f"wall {phase.wall:.2f}s for a {scheduled:.2f}s "
                f"schedule -> {'holds' if holds else 'breaks'}")
            if holds and knee == previous:
                knee = rate  # every lower rate held too
            previous = rate
            if rate == domain.REST_OPEN_RATE_PER_THREAD * threads:
                late_p99_ms = percentile(phase.lateness, 99) * 1e3
    return {"loadgen.knee_rps": knee,
            "loadgen.late_p99_ms": late_p99_ms}, failed


# ----------------------------------------------------------------------
# counts, spans and the traced run
# ----------------------------------------------------------------------


def count_metrics(result: Result) -> Dict[str, float]:
    """Per-layer counts of the traced workload pass, from the
    counter deltas across its measured phase.  A counter the workload
    cannot reach (no REST tier, no reachable gateway snapshot, no WAL)
    reads 0."""
    counters = result.counters
    phase = result.measured
    good = max(phase.correct, 1)
    admits = max(len(phase.admit_latencies), 1)
    if result.workload == "edge_pipelined":
        admits *= domain.EDGE_WINDOW  # one latency sample per window

    def get(name: str) -> float:
        return float(counters.get(name, 0.0))

    def ratio(numerator: str, denominator: str) -> float:
        bottom = get(denominator)
        return get(numerator) / bottom if bottom else 0.0

    metrics = {name: get(name) for name in _RAW_COUNTS}
    metrics.update({
        "service.runtime.mean_batch":
            ratio("service.batched", "service.batches"),
        "service.runtime.shed": get("service.shed"),
        "service.durability.fsyncs_per_op":
            get("service.wal_fsyncs") / good,
        "service.durability.mean_group":
            ratio("service.wal_appends", "service.wal_fsyncs"),
        "core.scan_intervals_per_admit":
            get("service.scan_intervals") / admits,
        "core.scan_early_breaks": get("service.scan_early_breaks"),
        "core.ledger_updates_per_op":
            get("service.ledger_updates") / good,
        "core.bp_delta_folds": get("service.bp_delta_folds"),
        "core.bp_full_rebuilds": get("service.bp_full_rebuilds"),
    })
    return metrics


_GROUPS = {"rest": "rest.lifecycle", "edge": "edge.round"}

#: One line of ``spans.jsonl``: name, op id, start, end, parent name.
Row = Tuple[str, int, float, float, Optional[str]]


def span_rows(spans: Sequence[Span]) -> List[Row]:
    """*spans* of one pass with their parents.  The requests of one
    lifecycle or round hang off a derived parent span sharing their op
    id; a ladder span's parent is the same op's span one boundary up."""
    above = {f"ladder.{low}": f"ladder.{high}" for (low, _), (high, _)
             in zip(BOUNDARIES, BOUNDARIES[1:])}
    groups: Dict[Tuple[str, int], List[float]] = {}
    rows: List[Row] = []
    for name, op, start, end in spans:
        head, _, verb = name.rpartition(".")
        parent = None
        if head in above:
            parent = f"{above[head]}.{verb}"
        elif head in _GROUPS:
            parent = _GROUPS[head]
            bounds = groups.setdefault((parent, op), [start, end])
            bounds[0] = min(bounds[0], start)
            bounds[1] = max(bounds[1], end)
        rows.append((name, op, start, end, parent))
    for (name, op), (start, end) in groups.items():
        rows.append((name, op, start, end, None))
    return rows


def write_spans(rows: Sequence[Row], path: str) -> None:
    """Write *rows* as JSON lines ``name, op, start, end, parent``,
    in start order, seconds from the first span."""
    origin = min(row[2] for row in rows)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        for name, op, start, end, parent in sorted(
                rows, key=lambda row: row[2]):
            handle.write(json.dumps({
                "name": name, "op": op,
                "start": round(start - origin, 7),
                "end": round(end - origin, 7), "parent": parent,
            }) + "\n")


class Shared(NamedTuple):
    """The per-layer metrics that do not depend on the workload — the
    ladder, the micro-drivers, the knee — measured once per invocation
    however many workloads it traces."""

    metrics: Dict[str, float]
    failed: int
    rows: List[Row]


def run_shared(seed: int, seconds: float, log=print) -> Shared:
    spans: List[Span] = []
    # Only the generator's CPU is kept awake under the ladder: with a
    # spinner on the other one too, the in-process stages' WAL fsyncs
    # came back at the 4 ms tick (``coordinator`` admit p50 11 ms
    # against 0.6 ms).  The knee is rest_open, and runs as it does.
    with KeepAwake(GENERATOR_CPUS):
        metrics, ladder_failed = run_ladder(seed, seconds, spans, log)
        metrics.update(run_micro())
    with KeepAwake(WORKLOADS["rest_open"].awake):
        knee, knee_failed = run_knee(seed, seconds, log)
    metrics.update(knee)
    return Shared(metrics, ladder_failed + knee_failed, span_rows(spans))


def run_traced(name: str, seed: int, seconds: float, shared: Shared,
               log=print):
    """The ``--trace`` pass of workload *name*: print every per-layer
    metric; returns the arguments of the result line (correct,
    attempted, failed, metrics) and the pass's span rows."""
    result = run_workload(name, seed, seconds * TRACE_SCALE,
                          trace=True, log=log)
    metrics = dict(shared.metrics)
    metrics.update(count_metrics(result))
    metrics["tail.admit_p99_ms"] = percentile(
        result.measured.admit_latencies, 99) * 1e3
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        raise ops.WorkloadError(f"metrics not produced: {missing}")
    for metric in PER_LAYER:
        log(f"[{name}] {metric:<42}{metrics[metric]:>14.3f} "
            f"{PER_LAYER[metric]}")
    failed = (result.measured.failed + result.warmup.failed
              + shared.failed)
    for problem in result.problems:
        log(f"[{name}] PROBLEM: {problem}")
    outcome = (
        result.correct and not failed, result.measured.attempted, failed,
        {metric: (metrics[metric], PER_LAYER[metric])
         for metric in PER_LAYER})
    return outcome, span_rows(result.spans)
