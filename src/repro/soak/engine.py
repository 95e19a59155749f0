"""The soak engine: schedule -> REST -> proc-cluster -> audit.

One :func:`run_soak` call is the full production rehearsal the
ROADMAP demands: build a multi-process cluster (shard processes,
``SO_REUSEPORT`` gateway workers, supervisor), front it with the
REST control plane, replay a deterministic million-event schedule
through real HTTP while the chaos schedule kills and partitions
processes underneath, then **prove** the wreckage converged: the
end-of-run audit (WAL replay == live MIB, zero orphaned leases,
zero double-admits, zero stranded holds) is not optional — a soak
that cannot pass it did not survive.

Execution model: ``drivers`` worker threads each own one REST client
and the slice of flows that routes to one control-plane agent
(``crc32(flow_id) % drivers`` — the same stable routing the app
uses), so per-flow event order is preserved with zero cross-thread
coordination.  Domain time is logical and carried per event; the run
is open-loop (no wall-clock pacing — replay as fast as the stack
can absorb).

Per-flow state machine: an op that cannot reach a terminal answer
inside its retry allowance (a partitioned shard, a dying gateway)
marks the flow **stuck** and its later events are skipped; after the
chaos heals, the reconcile pass re-drives every stuck op — with its
*original* idempotency key, so the gateway dedup window keeps the
effects exactly-once — until the flow is terminally live or gone.
That is the same convergence contract the edge agents implement,
lifted to the REST tier.
"""

from __future__ import annotations

import os
import random
import threading
import zlib
from http.client import HTTPException
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import clock
from repro.soak.audit import (
    AuditReport,
    audit_proc_cluster,
    audit_shard_dirs,
    save_domain_spec,
)
from repro.soak.chaos import CHAOS_KINDS, ChaosEvent, ChaosLog, chaos_schedule
from repro.soak.scenario import (
    ScenarioConfig,
    SoakEvent,
    generate_schedule,
    schedule_digest,
)
from repro.traffic.spec import TSpec

__all__ = ["SoakConfig", "SoakReport", "run_soak"]

#: Default flow TSpec (matches the cluster fault suites' workload).
DEFAULT_SPEC = {
    "sigma": 64000.0, "rho": 1_500_000.0,
    "peak": 3_000_000.0, "max_packet": 12000.0,
}
DEFAULT_DELAY_REQUIREMENT = 2.44


@dataclass(frozen=True)
class SoakConfig:
    """One soak run: workload, cluster shape, chaos, and budgets."""

    scenario: ScenarioConfig = ScenarioConfig()
    shards: int = 2
    gateway_workers: int = 2
    #: Driver threads == control-plane agent pool size.
    drivers: int = 4
    chaos_injections: int = 3
    chaos_kinds: Sequence[str] = CHAOS_KINDS
    #: Gateway lease duration in domain seconds.  Keep it well above
    #: the scenario's refresh interval times the drivers' time skew;
    #: flows that miss it get reaped (legitimately) and the engine
    #: converges via the 404 path.
    lease_duration: float = 10_000.0
    #: Per-op retry allowance before a flow goes stuck (reconciled
    #: post-chaos with the same idempotency key).
    op_attempts: int = 3
    op_budget: float = 5.0
    durable: bool = True
    fsync: bool = False
    spec: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SPEC))
    delay_requirement: float = DEFAULT_DELAY_REQUIREMENT
    service_workers: int = 2
    queue_limit: int = 256
    max_restarts: int = 1000
    crash_ops: Optional[Dict[str, Tuple[str, int]]] = None


@dataclass
class SoakReport:
    """Everything a ledger entry (or a failing assert) needs."""

    config: SoakConfig
    events: int
    digest: str
    elapsed: float
    outcomes: Dict[str, int]
    chaos: List[Dict[str, Any]]
    chaos_kinds: Tuple[str, ...]
    live_audit: AuditReport
    replay_audit: AuditReport
    survivors: int
    cluster_stats: Dict[str, Any]
    controlplane: Dict[str, int]

    @property
    def ok(self) -> bool:
        return self.live_audit.ok and self.replay_audit.ok

    @property
    def events_per_second(self) -> float:
        return self.events / self.elapsed if self.elapsed > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config.scenario.seed,
            "events": self.events,
            "digest": self.digest,
            "elapsed_s": round(self.elapsed, 3),
            "events_per_second": round(self.events_per_second, 1),
            "outcomes": dict(self.outcomes),
            "chaos": self.chaos,
            "chaos_kinds": list(self.chaos_kinds),
            "survivors": self.survivors,
            "audit_ok": self.ok,
            "live_audit": self.live_audit.as_dict(),
            "replay_audit": self.replay_audit.as_dict(),
            "controlplane": dict(self.controlplane),
            "config": {
                "shards": self.config.shards,
                "gateway_workers": self.config.gateway_workers,
                "drivers": self.config.drivers,
                "chaos_injections": self.config.chaos_injections,
                "target_events": self.config.scenario.target_events,
                "durable": self.config.durable,
                "fsync": self.config.fsync,
            },
        }


class _FlowBook:
    """Thread-confined per-driver flow state (no locks needed: each
    flow belongs to exactly one driver)."""

    PENDING, LIVE, GONE, STUCK = "pending", "live", "gone", "stuck"

    def __init__(self) -> None:
        self.state: Dict[str, str] = {}
        self.paths: Dict[str, int] = {}
        #: flow -> (op, idem key, now) awaiting post-chaos reconcile.
        self.unresolved: Dict[str, Tuple[str, str, float]] = {}


#: Waits between the attempts of one retry cycle: 0.05 s doubling to
#: 0.5 s, no jitter; a 429's ``retry_after`` stretches a wait, up to
#: the cap.
_RETRY = clock.Backoff(0.05, 0.5)


class _Driver(threading.Thread):
    """One worker: replays its flow slice through one REST client."""

    #: Consecutive exhausted retry cycles on one path group before
    #: that group's circuit opens.
    BREAKER_THRESHOLD = 2
    #: While open, at most one single-attempt probe per this many
    #: wall-clock seconds; everything in between fails without
    #: touching the network at all.  Probes to a dead shard occupy
    #: shared coordinator-wire slots, so they stay rare — heal
    #: detection tolerates this lag (stuck flows reconcile later).
    BREAKER_PROBE_INTERVAL = 2.0

    def __init__(self, index: int, engine: "_Engine",
                 events: List[SoakEvent]) -> None:
        super().__init__(name=f"soak-driver-{index}", daemon=True)
        self.index = index
        self.engine = engine
        self.events = events
        self.book = _FlowBook()
        self.outcomes: Dict[str, int] = {}
        self.error: Optional[BaseException] = None
        #: path group -> [consecutive exhausted cycles, last probe t].
        self._breakers: Dict[int, List[float]] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.outcomes[key] = self.outcomes.get(key, 0) + amount

    def run(self) -> None:
        try:
            client = self.engine.new_client()
            try:
                for event in self.events:
                    self.engine.chaos_gate(event.at)
                    self._apply(client, event)
            finally:
                client.close()
        except BaseException as exc:  # noqa: BLE001 - joined + re-raised
            self.error = exc

    # -- one event -----------------------------------------------------

    def _apply(self, client, event: SoakEvent) -> None:
        book = self.book
        state = book.state.get(event.flow_id, _FlowBook.PENDING)
        if state == _FlowBook.STUCK:
            self.count("skipped_stuck")
            return
        if event.op == "admit":
            self._admit(client, event)
        elif event.op == "refresh":
            if state != _FlowBook.LIVE:
                self.count("skipped_dead")
                return
            self._refresh(client, event)
        elif event.op == "teardown":
            if state != _FlowBook.LIVE:
                self.count("skipped_dead")
                return
            self._teardown(client, event)

    def _idem(self, event: SoakEvent) -> str:
        # One key per *logical* event, stable across every retry and
        # the reconcile pass — the REST-tier analogue of the agent's
        # per-op key.  ``at`` disambiguates the repeated refreshes of
        # one flow.
        return f"{event.flow_id}/{event.op}/{event.at!r}"

    def _admit(self, client, event: SoakEvent) -> None:
        engine = self.engine
        reply = self._drive(client, event, lambda: client.admit(
            event.flow_id, engine.config.spec,
            engine.config.delay_requirement,
            *engine.endpoints_of(event.path),
            path_nodes=engine.path_of(event.path),
            now=event.at, idempotency_key=self._idem(event),
            timeout=engine.config.op_budget,
        ))
        book = self.book
        book.paths[event.flow_id] = event.path
        if reply is None:
            book.state[event.flow_id] = _FlowBook.STUCK
            book.unresolved[event.flow_id] = (
                "admit", self._idem(event), event.at)
            self.count("stuck")
            return
        if reply.status == 201:
            book.state[event.flow_id] = _FlowBook.LIVE
            self.count("admitted")
        elif reply.status == 409:
            # Already admitted at the broker (a replay after a dedup
            # window died with its gateway worker, or a capacity
            # reject).  A lease in the reply means the flow is live
            # and re-adopted as ours.
            if isinstance(reply.body, dict) and reply.body.get("lease"):
                book.state[event.flow_id] = _FlowBook.LIVE
                self.count("adopted")
            else:
                book.state[event.flow_id] = _FlowBook.GONE
                self.count("rejected")
        else:
            book.state[event.flow_id] = _FlowBook.GONE
            self.count(f"admit_http_{reply.status}")

    def _refresh(self, client, event: SoakEvent) -> None:
        reply = self._drive(client, event, lambda: client.refresh(
            event.flow_id, now=event.at,
            idempotency_key=self._idem(event),
            timeout=self.engine.config.op_budget,
        ))
        if reply is None:
            self.count("refresh_dropped")  # advisory; next one retries
            return
        if reply.status == 200:
            self.count("refreshed")
        else:
            # The lease is gone here (reaped, or its gateway worker
            # died).  Re-signal the admit: a 409-with-lease re-adopts
            # the orphan, a 201 means it was fully reaped and is now
            # re-admitted — either way the flow is live again.
            self.count("lease_lost")
            readmit = self._drive(client, event, lambda: client.admit(
                event.flow_id, self.engine.config.spec,
                self.engine.config.delay_requirement,
                *self.engine.endpoints_of(self.book.paths[event.flow_id]),
                path_nodes=self.engine.path_of(
                    self.book.paths[event.flow_id]),
                now=event.at,
                idempotency_key=f"{self._idem(event)}/readmit",
                timeout=self.engine.config.op_budget,
            ))
            if readmit is None:
                self.book.state[event.flow_id] = _FlowBook.STUCK
                self.book.unresolved[event.flow_id] = (
                    "admit", f"{self._idem(event)}/readmit", event.at)
                self.count("stuck")
            elif readmit.status == 201:
                self.count("readmitted")
            elif readmit.status == 409 and isinstance(readmit.body, dict) \
                    and readmit.body.get("lease"):
                self.count("adopted")
            else:
                self.book.state[event.flow_id] = _FlowBook.GONE
                self.count("refresh_lost_flow")

    def _teardown(self, client, event: SoakEvent) -> None:
        reply = self._drive(client, event, lambda: client.teardown(
            event.flow_id, now=event.at,
            idempotency_key=self._idem(event),
            timeout=self.engine.config.op_budget,
        ))
        book = self.book
        if reply is None:
            book.state[event.flow_id] = _FlowBook.STUCK
            book.unresolved[event.flow_id] = (
                "teardown", self._idem(event), event.at)
            self.count("stuck")
            return
        book.state[event.flow_id] = _FlowBook.GONE
        if reply.status == 200:
            self.count("torn_down")
        elif reply.status == 404:
            self.count("teardown_missing")  # reaped before we got here
        else:
            self.count(f"teardown_http_{reply.status}")

    def _drive(self, client, event: SoakEvent, send) -> Optional[Any]:
        """Retry *send* to a terminal HTTP status; None when the
        attempt allowance runs out (flow goes stuck).

        A per-path circuit breaker keeps a long outage (a partition
        window can cover tens of thousands of schedule events, each
        attempt potentially burning the whole op budget) from
        serializing retry cost onto every one of them.  The circuit
        is keyed by the event's path group, because one driver
        carries flows for *every* shard — a success on a healthy
        path must not reset the circuit of a partitioned one.  After
        ``BREAKER_THRESHOLD`` consecutive exhausted cycles on a
        group, ops on it fail instantly with **no network call**;
        one single-attempt probe per ``BREAKER_PROBE_INTERVAL``
        wall-clock seconds (stamped when the probe *returns*, so a
        budget-long probe never back-to-backs) watches for the heal.
        Fast-failed flows go stuck and are re-driven by the
        post-chaos reconcile with their original idempotency keys,
        so convergence is unaffected; only the pacing changes.
        Backpressure (429) never feeds the breaker — it proves the
        path is alive.
        """
        engine = self.engine
        breaker = self._breakers.setdefault(
            event.path % len(engine.paths), [0, 0.0])
        if breaker[0] >= self.BREAKER_THRESHOLD:
            if clock.now() - breaker[1] < self.BREAKER_PROBE_INTERVAL:
                self.count("breaker_fast_fail")
                return None
            try:
                reply = send()  # the probe: one attempt, no sleeping
            except (OSError, HTTPException):
                self.count("transport_errors")
                self.count("breaker_fast_fail")
                breaker[1] = clock.now()
                return None
            if reply.status in (502, 504):
                self.count("upstream_errors")
                self.count("breaker_fast_fail")
                breaker[1] = clock.now()
                return None
            breaker[0] = 0  # healed: full retry cycles again
            if reply.status != 429:
                return reply
            self.count("backpressured")
            clock.sleep(min(_RETRY.delay(1, reply.retry_after), _RETRY.cap))
        backpressured = False
        for attempt in range(1, engine.config.op_attempts + 1):
            hint = 0.0
            try:
                reply = send()
            except (OSError, HTTPException):
                self.count("transport_errors")
            else:
                if reply.status == 429:
                    self.count("backpressured")
                    backpressured = True
                    hint = reply.retry_after
                elif reply.status in (502, 504):
                    self.count("upstream_errors")
                else:
                    if attempt > 1:
                        self.count("retried_ok")
                    breaker[0] = 0
                    return reply
            clock.sleep(min(_RETRY.delay(attempt, hint), _RETRY.cap))
        if backpressured:
            breaker[0] = 0  # the path answered: busy, not down
        else:
            breaker[0] += 1
            breaker[1] = clock.now()
        return None


class _Engine:
    """Shared run state: cluster, paths, chaos scheduling."""

    def __init__(self, config: SoakConfig, cluster) -> None:
        self.config = config
        self.cluster = cluster
        #: REST endpoint; set once the control-plane server is up.
        self.host: str = "127.0.0.1"
        self.port: int = 0
        self.paths: List[Tuple[str, ...]] = [
            tuple(nodes) for nodes in
            list(cluster.pod_paths) + list(cluster.spanning_paths)
        ]
        self._chaos_lock = threading.Lock()
        self._chaos_pending: List[ChaosEvent] = []
        self.chaos_log: Optional[ChaosLog] = None

    def new_client(self):
        from repro.controlplane.client import ControlPlaneClient

        return ControlPlaneClient(self.host, self.port,
                                  timeout=self.config.op_budget + 5.0)

    def path_of(self, index: int) -> Tuple[str, ...]:
        return self.paths[index % len(self.paths)]

    def endpoints_of(self, index: int) -> Tuple[str, str]:
        nodes = self.path_of(index)
        return nodes[0], nodes[-1]

    def arm_chaos(self, events: Sequence[ChaosEvent]) -> None:
        self._chaos_pending = sorted(events, key=lambda e: e.at,
                                     reverse=True)
        self.chaos_log = ChaosLog(self.cluster)

    def chaos_gate(self, now: float) -> None:
        """Fire every armed injection whose time has come.  Exactly
        one driver applies each (first past the post); the injection
        itself runs outside the lock so other drivers keep loading
        the cluster while a process dies."""
        if not self._chaos_pending:
            return
        while True:
            with self._chaos_lock:
                if not self._chaos_pending or \
                        self._chaos_pending[-1].at > now:
                    return
                event = self._chaos_pending.pop()
            self.chaos_log.apply(event, now=now)


def _shard_events(events: Sequence[SoakEvent],
                  drivers: int) -> List[List[SoakEvent]]:
    """Slice the schedule per driver by the app's own routing hash so
    each driver's flows land on exactly one agent."""
    slices: List[List[SoakEvent]] = [[] for _ in range(drivers)]
    for event in events:
        index = zlib.crc32(event.flow_id.encode("utf-8")) % drivers
        slices[index].append(event)
    return slices


def run_soak(
    config: SoakConfig,
    *,
    run_dir: str,
    log=None,
) -> SoakReport:
    """Execute one full soak run and return its report.

    The caller owns *run_dir* (the audit re-reads its WAL; keep it
    for ``repro verify-state``).  *log* is an optional ``print``-like
    progress callback.
    """
    from repro.cluster.procs import build_proc_cluster
    from repro.controlplane.app import ControlPlaneApp
    from repro.controlplane.server import ControlPlaneServer
    from repro.edge.agent import EdgeAgent, tcp_connector

    def say(message: str) -> None:
        if log is not None:
            log(message)

    say(f"generating schedule (seed={config.scenario.seed}, "
        f"target={config.scenario.target_events} events)")
    events = generate_schedule(config.scenario)
    digest = schedule_digest(events)
    duration = events[-1].at if events else 0.0
    say(f"schedule: {len(events)} events over {duration:.0f} domain-s, "
        f"digest {digest[:12]}")

    chaos_rng = random.Random(config.scenario.seed)
    os.makedirs(run_dir, exist_ok=True)
    cluster = build_proc_cluster(
        config.shards,
        run_dir=run_dir,
        durable=config.durable,
        fsync=config.fsync,
        workers=config.service_workers,
        queue_limit=config.queue_limit,
        gateway_workers=config.gateway_workers,
        gateway_lease=config.lease_duration,
        max_restarts=config.max_restarts,
        crash_ops=config.crash_ops,
    )
    save_domain_spec(run_dir, cluster.domain)

    report: Optional[SoakReport] = None
    with cluster:
        chaos = chaos_schedule(
            chaos_rng,
            duration=duration,
            shards=list(cluster.domain.shard_names),
            gateways=list(cluster.gateway_specs),
            count=config.chaos_injections,
            kinds=config.chaos_kinds,
        )
        engine = _Engine(config, cluster)
        engine.arm_chaos(chaos)
        say(f"chaos: {[f'{e.kind}@{e.at:.0f}->{e.target}' for e in chaos]}")

        agents = [
            EdgeAgent(
                f"rest-{index}",
                tcp_connector("127.0.0.1", cluster.gateway_port),
                op_budget=config.op_budget,
            )
            for index in range(config.drivers)
        ]
        app = ControlPlaneApp(
            agents,
            mib_view=lambda: {"links": cluster.link_loads()},
        )
        started = clock.now()
        try:
            with ControlPlaneServer(app) as server:
                engine.host, engine.port = server.host, server.port
                drivers = [
                    _Driver(index, engine, slice_)
                    for index, slice_ in enumerate(
                        _shard_events(events, config.drivers))
                ]
                for driver in drivers:
                    driver.start()
                while any(d.is_alive() for d in drivers):
                    for driver in drivers:
                        driver.join(timeout=5.0)
                    done = sum(len(d.events) for d in drivers
                               if not d.is_alive())
                    say(f"drivers: {done}/{len(events)} events replayed")
                for driver in drivers:
                    if driver.error is not None:
                        raise driver.error
                elapsed = clock.now() - started

                say("healing residual chaos + reconciling stuck flows")
                engine.chaos_log.heal_all()
                final_now = duration + 1.0
                _drain_unresolved(cluster, final_now, say)
                outcomes: Dict[str, int] = {}
                for driver in drivers:
                    for key, value in driver.outcomes.items():
                        outcomes[key] = outcomes.get(key, 0) + value
                survivors = _reconcile_and_sweep(
                    engine, drivers, final_now, outcomes, say)
                _drain_unresolved(cluster, final_now, say)
        finally:
            for agent in agents:
                try:
                    agent.close()
                except Exception:
                    pass

        say(f"auditing {len(survivors)} survivors against the oracle")
        spec = TSpec(**config.spec)
        live_audit = audit_proc_cluster(
            cluster,
            {fid: engine.path_of(path)
             for fid, path in survivors.items()},
            spec, config.delay_requirement,
        )
        live_dumps = cluster.dumps()
        cluster_stats = cluster.merged_stats()
        controlplane_counters = app.counters()

    # Replay the WAL *after* the cluster stopped: the shard processes
    # have drained and fsynced on SIGTERM, so the journals are final.
    replay_audit = audit_shard_dirs(
        run_dir, domain=None, live_dumps=live_dumps,
    )

    report = SoakReport(
        config=config,
        events=len(events),
        digest=digest,
        elapsed=elapsed,
        outcomes=outcomes,
        chaos=engine.chaos_log.as_dict(),
        chaos_kinds=engine.chaos_log.kinds_applied(),
        live_audit=live_audit,
        replay_audit=replay_audit,
        survivors=len(survivors),
        cluster_stats=cluster_stats,
        controlplane=controlplane_counters,
    )
    say(f"soak done: {report.events} events in {report.elapsed:.1f}s "
        f"({report.events_per_second:.0f}/s), audit "
        f"{'CLEAN' if report.ok else 'DIRTY'}")
    return report


def _drain_unresolved(cluster, now: float, say) -> None:
    """Deliver every coordinator op parked while a shard was down.

    A teardown accepted during a partition returns ``ok`` with its
    segment release parked as unresolved; the normal re-drive rides
    the handle's reconnect hook, which only fires when a *later* op
    dials the shard.  At end of run there may be no later op, so the
    engine drains explicitly — otherwise the audit reports capacity
    the broker really does still hold, stranded by the harness
    rather than the system under test.
    """
    coordinator = cluster.coordinator
    if coordinator is None:
        return
    for _attempt in range(5):
        pending = coordinator.unresolved()
        if not pending:
            return
        total = sum(len(ops) for ops in pending.values())
        say(f"draining {total} parked coordinator op(s) on "
            f"{sorted(pending)}")
        for shard in sorted(pending):
            coordinator.reconcile_shard(shard, now=now)
        clock.sleep(0.1)
    remaining = coordinator.unresolved()
    if remaining:
        say(f"unresolved ops remain after drain: {remaining}")


def _reconcile_and_sweep(
    engine: "_Engine",
    drivers: Sequence[_Driver],
    final_now: float,
    outcomes: Dict[str, int],
    say,
) -> Dict[str, int]:
    """Drive every stuck flow to a terminal state, then prove every
    live flow still holds its lease (re-adopting orphans), and return
    the survivor map (flow id -> path index)."""
    client = engine.new_client()
    config = engine.config

    def until_terminal(call, attempts: int):
        """*call()* until it answers with a terminal status; the last
        reply (``None`` if no attempt got one)."""
        reply = None
        for _ in range(attempts):
            try:
                reply = call()
            except (OSError, HTTPException):
                clock.sleep(0.1)
                continue
            if reply.status not in (429, 502, 504):
                break
            clock.sleep(min(max(reply.retry_after, 0.1), 0.5))
        return reply

    try:
        for driver in drivers:
            book = driver.book
            for flow_id, (op, idem, _at) in sorted(
                    book.unresolved.items()):
                path = book.paths.get(flow_id, 0)
                if op == "admit":
                    reply = until_terminal(lambda: client.admit(
                        flow_id, config.spec, config.delay_requirement,
                        *engine.endpoints_of(path),
                        path_nodes=engine.path_of(path),
                        now=final_now, idempotency_key=idem,
                        timeout=config.op_budget,
                    ), 20)
                else:
                    reply = until_terminal(lambda: client.teardown(
                        flow_id, now=final_now, idempotency_key=idem,
                        timeout=config.op_budget,
                    ), 20)
                outcomes["reconciled"] = outcomes.get("reconciled", 0) + 1
                if op == "admit" and reply is not None and (
                    reply.status == 201
                    or (reply.status == 409
                        and isinstance(reply.body, dict)
                        and reply.body.get("lease"))
                ):
                    book.state[flow_id] = _FlowBook.LIVE
                else:
                    book.state[flow_id] = _FlowBook.GONE
                say(f"reconcile: {flow_id} {op} -> "
                    f"{'?' if reply is None else reply.status} "
                    f"({book.state[flow_id]}) "
                    f"{getattr(reply, 'body', '')!r:.160}")

        # Final sweep: every believed-live flow must answer a refresh
        # (or re-adopt).  Whatever cannot is gone — the engine's view
        # converges to the broker's truth before the audit compares
        # the two.
        survivors: Dict[str, int] = {}
        swept = 0
        for driver in drivers:
            book = driver.book
            for flow_id, state in sorted(book.state.items()):
                if state != _FlowBook.LIVE:
                    continue
                swept += 1
                path = book.paths.get(flow_id, 0)
                reply = until_terminal(
                    lambda: client.refresh(flow_id, now=final_now), 10)
                if reply is not None and reply.status == 200:
                    survivors[flow_id] = path
                    continue
                # Lease missing here: re-adopt via the admit path.
                readmit = until_terminal(lambda: client.admit(
                    flow_id, config.spec, config.delay_requirement,
                    *engine.endpoints_of(path),
                    path_nodes=engine.path_of(path),
                    now=final_now, idempotency_key=f"{flow_id}/sweep",
                    timeout=config.op_budget,
                ), 10)
                if readmit is not None and (
                    readmit.status == 201
                    or (readmit.status == 409
                        and isinstance(readmit.body, dict)
                        and readmit.body.get("lease"))
                ):
                    survivors[flow_id] = path
                    outcomes["sweep_readopted"] = \
                        outcomes.get("sweep_readopted", 0) + 1
                else:
                    book.state[flow_id] = _FlowBook.GONE
                    outcomes["sweep_lost"] = \
                        outcomes.get("sweep_lost", 0) + 1
                    say(f"sweep: {flow_id} lost (refresh "
                        f"{'?' if reply is None else reply.status}, "
                        f"readmit "
                        f"{'?' if readmit is None else readmit.status})")
        outcomes["swept"] = outcomes.get("swept", 0) + swept
        say(f"sweep: {len(survivors)} survivors of {swept} live flows")
        return survivors
    finally:
        client.close()
