"""Multi-process cluster: process-isolated shards, a wire-level
coordinator, and a forked edge gateway.

Everything below exists to escape the GIL: PR 6's in-process cluster
proved the sharding protocol but ran every shard in one interpreter,
so eight shards bought concurrency, not parallelism.  This module
runs each :class:`~repro.cluster.shard.BrokerShard` as its own OS
process (spawn-safe entrypoint :func:`shard_process_main` wrapping a
:class:`~repro.cluster.remote.ShardServer` over the TCP transport and
binary wire codec), fronts them with the ordinary
:class:`~repro.cluster.coordinator.ClusterCoordinator` talking
pooled :class:`~repro.cluster.remote.OpClient` connections, and
optionally forks the edge gateway into N worker processes sharing one
``SO_REUSEPORT`` listen socket, each holding its own session set and
forwarding admissions to the coordinator over the wire
(:class:`CoordinatorServer`, spoken to through the same client).

Supervision is explicit: a :class:`ProcessSupervisor` spawns the
children, watches liveness (``is_alive`` plus transport keepalive
pings), restarts crashed children with bounded exponential backoff,
and tears the tree down with a graceful SIGTERM drain — each child
stops accepting, finishes in-flight dispatch, flushes its reply
outbox, and fsyncs its WAL before exiting.  Crash recovery composes
with the existing machinery end to end: a restarted shard process
recovers from its journal (:func:`~repro.cluster.shard.
recover_shard`), the parent's op client redials it, reaps, and
re-drives the decisions it missed
(:meth:`~repro.cluster.coordinator.ClusterCoordinator.
reconcile_shard`) — so a kill -9 mid-2PC nets to the same state the
single-broker oracle reaches.

Cross-process observability: every child answers a ``stats`` frame
with its :class:`~repro.service.stats.ServiceStats` snapshot plus pid;
:meth:`ProcCluster.merged_stats` collects them so ``repro stats`` can
render one scrape with per-process labels.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import signal
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import clock
from repro.errors import SignalingError
from repro.service.durability import FileJournal
from repro.service.transport import (
    TcpListener,
    TransportClosed,
    connect_tcp,
    is_pong,
    ping_frame,
    recv_matching,
)
from repro.traffic.spec import TSpec
from repro.units import mbps

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.remote import (
    _OPS,
    FRAME,
    FrameServer,
    OpClient,
    OpTable,
    ShardServer,
)
from repro.cluster.shard import BrokerShard, recover_shard
from repro.cluster.topology import (
    PodDomainSpec,
    domain_atlas,
    plan_pod_domain,
    shard_broker,
)

__all__ = [
    "ShardProcSpec",
    "GatewayWorkerSpec",
    "shard_process_main",
    "gateway_worker_main",
    "CoordinatorServer",
    "ClusterServiceClient",
    "ProcessSupervisor",
    "ProcCluster",
    "build_proc_cluster",
    "reserve_port",
]


# ----------------------------------------------------------------------
# endpoint files (child -> parent port discovery)
# ----------------------------------------------------------------------


def _endpoint_path(run_dir: str, name: str) -> str:
    return os.path.join(run_dir, "ports", f"{name}.port")


def _write_endpoint(path: str, host: str, port: int) -> None:
    """Atomically publish ``host port pid`` (tmp + rename), so a
    reader never sees a torn write and a restarted child simply
    replaces the file with its new ephemeral port."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(f"{host} {port} {os.getpid()}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_endpoint(path: str, *, timeout: float = 0.0
                  ) -> Tuple[str, int, int]:
    """Read a child's published ``(host, port, pid)``; with *timeout*
    polls until the file appears."""
    def read() -> Optional[Tuple[str, int, int]]:
        try:
            with open(path) as handle:
                parts = handle.read().split()
            if len(parts) >= 2:
                pid = int(parts[2]) if len(parts) > 2 else 0
                return parts[0], int(parts[1]), pid
        except (OSError, ValueError):
            pass
        return None

    endpoint = clock.poll(read, timeout, 0.02)
    if endpoint is None:
        raise SignalingError(f"no endpoint published at {path!r}")
    return endpoint


def reserve_port(host: str = "127.0.0.1") -> Tuple[socket.socket, int]:
    """Reserve a port for an ``SO_REUSEPORT`` accept group.

    Binds (without listening) so the kernel keeps the port ours while
    worker processes bind the same ``(host, port)`` with their own
    ``SO_REUSEPORT`` listening sockets.  A bound-but-not-listening
    socket never receives connections, so the reservation does not
    black-hole traffic.  Keep the returned socket open for the life of
    the group.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, 0))
    return sock, sock.getsockname()[1]


# ----------------------------------------------------------------------
# shard child process
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardProcSpec:
    """Everything a shard child process needs, as picklable data.

    ``crash_op``/``crash_at`` are fault-injection hooks for the
    supervisor tests: the child applies the N-th matching op's effect
    (journal + state mutation) and then dies with ``os._exit`` before
    acking — the exact "kill -9 after the fsync, before the reply"
    window 2PC recovery must survive.  Supervisor restarts strip the
    crash hook (:meth:`clean`).
    """

    name: str
    domain: PodDomainSpec
    run_dir: str
    durable: bool = False
    fsync: bool = False
    workers: int = 2
    queue_limit: int = 256
    hold_duration: float = 30.0
    host: str = "127.0.0.1"
    recovery_now: float = 0.0
    crash_op: str = ""
    crash_at: int = 1

    def clean(self) -> "ShardProcSpec":
        return dataclasses.replace(self, crash_op="")


class _CrashingHandle:
    """Fault-injection wrapper: apply the op, then die before acking."""

    def __init__(self, inner: BrokerShard, op: str,
                 at: int) -> None:
        self._inner = inner
        self._op = op
        self._at = max(1, int(at))
        self._seen = 0

    def __getattr__(self, name: str):
        method = getattr(self._inner, name)
        if name != self._op:
            return method

        def crashing(*args, **kwargs):
            self._seen += 1
            result = method(*args, **kwargs)
            if self._seen >= self._at:
                # Simulated kill -9: the effect is durable, the reply
                # never leaves the process.  No cleanup runs.
                os._exit(42)
            return result

        return crashing


def _shard_wal_dir(spec: ShardProcSpec) -> str:
    return os.path.join(spec.run_dir, "wal", spec.name)


def _serve_until_stopped(stop: threading.Event,
                         failed: Callable[[], bool]) -> bool:
    """Block a child's main thread until SIGTERM sets *stop* (True) or
    *failed* turns true (False), checking every 0.2 s."""
    while not clock.wait(stop, 0.2):
        if failed():
            return False
    return True


def _journal_failed(shard: BrokerShard) -> bool:
    return shard.wal is not None and shard.wal.failure is not None


def shard_process_main(spec: ShardProcSpec) -> None:
    """Spawn-safe entrypoint: serve one shard over TCP until SIGTERM.

    Builds (or, when the WAL directory already has records, recovers)
    the shard from the domain spec, publishes its ephemeral port, and
    serves :class:`ShardServer` until a SIGTERM triggers the graceful
    drain: the listener's close stops accepting, ends every idle
    connection and waits for the op in flight to send its reply; then
    the service stops and the WAL is fsynced and closed; exit 0.

    A journal that failed (an ``fsync`` error) stops for good, so the
    shard would answer every later op ``error``.  The child exits 1
    instead: the supervisor restarts it and recovery rebuilds the
    shard from what is on disk.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    partition = spec.domain.partition_map()
    shard_kwargs = dict(
        workers=spec.workers,
        queue_limit=spec.queue_limit,
        hold_duration=spec.hold_duration,
    )
    wal_dir: Optional[str] = None
    if spec.durable:
        wal_dir = _shard_wal_dir(spec)
        os.makedirs(wal_dir, exist_ok=True)
    if wal_dir and os.listdir(wal_dir):
        recovery = recover_shard(
            wal_dir,
            name=spec.name,
            partition=partition,
            broker_factory=lambda: shard_broker(spec.domain, spec.name),
            now=spec.recovery_now,
            fsync=spec.fsync,
            **shard_kwargs,
        )
        shard = recovery.shard
    else:
        wal = FileJournal(wal_dir, fsync=spec.fsync) if wal_dir else None
        shard = BrokerShard(
            spec.name, shard_broker(spec.domain, spec.name), partition,
            wal=wal, **shard_kwargs,
        )
    shard.start()

    server = ShardServer(
        _CrashingHandle(shard, spec.crash_op, spec.crash_at)
        if spec.crash_op else shard
    )
    listener = TcpListener(spec.host, 0)
    listener.serve(server.serve_connection, name=spec.name)
    _write_endpoint(
        _endpoint_path(spec.run_dir, spec.name),
        listener.host, listener.port,
    )

    if not _serve_until_stopped(stop, lambda: _journal_failed(shard)):
        listener.close()
        os._exit(1)  # nothing more may touch the failed journal

    listener.close()
    shard.stop(close_wal=False)
    if shard.wal is not None:
        try:
            shard.wal.commit()
        finally:
            shard.wal.close()


# ----------------------------------------------------------------------
# wire-level coordinator
# ----------------------------------------------------------------------

_COORDINATOR_OPS: OpTable = {
    "admit": FRAME, "teardown": FRAME,
    "reap": ("now",), "status": (), "stats": (),
}


def _decision_payload(decision) -> Dict[str, Any]:
    return {
        "status": decision.status,
        "flow_id": decision.flow_id,
        "admitted": bool(decision.admitted),
        "rate": decision.rate,
        "delay": decision.delay,
        "path_nodes": list(decision.path_nodes),
        "shards": list(decision.shards),
        "txid": decision.txid,
        "reason": decision.reason,
        "detail": decision.detail,
        "retry_after": decision.retry_after,
    }


class _CoordinatorOps:
    """Frame-shaped surface over a :class:`ClusterCoordinator`."""

    def __init__(self, coordinator: ClusterCoordinator) -> None:
        self.coordinator = coordinator

    def admit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        path_nodes = frame.get("path_nodes")
        decision = self.coordinator.admit(
            frame["flow_id"],
            TSpec.from_dict(frame["spec"]),
            frame.get("delay_requirement", 0.0),
            frame.get("ingress", ""),
            frame.get("egress", ""),
            path_nodes=tuple(path_nodes) if path_nodes else None,
            now=frame.get("now", 0.0),
        )
        return _decision_payload(decision)

    def teardown(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        decision = self.coordinator.teardown(
            frame["flow_id"], now=frame.get("now", 0.0),
        )
        return _decision_payload(decision)

    def reap(self, now: float) -> Dict[str, Any]:
        return {"status": "reaped", "shards": self.coordinator.reap(now)}

    def status(self) -> Dict[str, Any]:
        return {"status": "ok", **self.coordinator.counters()}

    def stats(self) -> Dict[str, Any]:
        return self.status()


class CoordinatorServer(FrameServer):
    """Serve a coordinator's admission surface over transport — the
    wire the forked gateway workers forward to."""

    def __init__(self, coordinator: ClusterCoordinator) -> None:
        super().__init__(_CoordinatorOps(coordinator), _COORDINATOR_OPS)
        self.coordinator = coordinator


# ----------------------------------------------------------------------
# gateway worker: BrokerService facade over the coordinator wire
# ----------------------------------------------------------------------


class ClusterServiceClient:
    """The :class:`~repro.service.runtime.BrokerService` surface a
    gateway worker process needs, backed by the coordinator wire.

    The :class:`~repro.edge.gateway.EdgeGateway` only touches a thin
    slice of the service — ``submit`` returning a
    :class:`PendingReply`, a synchronous ``request`` (the lease
    reaper's teardowns), ``journal_lease``, and the ``broker`` /
    ``shards`` / ``telemetry`` attributes.  This client implements
    that slice: submits run on a small worker pool, each op is one
    round trip to the :class:`CoordinatorServer` through
    *coordinator* (an :class:`~repro.cluster.remote.OpClient`, which
    owns the connections, resends and redials), and coordinator
    decisions map back to :class:`ServiceReply`/
    :class:`AdmissionDecision` shapes the gateway already speaks.
    ``broker`` is a provisioned-but-empty stand-in (macroflow hints
    and dry-runs degrade to "nothing known"), and lease journaling is
    the parent's concern, so it is a no-op here.
    """

    #: Submit threads; more than the client's pool so a decoded request
    #: is always waiting when a connection frees up.
    _WORKERS = 4

    def __init__(self, coordinator: OpClient) -> None:
        from repro.core.broker import BandwidthBroker
        from repro.service.shards import LinkShards

        self._coordinator = coordinator
        self._jobs: "queue.Queue" = queue.Queue()
        self.broker = BandwidthBroker()
        self.shards = LinkShards(1)
        self.telemetry = None
        self.submitted = 0
        self.transport_errors = 0
        self._stopped = threading.Event()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"cluster-submit-{i}")
            for i in range(self._WORKERS)
        ]
        for thread in self._threads:
            thread.start()

    # -- the BrokerService surface -------------------------------------

    def submit(self, request: "ServiceRequest") -> "PendingReply":
        from repro.service.runtime import PendingReply

        self.submitted += 1
        timeout = request.timeout
        enqueued = clock.now()
        pending = PendingReply(
            enqueued, None if timeout is None else enqueued + timeout,
        )
        self._jobs.put((request, pending))
        return pending

    def request(
        self,
        flow_id: str,
        spec=None,
        delay_requirement: float = 0.0,
        ingress: str = "",
        egress: str = "",
        *,
        op: str = "admit",
        service_class: str = "",
        path_nodes=None,
        now: float = 0.0,
        timeout: Optional[float] = None,
        rate: float = 0.0,
    ) -> "ServiceReply":
        from repro.service.runtime import ServiceRequest

        request = ServiceRequest(
            flow_id=flow_id, op=op, spec=spec,
            delay_requirement=delay_requirement, ingress=ingress,
            egress=egress, service_class=service_class,
            path_nodes=tuple(path_nodes) if path_nodes else None,
            now=now, timeout=timeout, rate=rate,
        )
        return self._execute(request)

    def journal_lease(self, event: str, flow_id: str, agent: str, *,
                      duration: float = 0.0, now: float = 0.0) -> None:
        # No lease event reaches any WAL in the process topology: the
        # coordinator writes no lease record, and ServiceRequest.lease
        # is not sent on the coordinator wire.  Each gateway worker
        # holds its flows' leases only in its own memory (its
        # EdgeGateway.leases), so a killed worker loses them until the
        # owners re-signal.  Moving leases into the broker tier is
        # ROADMAP item 4.
        return None

    # -- plumbing ------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            request, pending = job
            try:
                reply = self._execute(request)
            except Exception as exc:  # keep the pool alive
                from repro.service.runtime import ServiceReply

                reply = ServiceReply(
                    request, "error", None,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            pending._resolve(reply)

    def _execute(self, request: "ServiceRequest") -> "ServiceReply":
        from repro.service.runtime import ServiceReply

        started = clock.now()
        if request.op not in ("admit", "teardown"):
            return ServiceReply(
                request, "error", None,
                detail=(f"op {request.op!r} is not supported in "
                        "cluster gateway-worker mode"),
            )
        try:
            if request.op == "admit":
                payload = self._coordinator.admit({
                    "flow_id": request.flow_id,
                    "spec": request.spec.to_dict(),
                    "delay_requirement": request.delay_requirement,
                    "ingress": request.ingress,
                    "egress": request.egress,
                    "path_nodes": (list(request.path_nodes)
                                   if request.path_nodes else None),
                    "now": request.now,
                })
            else:
                payload = self._coordinator.teardown({
                    "flow_id": request.flow_id, "now": request.now,
                })
        except SignalingError as exc:
            self.transport_errors += 1
            return ServiceReply(
                request, "error", None,
                detail=f"coordinator unreachable: {exc}",
            )
        return self._reply_from(
            request, payload, clock.now() - started,
        )

    def _reply_from(self, request: "ServiceRequest",
                    payload: Dict[str, Any],
                    service_time: float) -> "ServiceReply":
        from repro.core.admission import AdmissionDecision, RejectionReason
        from repro.service.runtime import ServiceReply

        status = payload.get("status", "error")
        reason = payload.get("reason") or ""
        detail = payload.get("detail") or ""
        if reason:
            detail = f"{reason}: {detail}" if detail else reason
        if status in ("shed", "expired"):
            decision = AdmissionDecision(
                admitted=False, flow_id=request.flow_id,
                reason=RejectionReason.TRY_AGAIN, detail=detail,
            )
            return ServiceReply(
                request, status, decision, detail=detail,
                service_time=service_time,
                retry_after=payload.get("retry_after", 0.0) or 0.0,
            )
        if status in ("error", "in-doubt"):
            return ServiceReply(
                request, "error", None, detail=detail,
                service_time=service_time,
            )
        if request.op == "teardown":
            # "ok" from either the owning shard or the 2PC release.
            return ServiceReply(
                request, "ok", None, detail=detail,
                service_time=service_time,
            )
        admitted = status == "ok" and bool(payload.get("admitted"))
        path_nodes = payload.get("path_nodes") or []
        decision = AdmissionDecision(
            admitted=admitted, flow_id=request.flow_id,
            path_id="->".join(path_nodes) if admitted else "",
            rate=payload.get("rate", 0.0) or 0.0,
            delay=payload.get("delay", 0.0) or 0.0,
            reason=None, detail=detail,
        )
        return ServiceReply(
            request, "ok", decision, detail=detail,
            service_time=service_time,
        )

    def stats(self) -> Dict[str, Any]:
        """Worker-local counters (the rich ServiceStats live in the
        shard processes; merge via :meth:`ProcCluster.merged_stats`)."""
        return {
            "submitted": self.submitted,
            "transport_errors": self.transport_errors,
        }

    def stop(self) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        for _ in self._threads:
            self._jobs.put(None)
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._coordinator.close()


@dataclass(frozen=True)
class GatewayWorkerSpec:
    """Picklable plan for one forked edge-gateway worker process."""

    name: str
    run_dir: str
    port: int               #: the shared ``SO_REUSEPORT`` accept port
    coordinator_host: str
    coordinator_port: int
    host: str = "127.0.0.1"
    lease_duration: float = 30.0
    dedup_capacity: int = 4096
    reap_interval: float = 0.05


def gateway_worker_main(spec: GatewayWorkerSpec) -> None:
    """Spawn-safe entrypoint: one edge-gateway worker process.

    Binds the shared accept port with ``SO_REUSEPORT`` (the kernel
    load-balances incoming agent connections across the worker group),
    serves the full edge protocol with its own session set and dedup
    window, and forwards every admit/teardown to the parent's
    :class:`CoordinatorServer` over TCP.  SIGTERM runs the graceful
    drain: stop accepting, wait for in-flight requests and reply
    outboxes to empty, then :meth:`~repro.edge.gateway.EdgeGateway.
    stop` — the listener's close ends every session and joins its
    thread — and exit 0.
    """
    from repro.edge.gateway import EdgeGateway

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    client = ClusterServiceClient(OpClient(
        "coordinator", _COORDINATOR_OPS,
        lambda: connect_tcp(
            spec.coordinator_host, spec.coordinator_port, timeout=2.0),
    ))
    gateway = EdgeGateway(
        client, name=spec.name, lease_duration=spec.lease_duration,
        dedup_capacity=spec.dedup_capacity,
        reap_interval=spec.reap_interval,
    )
    host, port = gateway.listen(spec.host, spec.port, reuseport=True)
    gateway.start()
    _write_endpoint(_endpoint_path(spec.run_dir, spec.name), host, port)

    _serve_until_stopped(stop, lambda: False)

    gateway.stop_accepting()
    gateway.drain_outboxes(timeout=3.0)
    gateway.stop()
    client.stop()


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------


@dataclass
class _Child:
    name: str
    target: Callable[[Any], None]
    spec: Any
    restart_spec: Any
    process: Any = None
    endpoint: Optional[Callable[[], Tuple[str, int]]] = None
    restarts: int = 0
    ping_failures: int = 0
    #: True once this incarnation has answered a ping — readiness.
    #: Liveness kills only apply after it; a restarting shard can
    #: legitimately spend an unbounded stretch replaying its WAL
    #: before it binds, and killing it mid-recovery restarts the
    #: replay from scratch (a crash-loop that also starves the
    #: whole coordinator wire on dead-endpoint dials).
    responsive: bool = False
    next_restart_at: float = 0.0
    stopping: bool = False
    failed: bool = False


class ProcessSupervisor:
    """Spawn, watch, restart, and drain a tree of child processes.

    * **Spawn**: children start via the ``spawn`` context (the parent
      has live threads; ``fork`` would clone held locks) with a
      picklable spec as the sole argument.
    * **Liveness**: the monitor thread polls ``Process.is_alive`` and,
      for children that registered an endpoint, sends a transport
      keepalive ping over a short-lived connection; ``ping_grace``
      consecutive failures count as a hang and the child is killed
      (then restarted like any crash).
    * **Restart**: a dead, non-stopping child is respawned from its
      ``restart_spec`` (fault-injection knobs stripped) after an
      exponential backoff — ``backoff * 2^restarts`` capped at
      ``backoff_max`` — up to ``max_restarts`` times, after which it
      is marked failed and left down.
    * **Drain**: :meth:`stop` SIGTERMs every child (each entrypoint
      stops accepting, flushes outboxes, fsyncs its WAL), joins with a
      grace period, and only then escalates to SIGKILL.
    """

    def __init__(
        self,
        *,
        start_method: str = "spawn",
        max_restarts: int = 3,
        backoff: float = 0.05,
        backoff_max: float = 1.0,
        monitor_interval: float = 0.05,
        ping_interval: float = 1.0,
        ping_grace: int = 3,
    ) -> None:
        self._ctx = multiprocessing.get_context(start_method)
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.monitor_interval = monitor_interval
        self.ping_interval = ping_interval
        self.ping_grace = ping_grace
        self._children: Dict[str, _Child] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._last_ping = 0.0
        self.restarts_total = 0
        self.pings_failed = 0

    def launch(
        self,
        name: str,
        target: Callable[[Any], None],
        spec: Any,
        *,
        restart_spec: Any = None,
        endpoint: Optional[Callable[[], Tuple[str, int]]] = None,
    ) -> None:
        """Spawn *name* running ``target(spec)``; restarts use
        *restart_spec* (default: *spec* itself)."""
        child = _Child(
            name=name, target=target, spec=spec,
            restart_spec=restart_spec if restart_spec is not None
            else spec,
            endpoint=endpoint,
        )
        child.process = self._spawn(target, spec)
        with self._lock:
            self._children[name] = child

    def _spawn(self, target: Callable[[Any], None], spec: Any):
        process = self._ctx.Process(
            target=target, args=(spec,), daemon=True,
        )
        process.start()
        return process

    # -- monitoring ----------------------------------------------------

    def start_monitor(self) -> None:
        if self._monitor is not None:
            return
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True,
            name="proc-supervisor",
        )
        self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            now = clock.now()
            ping_due = now - self._last_ping >= self.ping_interval
            if ping_due:
                self._last_ping = now
            with self._lock:
                children = list(self._children.values())
            for child in children:
                if child.stopping or child.failed:
                    continue
                if child.process.is_alive():
                    if ping_due and child.endpoint is not None:
                        self._check_ping(child)
                    continue
                self._maybe_restart(child, now)
            clock.wait(self._stop, self.monitor_interval)

    def _check_ping(self, child: _Child) -> None:
        if self._ping_once(child):
            child.ping_failures = 0
            child.responsive = True
            return
        child.ping_failures += 1
        self.pings_failed += 1
        if child.ping_failures >= self.ping_grace and child.responsive:
            # Responsive once, deaf now: treat as hung, kill and let
            # the restart path bring back a replacement.  A child
            # that has *never* answered is still starting up (e.g.
            # replaying a long WAL before it binds) — leave it be;
            # a startup crash shows up via ``is_alive`` instead.
            child.ping_failures = 0
            try:
                child.process.kill()
            except Exception:
                pass

    def _ping_once(self, child: _Child) -> bool:
        try:
            host, port = child.endpoint()[:2]
            conn = connect_tcp(host, port, timeout=1.0)
        except (SignalingError, TransportClosed, OSError):
            return False
        try:
            conn.send(ping_frame(0))
            return recv_matching(conn, 1.0, is_pong) is not None
        except (TransportClosed, OSError):
            return False
        finally:
            try:
                conn.close()
            except Exception:
                pass

    def _maybe_restart(self, child: _Child, now: float) -> None:
        if child.restarts >= self.max_restarts:
            child.failed = True
            return
        if child.next_restart_at == 0.0:
            child.next_restart_at = now + clock.Backoff(
                self.backoff, self.backoff_max,
            ).delay(child.restarts + 1)
            return
        if now < child.next_restart_at:
            return
        child.next_restart_at = 0.0
        child.restarts += 1
        self.restarts_total += 1
        child.ping_failures = 0
        child.responsive = False
        child.process = self._spawn(child.target, child.restart_spec)

    # -- control -------------------------------------------------------

    def alive(self) -> Dict[str, bool]:
        with self._lock:
            return {
                name: child.process.is_alive()
                for name, child in self._children.items()
            }

    def unready(self) -> List[str]:
        """Children that are down, awaiting a restart, or have not
        answered a ping since they last started (stopped children and
        unpinged ones without an endpoint excepted)."""
        with self._lock:
            children = list(self._children.values())
        return [child.name for child in children if not child.stopping
                and not (child.process.is_alive()
                         and child.next_restart_at == 0.0
                         and (child.responsive or child.endpoint is None))]

    def pids(self) -> Dict[str, Optional[int]]:
        with self._lock:
            return {
                name: child.process.pid
                for name, child in self._children.items()
            }

    def kill(self, name: str) -> None:
        """SIGKILL a child (tests: simulate a hard crash).  The
        monitor restarts it through the normal backoff path."""
        with self._lock:
            child = self._children[name]
        child.process.kill()
        child.process.join(timeout=5.0)

    def terminate(self, name: str, *, grace: float = 5.0) -> None:
        """Graceful stop of one child: SIGTERM, join, escalate."""
        with self._lock:
            child = self._children[name]
        child.stopping = True
        self._shutdown(child, grace)

    def _shutdown(self, child: _Child, grace: float) -> None:
        process = child.process
        if process.is_alive():
            process.terminate()
        process.join(timeout=grace)
        if process.is_alive():
            process.kill()
            process.join(timeout=grace)

    def stop(self, *, grace: float = 5.0) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
            self._monitor = None
        with self._lock:
            children = list(self._children.values())
            for child in children:
                child.stopping = True
        for child in children:
            if child.process.is_alive():
                child.process.terminate()
        for child in children:
            child.process.join(timeout=grace)
        for child in children:
            if child.process.is_alive():
                child.process.kill()
                child.process.join(timeout=grace)

    def counters(self) -> Dict[str, Any]:
        with self._lock:
            restarts = {
                name: child.restarts
                for name, child in self._children.items()
            }
            failed = [
                name for name, child in self._children.items()
                if child.failed
            ]
        return {
            "restarts_total": self.restarts_total,
            "pings_failed": self.pings_failed,
            "restarts": restarts,
            "failed": failed,
        }


# ----------------------------------------------------------------------
# the assembled multi-process cluster
# ----------------------------------------------------------------------


@dataclass
class ProcCluster:
    """A running multi-process cluster and its parent-side plumbing."""

    domain: PodDomainSpec
    partition: Any
    atlas: Any
    supervisor: ProcessSupervisor
    run_dir: str
    shard_specs: Dict[str, ShardProcSpec]
    handles: Dict[str, OpClient] = field(default_factory=dict)
    coordinator: Optional[ClusterCoordinator] = None
    pod_paths: List[Any] = field(default_factory=list)
    spanning_paths: List[Any] = field(default_factory=list)
    coordinator_server: Optional[CoordinatorServer] = None
    coordinator_listener: Optional[TcpListener] = None
    gateway_specs: Dict[str, GatewayWorkerSpec] = field(
        default_factory=dict)
    gateway_port: Optional[int] = None
    _port_reservation: Optional[socket.socket] = None
    _coordinator_wal: Optional[FileJournal] = None
    start_timeout: float = 15.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ProcCluster":
        """Spawn every child, wait for endpoints, dial handles, build
        the coordinator (and optionally the wire coordinator + gateway
        workers), start the supervisor's monitor."""
        for name, spec in self.shard_specs.items():
            path = _endpoint_path(self.run_dir, name)
            self.supervisor.launch(
                name, shard_process_main, spec,
                restart_spec=spec.clean(),
                endpoint=(lambda p=path: read_endpoint(p)[:2]),
            )
        for name in self.shard_specs:
            read_endpoint(
                _endpoint_path(self.run_dir, name),
                timeout=self.start_timeout,
            )
        for name in self.shard_specs:
            path = _endpoint_path(self.run_dir, name)
            self.handles[name] = OpClient(
                name, _OPS,
                (lambda p=path: connect_tcp(
                    *read_endpoint(p)[:2], timeout=2.0)),
            )
        self.coordinator = ClusterCoordinator(
            self.partition, self.handles, self.atlas,
            wal=self._coordinator_wal,
        )
        for name, handle in self.handles.items():
            handle.on_reconnect = self._make_reconnect_hook(name)

        if self.gateway_specs:
            self.coordinator_server = CoordinatorServer(self.coordinator)
            self.coordinator_listener = TcpListener("127.0.0.1", 0)
            self.coordinator_listener.serve(
                self.coordinator_server.serve_connection,
                name="coordinator")
            coord_host = self.coordinator_listener.host
            coord_port = self.coordinator_listener.port
            for name, spec in self.gateway_specs.items():
                spec = dataclasses.replace(
                    spec, coordinator_host=coord_host,
                    coordinator_port=coord_port,
                )
                self.gateway_specs[name] = spec
                path = _endpoint_path(self.run_dir, name)
                self.supervisor.launch(
                    name, gateway_worker_main, spec,
                    endpoint=(lambda p=path: read_endpoint(p)[:2]),
                )
            for name in self.gateway_specs:
                read_endpoint(
                    _endpoint_path(self.run_dir, name),
                    timeout=self.start_timeout,
                )
        self.supervisor.start_monitor()
        return self

    def _make_reconnect_hook(self, name: str) -> Callable[[], None]:
        def hook() -> None:
            handle = self.handles[name]
            now = handle.high_water_now
            try:
                handle.reap(now)
            except (SignalingError, TransportClosed):
                pass
            if self.coordinator is not None:
                self.coordinator.reconcile_shard(name, now=now)
        return hook

    def stop(self) -> None:
        self.supervisor.stop()
        if self.coordinator_listener is not None:
            self.coordinator_listener.close()
        if self.coordinator is not None:
            self.coordinator.close()
        for handle in self.handles.values():
            handle.close()
        if self._port_reservation is not None:
            try:
                self._port_reservation.close()
            except Exception:
                pass

    def __enter__(self) -> "ProcCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def wait_ready(self) -> None:
        """Block until no supervised child is
        :meth:`~ProcessSupervisor.unready` (a shard killed a moment ago
        still names its old port, so an op now fails its one redial);
        :class:`SignalingError` after :attr:`start_timeout`."""
        if not clock.poll(lambda: not self.supervisor.unready(),
                          self.start_timeout, 0.05):
            raise SignalingError(
                f"not ready after {self.start_timeout:g}s: "
                f"{self.supervisor.unready()}")

    # -- observability -------------------------------------------------

    def dumps(self) -> Dict[str, Dict[str, Any]]:
        return {name: handle.dump()
                for name, handle in self.handles.items()}

    def outstanding_holds(self) -> List[Tuple[str, str, str]]:
        """Every live ``txn:`` hold across all shard processes —
        non-empty after a run means 2PC leaked."""
        stranded: List[Tuple[str, str, str]] = []
        for name, dump in self.dumps().items():
            for link, state in dump.get("links", {}).items():
                for key in state.get("keys", []):
                    if key.startswith("txn:"):
                        stranded.append((name, link, key))
        return stranded

    def link_loads(self) -> Dict[str, float]:
        loads: Dict[str, float] = {}
        for dump in self.dumps().values():
            for link, state in dump.get("links", {}).items():
                loads[link] = state.get("reserved_rate", 0.0)
        return loads

    def flows(self) -> Dict[str, List[str]]:
        return {name: dump.get("flows", [])
                for name, dump in self.dumps().items()}

    def merged_stats(self) -> Dict[str, Any]:
        """Cross-process stats: one ``stats`` frame per shard process
        (ServiceStats + pid), the coordinator's counters, and the
        supervisor's restart ledger."""
        shards: Dict[str, Any] = {}
        for name, handle in self.handles.items():
            try:
                shards[name] = handle.stats()
            except (SignalingError, TransportClosed) as exc:
                shards[name] = {"status": "error", "detail": str(exc)}
        merged: Dict[str, Any] = {"shards": shards}
        if self.coordinator is not None:
            merged["coordinator"] = self.coordinator.counters()
        merged["supervisor"] = self.supervisor.counters()
        merged["reconnects"] = {
            name: handle.reconnects
            for name, handle in self.handles.items()
        }
        return merged


def build_proc_cluster(
    num_shards: int,
    *,
    run_dir: str,
    pods: Optional[int] = None,
    capacity: float = mbps(45),
    durable: bool = False,
    fsync: bool = False,
    workers: int = 2,
    queue_limit: int = 256,
    hold_duration: float = 30.0,
    gateway_workers: int = 0,
    gateway_lease: float = 30.0,
    start_timeout: float = 15.0,
    max_restarts: int = 3,
    crash_ops: Optional[Dict[str, Tuple[str, int]]] = None,
) -> ProcCluster:
    """Plan a pod domain and assemble the multi-process cluster.

    Same topology as :func:`~repro.cluster.topology.build_pod_cluster`
    (so single-process and multi-process runs compare like for
    like), but every shard is a :class:`ShardProcSpec` destined for
    its own OS process, and ``gateway_workers > 0`` adds a forked edge
    tier sharing one ``SO_REUSEPORT`` port.  Call
    :meth:`ProcCluster.start` (or use as a context manager) to spawn.

    ``crash_ops`` maps shard name to ``(op, nth)`` fault-injection
    knobs for the supervisor tests — the spawned child dies after
    applying the N-th matching op; its restart spec is clean.
    """
    domain = plan_pod_domain(num_shards, pods=pods, capacity=capacity)
    partition = domain.partition_map()
    atlas = domain_atlas(domain)
    os.makedirs(run_dir, exist_ok=True)

    crash_ops = crash_ops or {}
    shard_specs: Dict[str, ShardProcSpec] = {}
    for name in domain.shard_names:
        crash_op, crash_at = crash_ops.get(name, ("", 1))
        shard_specs[name] = ShardProcSpec(
            name=name, domain=domain, run_dir=run_dir,
            durable=durable, fsync=fsync, workers=workers,
            queue_limit=queue_limit, hold_duration=hold_duration,
            crash_op=crash_op, crash_at=crash_at,
        )

    coordinator_wal: Optional[FileJournal] = None
    if durable:
        wal_dir = os.path.join(run_dir, "wal", "coordinator")
        os.makedirs(wal_dir, exist_ok=True)
        coordinator_wal = FileJournal(wal_dir, fsync=fsync)

    supervisor = ProcessSupervisor(max_restarts=max_restarts)
    cluster = ProcCluster(
        domain=domain, partition=partition, atlas=atlas,
        supervisor=supervisor, run_dir=run_dir,
        shard_specs=shard_specs,
        pod_paths=list(domain.pod_paths),
        spanning_paths=list(domain.spanning_paths),
        start_timeout=start_timeout,
    )
    cluster._coordinator_wal = coordinator_wal

    if gateway_workers > 0:
        reservation, port = reserve_port("127.0.0.1")
        cluster._port_reservation = reservation
        cluster.gateway_port = port
        for index in range(gateway_workers):
            name = f"gw-{index}"
            cluster.gateway_specs[name] = GatewayWorkerSpec(
                name=name, run_dir=run_dir, port=port,
                coordinator_host="", coordinator_port=0,
                lease_duration=gateway_lease,
            )
    return cluster
