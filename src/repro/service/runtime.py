"""The concurrent broker service runtime.

The paper decouples QoS control into a centralized bandwidth broker —
which makes the broker itself the scalability bottleneck its Section 5
measures.  :class:`BrokerService` turns the purely synchronous
:class:`~repro.core.broker.BandwidthBroker` library into a runnable
daemon engineered around that bottleneck:

* **bounded request queue + worker pool** — stdlib threads pull
  requests from a bounded queue; when the queue is full, a submit is
  answered *immediately* with a distinct
  :data:`~repro.core.admission.RejectionReason.TRY_AGAIN` rejection
  instead of blocking the signaling path (backpressure);
* **per-request deadlines** — a request whose deadline passes while
  it waits is shed with ``TRY_AGAIN`` at dequeue time instead of
  being serviced uselessly (graceful degradation);
* **sharded link-state** — links are partitioned across N lock
  shards (:class:`~repro.service.shards.LinkShards`); a request's
  critical section takes only the shards its candidate paths cross,
  so admission on link-disjoint paths runs in parallel while any two
  requests sharing a link are serialized — keeping aggregate
  decisions identical to sequential admission;
* **admission batching** — queued requests with the same batch key
  are coalesced and served with one resolution + one hoisted
  schedulability scan (:mod:`repro.service.batching`);
* **teardown runs** — consecutive teardowns at the queue head (up to
  ``batch_limit``) are popped together; each is applied under its own
  shard locks and journaled write-ahead, and one group commit covers
  the run.  The run stops at the first other op, so it reorders
  nothing;
* **observability** — :meth:`BrokerService.stats` returns a
  :class:`~repro.service.stats.ServiceStats` snapshot (queue depth,
  shed/expired counts, batch shape, p50/p99 service time, per-shard
  contention).

Two orderings are intentionally relaxed relative to a strict FIFO
single thread, and documented here because they are visible to
clients: (1) requests on disjoint shards may complete out of arrival
order; (2) the batcher serves same-key requests ahead of an older
different-key request a worker skipped over.  Neither affects the
aggregate accept/reject outcome for conflict-free traces (the stress
tests assert this), because reordering only ever exchanges requests
that do not contend for the same bottleneck decision — contended
requests share a shard and stay ordered.

The optional ``edge_rtt`` models the COPS round-trip that programs
the ingress edge conditioner (the paper's Figure 1 push; its Section
5 setup-latency experiments measure exactly this leg).  The worker
blocks — GIL released — with the batch's shard locks held, because a
reservation is not durable until the edge acknowledges it; this is
the component of service time that a larger worker pool genuinely
overlaps.

Class-based requests and teardowns serialize across **all** shards:
a microflow join calls :meth:`AggregateAdmission.advance`, which may
release expired contingency bandwidth on any macroflow in the domain,
so its write set is not path-local.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import clock
from repro.core.admission import AdmissionDecision, RejectionReason
from repro.core.broker import BandwidthBroker
from repro.core.journal import KINDS, Replay, request_payload
from repro.errors import StateError
from repro.service.batching import AdmissionBatcher, batch_key
from repro.service.durability import FileJournal
from repro.service.shards import LinkShards
from repro.service.stats import ServiceStats, StatsRecorder
from repro.traffic.spec import TSpec

__all__ = [
    "ServiceRequest",
    "ServiceReply",
    "PendingReply",
    "BrokerService",
    "OK",
    "SHED",
    "EXPIRED",
    "ERROR",
]

#: Reply status values.
OK = "ok"            # a real admission/teardown decision
SHED = "shed"        # queue full at submit time -> TRY_AGAIN
EXPIRED = "expired"  # deadline passed while queued -> TRY_AGAIN
ERROR = "error"      # the request raised inside the worker

_RESIZE = (
    "resize",
    lambda r: {"macroflow_key": r.flow_id, "mode": r.op, "rate": r.rate,
               "now": r.now},
    lambda r, moved: f"{r.op} moved {moved:.1f} b/s",
)

#: The all-shard control ops: op -> (record kind, its payload for the
#: request, the reply detail from what the kind's row returned).  Each
#: may release or resize bandwidth on any macroflow's path (advance and
#: shrink also touch the global contingency schedule), so each
#: serializes across every shard, like a class-based join.
_CONTROL_OPS: Dict[str, Tuple[str, Callable, Callable]] = {
    "advance": ("advance", lambda r: {"now": r.now}, lambda r, _: ""),
    "feedback": (
        "feedback",
        lambda r: {"macroflow_key": r.flow_id, "now": r.now},
        lambda r, released: f"released {released} allocation(s)",
    ),
    "shrink": _RESIZE,
    "inflate": _RESIZE,
}


def _lease_field(lease: Optional[Tuple[str, float]]
                 ) -> Optional[Dict[str, Any]]:
    """The ``lease`` field of a decision record whose request names
    an edge lease's ``(agent, duration)``; ``None`` when it names none."""
    if lease is None:
        return None
    agent, duration = lease
    return {"agent": agent, "duration": duration}


@dataclass(frozen=True)
class ServiceRequest:
    """One unit of work submitted to the service.

    :param flow_id: the flow the operation concerns (empty for
        ``"advance"``; the **macroflow key** for ``"feedback"``,
        ``"shrink"`` and ``"inflate"``).
    :param op: ``"admit"``, ``"teardown"``, ``"advance"``,
        ``"feedback"`` (Section 4.2.1 — the macroflow's edge buffer
        drained, release its contingency bandwidth early),
        ``"shrink"`` (adaptive re-dimensioning: lower the macroflow's
        base rate toward ``rate``, Theorem 3 deferral applies) or
        ``"inflate"`` (pre-grant ``rate`` b/s ahead of a rising
        arrival trend).
    :param spec: traffic profile (admit only).
    :param rate: the shrink target rate / inflate amount in b/s
        (resize ops only).
    :param delay_requirement: ``D_req``; 0 with a service class.
    :param ingress: ingress edge router (admit only).
    :param egress: egress edge router (admit only).
    :param service_class: registered class id, empty for per-flow.
    :param path_nodes: explicit path pin (else widest-shortest).
    :param now: the *domain* clock for admission bookkeeping
        (``admitted_at``, contingency periods) — decoupled from the
        wall clock that drives deadlines.
    :param timeout: seconds this request may spend queued before it
        is shed (``None``: the service default).
    :param lease: ``(agent, duration)`` of the edge lease this admit
        asks for or this teardown releases (the edge gateway sets it).
        With a WAL, the service writes it as the ``lease`` field of
        the op's own ``request`` or ``terminate`` record, so it is
        durable exactly when the decision is; the replayed decision
        says whether the lease was granted or released.  ``None``: no
        field.
    """

    flow_id: str
    op: str = "admit"
    spec: Optional[TSpec] = None
    delay_requirement: float = 0.0
    ingress: str = ""
    egress: str = ""
    service_class: str = ""
    path_nodes: Optional[Tuple[str, ...]] = None
    now: float = 0.0
    timeout: Optional[float] = None
    rate: float = 0.0
    lease: Optional[Tuple[str, float]] = None


@dataclass(frozen=True)
class ServiceReply:
    """The service's answer to one :class:`ServiceRequest`.

    ``decision`` is always present for admissions — shed and expired
    requests carry an ``admitted=False`` decision with reason
    :data:`~repro.core.admission.RejectionReason.TRY_AGAIN`, which is
    how clients distinguish "come back later" from a capacity
    rejection.  Completed teardowns have ``decision None``.

    ``retry_after`` is the machine-readable half of the backpressure
    contract: on a ``TRY_AGAIN`` reply it carries the service's
    estimate (seconds) of when a retry will find room — the queued
    backlog divided across the worker pool at the recent median
    service time — so clients pace retries off the hint instead of
    parsing the status string or guessing.  0.0 on real decisions.
    """

    request: ServiceRequest
    status: str
    decision: Optional[AdmissionDecision]
    detail: str = ""
    service_time: float = 0.0
    batch_size: int = 1
    retry_after: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.decision is not None and self.decision.admitted

    @property
    def try_again(self) -> bool:
        """Was the request shed (backpressure/deadline), not judged?"""
        return self.status in (SHED, EXPIRED)


class PendingReply:
    """A future for one submitted request.

    Its :class:`threading.Event` is made only when a caller blocks in
    :meth:`wait`: a network front-end answers through callbacks and
    never needs one.
    """

    __slots__ = ("_event", "_reply", "_callbacks", "_cb_lock",
                 "enqueued_at", "deadline")

    def __init__(self, enqueued_at: float,
                 deadline: Optional[float]) -> None:
        self._event: Optional[threading.Event] = None
        self._reply: Optional[ServiceReply] = None
        self._callbacks: List = []
        self._cb_lock = threading.Lock()
        self.enqueued_at = enqueued_at
        self.deadline = deadline

    def _resolve(self, reply: ServiceReply) -> int:
        """Publish *reply* and run the registered callbacks, each in
        isolation; returns how many of them raised.  A raising
        callback must not kill the resolving worker and strand the
        rest of its batch."""
        with self._cb_lock:
            self._reply = reply
            if self._event is not None:
                self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        failed = 0
        for callback in callbacks:
            try:
                callback(reply)
            except Exception:
                failed += 1
                # Imported on this rare path only: nothing else in a
                # serving process loads ``logging`` (~0.2 MB RSS each).
                import logging

                logging.getLogger(__name__).exception(
                    "done-callback for %r raised", reply.request.flow_id
                )
        return failed

    def add_done_callback(self, callback) -> "PendingReply":
        """Run ``callback(reply)`` once the reply resolves.

        Fires immediately (in the caller's thread) when the future is
        already done — a shed submit resolves before :meth:`submit`
        returns — and otherwise in the resolving worker's thread.
        This is how a network front-end (the edge gateway) answers
        many in-flight requests without parking a thread per request.
        Callbacks must not block: they run on the worker that just
        served the batch.  An exception raised there is logged with
        its traceback and counted (``ServiceStats.callback_errors``);
        one raised by an immediate call propagates to the caller.
        """
        with self._cb_lock:
            reply = self._reply
            if reply is None:
                self._callbacks.append(callback)
                return self
        callback(reply)
        return self

    @property
    def done(self) -> bool:
        return self._reply is not None

    def wait(self, timeout: Optional[float] = None) -> ServiceReply:
        """Block until the reply arrives (raises ``TimeoutError``)."""
        with self._cb_lock:
            if self._reply is not None:
                return self._reply
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        if not event.wait(timeout):
            raise TimeoutError("no service reply within the wait timeout")
        assert self._reply is not None
        return self._reply


class _Job:
    __slots__ = ("request", "pending")

    def __init__(self, request: ServiceRequest,
                 pending: PendingReply) -> None:
        self.request = request
        self.pending = pending


class BrokerService:
    """A concurrent service front-end over one :class:`BandwidthBroker`.

    :param broker: the broker whose admission machinery is served.
    :param workers: worker-thread pool size.
    :param shards: link-state shard count (parallelism knob).
    :param queue_limit: bounded queue depth; submits beyond it shed.
    :param batch_limit: max requests coalesced into one batch.
    :param default_timeout: default per-request queueing deadline in
        seconds (``None``: no deadline).
    :param edge_rtt: simulated edge-programming round-trip in seconds
        (0 disables; see the module docstring).
    :param wal: optional :class:`~repro.service.durability.FileJournal`
        — every admit/teardown/advance is then journaled *before* its
        reply resolves: entries are appended **under the batch's shard
        locks** (so two operations that contend for the same state are
        journaled in their commit order and replay reproduces it), and
        the reply future is resolved only after the group commit
        covering the entry returns.  One fsync covers the whole batch
        (or teardown run) and whatever other workers appended
        meanwhile — durability is amortized exactly like admission
        batching.  A group commit that fails (an ``fsync`` error, or
        the journal refusing work after one) turns the whole group
        into ``ERROR`` replies — clients are never told "admitted" for
        an operation that is not on disk.

    Use as a context manager, or call :meth:`start`/:meth:`stop`.
    The broker must not be driven concurrently through its
    single-threaded entry points while the service is running.
    """

    def __init__(
        self,
        broker: BandwidthBroker,
        *,
        workers: int = 4,
        shards: int = 8,
        queue_limit: int = 256,
        batch_limit: int = 16,
        default_timeout: Optional[float] = None,
        edge_rtt: float = 0.0,
        wal: Optional[FileJournal] = None,
    ) -> None:
        if workers < 1:
            raise StateError(f"need at least one worker, got {workers}")
        if queue_limit < 1:
            raise StateError(f"queue limit must be >= 1, got {queue_limit}")
        self.broker = broker
        self.workers = int(workers)
        self.queue_limit = int(queue_limit)
        self.batch_limit = max(1, int(batch_limit))
        self.default_timeout = default_timeout
        self.edge_rtt = float(edge_rtt)
        self.wal = wal
        self.shards = LinkShards(shards)
        self._batcher = AdmissionBatcher(broker)
        self._recorder = StatsRecorder()
        self._queue: Deque[_Job] = deque()
        self._cond = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._running = False
        #: The live state every journaled op applies its record to,
        #: through the same :data:`~repro.core.journal.KINDS` row that
        #: replay runs; a cluster shard keeps its 2PC table in
        #: ``state.txns``.
        self.state = Replay(broker)
        #: optional TelemetryStore (see :meth:`attach_telemetry`).
        self.telemetry = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "BrokerService":
        """Spawn the worker pool (idempotent).

        Shard assignment is planned from the paths pinned so far
        (path-locality co-location, see
        :meth:`~repro.service.shards.LinkShards.plan_paths`); paths
        pinned after start fall back to the hashed shard map.
        """
        with self._cond:
            if self._running:
                return self
            self._running = True
        self.shards.plan_paths(self.broker.path_mib.records())
        self._threads = [
            threading.Thread(
                target=self._run_worker,
                name=f"bb-worker-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, answer everything, join the workers, then
        commit (raises :class:`~repro.errors.StateError` when the
        journal has failed)."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        self.commit()

    def __enter__(self) -> "BrokerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, request: ServiceRequest) -> PendingReply:
        """Enqueue *request*; never blocks.

        When the queue is at its bound the returned future is already
        resolved with a ``TRY_AGAIN`` rejection (status ``shed``) —
        the backpressure contract: the signaling path always gets an
        immediate, retriable answer instead of an unbounded wait.
        """
        timeout = (
            request.timeout
            if request.timeout is not None
            else self.default_timeout
        )
        submitted_at = clock.now()
        deadline = submitted_at + timeout if timeout is not None else None
        pending = PendingReply(submitted_at, deadline)
        with self._cond:
            if not self._running:
                raise StateError("broker service is not running")
            # Count the submit *before* the job becomes visible in the
            # queue: a concurrent stats() must never observe the queue
            # depth incremented ahead of `submitted`, or the
            # submitted == completed+shed+expired+depth+in_flight
            # identity transiently goes negative.
            self._recorder.on_submit()
            if len(self._queue) >= self.queue_limit:
                depth = len(self._queue)
                shed = True
                # Count the shed while the queue lock is still held:
                # between on_submit and on_shed the identity above
                # would otherwise show a phantom in-flight request to
                # any stats() racing this submit.
                self._recorder.on_shed()
            else:
                self._queue.append(_Job(request, pending))
                self._cond.notify()
                shed = False
        if shed:
            pending._resolve(ServiceReply(
                request=request,
                status=SHED,
                decision=self._try_again(
                    request, f"service queue full ({depth} waiting)"
                ),
                detail=f"service queue full ({depth} waiting)",
                service_time=0.0,
                retry_after=self._recorder.retry_hint(depth, self.workers),
            ))
        return pending

    def request(
        self,
        flow_id: str,
        spec: Optional[TSpec] = None,
        delay_requirement: float = 0.0,
        ingress: str = "",
        egress: str = "",
        *,
        op: str = "admit",
        service_class: str = "",
        path_nodes: Optional[Sequence[str]] = None,
        now: float = 0.0,
        timeout: Optional[float] = None,
        wait: Optional[float] = None,
        rate: float = 0.0,
    ) -> ServiceReply:
        """Submit one request and block for its reply (closed loop)."""
        pending = self.submit(ServiceRequest(
            flow_id=flow_id,
            op=op,
            spec=spec,
            delay_requirement=delay_requirement,
            ingress=ingress,
            egress=egress,
            service_class=service_class,
            path_nodes=tuple(path_nodes) if path_nodes is not None else None,
            now=now,
            timeout=timeout,
            rate=rate,
        ))
        return pending.wait(wait)

    def teardown(self, flow_id: str, *, now: float = 0.0,
                 wait: Optional[float] = None) -> ServiceReply:
        """Submit a teardown and block for its completion."""
        return self.request(flow_id, op="teardown", now=now, wait=wait)

    def advance(self, now: float, *,
                wait: Optional[float] = None) -> ServiceReply:
        """Advance the domain clock: release expired contingency
        bandwidth (:meth:`~repro.core.broker.BandwidthBroker.advance`)
        through the service queue, so the advance is serialized —
        and, with a WAL attached, journaled — like every other
        control operation."""
        return self.request("", op="advance", now=now, wait=wait)

    def feedback(self, macroflow_key: str, *, now: float = 0.0,
                 wait: Optional[float] = None) -> ServiceReply:
        """Edge feedback (Section 4.2.1): the macroflow's edge buffer
        drained, so its contingency bandwidth is released ahead of
        the eq.-(17) expiry.  Serialized — and journaled — through
        the service queue like every other control operation; the
        reply detail carries the number of allocations released."""
        return self.request(macroflow_key, op="feedback", now=now,
                            wait=wait)

    def shrink(self, macroflow_key: str, target_rate: float, *,
               now: float = 0.0,
               wait: Optional[float] = None) -> ServiceReply:
        """Adaptive re-dimensioning: lower a macroflow's base rate
        toward *target_rate* (clamped broker-side to the Theorem
        2/3-in-reverse safe floor; the drop is deferred by a
        contingency period exactly like a member leave).  Serialized
        and WAL-journaled like every other admission decision; the
        reply detail carries the bandwidth actually reclaimed."""
        return self.request(macroflow_key, op="shrink", now=now,
                            wait=wait, rate=target_rate)

    def inflate(self, macroflow_key: str, amount: float, *,
                now: float = 0.0,
                wait: Optional[float] = None) -> ServiceReply:
        """Adaptive pre-provisioning: grow a macroflow's base rate by
        *amount* b/s ahead of a rising arrival-rate trend (gated by
        path capacity and delay-hop schedulability broker-side)."""
        return self.request(macroflow_key, op="inflate", now=now,
                            wait=wait, rate=amount)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def attach_telemetry(self, store) -> "BrokerService":
        """Attach a :class:`~repro.telemetry.TelemetryStore`.

        The edge gateway routes accepted ``report`` frames into the
        attached store; :meth:`stats` then surfaces its counters.  The
        store is a passive sink — attaching one never changes an
        admission decision (only the adaptive controller, reading the
        store, submits resize operations).
        """
        self.telemetry = store
        return self

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A :class:`ServiceStats` snapshot, safe under load.

        Engine counters are gathered lock-free first
        (point-in-time totals); the queue depth and the request
        counters are then read together under the queue lock, inside
        one recorder-lock acquisition — so the
        ``submitted == completed+shed+expired+depth+in_flight``
        identity holds in every snapshot, not just at quiescence.
        """
        acquisitions, contention = self.shards.counters()
        # Incremental-engine effectiveness counters.  They live on the
        # per-link ledgers / per-path records (mutated only under the
        # owning shard lock); summing them lock-free here reads each
        # int atomically, so the totals are merely point-in-time.
        ledger_updates = 0
        ledger_compactions = 0
        for link in self.broker.node_mib.links():
            ledger = link.ledger
            if ledger is not None:
                ledger_updates += ledger.incremental_updates
                ledger_compactions += ledger.compactions
        bp_delta_folds = 0
        bp_full_rebuilds = 0
        scan_tests = 0
        scan_intervals = 0
        scan_early_breaks = 0
        scan_verifications = 0
        for path in self.broker.path_mib.records():
            bp_delta_folds += path.bp_delta_folds
            bp_full_rebuilds += path.bp_full_rebuilds
            scan_tests += path.scan_tests
            scan_intervals += path.scan_intervals
            scan_early_breaks += path.scan_early_breaks
            scan_verifications += path.scan_verifications
        # Aggregation-module counters (mutated only under the all-shard
        # lock; each read is an atomic point-in-time value) and the
        # telemetry sink's own counters, when a store is attached.
        aggregate = self.broker.aggregate
        telemetry_reports = 0
        telemetry_samples = 0
        if self.telemetry is not None:
            telemetry_reports = self.telemetry.reports
            telemetry_samples = self.telemetry.samples
        # Queue depth mutates only under self._cond, so holding it
        # across the snapshot pins depth and counters to one instant
        # (lock order _cond -> recorder lock, same as submit()).
        with self._cond:
            return self._recorder.snapshot(
                workers=self.workers,
                shards=self.shards.num_shards,
                queue_capacity=self.queue_limit,
                queue_depth=len(self._queue),
                shard_acquisitions=acquisitions,
                shard_contention=contention,
                wal_appends=self.wal.appends if self.wal is not None else 0,
                wal_fsyncs=self.wal.fsyncs if self.wal is not None else 0,
                wal_max_group=(
                    self.wal.max_group if self.wal is not None else 0
                ),
                ledger_updates=ledger_updates,
                ledger_compactions=ledger_compactions,
                bp_delta_folds=bp_delta_folds,
                bp_full_rebuilds=bp_full_rebuilds,
                scan_tests=scan_tests,
                scan_intervals=scan_intervals,
                scan_early_breaks=scan_early_breaks,
                scan_verifications=scan_verifications,
                aggregate_feedback_events=aggregate.feedback_events,
                aggregate_feedback_releases=aggregate.feedback_releases,
                adapt_shrinks=aggregate.adapt_shrinks,
                adapt_inflates=aggregate.adapt_inflates,
                adapt_rate_reclaimed=aggregate.adapt_rate_reclaimed,
                adapt_rate_pregranted=aggregate.adapt_rate_pregranted,
                telemetry_reports=telemetry_reports,
                telemetry_samples=telemetry_samples,
            )

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------

    def _run_worker(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._serve_batch(batch)

    def _next_batch(self) -> Optional[List[_Job]]:
        """Pop the queue head plus every same-key request behind it.

        Non-matching requests keep their relative order and are left
        for the other workers (which are re-notified when any
        remain).  A teardown head instead takes the run of teardowns
        directly behind it, stopping at the first other op so no
        request overtakes another.  Returns ``None`` on shutdown with
        a drained queue.
        """
        with self._cond:
            while not self._queue:
                if not self._running:
                    return None
                self._cond.wait()
            head = self._queue.popleft()
            batch = [head]
            if head.request.op == "teardown":
                while (self._queue and len(batch) < self.batch_limit
                       and self._queue[0].request.op == "teardown"):
                    batch.append(self._queue.popleft())
                return batch
            key = batch_key(head.request)
            if key is not None and self.batch_limit > 1 and self._queue:
                rest: Deque[_Job] = deque()
                while self._queue and len(batch) < self.batch_limit:
                    job = self._queue.popleft()
                    if batch_key(job.request) == key:
                        batch.append(job)
                    else:
                        rest.append(job)
                rest.extend(self._queue)
                self._queue.clear()
                self._queue.extend(rest)
                if self._queue:
                    self._cond.notify_all()
        return batch

    def _serve_batch(self, jobs: List[_Job]) -> None:
        live: List[_Job] = []
        for job in jobs:
            deadline = job.pending.deadline
            if deadline is not None and clock.now() > deadline:
                self._recorder.on_expired(self._elapsed(job))
                self._finish(job, EXPIRED, self._try_again(
                    job.request, "deadline passed while queued"
                ), detail="deadline passed while queued",
                    retry_after=self._recorder.retry_hint(
                        0, self.workers
                    ))
            else:
                live.append(job)
        if not live:
            return
        if live[0].request.op == "teardown":
            self._serve_teardowns(live)
            return
        if live[0].request.op in _CONTROL_OPS:
            for job in live:
                self._serve_control(job)
            return
        self._serve_admissions(live)

    def _serve_admissions(self, jobs: List[_Job]) -> None:
        head = jobs[0].request
        self._recorder.on_batch(len(jobs))
        try:
            resolved = self._batcher.resolve(head)
        except Exception as exc:  # e.g. unknown service class
            for job in jobs:
                self._recorder.on_error(self._elapsed(job))
                self._finish(job, ERROR, AdmissionDecision(
                    admitted=False, flow_id=job.request.flow_id,
                    detail=str(exc),
                ), detail=str(exc))
            return
        if resolved.rejection is not None:
            # Policy/routing rejection: no reservation state involved,
            # fan out without taking any shard lock.  Still journaled
            # (replay re-rejects identically, keeping the rejection
            # accounting in step) — rejections mutate no shard state,
            # so their journal order relative to other entries is
            # free.
            try:
                self._journal_requests(jobs)
            except StateError as exc:  # the journal has failed
                self._fail_group(jobs, str(exc))
                return
            decisions = self._batcher.fan_out_rejection(
                resolved, [job.request for job in jobs]
            )
            error = self._commit_wal()
            if error is not None:
                self._fail_group(jobs, error)
                return
            self._reply_all(jobs, decisions)
            return
        if resolved.service_class is not None:
            shard_ids = self.shards.all_shards()
        else:
            shard_ids = self.shards.shards_for(resolved.links())
        try:
            with self.shards.locked(shard_ids):
                # Write-ahead: the batch's entries hit the journal
                # before its decisions mutate any reservation state,
                # and *under* the shard locks — two batches contending
                # for a shard journal in the same order they commit,
                # so replay order matches commit order.
                self._journal_requests(jobs)
                decisions = self._batcher.execute(
                    resolved, [job.request for job in jobs]
                )
                if self.edge_rtt > 0 and any(
                    decision.admitted for decision in decisions
                ):
                    # One coalesced edge-programming round-trip per
                    # batch, with the shard locks held: the
                    # reservation is durable only once the edge acks.
                    clock.sleep(self.edge_rtt)
        except Exception as exc:
            for job in jobs:
                self._recorder.on_error(self._elapsed(job))
                self._finish(job, ERROR, AdmissionDecision(
                    admitted=False, flow_id=job.request.flow_id,
                    detail=str(exc),
                ), detail=str(exc))
            return
        # Group commit outside the locks: the fsync (the slow part)
        # overlaps other workers' admission math, and one flush covers
        # every entry queued since the last one.  Replies resolve only
        # after it returns — nothing is acknowledged before it is
        # durable.
        error = self._commit_wal()
        if error is not None:
            self._fail_group(jobs, error)
            return
        self._reply_all(jobs, decisions)

    def _serve_teardowns(self, jobs: List[_Job]) -> None:
        """Serve a run of teardowns with one group commit.

        Each teardown is applied under its own shard locks and
        journaled write-ahead; an unknown or failing one is answered
        ``ERROR`` at once.  The applied rest share one commit, and a
        failed commit turns all of them into ``ERROR``.
        """
        applied: List[_Job] = []
        for job in jobs:
            request = job.request
            record = self.broker.flow_mib.get(request.flow_id)
            if record is None:
                detail = f"flow {request.flow_id!r} is not admitted"
                self._recorder.on_error(self._elapsed(job))
                self._finish(job, ERROR, None, detail=detail)
                continue
            if record.class_id:
                shard_ids = self.shards.all_shards()
            else:
                path = self.broker.path_mib.get(record.path_id)
                shard_ids = self.shards.shards_for(path.links)
            try:
                with self.shards.locked(shard_ids):
                    payload = {
                        "flow_id": request.flow_id, "now": request.now,
                    }
                    lease = _lease_field(request.lease)
                    if lease is not None:
                        payload["lease"] = lease
                    self.record("terminate", payload)
                    if self.edge_rtt > 0:
                        clock.sleep(self.edge_rtt)
            except Exception as exc:
                self._recorder.on_error(self._elapsed(job))
                self._finish(job, ERROR, None, detail=str(exc))
                continue
            applied.append(job)
        if not applied:
            return
        error = self._commit_wal()
        if error is not None:
            self._fail_group(applied, error)
            return
        for job in applied:
            self._recorder.on_reply("done", self._elapsed(job))
            self._finish(job, OK, None)

    def _serve_control(self, job: _Job) -> None:
        """Serve one :data:`_CONTROL_OPS` op under every shard lock."""
        request = job.request
        kind, payload, detail = _CONTROL_OPS[request.op]
        try:
            with self.shards.locked(self.shards.all_shards()):
                result = self.record(kind, payload(request))
        except Exception as exc:
            self._recorder.on_error(self._elapsed(job))
            self._finish(job, ERROR, None, detail=str(exc))
            return
        error = self._commit_wal()
        if error is not None:
            self._fail_group([job], error)
            return
        if request.op == "feedback":
            self._recorder.on_feedback(result)
        self._recorder.on_reply("done", self._elapsed(job))
        self._finish(job, OK, None, detail=detail(request, result))

    def _fail_group(self, jobs: List[_Job], detail: str) -> None:
        """Answer a whole group with ``ERROR`` replies (failed commit)."""
        for job in jobs:
            self._recorder.on_error(self._elapsed(job))
            self._finish(job, ERROR, AdmissionDecision(
                admitted=False, flow_id=job.request.flow_id,
                detail=detail,
            ) if job.request.op == "admit" else None, detail=detail)

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------

    def record(self, kind: str, payload: Dict[str, Any]) -> Any:
        """Journal one record write-ahead (with a WAL), then apply it
        through its :data:`~repro.core.journal.KINDS` row — the
        function replay runs — and return what the row returns.

        Uncommitted: the caller's group commit makes it durable.  The
        caller holds the locks covering the record's write set.
        """
        if self.wal is not None:
            self.wal.append(kind, payload)
        return KINDS[kind][0](self.state, payload)

    def journal_lease(self, event: str, flow_id: str, agent: str, *,
                      duration: float = 0.0, now: float = 0.0) -> None:
        """Journal one edge-lease lifecycle event and commit it (no-op
        without WAL).

        The edge gateway's soft-state flow leases live outside the
        broker MIBs; their markers are an audit trail in the same WAL,
        in commit order with the decisions.  Nothing reads them
        back: replay treats ``"lease"`` entries as no-ops, and a
        restarted gateway starts with an empty lease table — a flow's
        lease returns when its owner re-signals the admit (orphan
        adoption).  The broker-visible effect of a reap is its own
        ``terminate`` entry.

        Grants and releases of agent admits/teardowns do not come
        through here: they are the ``lease`` field of their decision's
        own ``request`` or ``terminate`` record (from
        :attr:`ServiceRequest.lease`).  This call is for the events
        the gateway originates itself (``expire``, ``reclaim``, the
        orphan-adoption ``grant``); each writes a ``lease`` record and
        costs one group commit of its own.
        """
        if self.wal is None:
            return
        self.record("lease", {
            "event": event,
            "flow_id": flow_id,
            "agent": agent,
            "duration": duration,
            "now": now,
        })
        self.commit()

    def _journal_requests(self, jobs: List[_Job]) -> None:
        """Append one write-ahead entry per admission in the batch."""
        if self.wal is None:
            return
        for job in jobs:
            request = job.request
            self.wal.append("request", request_payload(
                request.flow_id,
                request.spec,
                request.delay_requirement,
                request.ingress,
                request.egress,
                service_class=request.service_class,
                path_nodes=request.path_nodes,
                now=request.now,
                lease=_lease_field(request.lease),
            ))

    def commit(self) -> None:
        """Group-commit everything journaled so far (no-op without a
        WAL).

        Raises :class:`~repro.errors.StateError` when the records
        could not be made durable (the journal fails-stop after an
        ``fsync`` error); the caller must not acknowledge them.
        """
        if self.wal is not None:
            self.wal.commit()

    def _commit_wal(self) -> Optional[str]:
        """:meth:`commit` for a worker: ``None`` on success, else the
        error detail — the caller then answers its whole group with
        ``ERROR`` instead of the decisions, which are applied in memory
        but not on disk.  Never raises: a failed commit must not kill
        the worker thread and strand the batch's futures.
        """
        try:
            self.commit()
        except StateError as exc:
            return f"wal commit failed: {exc}"
        return None

    # ------------------------------------------------------------------
    # reply plumbing
    # ------------------------------------------------------------------

    def _reply_all(self, jobs: List[_Job],
                   decisions: List[AdmissionDecision]) -> None:
        for job, decision in zip(jobs, decisions):
            outcome = "admitted" if decision.admitted else "rejected"
            self._recorder.on_reply(outcome, self._elapsed(job))
            self._finish(job, OK, decision, batch_size=len(jobs))

    def _finish(self, job: _Job, status: str,
                decision: Optional[AdmissionDecision], *,
                detail: str = "", batch_size: int = 1,
                retry_after: float = 0.0) -> None:
        failed = job.pending._resolve(ServiceReply(
            request=job.request,
            status=status,
            decision=decision,
            detail=detail or (decision.detail if decision else ""),
            service_time=self._elapsed(job),
            batch_size=batch_size,
            retry_after=retry_after,
        ))
        if failed:
            self._recorder.on_callback_error(failed)

    @staticmethod
    def _elapsed(job: _Job) -> float:
        return clock.now() - job.pending.enqueued_at

    @staticmethod
    def _try_again(request: ServiceRequest, detail: str
                   ) -> AdmissionDecision:
        """The distinct retriable rejection for shed/expired work.

        Not routed through the broker's rejection accounting: the
        admission machinery never saw the request, and the service's
        own ``shed``/``expired`` counters carry the signal.
        """
        return AdmissionDecision(
            admitted=False,
            flow_id=request.flow_id,
            reason=RejectionReason.TRY_AGAIN,
            detail=detail,
        )
