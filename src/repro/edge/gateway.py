"""The edge gateway: network front-end of the broker service.

:class:`EdgeGateway` is what an ingress edge router actually talks
to.  It terminates :mod:`repro.edge.protocol` sessions over any
:mod:`repro.service.transport` connection and forwards operations to
a running :class:`~repro.service.runtime.BrokerService`, adding the
three things a *network* front-end needs that the in-process service
does not:

* **exactly-once execution** over an at-least-once client.  Every
  mutating frame carries an idempotency key; the gateway answers a
  retry from its :class:`~repro.edge.leases.DedupWindow` when the
  original already executed, and *attaches* to the in-flight request
  when it is still queued — the broker never sees a duplicate.  The
  dedup check and the in-flight claim happen under one lock, and a
  completing request publishes to the window *before* it leaves the
  in-flight map, so there is no instant at which a duplicate can
  slip between them and resubmit.

* **soft-state flow leases** (:class:`~repro.edge.leases.LeaseTable`).
  An admitted flow's reservation is held by a lease its agent must
  refresh; the gateway's reaper tears down flows whose leases
  expire, so an agent that crashes or partitions cannot strand
  bandwidth in the broker — the paper's edge/broker split made
  failure-tolerant without per-flow liveness tracking in the core.
  Lease lifecycle events ride the service's WAL: an admit's grant
  and a teardown's release are the ``lease`` field of the decision's
  own ``request`` or ``terminate`` record (the gateway names the
  holder in :attr:`ServiceRequest.lease`), and the events the gateway
  originates itself — expiry, reclaim, orphan adoption — are
  ``lease`` records written through
  :meth:`BrokerService.journal_lease`.

* **backpressure and deadline propagation**.  A service
  ``TRY_AGAIN`` becomes a ``try-again`` frame carrying the service's
  machine-readable ``retry_after`` hint, and a frame's remaining
  client budget (``budget_ms``) becomes the service-side queueing
  deadline, so work whose client already gave up is shed unserved.

Replies are routed to the **agent's current session** (sessions are
keyed by agent name, rebound on reconnect), not to the connection
the request arrived on: a reply completed while the agent was
disconnected lands in the dedup window and the agent's retry — over
the new connection — fetches it from there.

Time: the gateway lives in the repo's *domain* clock (the ``now``
fields agents send).  It tracks the high-water mark of every ``now``
it sees and expires leases against that, so tests drive reaping
deterministically; the optional reaper thread only polls, it does
not introduce wall time into lease decisions.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import clock
from repro.core.admission import (
    AdmissionDecision,
    AdmissionRequest,
    RejectionReason,
)
from repro.core.broker import BandwidthBroker
from repro.core.mibs import PathRecord
from repro.edge import protocol
from repro.edge.leases import DedupWindow, Lease, LeaseTable
from repro.errors import StateError
from repro.service.runtime import BrokerService, ServiceReply, ServiceRequest
from repro.service.transport import (
    TcpListener,
    TransportClosed,
    serve_frames,
)

__all__ = ["EdgeGateway", "decision_to_dict", "dry_run_admissibility"]


def decision_to_dict(decision: AdmissionDecision) -> Dict[str, Any]:
    """JSON-compatible representation of an admission decision."""
    return {
        "admitted": decision.admitted,
        "flow_id": decision.flow_id,
        "path_id": decision.path_id,
        "rate": decision.rate,
        "delay": decision.delay,
        "reason": decision.reason.name if decision.reason else None,
        "detail": decision.detail,
    }


def dry_run_admissibility(
    broker: BandwidthBroker,
    flow_id: str,
    spec,
    delay_requirement: float,
    ingress: str,
    egress: str,
    *,
    path_nodes: Optional[Sequence[str]] = None,
) -> AdmissionDecision:
    """Would *broker*'s domain admit this per-flow request right now?

    A strictly read-only admissibility check: policy control, path
    resolution over *ephemeral* (unregistered) path records, and the
    schedulability test phase — no reservation, no MIB write, no
    rejection counted.  This is the gateway's ``dry-run`` frame; the
    caller holds whatever locks its consistency story needs (the
    gateway holds every link shard's lock).

    Class-based requests are not supported: a class join moves the
    domain-wide contingency schedule, which has no side-effect-free
    test phase.
    """
    request = AdmissionRequest(
        flow_id=flow_id, spec=spec,
        delay_requirement=delay_requirement,
    )
    verdict = broker.policy.evaluate(request, ingress, egress)
    if not verdict.allowed:
        return AdmissionDecision(
            admitted=False, flow_id=flow_id,
            reason=RejectionReason.POLICY,
            detail=f"{verdict.rule}: {verdict.detail}",
        )
    if path_nodes is not None:
        candidate_nodes = [list(path_nodes)]
    else:
        candidate_nodes = broker.routing.shortest_paths(ingress, egress)
    if not candidate_nodes:
        return AdmissionDecision(
            admitted=False, flow_id=flow_id,
            reason=RejectionReason.NO_PATH,
            detail=f"{egress!r} unreachable from {ingress!r}",
        )
    ordered = sorted(
        candidate_nodes,
        key=lambda nodes: (
            -broker.routing.bottleneck(nodes), list(nodes),
        ),
    )
    decision: Optional[AdmissionDecision] = None
    for nodes in ordered:
        links = [
            broker.node_mib.link(src, dst)
            for src, dst in zip(nodes, nodes[1:])
        ]
        path = PathRecord("->".join(nodes), tuple(nodes), links)
        decision = broker.perflow.test(request, path)
        if decision.admitted:
            return decision
    assert decision is not None
    return decision


class _Session:
    """One agent's live connection plus its reply outbox.

    Replies are not written directly: they are appended to the outbox
    and whichever thread finds the session un-flushed becomes the
    flusher, draining the whole outbox with one coalesced
    ``send_many`` (one ``sendall`` of N frames).  Under a pipelined
    burst the service's completion callbacks land faster than a
    syscall each, so most replies ride a batch write.
    """

    __slots__ = ("agent", "conn", "outbox", "flushing", "lock")

    def __init__(self, agent: str, conn) -> None:
        self.agent = agent
        self.conn = conn
        self.outbox: List[Any] = []
        self.flushing = False
        self.lock = threading.Lock()


class EdgeGateway:
    """Serve edge-protocol sessions in front of a broker service.

    :param service: the running :class:`BrokerService` to front.
    :param name: gateway name announced in ``welcome`` frames.
    :param lease_duration: soft-state lease length in *domain*
        seconds; agents must refresh within it.
    :param dedup_capacity: bound of the idempotent-reply window.
    :param reap_interval: wall-clock poll period of the background
        reaper thread (lease *expiry* itself is domain-clock).

    Use :meth:`serve_connection` directly for in-process pipes, or
    :meth:`listen` + :meth:`start`/:meth:`stop` for TCP.
    """

    def __init__(
        self,
        service: BrokerService,
        *,
        name: str = "gateway",
        lease_duration: float = 30.0,
        dedup_capacity: int = 4096,
        reap_interval: float = 0.05,
    ) -> None:
        self.service = service
        self.name = name
        self.leases = LeaseTable(duration=lease_duration)
        self.dedup = DedupWindow(capacity=dedup_capacity)
        self.reap_interval = reap_interval
        self._lock = threading.Lock()
        self._inflight: Dict[Tuple[str, str], ServiceRequest] = {}
        self._sessions: Dict[str, _Session] = {}
        self._domain_now = 0.0
        self._listener: Optional[TcpListener] = None
        self._reaper: Optional[threading.Thread] = None
        #: Set by :meth:`stop`: ends every session and wakes the reaper
        #: out of its interval.
        self._stopped = threading.Event()
        self._running = False
        # Frame/outcome counters (lock-free int bumps; snapshot only).
        self.frames_served = 0
        self.duplicates_attached = 0
        self.protocol_errors = 0
        self.reaped = 0
        self.leases_adopted = 0
        self.telemetry_frames = 0
        self.idle_reclaimed = 0

    # ------------------------------------------------------------------
    # lifecycle (TCP mode)
    # ------------------------------------------------------------------

    def listen(self, host: str = "127.0.0.1", port: int = 0, *,
               reuseport: bool = False) -> Tuple[str, int]:
        """Bind the accept socket; returns ``(host, port)`` (port 0
        picks a free ephemeral port, read it from the return).

        ``reuseport=True`` joins an ``SO_REUSEPORT`` accept group —
        several gateway worker processes bind the same port and the
        kernel load-balances incoming agent connections across them.
        """
        self._listener = TcpListener(host, port, reuseport=reuseport)
        return self._listener.host, self._listener.port

    def start(self) -> "EdgeGateway":
        """Serve the listener (if listening) and start the lease
        reaper; each agent connection is a :meth:`serve_connection`
        on a thread named ``edge-conn``."""
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._stopped.clear()
        if self._listener is not None:
            self._listener.serve(self.serve_connection, name="edge")
        self._reaper = threading.Thread(
            target=self._reap_loop, name="edge-reaper", daemon=True
        )
        self._reaper.start()
        return self

    def stop_accepting(self) -> None:
        """First half of a graceful drain: close the accept socket so
        no new agent connections land here, while live sessions keep
        being served.  Safe to call before :meth:`stop`."""
        if self._listener is not None:
            self._listener.stop_accepting()

    def drain_outboxes(self, timeout: float = 2.0) -> bool:
        """Second half of a graceful drain: wait until no request is
        in flight and every session's reply outbox has been flushed.
        Returns ``False`` if *timeout* elapsed with work still
        pending (the caller may still :meth:`stop`; undelivered
        replies are covered by the agents' idempotent retries)."""
        def drained() -> bool:
            with self._lock:
                return not self._inflight and not any(
                    session.outbox or session.flushing
                    for session in self._sessions.values()
                )

        return clock.poll(drained, timeout, 0.01)

    def stop(self) -> None:
        """Drain the listener — every TCP session ends and its thread
        is joined, hello or not — close the remaining (pipe) sessions
        and join the reaper."""
        with self._lock:
            self._running = False
            self._stopped.set()
            sessions = list(self._sessions.values())
            self._sessions.clear()
        if self._listener is not None:
            self._listener.close()
        for session in sessions:
            session.conn.close()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None

    def __enter__(self) -> "EdgeGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # session loop
    # ------------------------------------------------------------------

    def serve_connection(self, conn) -> None:
        """Serve frames from *conn* until it closes (blocking).

        This is the per-connection reader: the TCP listener runs it
        on a thread per session, and pipe-based tests call it directly
        from a thread of their own.  Idle is not shutdown: a gateway
        used in direct pipe mode (never start()ed) keeps serving until
        the connection closes or :meth:`stop` is called.
        """
        agent: Optional[str] = None

        def handle(frame) -> bool:
            nonlocal agent
            agent = self._handle_frame(conn, frame, agent)
            return agent == _BYE

        try:
            serve_frames(conn, handle,
                         stopping=self._stopped.is_set)
        finally:
            if agent and agent != _BYE:
                with self._lock:
                    session = self._sessions.get(agent)
                    if session is not None and session.conn is conn:
                        del self._sessions[agent]

    def _handle_frame(self, conn, frame, agent: Optional[str]
                      ) -> Optional[str]:
        """Dispatch one request frame; returns the session's agent."""
        self.frames_served += 1
        try:
            frame_type = protocol.validate_request(frame)
        except protocol.ProtocolError as exc:
            self.protocol_errors += 1
            self._safe_send(conn, protocol.make_reply(
                str(frame.get("type", "?")) if isinstance(frame, dict)
                else "?",
                str(frame.get("idem", "")) if isinstance(frame, dict)
                else "",
                protocol.STATUS_ERROR,
                reason="protocol",
                detail=str(exc),
            ))
            return agent
        sender = frame["agent"]
        self._advance_domain_clock(frame.get("now", 0.0))
        if frame_type == "hello":
            resumed = bool(self.leases.owned_by(sender))
            with self._lock:
                self._sessions[sender] = _Session(sender, conn)
            self._safe_send(conn, protocol.make_welcome(
                self.name,
                lease_duration=self.leases.duration,
                resumed=resumed,
            ))
            return sender
        if frame_type == "bye":
            with self._lock:
                session = self._sessions.get(sender)
                if session is not None and session.conn is conn:
                    del self._sessions[sender]
            return _BYE
        idem = frame["idem"]
        # Dedup check + in-flight claim, atomically: a retry either
        # finds the cached terminal reply, finds the original still in
        # flight (attach), or claims the key and executes.
        with self._lock:
            cached = self.dedup.get(sender, idem)
            if cached is None and (sender, idem) in self._inflight:
                attached = True
            else:
                attached = False
                if cached is None:
                    self._inflight[(sender, idem)] = frame
            if sender not in self._sessions:
                # Request without hello (or raced a reconnect): bind
                # this connection so the reply has somewhere to go.
                self._sessions[sender] = _Session(sender, conn)
        if cached is not None:
            self._send_to_agent(sender, cached)
            return agent or sender
        if attached:
            # The original is still queued at the service; its
            # completion callback will answer the current session.
            self.duplicates_attached += 1
            return agent or sender
        try:
            self._execute(frame_type, frame, sender, idem)
        except Exception as exc:  # defensive: never kill the session
            self._complete(sender, idem, protocol.make_reply(
                frame_type, idem, protocol.STATUS_ERROR,
                reason="internal", detail=str(exc),
            ))
        return agent or sender

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------

    def _execute(self, frame_type: str, frame, agent: str,
                 idem: str) -> None:
        if frame_type == "admit":
            self._execute_admit(frame, agent, idem)
        elif frame_type == "teardown":
            self._execute_teardown(frame, agent, idem)
        elif frame_type == "refresh":
            self._execute_refresh(frame, agent, idem)
        elif frame_type == "feedback":
            self._execute_feedback(frame, agent, idem)
        elif frame_type == "report":
            self._execute_report(frame, agent, idem)
        elif frame_type == "dry-run":
            self._execute_dry_run(frame, agent, idem)
        else:  # pragma: no cover - validate_request gates the types
            raise StateError(f"unroutable frame type {frame_type!r}")

    @staticmethod
    def _budget_timeout(frame) -> Optional[float]:
        budget_ms = frame.get("budget_ms")
        if budget_ms is None:
            return None
        # Propagate the *remaining* client deadline into the service's
        # queueing deadline; a non-positive budget still submits with
        # a zero timeout so the service sheds it with a try-again.
        return max(0.0, float(budget_ms) / 1000.0)

    def _execute_admit(self, frame, agent: str, idem: str) -> None:
        spec = protocol.decode_spec(frame["spec"])
        path_nodes = frame.get("path_nodes")
        now = float(frame.get("now", 0.0))
        request = ServiceRequest(
            flow_id=frame["flow_id"],
            op="admit",
            spec=spec,
            delay_requirement=float(frame["delay_requirement"]),
            ingress=frame["ingress"],
            egress=frame["egress"],
            service_class=frame.get("service_class", ""),
            path_nodes=tuple(path_nodes) if path_nodes else None,
            now=now,
            timeout=self._budget_timeout(frame),
            lease=(agent, self.leases.duration),
        )

        def finish(reply: ServiceReply) -> None:
            self._complete(agent, idem,
                           self._admit_reply(reply, agent, idem, now))

        self.service.submit(request).add_done_callback(finish)

    @staticmethod
    def _answer(kind: str, idem: str, reply: ServiceReply, **ok_fields):
        """The reply frame for a service reply: ``try-again`` when it
        was shed, ``error`` when it failed, else ``ok``."""
        if reply.try_again:
            return protocol.make_reply(
                kind, idem, protocol.STATUS_TRY_AGAIN,
                detail=reply.detail, retry_after=reply.retry_after,
            )
        if reply.status != "ok":
            return protocol.make_reply(
                kind, idem, protocol.STATUS_ERROR,
                reason="service", detail=reply.detail,
            )
        return protocol.make_reply(
            kind, idem, protocol.STATUS_OK, detail=reply.detail,
            **ok_fields,
        )

    def _admit_reply(self, reply: ServiceReply, agent: str, idem: str,
                     now: float):
        if reply.status != "ok":
            return self._answer("admit", idem, reply)
        decision = reply.decision  # always set on an admit's reply
        lease_info = None
        adopt = (
            not decision.admitted
            and "already admitted" in decision.detail
            and self.leases.get(decision.flow_id) is None
        )
        if adopt:
            # The broker holds capacity for this flow but no edge
            # leases it here — the classic orphan after a gateway
            # worker died with its in-memory lease table.  The flow's
            # rightful owner re-signaling its admit (same flow, fresh
            # idempotency key through a surviving worker) re-adopts
            # the lease instead of racing the reaper for its own
            # capacity.  The admission stays refused (no double
            # reservation); only ownership transfers.
            self.leases_adopted += 1
        if decision.admitted or adopt:
            macroflow_key, drain_bound = self._macroflow_hints(
                decision.flow_id
            )
            lease = self.leases.grant(
                decision.flow_id, agent, now,
                macroflow_key=macroflow_key,
            )
            if adopt:
                # An admitted flow's grant is the lease field of its
                # committed request record; an adoption is the
                # gateway's own event.
                try:
                    self.service.journal_lease(
                        "grant", decision.flow_id, agent,
                        duration=lease.duration, now=now,
                    )
                except StateError:
                    # The WAL commit failed; the lease still stands
                    # (its reap would journal a terminate through the
                    # same WAL) — nothing to unwind.
                    pass
            lease_info = {
                "duration": lease.duration,
                "expires_at": lease.expires_at,
                "macroflow_key": macroflow_key,
                "drain_bound": drain_bound,
            }
        return self._answer("admit", idem, reply,
                            decision=decision_to_dict(decision),
                            lease=lease_info)

    def _macroflow_hints(self, flow_id: str) -> Tuple[str, float]:
        """(macroflow key, feedback drain hint) for an admitted flow.

        Empty/0.0 for per-flow admissions.  Read lock-free: the hint
        tells the agent *by when* its conditioner must report empty;
        a concurrent state change only makes the hint conservative.
        """
        record = self.service.broker.flow_mib.get(flow_id)
        if record is None or not record.class_id:
            return "", 0.0
        macro = self.service.broker.aggregate.macroflows.get(
            record.class_id
        )
        if macro is None:
            return record.class_id, 0.0
        return record.class_id, macro.backlog_drain_bound()

    def _execute_teardown(self, frame, agent: str, idem: str) -> None:
        flow_id = frame["flow_id"]
        now = float(frame.get("now", 0.0))
        request = ServiceRequest(
            flow_id=flow_id, op="teardown", now=now,
            timeout=self._budget_timeout(frame),
            lease=(agent, 0.0),
        )

        def finish(reply: ServiceReply) -> None:
            if not reply.try_again:
                self.leases.release(flow_id)
            self._complete(agent, idem,
                           self._answer("teardown", idem, reply))

        self.service.submit(request).add_done_callback(finish)

    def _execute_refresh(self, frame, agent: str, idem: str) -> None:
        # Pure lease-table work; served in the reader thread.
        refreshed, unknown = self.leases.refresh(
            frame["flow_ids"], agent, float(frame.get("now", 0.0))
        )
        self._complete(agent, idem, protocol.make_reply(
            "refresh", idem, protocol.STATUS_OK,
            refreshed=refreshed, unknown=unknown,
        ))

    def _execute_feedback(self, frame, agent: str, idem: str) -> None:
        request = ServiceRequest(
            flow_id=frame["macroflow_key"], op="feedback",
            now=float(frame.get("now", 0.0)),
            timeout=self._budget_timeout(frame),
        )

        def finish(reply: ServiceReply) -> None:
            self._complete(agent, idem,
                           self._answer("feedback", idem, reply))

        self.service.submit(request).add_done_callback(finish)

    def _execute_report(self, frame, agent: str, idem: str) -> None:
        # Telemetry is advisory — it never touches reservation state —
        # so like refresh it is served in the reader thread, feeding
        # the service's TelemetryStore when one is attached.  The
        # reply still rides the idempotency machinery for uniformity;
        # a duplicate report is harmless either way.
        self.telemetry_frames += 1
        samples = frame["samples"]
        accepted = 0
        store = self.service.telemetry
        if store is not None:
            accepted = store.ingest(
                agent, samples, float(frame.get("now", 0.0))
            )
        self._complete(agent, idem, protocol.make_reply(
            "report", idem, protocol.STATUS_OK,
            detail=f"accepted {accepted}/{len(samples)} samples",
        ))

    def _execute_dry_run(self, frame, agent: str, idem: str) -> None:
        # Read-only: run it in the reader thread under every shard
        # lock so the probe sees a consistent snapshot.
        spec = protocol.decode_spec(frame["spec"])
        path_nodes = frame.get("path_nodes")
        shards = self.service.shards
        with shards.locked(shards.all_shards()):
            decision = dry_run_admissibility(
                self.service.broker,
                frame["flow_id"], spec,
                float(frame["delay_requirement"]),
                frame["ingress"], frame["egress"],
                path_nodes=tuple(path_nodes) if path_nodes else None,
            )
        self._complete(agent, idem, protocol.make_reply(
            "dry-run", idem, protocol.STATUS_OK,
            decision=decision_to_dict(decision),
        ))

    # ------------------------------------------------------------------
    # reply + completion plumbing
    # ------------------------------------------------------------------

    def _complete(self, agent: str, idem: str, reply) -> None:
        """Publish a reply: dedup window first, in-flight pop second,
        send last — so a concurrently arriving retry always observes
        either the in-flight entry or the cached reply.

        Only ``ok`` replies are cached.  ``try-again`` and ``error``
        outcomes left no effect worth replaying (a shed op never ran;
        an errored op is idempotent to re-run), and caching them
        would pin a transient failure — e.g. a shard unreachable
        during a partition — onto the idempotency key forever, so a
        client's retry after the partition heals could never succeed.
        """
        with self._lock:
            if reply.get("status") == protocol.STATUS_OK:
                self.dedup.put(agent, idem, reply)
            self._inflight.pop((agent, idem), None)
        self._send_to_agent(agent, reply)

    def _send_to_agent(self, agent: str, frame) -> None:
        with self._lock:
            session = self._sessions.get(agent)
        if session is None:
            return  # disconnected; the reply waits in the dedup window
        with session.lock:
            session.outbox.append(frame)
            if session.flushing:
                return  # the current flusher will pick this frame up
            session.flushing = True
        self._flush_outbox(session)

    @staticmethod
    def _flush_outbox(session: _Session) -> None:
        """Drain the session outbox with coalesced writes.

        Exactly one thread flushes at a time; frames enqueued while a
        ``send_many`` is in flight are drained by the same flusher on
        its next loop, so N concurrent completions cost far fewer
        than N syscalls.
        """
        while True:
            with session.lock:
                batch = session.outbox
                if not batch:
                    session.flushing = False
                    return
                session.outbox = []
            try:
                session.conn.send_many(batch)
            except TransportClosed:
                # Disconnected: drop the batch — every reply is also
                # in the dedup window, where the retry will find it.
                with session.lock:
                    session.flushing = False
                return

    @staticmethod
    def _safe_send(conn, frame) -> None:
        try:
            conn.send(frame)
        except TransportClosed:
            pass  # ditto: the retry will fetch it from the window

    # ------------------------------------------------------------------
    # lease reaping
    # ------------------------------------------------------------------

    def _advance_domain_clock(self, now) -> None:
        try:
            value = float(now)
        except (TypeError, ValueError):
            return
        # Racy pre-check: the clock only moves forward, so reading a
        # stale (smaller) value can only cause a harmless extra lock
        # acquisition — and a pipelined burst reuses one ``now``, so
        # this skips the lock on all but the first frame of a burst.
        if value <= self._domain_now:
            return
        with self._lock:
            if value > self._domain_now:
                self._domain_now = value

    @property
    def domain_now(self) -> float:
        """High-water mark of every ``now`` seen from any agent."""
        with self._lock:
            return self._domain_now

    def reap(self, now: Optional[float] = None) -> List[str]:
        """Tear down every flow whose lease expired by *now*.

        Defaults to the domain high-water clock.  Expiry journals a
        ``lease``-kind marker, then the teardown goes through the
        service queue like any agent-initiated one (journaled as
        ``terminate``, counted).  Returns the flow ids
        reaped.  Called by the background reaper; tests call it
        directly with an explicit *now*.
        """
        now = self._now_or_domain(now)
        reaped = [lease.flow_id for lease in self._retire(
            self.leases.expire_due(now), "expire", now)]
        self.reaped += len(reaped)
        return reaped

    def reclaim_idle(self, flow_ids, now: Optional[float] = None) -> int:
        """Tear down flows the telemetry plane reports idle, early.

        Same shape as :meth:`reap`, but driven by the adaptive
        controller rather than lease expiry: the lease is released
        first (so a late heartbeat reports ``unknown``), a ``reclaim``
        lease marker is journaled, then the teardown goes through the
        service queue.  A shed teardown re-grants the lease expired so
        the next reap pass retries it.  Returns how many flows were
        reclaimed.
        """
        now = self._now_or_domain(now)
        released = (self.leases.release(flow_id) for flow_id in flow_ids)
        reclaimed = self._retire(
            (lease for lease in released if lease is not None),
            "reclaim", now)
        self.idle_reclaimed += len(reclaimed)
        store = self.service.telemetry
        if store is not None:
            for lease in reclaimed:
                store.forget_flow(lease.flow_id)
        return len(reclaimed)

    def _now_or_domain(self, now: Optional[float]) -> float:
        if now is None:
            return self.domain_now
        self._advance_domain_clock(now)
        return now

    def _retire(self, leases, marker: str, now: float) -> List[Lease]:
        """Journal a *marker* lease event for each of *leases* and tear
        its flow down through the service queue; returns the leases
        whose flows are gone.  Any other outcome (shed, gate failure)
        re-grants the lease expired, so the next reap pass retries it
        instead of leaking the reservation."""
        gone: List[Lease] = []
        for lease in leases:
            try:
                self.service.journal_lease(
                    marker, lease.flow_id, lease.agent,
                    duration=lease.duration, now=now,
                )
            except StateError:
                pass
            reply = self.service.request(
                lease.flow_id, op="teardown", now=now,
            )
            if reply.status == "ok" or "not admitted" in reply.detail:
                # "not admitted" = the flow raced an explicit teardown
                # whose lease release lost; either way it is gone.
                gone.append(lease)
            else:
                self.leases.grant(
                    lease.flow_id, lease.agent,
                    now - self.leases.duration,
                    macroflow_key=lease.macroflow_key,
                )
        return gone

    def _reap_loop(self) -> None:
        while not clock.wait(self._stopped, self.reap_interval):
            try:
                self.reap()
            except StateError:
                continue

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """Point-in-time gateway counters (leases, dedup, frames)."""
        with self._lock:
            inflight = len(self._inflight)
            sessions = len(self._sessions)
        return {
            "frames_served": self.frames_served,
            "duplicates_attached": self.duplicates_attached,
            "protocol_errors": self.protocol_errors,
            "reaped": self.reaped,
            "leases_adopted": self.leases_adopted,
            "telemetry_frames": self.telemetry_frames,
            "idle_reclaimed": self.idle_reclaimed,
            "inflight": inflight,
            "sessions": sessions,
            "dedup_hits": self.dedup.hits,
            "dedup_entries": len(self.dedup),
            "leases": self.leases.counters(),
        }


#: Sentinel returned by :meth:`EdgeGateway._handle_frame` on ``bye``.
_BYE = "\x00bye"
