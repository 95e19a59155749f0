"""The edge agent: per-flow QoS state at the ingress edge router.

:class:`EdgeAgent` is the paper's edge router made a client of the
bandwidth broker: it owns the per-flow state table the architecture
deliberately keeps out of the core, speaks the
:mod:`repro.edge.protocol` frames to an
:class:`~repro.edge.gateway.EdgeGateway`, and survives the failures a
network path introduces:

* **at-least-once retries, exactly-once effects** — every logical
  operation gets one idempotency key for its whole lifetime; a
  timeout, a dropped frame or a reconnect resends the *same* key, so
  the gateway either answers from its dedup window or attaches the
  retry to the still-running original.  The agent may retry freely
  without ever double-admitting a flow.
* **deadline propagation** — each operation runs under one overall
  budget; every attempt ships the *remaining* budget as ``budget_ms``
  so the gateway (and the service queue behind it) sheds work whose
  client has already given up.
* **one send/collect/backoff loop** — a single operation is a
  pipelined window of one, so every operation shares the loop of
  :meth:`EdgeAgent.admit_many`: a round writes every pending frame,
  collects replies until each key has answered or the connection has
  been idle for :attr:`~EdgeAgent.attempt_timeout`, and resends only
  the keys still pending.  Between rounds it backs off exponentially
  (seeded RNG jitter, so tests are reproducible), but never less than
  the largest ``retry_after`` hint a ``try-again`` reply carried
  (capped by the remaining budget).
* **reconnect on** :class:`~repro.service.transport.TransportClosed` —
  the agent redials through its connection factory and replays the
  ``hello`` handshake; in-flight operations then retry over the new
  connection and collect their replies from the dedup window.

The agent also runs the Section 4.2.1 **feedback** method: an admit
reply whose lease names a macroflow with outstanding contingency
bandwidth carries the broker's ``drain_bound`` hint — the worst-case
time until the edge conditioner's buffer empties.  The agent records
``now + drain_bound`` as that macroflow's feedback due-time and
:meth:`poll_feedback` emits ``feedback`` frames once the domain clock
passes it, releasing the contingency bandwidth at the broker ahead of
its eq.-(17) expiry.  (In this reproduction the analytic drain bound
*is* the model of the conditioner draining; a data-plane deployment
would watch the real buffer and typically report earlier.)

Threading: all RPCs serialize on one internal lock — the optional
heartbeat thread and the caller's thread share the connection safely,
at the price of one outstanding window per agent.  Scale-out is
horizontal (many agents), which is exactly the paper's model of many
edge routers against one broker.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import clock
from repro.edge import protocol
from repro.errors import SignalingError
from repro.service.transport import (
    TransportClosed,
    connect_tcp,
    is_pong,
    ping_frame,
    recv_matching,
)
from repro.traffic.spec import TSpec

__all__ = [
    "AgentTimeout",
    "FlowState",
    "AdmitOp",
    "EdgeAgent",
    "tcp_connector",
]


class AgentTimeout(SignalingError):
    """An operation's retry budget ran out without a terminal reply."""


@dataclass
class FlowState:
    """One admitted flow as the edge sees it (the per-flow QoS state
    the paper keeps out of the core routers)."""

    flow_id: str
    spec: TSpec
    delay_requirement: float
    path_id: Optional[str]
    rate: float
    admitted_at: float
    lease_expires_at: float
    macroflow_key: str = ""


@dataclass
class AdmitOp:
    """One admission in a pipelined :meth:`EdgeAgent.admit_many` batch."""

    flow_id: str
    spec: TSpec
    delay_requirement: float
    ingress: str
    egress: str
    service_class: str = ""
    path_nodes: Optional[Sequence[str]] = None


def tcp_connector(host: str, port: int, *,
                  timeout: float = 5.0) -> Callable[[], Any]:
    """A reconnecting dial function for :class:`EdgeAgent` (TCP)."""

    def connect():
        return connect_tcp(host, port, timeout=timeout)

    return connect


class EdgeAgent:
    """An edge router's signaling client against one gateway.

    :param name: stable agent identity — leases and the dedup window
        key on it, so a restarted agent that reuses its name resumes
        its own state.
    :param connect: zero-argument factory returning a fresh transport
        connection (:func:`tcp_connector`, or a test's pipe/fault
        wrapper).  Called on first use and after every
        :class:`TransportClosed`.
    :param op_budget: default overall wall-clock budget per logical
        operation, in seconds (deadline propagation starts from it).
    :param seed: RNG seed for the jitter (deterministic tests).
    """

    #: Idle wait for a round's replies before the pending keys are
    #: resent, in seconds.
    attempt_timeout = 0.25
    #: Bounds of the jittered exponential backoff between rounds, in
    #: seconds.
    base_backoff = 0.01
    max_backoff = 0.5

    def __init__(
        self,
        name: str,
        connect: Callable[[], Any],
        *,
        op_budget: float = 5.0,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self._connect = connect
        self.op_budget = op_budget
        self._rng = random.Random(seed)
        self._rpc_lock = threading.RLock()
        self._state_lock = threading.Lock()
        self._conn: Optional[Any] = None
        self._idem_counter = itertools.count(1)
        self.flows: Dict[str, FlowState] = {}
        #: macroflow key -> domain time its feedback frame is due.
        self._feedback_due: Dict[str, float] = {}
        self.lease_duration = 0.0   # learned from the welcome frame
        self.gateway_name = ""
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop = threading.Event()
        self._domain_now = 0.0
        #: Optional :class:`~repro.telemetry.EdgeSampler` the data
        #: plane feeds; when attached, admitted flows are tracked and
        #: the heartbeat drains it into ``report`` frames.
        self.sampler: Optional[Any] = None
        # Lifetime counters (exposed via :meth:`counters`).
        self.rpcs = 0
        self.retries = 0
        self.reconnects = 0
        self.try_agains = 0
        self.feedbacks_sent = 0
        self.leases_lost = 0
        self.reports_sent = 0

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def _ensure_connected(self):
        """Dial + ``hello`` handshake if there is no live connection."""
        if self._conn is not None:
            return self._conn
        conn = self._connect()
        try:
            conn.send(protocol.make_hello(self.name))
            # Stale replies from a previous connection's in-flight
            # operations may arrive first; they are honoured via the
            # dedup window on retry, so they are skipped here.
            frame = recv_matching(
                conn, max(self.attempt_timeout, 1.0),
                lambda frame: frame.get("type") == "welcome")
            if frame is None:
                raise TransportClosed("no welcome from the gateway")
        except TransportClosed:
            try:
                conn.close()
            except Exception:
                pass
            raise
        self.lease_duration = float(frame.get("lease_duration", 0.0))
        self.gateway_name = str(frame.get("gateway", ""))
        self._conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def close(self) -> None:
        """Stop the heartbeat and close the connection (``bye``)."""
        self.stop_heartbeat()
        with self._rpc_lock:
            if self._conn is not None:
                try:
                    self._conn.send(protocol.make_bye(self.name))
                except TransportClosed:
                    pass
            self._drop_connection()

    def __enter__(self) -> "EdgeAgent":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the retry loop
    # ------------------------------------------------------------------

    def next_idem(self) -> str:
        """A fresh idempotency key (one per *logical* operation)."""
        return f"{self.name}#{next(self._idem_counter)}"

    def _call(self, build_frame: Callable[[float], protocol.Frame],
              idem: str, *, budget: Optional[float] = None,
              surface_try_again: bool = False) -> protocol.Frame:
        """One operation: a pipelined window of one (see
        :meth:`_call_many`); returns its terminal reply."""
        return self._call_many(
            {idem: build_frame}, budget=budget,
            surface_try_again=surface_try_again,
        )[idem]

    def _call_many(
        self,
        builders: "Dict[str, Callable[[float], protocol.Frame]]",
        *,
        budget: Optional[float] = None,
        surface_try_again: bool = False,
    ) -> Dict[str, protocol.Frame]:
        """Run operations pipelined on one connection until each has a
        terminal reply.

        *builders* maps each operation's idempotency key to its frame
        builder (remaining budget in ms -> frame).  A round writes
        every pending frame with **one** coalesced ``send_many`` and
        collects replies as they arrive, correlated by key — N
        operations in flight cost one round trip, not N.  A round ends
        once every pending key has answered or the connection has been
        idle for :attr:`attempt_timeout`.  The next round resends
        *only* the keys still pending (same keys, so the gateway's
        dedup window keeps the effects exactly-once), after the larger
        of the jittered backoff and the largest ``retry_after`` a
        ``try-again`` carried.

        With *surface_try_again* a ``try-again`` reply is terminal and
        returned to the caller — the shape a proxy tier (the REST
        control plane) needs to map backpressure to its own protocol
        (``429`` + ``Retry-After``) and let the *remote* client own
        the retry.  Silence and transport losses still retry here:
        they carry no backpressure signal to propagate.

        Raises :class:`AgentTimeout` when the budget runs out with
        operations still unanswered; terminal replies collected so
        far are reported in the exception's ``partial`` attribute.
        """
        budget = self.op_budget if budget is None else budget
        deadline = clock.Deadline(budget)
        replies: Dict[str, protocol.Frame] = {}
        with self._rpc_lock:
            self.rpcs += len(builders)
            pending = dict(builders)
            attempt = 0
            while pending:
                remaining = deadline.remaining()
                if remaining <= 0:
                    error = AgentTimeout(
                        f"{self.name}: {len(pending)} of "
                        f"{len(builders)} operation(s) exhausted the "
                        f"{budget:.3f}s budget after {attempt} "
                        f"attempt(s)"
                    )
                    error.partial = replies
                    raise error
                ms = remaining * 1000.0
                silent, hint = True, 0.0
                try:
                    conn = self._ensure_connected()
                    if hasattr(conn, "send_many"):
                        conn.send_many(
                            build(ms) for build in pending.values()
                        )
                    else:
                        for build in pending.values():
                            conn.send(build(ms))
                    silent, hint = self._collect_replies(
                        conn, pending, replies,
                        min(remaining, self.attempt_timeout),
                        surface_try_again,
                    )
                except TransportClosed:
                    self._drop_connection()
                    self.reconnects += 1
                if pending:
                    attempt += 1
                    if silent:
                        self.retries += 1
                    clock.sleep(min(self._backoff(attempt, hint),
                                    deadline.remaining()))
        return replies

    def _collect_replies(self, conn, pending: Dict[str, Any],
                         replies: Dict[str, protocol.Frame],
                         timeout: float, surface_try_again: bool
                         ) -> Tuple[bool, float]:
        """One round's replies for *pending* keys.

        Terminal replies move their key from *pending* to *replies*; a
        ``try-again`` bumps the counter and leaves the key pending for
        the next round (unless *surface_try_again* makes it terminal).
        *timeout* is an **idle** timeout: every reply that lands
        re-arms it, so a window whose replies are still streaming in
        is never resent wholesale just because it is large.

        Returns ``(silent, retry_after)``: whether the round ended idle
        with some key unanswered, and the largest ``retry_after`` hint
        a ``try-again`` carried.
        """
        waiting = set(pending)
        retry_after = 0.0
        deadline = clock.Deadline(timeout)
        while waiting:
            remaining = deadline.remaining()
            if remaining <= 0:
                break
            frame = conn.recv(timeout=remaining)
            if frame is None:
                break
            if is_pong(frame) or frame.get("type") != "reply":
                continue
            idem = frame.get("idem")
            if idem not in waiting:
                continue  # stale reply to a finished or earlier attempt
            deadline = clock.Deadline(timeout)
            waiting.discard(idem)
            if frame.get("status") == protocol.STATUS_TRY_AGAIN:
                self.try_agains += 1
                if not surface_try_again:
                    retry_after = max(
                        retry_after, float(frame.get("retry_after", 0.0))
                    )
                    continue
            del pending[idem]
            replies[idem] = frame
        return bool(waiting), retry_after

    def _backoff(self, attempt: int, hint: float) -> float:
        """The wait before round *attempt* + 1: the jittered backoff
        (read from the current knobs, which tests may set on the
        instance), but never less than a ``retry_after`` *hint*."""
        return clock.Backoff(
            self.base_backoff, self.max_backoff, self._rng,
        ).delay(attempt, hint)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def admit(
        self,
        flow_id: str,
        spec: TSpec,
        delay_requirement: float,
        ingress: str,
        egress: str,
        *,
        service_class: str = "",
        path_nodes: Optional[Sequence[str]] = None,
        now: float = 0.0,
        budget: Optional[float] = None,
        idem: Optional[str] = None,
        surface_try_again: bool = False,
    ) -> protocol.Frame:
        """Request admission for a new flow; returns the reply frame.

        On an admitted ``ok`` reply the flow enters the agent's table
        with its lease, and a macroflow feedback due-time is recorded
        when the broker handed back a drain hint.

        *idem* overrides the generated idempotency key — a fronting
        tier that accepts client-supplied keys (``Idempotency-Key``)
        passes them through here so a replayed client request dedups
        at the gateway exactly like the agent's own retransmits.
        """
        self.advance_clock(now)
        if idem is None:
            idem = self.next_idem()
        reply = self._call(
            lambda ms: protocol.make_admit(
                self.name, idem, flow_id, spec, delay_requirement,
                ingress, egress, service_class=service_class,
                path_nodes=path_nodes, now=now, budget_ms=ms,
            ),
            idem, budget=budget, surface_try_again=surface_try_again,
        )
        self._note_admit_reply(flow_id, spec, delay_requirement, now,
                               reply)
        return reply

    def _note_admit_reply(self, flow_id: str, spec: TSpec,
                          delay_requirement: float, now: float,
                          reply: protocol.Frame) -> None:
        """Fold an admit reply into the flow table + feedback queue."""
        decision = reply.get("decision") or {}
        if reply.get("status") != protocol.STATUS_OK or \
                not decision.get("admitted"):
            return
        lease = reply.get("lease") or {}
        with self._state_lock:
            self.flows[flow_id] = FlowState(
                flow_id=flow_id,
                spec=spec,
                delay_requirement=delay_requirement,
                path_id=decision.get("path_id"),
                rate=float(decision.get("rate", 0.0)),
                admitted_at=now,
                lease_expires_at=float(
                    lease.get("expires_at", now)
                ),
                macroflow_key=str(
                    lease.get("macroflow_key", "")
                ),
            )
            drain = float(lease.get("drain_bound", 0.0))
            key = str(lease.get("macroflow_key", ""))
            if self.sampler is not None:
                self.sampler.track(flow_id, key, now)
            if key and drain > 0.0:
                # The conditioner's buffer is empty by now+drain;
                # keep the latest due-time if several joins pile
                # contingency onto the same macroflow.
                due = now + drain
                if due > self._feedback_due.get(key, 0.0):
                    self._feedback_due[key] = due

    def teardown(self, flow_id: str, *, now: float = 0.0,
                 budget: Optional[float] = None,
                 idem: Optional[str] = None,
                 surface_try_again: bool = False) -> protocol.Frame:
        """Tear an admitted flow down; drops it from the flow table."""
        self.advance_clock(now)
        if idem is None:
            idem = self.next_idem()
        reply = self._call(
            lambda ms: protocol.make_teardown(
                self.name, idem, flow_id, now=now, budget_ms=ms,
            ),
            idem, budget=budget, surface_try_again=surface_try_again,
        )
        if reply.get("status") != protocol.STATUS_TRY_AGAIN:
            with self._state_lock:
                self.flows.pop(flow_id, None)
            if self.sampler is not None:
                self.sampler.forget(flow_id)
        return reply

    def admit_many(
        self,
        ops: Sequence[AdmitOp],
        *,
        now: float = 0.0,
        budget: Optional[float] = None,
    ) -> Dict[str, protocol.Frame]:
        """Pipeline many admissions over one connection.

        All frames go out in one coalesced write and the replies are
        collected as the broker answers — the paper's "many edge
        routers, cheap signaling" made cheap *per flow* too.  Sharing
        one ``now`` (and path/class) across the batch also lets the
        service coalesce the admissions into its batched hot path.
        Returns ``{flow_id: reply}``; admitted flows enter the flow
        table exactly as :meth:`admit` records them.
        """
        self.advance_clock(now)
        builders: Dict[str, Callable[[float], protocol.Frame]] = {}
        by_idem: Dict[str, AdmitOp] = {}
        for op in ops:
            idem = self.next_idem()
            by_idem[idem] = op

            def build(ms: float, op: AdmitOp = op,
                      idem: str = idem) -> protocol.Frame:
                return protocol.make_admit(
                    self.name, idem, op.flow_id, op.spec,
                    op.delay_requirement, op.ingress, op.egress,
                    service_class=op.service_class,
                    path_nodes=op.path_nodes, now=now, budget_ms=ms,
                )

            builders[idem] = build
        replies = self._call_many(builders, budget=budget)
        results: Dict[str, protocol.Frame] = {}
        for idem, reply in replies.items():
            op = by_idem[idem]
            self._note_admit_reply(op.flow_id, op.spec,
                                   op.delay_requirement, now, reply)
            results[op.flow_id] = reply
        return results

    def teardown_many(
        self,
        flow_ids: Sequence[str],
        *,
        now: float = 0.0,
        budget: Optional[float] = None,
    ) -> Dict[str, protocol.Frame]:
        """Pipeline many teardowns; returns ``{flow_id: reply}``."""
        self.advance_clock(now)
        builders: Dict[str, Callable[[float], protocol.Frame]] = {}
        by_idem: Dict[str, str] = {}
        for flow_id in flow_ids:
            idem = self.next_idem()
            by_idem[idem] = flow_id

            def build(ms: float, flow_id: str = flow_id,
                      idem: str = idem) -> protocol.Frame:
                return protocol.make_teardown(
                    self.name, idem, flow_id, now=now, budget_ms=ms,
                )

            builders[idem] = build
        replies = self._call_many(builders, budget=budget)
        results: Dict[str, protocol.Frame] = {}
        with self._state_lock:
            for idem, reply in replies.items():
                flow_id = by_idem[idem]
                self.flows.pop(flow_id, None)
                results[flow_id] = reply
        if self.sampler is not None:
            for flow_id in results:
                self.sampler.forget(flow_id)
        return results

    def refresh(self, *, now: float = 0.0,
                budget: Optional[float] = None,
                flow_ids: Optional[Sequence[str]] = None,
                idem: Optional[str] = None
                ) -> Tuple[List[str], List[str]]:
        """Heartbeat: refresh every owned lease.

        Returns ``(refreshed, unknown)``; flows the gateway no longer
        knows (their lease expired and was reaped — e.g. after a
        partition longer than the lease) are dropped from the local
        table, which is the edge converging to the broker's truth.

        *flow_ids* narrows the refresh to a subset (the REST tier's
        per-flow ``POST /v1/flows/<id>/refresh``); the default is
        every flow in the local table.
        """
        self.advance_clock(now)
        if flow_ids is None:
            with self._state_lock:
                flow_ids = list(self.flows)
        else:
            flow_ids = list(flow_ids)
        if not flow_ids:
            return [], []
        if idem is None:
            idem = self.next_idem()
        reply = self._call(
            lambda ms: protocol.make_refresh(
                self.name, idem, flow_ids, now=now, budget_ms=ms,
            ),
            idem, budget=budget,
        )
        refreshed = list(reply.get("refreshed", []))
        unknown = list(reply.get("unknown", []))
        with self._state_lock:
            for flow_id in unknown:
                if self.flows.pop(flow_id, None) is not None:
                    self.leases_lost += 1
                if self.sampler is not None:
                    self.sampler.forget(flow_id)
            horizon = now + self.lease_duration
            for flow_id in refreshed:
                state = self.flows.get(flow_id)
                if state is not None:
                    state.lease_expires_at = horizon
        return refreshed, unknown

    def feedback(self, macroflow_key: str, *, now: float = 0.0,
                 budget: Optional[float] = None) -> protocol.Frame:
        """Report the macroflow's edge buffer drained (Section 4.2.1)."""
        self.advance_clock(now)
        idem = self.next_idem()
        reply = self._call(
            lambda ms: protocol.make_feedback(
                self.name, idem, macroflow_key, now=now, budget_ms=ms,
            ),
            idem, budget=budget,
        )
        if reply.get("status") == protocol.STATUS_OK:
            self.feedbacks_sent += 1
        return reply

    def attach_sampler(self, sampler) -> "EdgeAgent":
        """Attach an :class:`~repro.telemetry.EdgeSampler`.

        Admitted flows are tracked in it (and forgotten on teardown
        or lease loss), and every heartbeat drains it into a
        ``report`` frame.  The data plane — or a workload driver —
        feeds it via ``sampler.record``.
        """
        self.sampler = sampler
        return self

    def report(self, now: Optional[float] = None, *,
               budget: Optional[float] = None
               ) -> Optional[protocol.Frame]:
        """Drain the sampler and ship one telemetry ``report`` frame.

        Returns the reply, or ``None`` when no sampler is attached or
        the interval produced no samples.  Telemetry is advisory: the
        drained counters are simply gone if the frame is lost, and
        the next interval reports fresh ones — so unlike admissions
        there is nothing to re-queue on failure.
        """
        if self.sampler is None:
            return None
        if now is not None:
            self.advance_clock(now)
        now = self.domain_now
        samples = self.sampler.drain(now)
        if not samples:
            return None
        idem = self.next_idem()
        reply = self._call(
            lambda ms: protocol.make_report(
                self.name, idem, samples, now=now, budget_ms=ms,
            ),
            idem, budget=budget,
        )
        if reply.get("status") == protocol.STATUS_OK:
            self.reports_sent += 1
        return reply

    def dry_run(
        self,
        flow_id: str,
        spec: TSpec,
        delay_requirement: float,
        ingress: str,
        egress: str,
        *,
        path_nodes: Optional[Sequence[str]] = None,
        budget: Optional[float] = None,
    ) -> protocol.Frame:
        """Read-only admissibility probe (no reservation, no lease)."""
        idem = self.next_idem()
        return self._call(
            lambda ms: protocol.make_dry_run(
                self.name, idem, flow_id, spec, delay_requirement,
                ingress, egress, path_nodes=path_nodes, budget_ms=ms,
            ),
            idem, budget=budget,
        )

    def ping(self, *, timeout: float = 1.0) -> bool:
        """Keepalive probe; ``False`` when no pong arrived in time."""
        with self._rpc_lock:
            try:
                conn = self._ensure_connected()
                nonce = self._rng.randrange(1 << 30)
                conn.send(ping_frame(nonce))
                pong = recv_matching(
                    conn, timeout,
                    lambda frame: is_pong(frame)
                    and frame.get("nonce") == nonce,
                )
                return pong is not None
            except TransportClosed:
                self._drop_connection()
                return False

    # ------------------------------------------------------------------
    # the feedback watcher + heartbeat
    # ------------------------------------------------------------------

    def advance_clock(self, now: float) -> None:
        """Move the agent's domain clock forward (never backward)."""
        with self._state_lock:
            if now > self._domain_now:
                self._domain_now = now

    @property
    def domain_now(self) -> float:
        with self._state_lock:
            return self._domain_now

    def due_feedback(self, now: Optional[float] = None) -> List[str]:
        """Macroflow keys whose conditioner has drained by *now*."""
        with self._state_lock:
            if now is None:
                now = self._domain_now
            return [key for key, due in self._feedback_due.items()
                    if due <= now]

    def poll_feedback(self, now: Optional[float] = None) -> List[str]:
        """Emit a ``feedback`` frame for every due macroflow.

        Returns the keys reported.  A failed attempt stays queued for
        the next poll — feedback is an optimization (the eq.-(17)
        timer still releases the bandwidth), so it must never wedge
        the heartbeat.
        """
        if now is not None:
            self.advance_clock(now)
        now = self.domain_now
        reported: List[str] = []
        for key in self.due_feedback(now):
            try:
                reply = self.feedback(key, now=now)
            except (AgentTimeout, TransportClosed):
                continue
            if reply.get("status") == protocol.STATUS_OK:
                with self._state_lock:
                    self._feedback_due.pop(key, None)
                reported.append(key)
        return reported

    def heartbeat(self, now: Optional[float] = None
                  ) -> Tuple[List[str], List[str], List[str]]:
        """One maintenance tick: refresh leases, then poll feedback.

        Returns ``(refreshed, lost, feedback_sent)``.  Drive it from
        a test with an explicit *now*, or let :meth:`start_heartbeat`
        run it on a thread against the agent's domain clock.
        """
        if now is not None:
            self.advance_clock(now)
        now = self.domain_now
        try:
            refreshed, unknown = self.refresh(now=now)
        except (AgentTimeout, TransportClosed):
            refreshed, unknown = [], []
        reported = self.poll_feedback(now)
        if self.sampler is not None:
            try:
                self.report(now)
            except (AgentTimeout, TransportClosed):
                pass  # advisory; the next tick reports fresh counters
        return refreshed, unknown, reported

    def start_heartbeat(self, interval: Optional[float] = None
                        ) -> "EdgeAgent":
        """Run :meth:`heartbeat` periodically on a daemon thread.

        *interval* defaults to a third of the gateway's lease duration
        (learned in the welcome), so an agent survives two lost
        heartbeats before its leases expire.
        """
        if self._hb_thread is not None:
            return self
        if interval is None:
            interval = max(self.lease_duration / 3.0, 0.01) \
                if self.lease_duration > 0 else 1.0
        self._hb_stop.clear()

        def loop() -> None:
            while not clock.wait(self._hb_stop, interval):
                try:
                    self.heartbeat()
                except Exception:
                    continue  # the next tick retries

        self._hb_thread = threading.Thread(
            target=loop, name=f"edge-hb-{self.name}", daemon=True,
        )
        self._hb_thread.start()
        return self

    def stop_heartbeat(self) -> None:
        if self._hb_thread is None:
            return
        self._hb_stop.set()
        self._hb_thread.join(timeout=5.0)
        self._hb_thread = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """Lifetime agent-side counters (RPCs, retries, leases).

        ``rpcs`` counts operations; ``retries`` counts resend rounds
        that followed silence (the connection idled for
        :attr:`attempt_timeout` with a key unanswered) or a lost
        connection; ``try_agains`` counts ``try-again`` replies.  A
        round in which every pending key answered ``try-again``
        counts only in ``try_agains``.
        """
        with self._state_lock:
            flows = len(self.flows)
            feedback_pending = len(self._feedback_due)
        return {
            "rpcs": self.rpcs,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "try_agains": self.try_agains,
            "feedbacks_sent": self.feedbacks_sent,
            "leases_lost": self.leases_lost,
            "reports_sent": self.reports_sent,
            "sampled_flows": (
                self.sampler.tracked() if self.sampler is not None
                else 0
            ),
            "flows": flows,
            "feedback_pending": feedback_pending,
        }
