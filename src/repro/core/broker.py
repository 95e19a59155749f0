"""The bandwidth broker facade.

:class:`BandwidthBroker` wires the service modules of Figure 1
together — policy control, routing, per-flow admission (Section 3) and
class-based admission with dynamic aggregation (Section 4) — behind
the two-call API of the paper's operational description:

* :meth:`BandwidthBroker.request_service` — everything that happens
  when an ingress forwards a new-flow service request: policy check,
  path selection, admissibility test, bookkeeping, and the reply that
  tells the ingress how to program the edge conditioner;
* :meth:`BandwidthBroker.terminate` — flow teardown (with the deferred
  rate decrease of Theorem 3 for class-based flows).

The broker also acts as a :class:`~repro.core.signaling.MessageBus`
endpoint named ``"bb"``, so experiments can drive it purely through
signaling messages and count control-plane traffic.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SignalingError, StateError
from repro.core.admission import (
    AdmissionDecision,
    AdmissionRequest,
    PerFlowAdmission,
    RejectionReason,
)
from repro.core.aggregate import (
    AggregateAdmission,
    ContingencyMethod,
    ServiceClass,
)
from repro.core.mibs import (
    FlowMIB,
    LinkQoSState,
    NodeMIB,
    PathMIB,
    PathRecord,
)
from repro.core.policy import PolicyModule
from repro.core.routing import RoutingModule
from repro.core.signaling import (
    EdgeBufferEmpty,
    EdgeReconfigure,
    FlowServiceRequest,
    FlowTeardown,
    Message,
    MessageBus,
    ReservationReply,
)
from repro.traffic.spec import TSpec
from repro.vtrs.timestamps import SchedulerKind

__all__ = ["BandwidthBroker", "BrokerStats", "ResolvedRequest"]


@dataclass
class BrokerStats:
    """A snapshot of the broker's control-plane counters.

    Produced by :meth:`BandwidthBroker.stats`, which reads every
    counter under the lock that guards its mutation — the snapshot is
    safe to take while service workers admit and tear down flows.
    """

    active_flows: int
    admitted_total: int
    rejected_total: int
    terminated_total: int
    rejections_by_reason: Dict[str, int] = field(default_factory=dict)
    macroflows: int = 0
    qos_state_entries: int = 0


@dataclass
class ResolvedRequest:
    """A service request after policy control and path resolution.

    Produced by :meth:`BandwidthBroker.resolve` (no reservation-state
    reads) and consumed by :meth:`BandwidthBroker.admit_resolved`
    (reservation-state reads and writes only).  The split lets a
    concurrent runtime compute which link shards a request touches —
    the union of the candidate paths' links — *before* taking any
    lock, and then run the admission math with those shards held.

    :param request: the admission request (flow id, TSpec, D_req).
    :param candidates: candidate paths, unordered (widest-first
        ordering is applied under the lock, where residual bandwidth
        is stable).
    :param service_class: the resolved class, or ``None`` for
        per-flow service.
    :param rejection: set when policy or routing already rejected the
        request; ``candidates`` is then empty.
    """

    request: AdmissionRequest
    candidates: List[PathRecord] = field(default_factory=list)
    service_class: Optional[ServiceClass] = None
    rejection: Optional[AdmissionDecision] = None

    def links(self):
        """Every link any candidate path crosses (with duplicates)."""
        for path in self.candidates:
            for link in path.links:
                yield link


class BandwidthBroker:
    """A centralized bandwidth broker for one network domain.

    :param policy: optional policy module (default: allow everything).
    :param contingency_method: how class-based admission determines
        contingency periods (Section 4.2.1).
    :param bus: optional shared message bus; the broker registers
        itself as endpoint ``"bb"``.
    """

    def __init__(
        self,
        *,
        policy: Optional[PolicyModule] = None,
        contingency_method: ContingencyMethod = ContingencyMethod.BOUNDING,
        bus: Optional[MessageBus] = None,
    ) -> None:
        self.node_mib = NodeMIB()
        self.flow_mib = FlowMIB()
        self.path_mib = PathMIB()
        self.policy = policy or PolicyModule()
        self.routing = RoutingModule(self.node_mib, self.path_mib)
        self.perflow = PerFlowAdmission(
            self.node_mib, self.flow_mib, self.path_mib
        )
        self.aggregate = AggregateAdmission(
            self.node_mib, self.flow_mib, self.path_mib,
            method=contingency_method,
            rate_change_listener=self._push_edge_reconfigure,
        )
        self.classes: Dict[str, ServiceClass] = {}
        self.rejections: Counter = Counter()
        self.rejected_total = 0
        #: Guards the rejection counters and the class registry — the
        #: only broker-level state mutated outside the link/flow MIBs
        #: (which carry their own locks; per-link reservation state is
        #: serialized by the service layer's shard locks).
        self._stats_lock = threading.Lock()
        self.bus = bus or MessageBus()
        self.bus.register("bb", self.handle_message)

    # ------------------------------------------------------------------
    # domain provisioning
    # ------------------------------------------------------------------

    def add_link(
        self,
        src: str,
        dst: str,
        capacity: float,
        kind: SchedulerKind,
        *,
        error_term: Optional[float] = None,
        propagation: float = 0.0,
        max_packet: float = 0.0,
    ) -> LinkQoSState:
        """Provision one unidirectional link in the broker's node MIB."""
        return self.node_mib.register_link(
            LinkQoSState(
                (src, dst), capacity, kind,
                error_term=error_term,
                propagation=propagation,
                max_packet=max_packet,
            )
        )

    def register_class(self, service_class: ServiceClass) -> ServiceClass:
        """Offer a guaranteed-delay service class in this domain."""
        with self._stats_lock:
            if service_class.class_id in self.classes:
                raise StateError(
                    f"service class {service_class.class_id!r} "
                    "already registered"
                )
            self.classes[service_class.class_id] = service_class
        return service_class

    # ------------------------------------------------------------------
    # flow service
    # ------------------------------------------------------------------

    def request_service(
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
    ) -> AdmissionDecision:
        """Process a new-flow service request end to end.

        :param service_class: empty for per-flow guaranteed service;
            a registered class id for class-based service (the flow's
            *delay_requirement* is then the class's bound and may be
            passed as 0).
        :param path_nodes: explicit path pin; default: widest-shortest
            path selected by the routing module.

        Single-threaded entry point.  Concurrent callers must instead
        go through :meth:`resolve`/:meth:`admit_resolved` (or the
        :class:`~repro.service.BrokerService` runtime that wraps
        them) so reservation reads and writes happen under link
        locks.
        """
        resolved = self.resolve(
            flow_id, spec, delay_requirement, ingress, egress,
            service_class=service_class, path_nodes=path_nodes,
        )
        return self.admit_resolved(resolved, now=now)

    def resolve(
        self,
        flow_id: str,
        spec: TSpec,
        delay_requirement: float,
        ingress: str,
        egress: str,
        *,
        service_class: str = "",
        path_nodes: Optional[Sequence[str]] = None,
    ) -> ResolvedRequest:
        """Policy control and path resolution for a service request.

        Touches no reservation state (policy rules and topology
        discovery only), so it is safe to call without holding any
        link locks; the returned candidate set tells a concurrent
        caller exactly which links :meth:`admit_resolved` will read
        and write.  Rejections are *not* counted yet — they are
        recorded when the resolved request is driven to a decision.
        """
        klass: Optional[ServiceClass] = None
        if service_class:
            klass = self.classes.get(service_class)
            if klass is None:
                raise StateError(f"unknown service class {service_class!r}")
        request = AdmissionRequest(
            flow_id=flow_id,
            spec=spec,
            delay_requirement=delay_requirement
            or (klass.delay_bound if klass is not None else 0.0),
        )
        verdict = self.policy.evaluate(request, ingress, egress)
        if not verdict.allowed:
            return ResolvedRequest(
                request=request,
                service_class=klass,
                rejection=AdmissionDecision(
                    admitted=False, flow_id=flow_id,
                    reason=RejectionReason.POLICY,
                    detail=f"{verdict.rule}: {verdict.detail}",
                ),
            )
        if path_nodes is not None:
            candidates = [self.routing.pin_path(path_nodes)]
        else:
            candidates = [
                self.routing.pin_path(nodes)
                for nodes in self.routing.shortest_paths(ingress, egress)
            ]
        if not candidates:
            return ResolvedRequest(
                request=request,
                service_class=klass,
                rejection=AdmissionDecision(
                    admitted=False, flow_id=flow_id,
                    reason=RejectionReason.NO_PATH,
                    detail=f"{egress!r} unreachable from {ingress!r}",
                ),
            )
        return ResolvedRequest(
            request=request, candidates=candidates, service_class=klass
        )

    def admit_resolved(
        self, resolved: ResolvedRequest, *, now: float = 0.0
    ) -> AdmissionDecision:
        """Drive a resolved request through admission and bookkeeping.

        The reservation-state half of :meth:`request_service`.  A
        concurrent caller must hold the locks covering every link in
        ``resolved.candidates`` (class-based requests additionally
        mutate the global contingency schedule, so the service layer
        serializes them across *all* shards); the widest-first
        ordering of the candidates is computed here, under those
        locks, so it sees stable residual bandwidth.
        """
        if resolved.rejection is not None:
            return self._rejected(resolved.rejection)
        request = resolved.request
        klass = resolved.service_class
        candidates = sorted(
            resolved.candidates,
            key=lambda path: (-path.residual_bandwidth(), path.nodes),
        )
        if klass is not None:
            # Class-based flows stay on the widest path: a macroflow's
            # identity is (class, path), and splitting one class over
            # parallel paths would fragment its aggregation benefit.
            decision = self.aggregate.join(
                request.flow_id, request.spec, klass, candidates[0], now=now
            )
            if not decision.admitted:
                return self._rejected(decision)
            return decision
        # Per-flow service: walk the equal-length candidates widest
        # first — path-wide optimization across alternatives, which a
        # hop-by-hop protocol cannot do without crankback signaling.
        decision = None
        for path in candidates:
            decision = self.perflow.admit(request, path, now=now)
            if decision.admitted:
                return decision
        return self._rejected(decision)

    def terminate(self, flow_id: str, *, now: float = 0.0) -> None:
        """Tear down an admitted flow (per-flow or class-based)."""
        record = self.flow_mib.get(flow_id)
        if record is None:
            raise StateError(f"flow {flow_id!r} is not admitted")
        if record.class_id:
            self.aggregate.leave(flow_id, now=now)
        else:
            self.perflow.release(flow_id)

    def advance(self, now: float) -> int:
        """Release expired contingency bandwidth (returns count)."""
        return self.aggregate.advance(now)

    def _rejected(self, decision: AdmissionDecision) -> AdmissionDecision:
        with self._stats_lock:
            self.rejected_total += 1
            if decision.reason is not None:
                self.rejections[decision.reason.value] += 1
        return decision

    def count_rejection(self, decision: AdmissionDecision
                        ) -> AdmissionDecision:
        """Record a rejection produced outside :meth:`request_service`.

        The admission batcher fans one resolved rejection out to every
        flow in a batch; each per-flow decision still has to enter the
        broker's rejection accounting exactly once.
        """
        return self._rejected(decision)

    def _push_edge_reconfigure(self, macro) -> None:
        """Tell the macroflow's ingress to re-pace its conditioner.

        Sent only when the ingress has registered a bus endpoint —
        experiments that drive the broker without a data plane are
        unaffected (Figure 1's COPS push is then a no-op).
        """
        ingress = macro.path.nodes[0]
        if ingress not in getattr(self.bus, "_handlers", {}):
            return
        self.bus.send(EdgeReconfigure(
            sender="bb",
            receiver=ingress,
            conditioner_key=macro.key,
            rate=macro.total_rate,
            delay=macro.service_class.class_delay,
        ))

    # ------------------------------------------------------------------
    # signaling endpoint
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> Optional[Message]:
        """Bus endpoint: process ingress-originated signaling."""
        if isinstance(message, FlowServiceRequest):
            decision = self.request_service(
                message.flow_id,
                message.spec,
                message.delay_requirement,
                message.sender,
                message.egress,
                service_class=message.service_class,
                now=message.now,
            )
            path_nodes: Tuple[str, ...] = ()
            if decision.admitted and decision.path_id:
                path_nodes = self.path_mib.get(decision.path_id).nodes
            macro_key = ""
            if decision.admitted and message.service_class:
                record = self.flow_mib.get(message.flow_id)
                macro_key = record.class_id if record else ""
            return ReservationReply(
                sender="bb",
                receiver=message.sender,
                flow_id=message.flow_id,
                admitted=decision.admitted,
                rate=decision.rate,
                delay=decision.delay,
                path_nodes=path_nodes,
                macroflow_key=macro_key,
                detail=decision.detail,
            )
        if isinstance(message, FlowTeardown):
            self.terminate(message.flow_id, now=message.now)
            return None
        if isinstance(message, EdgeBufferEmpty):
            self.aggregate.notify_edge_empty(
                message.conditioner_key, message.at_time
            )
            return None
        raise SignalingError(
            f"broker cannot handle message type {type(message).__name__}"
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> BrokerStats:
        """Snapshot of the broker's control-plane state.

        Safe to call while service workers mutate the MIBs: the
        rejection counters are read under their lock, and the
        macroflow table is materialized with a single C-level
        ``list()`` call (atomic under the GIL) before iteration.  The
        per-link entry counts are independent atomic reads, so the
        snapshot is counter-consistent but may straddle an in-flight
        multi-link admission.
        """
        qos_entries = sum(
            link.reservation_count for link in self.node_mib.links()
        )
        with self._stats_lock:
            rejected_total = self.rejected_total
            rejections = dict(self.rejections)
        return BrokerStats(
            active_flows=len(self.flow_mib),
            admitted_total=self.flow_mib.admitted_total,
            rejected_total=rejected_total,
            terminated_total=self.flow_mib.terminated_total,
            rejections_by_reason=rejections,
            macroflows=sum(
                1
                for flow in list(self.aggregate.macroflows.values())
                if flow.member_count > 0
            ),
            qos_state_entries=qos_entries,
        )
