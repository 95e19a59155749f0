"""Admission batching: one schedulability scan for many arrivals.

Under bursty signaling load many queued requests ask for the same
thing — same ingress/egress (or pinned path), same traffic profile,
same delay requirement, same class.  The batcher groups such requests
behind one **batch key** and drives the whole group through admission
in a single critical section:

* policy control and path resolution run **once** per batch;
* on a rate-based-only single-candidate path the minimal feasible
  rate of eq. (6) is computed **once** and every flow then costs only
  the O(1) range check plus bookkeeping
  (:meth:`~repro.core.admission.PerFlowAdmission.admit_batch`);
* on mixed rate/delay paths and for class-based joins each flow is
  still evaluated individually inside the shared critical section
  (every admission moves the Figure-4 breakpoints / the macroflow
  rate, so a shared scan would change decisions), but the batch still
  amortizes resolution, lock acquisition and the edge-programming
  round-trip.

Per-flow accept/reject fan-out is exact: decisions are, by
construction, identical to processing the batch members sequentially
in batch order (the equivalence the stress tests assert).

The batcher is deliberately decoupled from the runtime's job type —
it consumes any object carrying the :data:`REQUEST_FIELDS` attributes
(the runtime's ``ServiceRequest`` does).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable, List, Optional, Sequence

from repro.core.admission import AdmissionDecision, AdmissionRequest
from repro.core.broker import BandwidthBroker, ResolvedRequest

__all__ = ["AdmissionBatcher", "batch_key", "REQUEST_FIELDS"]

#: The attributes a batchable request object must expose.
REQUEST_FIELDS = (
    "op", "flow_id", "spec", "delay_requirement",
    "ingress", "egress", "service_class", "path_nodes", "now",
)


def batch_key(request) -> Optional[Hashable]:
    """The coalescing key of *request*, or ``None`` if unbatchable.

    Two requests may share a batch when every admission-relevant
    parameter except the flow identity matches — **including** the
    domain clock ``now``: the hoisted scan admits the whole batch at
    one timestamp, so coalescing mixed-``now`` requests would stamp
    every flow with the head request's ``admitted_at`` and contingency
    clock instead of its own (and make journal replay diverge from
    the live run).  Every non-admit returns ``None``.  Teardowns still
    share work, but not through a key: the runtime pops a run of
    consecutive teardowns at the queue head and covers it with one
    group commit (each still releases its own path's state, so there
    is no shared scan to hoist).
    """
    if request.op != "admit":
        return None
    return (
        request.spec,
        request.delay_requirement,
        request.ingress,
        request.egress,
        request.service_class,
        request.path_nodes,
        request.now,
    )


class AdmissionBatcher:
    """Executes one coalesced batch against the broker's admission.

    The caller (the service runtime) is responsible for holding the
    shard locks covering the batch's candidate paths before calling
    :meth:`execute` — the batcher itself takes none.
    """

    def __init__(self, broker: BandwidthBroker) -> None:
        self.broker = broker

    # ------------------------------------------------------------------
    # resolution (no locks needed)
    # ------------------------------------------------------------------

    def resolve(self, request) -> ResolvedRequest:
        """Resolve the batch's shared policy verdict and candidates."""
        return self.broker.resolve(
            request.flow_id,
            request.spec,
            request.delay_requirement,
            request.ingress,
            request.egress,
            service_class=request.service_class,
            path_nodes=request.path_nodes,
        )

    def fan_out_rejection(
        self, resolved: ResolvedRequest, requests: Sequence
    ) -> List[AdmissionDecision]:
        """Per-flow copies of a batch-level policy/routing rejection.

        Each copy enters the broker's rejection accounting exactly as
        a sequential request would have.
        """
        assert resolved.rejection is not None
        return [
            self.broker.count_rejection(
                replace(resolved.rejection, flow_id=request.flow_id)
            )
            for request in requests
        ]

    # ------------------------------------------------------------------
    # admission (caller holds the shard locks)
    # ------------------------------------------------------------------

    def execute(
        self, resolved: ResolvedRequest, requests: Sequence
    ) -> List[AdmissionDecision]:
        """Admit every batch member; returns one decision per request.

        *requests* must all share one :func:`batch_key` and *resolved*
        must be their (shared) resolution.
        """
        if resolved.rejection is not None:
            return self.fan_out_rejection(resolved, requests)
        candidates = resolved.candidates
        hoistable = (
            resolved.service_class is None
            and len(candidates) == 1
            and candidates[0].rate_based_hops == candidates[0].hops
        )
        if hoistable:
            path = candidates[0]
            decisions = self.broker.perflow.admit_batch(
                [
                    AdmissionRequest(
                        flow_id=request.flow_id,
                        spec=request.spec,
                        delay_requirement=resolved.request.delay_requirement,
                    )
                    for request in requests
                ],
                path,
                now=requests[0].now,
            )
            for decision in decisions:
                if not decision.admitted:
                    self.broker.count_rejection(decision)
            return decisions
        # Mixed paths, multi-candidate walks and class-based joins:
        # sequential within the shared critical section (decisions
        # depend on each predecessor's bookkeeping).
        decisions = []
        for request in requests:
            per_flow = ResolvedRequest(
                request=AdmissionRequest(
                    flow_id=request.flow_id,
                    spec=request.spec,
                    delay_requirement=resolved.request.delay_requirement,
                ),
                candidates=list(candidates),
                service_class=resolved.service_class,
            )
            decisions.append(
                self.broker.admit_resolved(per_flow, now=request.now)
            )
        return decisions
