"""The network-facing edge signaling plane (the paper's edge/broker split).

The architecture's core claim is that per-flow QoS state lives only
at the *edge* routers while admission authority is centralized in the
bandwidth broker.  This package is that boundary made a real network
protocol on top of the :mod:`repro.service` stack:

* :mod:`repro.edge.protocol` — request/reply frames with idempotency
  keys and deadline propagation;
* :mod:`repro.edge.leases` — soft-state flow leases and the
  idempotent-reply dedup window;
* :mod:`repro.edge.gateway` — :class:`EdgeGateway`, the broker-side
  server terminating agent sessions over pipes or length-prefixed
  TCP (binary payloads from the first frame; a JSON frame is still
  read), with lease reaping and exactly-once execution;
* :mod:`repro.edge.agent` — :class:`EdgeAgent`, the edge-router-side
  client owning the per-flow state table, with one pipelined
  retry loop for every operation, reconnects, lease heartbeats and
  Section 4.2.1 edge feedback.

See ``docs/EDGE.md`` for the frame vocabulary, the lease lifecycle
and the failure matrix.
"""

from repro.edge.agent import (
    AdmitOp,
    AgentTimeout,
    EdgeAgent,
    FlowState,
    tcp_connector,
)
from repro.edge.gateway import EdgeGateway, decision_to_dict
from repro.edge.leases import DedupWindow, Lease, LeaseTable
from repro.edge.protocol import (
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TRY_AGAIN,
    ProtocolError,
)

__all__ = [
    "AdmitOp",
    "AgentTimeout",
    "EdgeAgent",
    "FlowState",
    "tcp_connector",
    "EdgeGateway",
    "decision_to_dict",
    "DedupWindow",
    "Lease",
    "LeaseTable",
    "PROTOCOL_VERSION",
    "STATUS_OK",
    "STATUS_TRY_AGAIN",
    "STATUS_ERROR",
    "ProtocolError",
]
