"""The edge signaling protocol: request/reply frames, idempotency keys.

The paper's architecture keeps per-flow QoS state at the *edges* and
admission authority at the bandwidth broker; this module defines the
wire protocol between the two.  Frames are plain JSON-compatible
dicts carried over any :mod:`repro.service.transport` connection
(in-process pipes for tests, length-prefixed TCP for deployment).

Every request frame carries:

* ``v`` — the protocol version, always :data:`PROTOCOL_VERSION`; a
  gateway answers any other with a ``bad-version`` error.  Version 2
  is the one that reads the binary codec, so there is nothing to
  negotiate: every frame, the ``hello``/``welcome`` handshake
  included, is sent binary (:mod:`repro.service.wire`), and a frame a
  peer sends as JSON is still read;
* ``agent`` — the edge agent's stable name (leases and the dedup
  window are keyed by it, so reconnects keep their identity);
* ``idem`` — the **idempotency key**, unique per logical operation
  for the lifetime of the agent.  A retry resends the *same* key, so
  the gateway can answer from its dedup window (the original already
  executed) or attach to the in-flight request (it is still queued)
  instead of executing twice — exactly-once at the broker over an
  at-least-once transport;
* ``budget_ms`` — the *remaining* client deadline budget (deadline
  propagation): the gateway maps it onto the service's per-request
  queueing deadline so a request whose client already gave up is
  shed instead of serviced uselessly.

Reply status values divide the world the same way
:class:`~repro.service.runtime.ServiceReply` does: ``ok`` (executed;
for admits, ``decision.admitted`` says whether the flow got in),
``try-again`` (backpressure — never executed, safe to retry after
``retry_after`` seconds, fresh or same key), ``error`` (executed to a
failure, e.g. tearing down an unknown flow).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SignalingError
from repro.traffic.spec import TSpec

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "STATUS_OK",
    "STATUS_TRY_AGAIN",
    "STATUS_ERROR",
    "REQUEST_TYPES",
    "encode_spec",
    "decode_spec",
    "encode_sample",
    "make_hello",
    "make_bye",
    "make_admit",
    "make_teardown",
    "make_refresh",
    "make_feedback",
    "make_report",
    "make_dry_run",
    "make_welcome",
    "make_reply",
    "validate_request",
]

#: Version of the frame vocabulary below, stamped on every frame.
#: Bumped on any change an old peer could misread.
PROTOCOL_VERSION = 2

#: Reply ``status`` values.
STATUS_OK = "ok"
STATUS_TRY_AGAIN = "try-again"
STATUS_ERROR = "error"

#: Request frame types a gateway serves (keepalive ping/pong frames
#: are defined by the transport layer and handled below the protocol).
REQUEST_TYPES = (
    "hello", "bye", "admit", "teardown", "refresh", "feedback",
    "report", "dry-run",
)

#: Request types that must carry an idempotency key (they execute
#: against broker or lease state; hello/bye are connection-scoped).
_IDEMPOTENT_TYPES = ("admit", "teardown", "refresh", "feedback",
                     "report", "dry-run")

Frame = Dict[str, Any]


class ProtocolError(SignalingError):
    """A frame violates the edge protocol (bad version/shape/field)."""


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------


def encode_spec(spec: TSpec) -> Dict[str, float]:
    """JSON-compatible representation of a dual-token-bucket TSpec."""
    return spec.to_dict()


def decode_spec(data: Dict[str, Any]) -> TSpec:
    """Inverse of :func:`encode_spec` (TSpec validation applies)."""
    try:
        return TSpec(
            sigma=float(data["sigma"]), rho=float(data["rho"]),
            peak=float(data["peak"]),
            max_packet=float(data["max_packet"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed TSpec payload: {exc}") from exc


def _base(frame_type: str, agent: str) -> Frame:
    return {"v": PROTOCOL_VERSION, "type": frame_type, "agent": agent}


def _request(frame_type: str, agent: str, idem: str,
             budget_ms: Optional[float]) -> Frame:
    frame = _base(frame_type, agent)
    frame["idem"] = idem
    if budget_ms is not None:
        frame["budget_ms"] = float(budget_ms)
    return frame


# ----------------------------------------------------------------------
# agent -> gateway frames
# ----------------------------------------------------------------------


def make_hello(agent: str) -> Frame:
    """Session open: announces the agent name."""
    return _base("hello", agent)


def make_bye(agent: str) -> Frame:
    """Graceful session close (leases keep running until they expire
    or the agent reconnects and tears its flows down)."""
    return _base("bye", agent)


def make_admit(
    agent: str,
    idem: str,
    flow_id: str,
    spec: TSpec,
    delay_requirement: float,
    ingress: str,
    egress: str,
    *,
    service_class: str = "",
    path_nodes: Optional[Sequence[str]] = None,
    now: float = 0.0,
    budget_ms: Optional[float] = None,
) -> Frame:
    """A new-flow service request (the paper's ingress->BB signal)."""
    frame = _request("admit", agent, idem, budget_ms)
    frame.update({
        "flow_id": flow_id,
        "spec": encode_spec(spec),
        "delay_requirement": float(delay_requirement),
        "ingress": ingress,
        "egress": egress,
        "service_class": service_class,
        "path_nodes": list(path_nodes) if path_nodes is not None else None,
        "now": float(now),
    })
    return frame


def make_teardown(agent: str, idem: str, flow_id: str, *,
                  now: float = 0.0,
                  budget_ms: Optional[float] = None) -> Frame:
    """Tear down an admitted flow (releases its lease on success)."""
    frame = _request("teardown", agent, idem, budget_ms)
    frame.update({"flow_id": flow_id, "now": float(now)})
    return frame


def make_refresh(agent: str, idem: str, flow_ids: Iterable[str], *,
                 now: float = 0.0,
                 budget_ms: Optional[float] = None) -> Frame:
    """Heartbeat: extend the soft-state leases of the named flows.

    The reply partitions the ids into ``refreshed`` and ``unknown`` —
    an id turning up unknown means the gateway reaped it (the lease
    expired, e.g. after a partition) and the agent must drop it from
    its flow table.
    """
    frame = _request("refresh", agent, idem, budget_ms)
    frame.update({"flow_ids": list(flow_ids), "now": float(now)})
    return frame


def make_feedback(agent: str, idem: str, macroflow_key: str, *,
                  now: float = 0.0,
                  budget_ms: Optional[float] = None) -> Frame:
    """Section 4.2.1 edge feedback: the macroflow's edge conditioner
    reports its buffer drained, releasing contingency bandwidth at
    the broker ahead of the eq.-(17) expiry."""
    frame = _request("feedback", agent, idem, budget_ms)
    frame.update({"macroflow_key": macroflow_key, "now": float(now)})
    return frame


def encode_sample(
    scope: str,
    key: str,
    offered_rate: float,
    backlog: float,
    idle: float,
    flows: int,
) -> Dict[str, Any]:
    """One utilization sample of a flow or macroflow conditioner.

    ``scope`` is ``"flow"`` (key is a flow id) or ``"macro"`` (key is
    a macroflow key); ``offered_rate`` is the measured arrival rate in
    b/s, ``backlog`` the conditioner backlog in bits, ``idle`` the
    seconds since the scope last saw traffic or a refresh, ``flows``
    how many of the agent's flows the sample aggregates.
    """
    return {
        "scope": scope,
        "key": key,
        "offered_rate": float(offered_rate),
        "backlog": float(backlog),
        "idle": float(idle),
        "flows": int(flows),
    }


def make_report(agent: str, idem: str,
                samples: Sequence[Dict[str, Any]], *,
                now: float = 0.0,
                budget_ms: Optional[float] = None) -> Frame:
    """Telemetry report: utilization samples for the closed loop.

    Each entry of *samples* is an :func:`encode_sample` dict.  Reports
    feed the broker-side :class:`~repro.telemetry.TelemetryStore`
    (time series + trend estimates) that the adaptive re-dimensioning
    controller acts on; they never mutate reservation state, so a
    duplicated report is harmless — the idempotency key still dedups
    it to keep the exactly-once accounting uniform.
    """
    frame = _request("report", agent, idem, budget_ms)
    frame.update({"samples": list(samples), "now": float(now)})
    return frame


def make_dry_run(
    agent: str,
    idem: str,
    flow_id: str,
    spec: TSpec,
    delay_requirement: float,
    ingress: str,
    egress: str,
    *,
    path_nodes: Optional[Sequence[str]] = None,
    budget_ms: Optional[float] = None,
) -> Frame:
    """A read-only admissibility probe (no reservation, no lease)."""
    frame = _request("dry-run", agent, idem, budget_ms)
    frame.update({
        "flow_id": flow_id,
        "spec": encode_spec(spec),
        "delay_requirement": float(delay_requirement),
        "ingress": ingress,
        "egress": egress,
        "path_nodes": list(path_nodes) if path_nodes is not None else None,
    })
    return frame


# ----------------------------------------------------------------------
# gateway -> agent frames
# ----------------------------------------------------------------------


def make_welcome(gateway: str, *, lease_duration: float,
                 resumed: bool) -> Frame:
    """The gateway's answer to ``hello``.

    ``lease_duration`` tells the agent how often it must refresh
    (heartbeat well under half of it); ``resumed`` says whether the
    gateway still holds state for this agent name (a reconnect).
    """
    return {
        "v": PROTOCOL_VERSION,
        "type": "welcome",
        "gateway": gateway,
        "lease_duration": float(lease_duration),
        "resumed": bool(resumed),
    }


def make_reply(
    re: str,
    idem: str,
    status: str,
    *,
    detail: str = "",
    reason: str = "",
    retry_after: float = 0.0,
    decision: Optional[Dict[str, Any]] = None,
    lease: Optional[Dict[str, Any]] = None,
    refreshed: Optional[List[str]] = None,
    unknown: Optional[List[str]] = None,
) -> Frame:
    """One reply frame (``re`` names the request type it answers)."""
    frame: Frame = {
        "v": PROTOCOL_VERSION,
        "type": "reply",
        "re": re,
        "idem": idem,
        "status": status,
    }
    if detail:
        frame["detail"] = detail
    if reason:
        frame["reason"] = reason
    if retry_after > 0:
        frame["retry_after"] = retry_after
    if decision is not None:
        frame["decision"] = decision
    if lease is not None:
        frame["lease"] = lease
    if refreshed is not None:
        frame["refreshed"] = refreshed
    if unknown is not None:
        frame["unknown"] = unknown
    return frame


# ----------------------------------------------------------------------
# validation (gateway side)
# ----------------------------------------------------------------------

#: Per-type required fields beyond the envelope.
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "hello": (),
    "bye": (),
    "admit": ("flow_id", "spec", "delay_requirement", "ingress",
              "egress", "now"),
    "teardown": ("flow_id", "now"),
    "refresh": ("flow_ids", "now"),
    "feedback": ("macroflow_key", "now"),
    "report": ("samples", "now"),
    "dry-run": ("flow_id", "spec", "delay_requirement", "ingress",
                "egress"),
}


def validate_request(frame: Frame) -> str:
    """Check *frame* against the protocol; returns its type.

    Raises :class:`ProtocolError` naming the first violation — the
    gateway turns that into an ``error`` reply rather than dropping
    the frame, so a buggy agent learns what it sent.
    """
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a dict, got {type(frame)}")
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"bad-version: speaking v{PROTOCOL_VERSION}, frame says "
            f"{version!r}"
        )
    frame_type = frame.get("type")
    if frame_type not in REQUEST_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type!r}")
    agent = frame.get("agent")
    if not isinstance(agent, str) or not agent:
        raise ProtocolError(f"{frame_type}: missing agent name")
    if frame_type in _IDEMPOTENT_TYPES:
        idem = frame.get("idem")
        if not isinstance(idem, str) or not idem:
            raise ProtocolError(f"{frame_type}: missing idempotency key")
    for field in _REQUIRED[frame_type]:
        if field not in frame:
            raise ProtocolError(f"{frame_type}: missing field {field!r}")
    return frame_type
