"""Ingress <-> broker signaling (the COPS role in Figure 1).

Only **edge** routers ever talk to the broker — core routers carry no
QoS control-plane function at all. The exchange is:

1. a new flow reaches an ingress router, which sends a
   :class:`FlowServiceRequest` to the broker;
2. the broker answers with a :class:`ReservationReply` carrying the
   admission decision and, on success, the rate-delay pair the ingress
   must program into the flow's edge conditioner;
3. for class-based services the broker later pushes
   :class:`EdgeReconfigure` messages when a macroflow's reserved rate
   changes (microflow join/leave, contingency expiry);
4. under the *feedback* contingency method the ingress reports
   :class:`EdgeBufferEmpty` when a macroflow's conditioner drains.

Messages are plain dataclasses delivered through a :class:`MessageBus`
that counts traffic per message type — the control-plane load metric
used when comparing against RSVP's hop-by-hop signaling (which must
touch every router on the path, see :mod:`repro.intserv.rsvp`).
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import SignalingError
from repro.traffic.spec import TSpec

__all__ = [
    "Message",
    "FlowServiceRequest",
    "ReservationReply",
    "FlowTeardown",
    "EdgeReconfigure",
    "EdgeBufferEmpty",
    "MessageBus",
]

_message_ids = itertools.count(1)


@dataclass(frozen=True)
class Message:
    """Base class for signaling messages."""

    sender: str
    receiver: str


@dataclass(frozen=True)
class FlowServiceRequest(Message):
    """Ingress -> broker: a new flow asks for guaranteed service.

    ``now`` is the domain clock at which the flow arrived at the
    ingress; the broker bookkeeps the admission (``admitted_at``,
    contingency periods) at this time rather than at a default of 0.
    """

    flow_id: str = ""
    spec: Optional[TSpec] = None
    delay_requirement: float = 0.0
    egress: str = ""
    service_class: str = ""  # empty = per-flow service
    now: float = 0.0


@dataclass(frozen=True)
class ReservationReply(Message):
    """Broker -> ingress: the admission decision.

    On success the ingress programs an edge conditioner with
    ``(rate, delay)`` for ``flow_id`` (or adds the flow to the
    macroflow conditioner identified by ``macroflow_key``).
    """

    flow_id: str = ""
    admitted: bool = False
    rate: float = 0.0
    delay: float = 0.0
    path_nodes: tuple = ()
    macroflow_key: str = ""
    detail: str = ""


@dataclass(frozen=True)
class FlowTeardown(Message):
    """Ingress -> broker: a flow terminated; release its reservation.

    ``now`` is the domain clock of the teardown — it drives the
    deferred rate decrease of Theorem 3 for class-based flows.
    """

    flow_id: str = ""
    now: float = 0.0


@dataclass(frozen=True)
class EdgeReconfigure(Message):
    """Broker -> ingress: reprogram a conditioner's reserved rate."""

    conditioner_key: str = ""
    rate: float = 0.0
    delay: float = 0.0


@dataclass(frozen=True)
class EdgeBufferEmpty(Message):
    """Ingress -> broker: a macroflow's edge buffer drained (feedback)."""

    conditioner_key: str = ""
    at_time: float = 0.0


class MessageBus:
    """In-process message delivery with per-type accounting.

    Handlers subscribe per receiver name; :meth:`send` delivers
    synchronously (the experiments model message *counts*, not
    latencies — transport latency can be added by the caller when
    studying admission set-up delay).

    Locking contract: registration, the per-type ``sent`` counters and
    the optional log are guarded by an internal lock, so the bus may
    be driven from any number of threads (the concurrent broker
    service sends edge pushes from its workers while experiments read
    the counters).  Handlers themselves are invoked **outside** the
    lock — a handler may therefore re-enter :meth:`send` — and must
    provide their own synchronization if they touch shared state.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable[[Message], Optional[Message]]] = {}
        self._lock = threading.Lock()
        self.sent: Counter = Counter()
        self.log: List[Message] = []
        self.keep_log = False

    def register(self, name: str,
                 handler: Callable[[Message], Optional[Message]]) -> None:
        """Register *handler* as the endpoint called *name*."""
        with self._lock:
            if name in self._handlers:
                raise SignalingError(f"endpoint {name!r} already registered")
            self._handlers[name] = handler

    def send(self, message: Message) -> Optional[Message]:
        """Deliver *message*; returns the receiver's (optional) reply."""
        with self._lock:
            handler = self._handlers.get(message.receiver)
            if handler is None:
                raise SignalingError(
                    f"no endpoint {message.receiver!r} on the bus"
                )
            self.sent[type(message).__name__] += 1
            if self.keep_log:
                self.log.append(message)
        return handler(message)

    @property
    def total_messages(self) -> int:
        """Total messages delivered since construction."""
        with self._lock:
            return sum(self.sent.values())
