"""North-facing REST control plane over the edge signaling tier.

The paper keeps QoS logic in the bandwidth broker and state at the
edge; this package adds the one missing production surface — a thin
HTTP/JSON API — without moving an ounce of either.  The app in
:mod:`repro.controlplane.app` fronts a pool of
:class:`~repro.edge.agent.EdgeAgent` connections to the gateway, so
REST clients inherit the exactly-once machinery for free: a client's
``Idempotency-Key`` header becomes the agent-level idempotency key,
replays dedup at the gateway, backpressure surfaces as ``429`` +
``Retry-After``, and deadline headers become the agent's op budget.

:mod:`repro.controlplane.server` serves the app over persistent
HTTP/1.1 connections (a handler on the one TCP server,
:class:`~repro.service.transport.TcpListener`, one thread per
connection), calling it once per request with one
:class:`~repro.controlplane.app.Request`;
:mod:`repro.controlplane.client` is the matching minimal HTTP client
the soak harness drives.
"""

from repro.controlplane.app import ControlPlaneApp
from repro.controlplane.client import ControlPlaneClient, RestReply
from repro.controlplane.server import ControlPlaneServer

__all__ = [
    "ControlPlaneApp",
    "ControlPlaneClient",
    "ControlPlaneServer",
    "RestReply",
]
