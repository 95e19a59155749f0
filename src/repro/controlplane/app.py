"""The REST application: HTTP verbs mapped onto edge signaling.

The app is a plain callable, ``app(request) -> (status, headers,
body)``: the server hands it one parsed :class:`Request` and writes
what it returns.  Framing, ``Content-Length``, ``HEAD``, the body
bound and the ``500`` fence are the server's; the app only maps URLs
to agent calls and outcomes to status codes.

Routes (all JSON in, JSON out):

========  ==========================  =====================================
Method    Path                        Meaning
========  ==========================  =====================================
POST      /v1/flows                   admit a flow (201 / 409 / 429 / 502)
DELETE    /v1/flows/<id>              tear a flow down (200 / 404 / 429)
POST      /v1/flows/<id>/refresh      refresh its lease (200 / 404)
GET       /v1/flows/<id>              the control plane's flow record
GET       /v1/flows                   flow ids currently registered
GET       /v1/mib                     domain MIB view (observer hook)
GET       /healthz                    liveness + pool size
GET       /metrics                    Prometheus text exposition
========  ==========================  =====================================

Protocol mapping, in one place:

* ``Idempotency-Key`` header -> the agent-level idempotency key
  (prefixed ``rest:``), so a replayed request dedups at the gateway
  and returns the **same** response body.
* gateway ``try-again`` -> ``429 Too Many Requests`` with a
  ``Retry-After`` header carrying the gateway's hint — the remote
  client owns the retry, not this tier.
* ``X-Request-Timeout`` header (seconds) -> the agent's op budget;
  an exhausted budget is ``504 Gateway Timeout``.
* a teardown/refresh for a flow the broker does not hold -> ``404``.
* malformed JSON (or a bad TSpec) -> ``400``, before anything
  touches the gateway.

Requests are routed to the agent pool by ``crc32(flow_id)`` — stable
across replays (Python's ``hash`` is salted per process; never use
it for routing) so a retried request lands on the agent whose name
keys the gateway's dedup window.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

from repro.edge import protocol
from repro.edge.agent import AgentTimeout, EdgeAgent
from repro.errors import SignalingError
from repro.service.stats import prometheus_exposition
from repro.service.transport import TransportClosed

__all__ = ["ControlPlaneApp", "BadRequest", "MAX_BODY", "Request"]

#: Largest request body, bytes; the server answers a longer
#: ``Content-Length`` with 413 before reading it.
MAX_BODY = 1 << 20  # nobody admits a 1MB flow spec

Headers = List[Tuple[str, str]]
#: What a route returns: status, extra headers, JSON-able payload (or
#: bytes served as text).
_Answer = Tuple[int, Headers, Any]


class Request(NamedTuple):
    """One HTTP request as the app sees it."""

    method: str
    #: Percent-decoded path, query string dropped.
    path: str
    #: Lower-cased name -> value; repeats joined with ``", "``.
    headers: Dict[str, str]
    #: The whole body (``b""`` when there is none).
    body: bytes


class BadRequest(Exception):
    """Client-side malformation; always answered 400, never raised
    past the app."""


class ControlPlaneApp:
    """REST app over a pool of :class:`~repro.edge.agent.EdgeAgent`.

    A request whose body carries no explicit ``now`` runs at the
    routed agent's domain clock; one without ``X-Request-Timeout``
    runs on the agent's own op budget.

    :param agents: the pool; each agent is one serialized connection
        to the gateway, so pool size bounds REST concurrency.
    :param mib_view: zero-arg callable returning a JSON-compatible
        domain MIB snapshot for ``GET /v1/mib``.
    :param stats_source: zero-arg callable returning a ServiceStats
        (or its ``as_dict`` shape) folded into ``GET /metrics``.
    """

    def __init__(
        self,
        agents: Iterable[EdgeAgent],
        *,
        mib_view: Optional[Callable[[], Dict[str, Any]]] = None,
        stats_source: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.agents: List[EdgeAgent] = list(agents)
        if not self.agents:
            raise ValueError("the agent pool must not be empty")
        self.mib_view = mib_view
        self.stats_source = stats_source
        self._lock = threading.Lock()
        #: flow id -> this tier's record of the admitted flow.
        self.registry: Dict[str, Dict[str, Any]] = {}
        # Request counters, exposed under repro_controlplane_*.
        self.requests = 0
        self.admitted = 0
        self.rejected = 0
        self.torn_down = 0
        self.refreshed = 0
        self.backpressured = 0
        self.timeouts = 0
        self.client_errors = 0
        self.server_errors = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def __call__(self, request: Request) -> Tuple[int, Headers, bytes]:
        self.requests += 1
        try:
            status, headers, payload = self._route(request)
        except BadRequest as exc:
            self.client_errors += 1
            status, headers, payload = 400, [], {"error": str(exc)}
        except AgentTimeout as exc:
            self.timeouts += 1
            status, headers, payload = 504, [], {"error": str(exc)}
        except (SignalingError, TransportClosed) as exc:
            self.server_errors += 1
            status, headers, payload = 502, [], {"error": str(exc)}
        except Exception:
            self.server_errors += 1
            raise  # the server's 500 fence answers it
        if isinstance(payload, bytes):  # the Prometheus exposition
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            content_type = "application/json"
            payload = json.dumps(payload).encode("utf-8")
        return status, headers + [("Content-Type", content_type)], payload

    def _route(self, request: Request) -> _Answer:
        method, path = request.method, request.path
        parts = [part for part in path.split("/") if part]
        if path in ("/healthz", "/metrics") or parts == ["v1", "mib"]:
            if method not in ("GET", "HEAD"):
                return 405, [("Allow", "GET")], {
                    "error": f"{method} not allowed"}
            if path == "/healthz":
                return self._get_health()
            if path == "/metrics":
                return self._get_metrics()
            return self._get_mib()
        if parts[:2] == ["v1", "flows"]:
            if len(parts) == 2:
                if method == "POST":
                    return self._post_flow(request)
                if method in ("GET", "HEAD"):
                    return self._list_flows()
                return 405, [("Allow", "GET, POST")], {
                    "error": f"{method} not allowed"}
            if len(parts) == 3:
                flow_id = parts[2]
                if method == "DELETE":
                    return self._delete_flow(flow_id, request)
                if method in ("GET", "HEAD"):
                    return self._get_flow(flow_id)
                return 405, [("Allow", "GET, DELETE")], {
                    "error": f"{method} not allowed"}
            if len(parts) == 4 and parts[3] == "refresh":
                if method == "POST":
                    return self._post_refresh(parts[2], request)
                return 405, [("Allow", "POST")], {
                    "error": f"{method} not allowed"}
        return 404, [], {"error": f"no route for {path!r}"}

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _read_body(request: Request) -> Dict[str, Any]:
        if not request.body:
            return {}
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"malformed JSON body: {exc}")
        if not isinstance(body, dict):
            raise BadRequest("JSON body must be an object")
        return body

    @staticmethod
    def _budget_of(request: Request) -> Optional[float]:
        raw = request.headers.get("x-request-timeout")
        if raw is None:
            return None
        try:
            budget = float(raw)
        except (TypeError, ValueError):
            raise BadRequest(
                f"X-Request-Timeout must be seconds, got {raw!r}")
        if budget <= 0:
            raise BadRequest("X-Request-Timeout must be positive")
        return budget

    @staticmethod
    def _idem_of(request: Request) -> Optional[str]:
        key = request.headers.get("idempotency-key")
        if key is None:
            return None
        key = key.strip()
        if not key or len(key) > 256:
            raise BadRequest("Idempotency-Key must be 1..256 characters")
        # Prefix keeps client-chosen keys out of the agents' own
        # "name#N" keyspace at the gateway's dedup window.
        return f"rest:{key}"

    def _agent_for(self, flow_id: str) -> EdgeAgent:
        """Stable flow -> agent routing (crc32, NOT the salted
        ``hash``): replays must land on the same agent name or the
        gateway dedup window never sees them."""
        index = zlib.crc32(flow_id.encode("utf-8")) % len(self.agents)
        return self.agents[index]

    @staticmethod
    def _now_of(body: Dict[str, Any], agent: EdgeAgent) -> float:
        if "now" in body:
            try:
                return float(body["now"])
            except (TypeError, ValueError):
                raise BadRequest(f"now must be a number, got "
                                 f"{body['now']!r}")
        return agent.domain_now

    # ------------------------------------------------------------------
    # the flow verbs
    # ------------------------------------------------------------------

    def _post_flow(self, request: Request) -> _Answer:
        body = self._read_body(request)
        try:
            flow_id = str(body["flow_id"])
            spec = protocol.decode_spec(body["spec"])
            delay_requirement = float(body["delay_requirement"])
            ingress = str(body["ingress"])
            egress = str(body["egress"])
        except KeyError as exc:
            raise BadRequest(f"missing field {exc.args[0]!r}")
        except (TypeError, ValueError, protocol.ProtocolError) as exc:
            raise BadRequest(str(exc))
        if not flow_id:
            raise BadRequest("flow_id must be non-empty")
        path_nodes = body.get("path_nodes")
        if path_nodes is not None and not (
            isinstance(path_nodes, list)
            and all(isinstance(node, str) for node in path_nodes)
        ):
            raise BadRequest("path_nodes must be a list of node names")
        agent = self._agent_for(flow_id)
        now = self._now_of(body, agent)
        reply = agent.admit(
            flow_id, spec, delay_requirement, ingress, egress,
            service_class=str(body.get("service_class", "")),
            path_nodes=tuple(path_nodes) if path_nodes else None,
            now=now, budget=self._budget_of(request),
            idem=self._idem_of(request), surface_try_again=True,
        )
        return self._admit_response(flow_id, body, now, reply)

    def _admit_response(self, flow_id: str, body: Dict[str, Any],
                        now: float, reply: protocol.Frame) -> _Answer:
        if reply.get("status") == protocol.STATUS_TRY_AGAIN:
            return self._backpressure(reply)
        decision = reply.get("decision") or {}
        payload = {
            "flow_id": flow_id,
            "decision": decision,
            "lease": reply.get("lease"),
        }
        if reply.get("status") != protocol.STATUS_OK:
            self.server_errors += 1
            payload["error"] = reply.get("detail", "service error")
            return 502, [], payload
        admitted = bool(decision.get("admitted"))
        # A refusal carrying a lease: the gateway re-adopted an orphaned
        # lease for us.  The flow exists and is ours again — record it
        # so refresh and teardown route normally.
        if admitted or reply.get("lease"):
            record = {
                "flow_id": flow_id,
                "agent": self._agent_for(flow_id).name,
                "spec": dict(body.get("spec") or {}),
                "delay_requirement": body.get("delay_requirement"),
                "path_nodes": body.get("path_nodes"),
                "admitted_at": now,
                "decision": decision,
                "lease": reply.get("lease"),
            }
            with self._lock:
                if admitted:
                    self.registry[flow_id] = record
                else:
                    self.registry.setdefault(flow_id, record)
        if admitted:
            self.admitted += 1
            return 201, [("Location", f"/v1/flows/{flow_id}")], payload
        self.rejected += 1
        return 409, [], payload

    def _delete_flow(self, flow_id: str, request: Request) -> _Answer:
        body = self._read_body(request)
        agent = self._agent_for(flow_id)
        now = self._now_of(body, agent)
        reply = agent.teardown(
            flow_id, now=now, budget=self._budget_of(request),
            idem=self._idem_of(request), surface_try_again=True,
        )
        if reply.get("status") == protocol.STATUS_TRY_AGAIN:
            return self._backpressure(reply)
        payload = {"flow_id": flow_id, "detail": reply.get("detail", "")}
        if reply.get("status") == protocol.STATUS_OK:
            self.torn_down += 1
            with self._lock:
                self.registry.pop(flow_id, None)
            return 200, [], payload
        detail = str(reply.get("detail", ""))
        if "not admitted" in detail or "is not registered" in detail:
            # The broker never held (or already released) this flow.
            # "is not registered" is the cluster coordinator's
            # spelling: the registry entry is gone — the release
            # either completed earlier or is parked as unresolved and
            # will be re-driven by the coordinator itself.
            with self._lock:
                self.registry.pop(flow_id, None)
            return 404, [], payload
        self.server_errors += 1
        return 502, [], payload

    def _post_refresh(self, flow_id: str, request: Request) -> _Answer:
        body = self._read_body(request)
        agent = self._agent_for(flow_id)
        now = self._now_of(body, agent)
        refreshed, unknown = agent.refresh(
            now=now, budget=self._budget_of(request),
            flow_ids=[flow_id], idem=self._idem_of(request),
        )
        payload = {
            "flow_id": flow_id,
            "refreshed": refreshed,
            "unknown": unknown,
        }
        if flow_id in refreshed:
            self.refreshed += 1
            with self._lock:
                record = self.registry.get(flow_id)
                if record is not None:
                    lease = dict(record.get("lease") or {})
                    lease["expires_at"] = now + agent.lease_duration
                    record["lease"] = lease
            return 200, [], payload
        with self._lock:
            self.registry.pop(flow_id, None)
        return 404, [], payload

    def _backpressure(self, reply: protocol.Frame) -> _Answer:
        self.backpressured += 1
        retry_after = float(reply.get("retry_after", 0.0) or 0.0)
        return 429, [("Retry-After", f"{retry_after:g}")], {
            "error": "backpressure",
            "detail": reply.get("detail", ""),
            "retry_after": retry_after,
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _list_flows(self) -> _Answer:
        with self._lock:
            flow_ids = sorted(self.registry)
        return 200, [], {"flows": flow_ids, "count": len(flow_ids)}

    def _get_flow(self, flow_id: str) -> _Answer:
        with self._lock:
            record = self.registry.get(flow_id)
        if record is None:
            return 404, [], {"error": f"unknown flow {flow_id!r}"}
        return 200, [], record

    def _get_mib(self) -> _Answer:
        if self.mib_view is None:
            return 404, [], {"error": "no MIB observer configured"}
        return 200, [], self.mib_view()

    def _get_health(self) -> _Answer:
        with self._lock:
            flows = len(self.registry)
        return 200, [], {
            "status": "ok",
            "agents": len(self.agents),
            "flows": flows,
        }

    def _get_metrics(self) -> _Answer:
        lines: List[str] = []
        for name, value in sorted(self.counters().items()):
            metric = f"repro_controlplane_{name}"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        text = "\n".join(lines) + "\n"
        if self.stats_source is not None:
            text += prometheus_exposition(self.stats_source())
        return 200, [], text.encode("utf-8")

    def counters(self) -> Dict[str, int]:
        with self._lock:
            flows = len(self.registry)
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "torn_down": self.torn_down,
            "refreshed": self.refreshed,
            "backpressured": self.backpressured,
            "timeouts": self.timeouts,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "registered_flows": flows,
        }
