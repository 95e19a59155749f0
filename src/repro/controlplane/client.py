"""Minimal keep-alive HTTP client for the control plane.

``http.client`` over one persistent connection per client instance
(reconnect on socket death), with the flow verbs as methods.  This
is what the soak harness drives at six-figure request counts, so it
avoids per-request connections and never imports anything outside
the stdlib.
"""

from __future__ import annotations

import json
import socket
from http.client import (
    BadStatusLine,
    CannotSendRequest,
    HTTPConnection,
    ResponseNotReady,
)
from typing import Any, Dict, NamedTuple, Optional, Sequence

__all__ = ["ControlPlaneClient", "RestReply"]


class RestReply(NamedTuple):
    """One HTTP exchange: status code, headers, decoded JSON body
    (or raw text for non-JSON responses)."""

    status: int
    headers: Dict[str, str]
    body: Any

    @property
    def retry_after(self) -> float:
        try:
            return float(self.headers.get("retry-after", 0.0))
        except (TypeError, ValueError):
            return 0.0


class ControlPlaneClient:
    """Blocking JSON client over one reusable connection."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None
        self.requests = 0
        self.reconnects = 0

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _drop(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:
                pass
            self._conn = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ControlPlaneClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> RestReply:
        """One exchange; retries **once** on a dead keep-alive socket
        (the server may close an idle persistent connection between
        our requests — the retry is on a fresh connection before
        anything was delivered, not an application-level replay).

        A server that took the request and did not answer within
        ``timeout`` may still act on it, so a timeout is raised
        (``socket.timeout``), never resent.
        """
        payload = None
        send_headers = dict(headers or {})
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        self.requests += 1
        for attempt in range(2):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload,
                             headers=send_headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except socket.timeout:
                self._drop()  # a late reply would answer the next call
                raise
            except (BrokenPipeError, ConnectionError, BadStatusLine,
                    CannotSendRequest, ResponseNotReady, OSError):
                self._drop()
                if attempt:
                    raise
                self.reconnects += 1
        headers_out = {
            key.lower(): value for key, value in response.getheaders()
        }
        content_type = headers_out.get("content-type", "")
        decoded: Any = raw.decode("utf-8", "replace")
        if "application/json" in content_type and raw:
            try:
                decoded = json.loads(raw)
            except json.JSONDecodeError:
                pass
        return RestReply(response.status, headers_out, decoded)

    # -- the flow verbs ------------------------------------------------

    def admit(
        self,
        flow_id: str,
        spec: Dict[str, float],
        delay_requirement: float,
        ingress: str,
        egress: str,
        *,
        path_nodes: Optional[Sequence[str]] = None,
        service_class: str = "",
        now: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> RestReply:
        body: Dict[str, Any] = {
            "flow_id": flow_id,
            "spec": spec,
            "delay_requirement": delay_requirement,
            "ingress": ingress,
            "egress": egress,
            "service_class": service_class,
        }
        if path_nodes is not None:
            body["path_nodes"] = list(path_nodes)
        if now is not None:
            body["now"] = now
        return self.request(
            "POST", "/v1/flows", body=body,
            headers=self._op_headers(idempotency_key, timeout),
        )

    def teardown(
        self,
        flow_id: str,
        *,
        now: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> RestReply:
        body = {} if now is None else {"now": now}
        return self.request(
            "DELETE", f"/v1/flows/{flow_id}", body=body,
            headers=self._op_headers(idempotency_key, timeout),
        )

    def refresh(
        self,
        flow_id: str,
        *,
        now: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> RestReply:
        body = {} if now is None else {"now": now}
        return self.request(
            "POST", f"/v1/flows/{flow_id}/refresh", body=body,
            headers=self._op_headers(idempotency_key, timeout),
        )

    def get_flow(self, flow_id: str) -> RestReply:
        return self.request("GET", f"/v1/flows/{flow_id}")

    def list_flows(self) -> RestReply:
        return self.request("GET", "/v1/flows")

    def mib(self) -> RestReply:
        return self.request("GET", "/v1/mib")

    def healthz(self) -> RestReply:
        return self.request("GET", "/healthz")

    def metrics(self) -> RestReply:
        return self.request("GET", "/metrics")

    @staticmethod
    def _op_headers(idempotency_key: Optional[str],
                    timeout: Optional[float]) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if idempotency_key is not None:
            headers["Idempotency-Key"] = idempotency_key
        if timeout is not None:
            headers["X-Request-Timeout"] = f"{timeout:g}"
        return headers
