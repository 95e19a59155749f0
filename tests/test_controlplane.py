"""REST control plane over a real TCP stack: the error-mapping and
HTTP/1.1 pins.

Every test drives :class:`repro.controlplane.app.ControlPlaneApp`
through a real :class:`~repro.controlplane.server.ControlPlaneServer`
socket (persistent HTTP/1.1 connections), with the agent pool talking
real TCP to an :class:`~repro.edge.gateway.EdgeGateway` in front of a
live :class:`~repro.service.runtime.BrokerService` — the same path a
remote client takes.  Pinned mappings:

* malformed JSON (and a non-object body) -> ``400``, never ``500``;
* teardown/refresh/GET of a flow nobody admitted -> ``404``;
* gateway backpressure -> ``429`` with a ``Retry-After`` header;
* a replayed ``Idempotency-Key`` -> byte-identical response body
  (the gateway dedup window answers, the broker never re-executes).

Pinned HTTP behaviour: one connection carries request after request,
pipelined ones answered in order; framing the server cannot trust
the stream past is answered, then closed; ``close()`` ends live
connections; the client retries once on a connection the server
dropped, and raises a timeout without resending the request.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.controlplane import (
    ControlPlaneApp,
    ControlPlaneClient,
    ControlPlaneServer,
)
from repro.controlplane.app import MAX_BODY
from repro.core.broker import BandwidthBroker
from repro.edge import EdgeGateway, protocol
from repro.edge.agent import EdgeAgent, tcp_connector
from repro.service import BrokerService
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain

pytestmark = pytest.mark.network

SPEC = flow_type(0).spec
SPEC_JSON = protocol.encode_spec(SPEC)
D_REQ = 2.44


def make_broker() -> BandwidthBroker:
    broker = BandwidthBroker()
    fig8_domain(SchedulerSetting.RATE_ONLY).provision_broker(broker)
    return broker


class _Stack:
    """service + gateway (TCP) + agent pool + REST server + client."""

    def __init__(self, *, agents: int = 2, workers: int = 2,
                 queue_limit: int = 256, edge_rtt: float = 0.0) -> None:
        self.broker = make_broker()
        self.service = BrokerService(
            self.broker, workers=workers, shards=4,
            queue_limit=queue_limit, edge_rtt=edge_rtt,
        ).start()
        self.gateway = EdgeGateway(self.service, lease_duration=60.0)
        host, port = self.gateway.listen()
        self.gateway.start()
        self.agents = [
            EdgeAgent(f"rest-{index}", tcp_connector(host, port))
            for index in range(agents)
        ]
        self.app = ControlPlaneApp(
            self.agents,
            mib_view=lambda: {"flows": len(self.app.registry)},
            stats_source=self.service.stats,
        )
        self.server = ControlPlaneServer(self.app).start()
        self.client = ControlPlaneClient(
            self.server.host, self.server.port)

    def close(self) -> None:
        self.client.close()
        self.server.close()
        for agent in self.agents:
            agent.close()
        self.gateway.stop()
        self.service.stop()

    def __enter__(self) -> "_Stack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@pytest.fixture
def stack():
    with _Stack() as built:
        yield built


def admit(client, flow_id, **kwargs):
    return client.admit(flow_id, SPEC_JSON, D_REQ, "I1", "E1",
                        now=10.0, **kwargs)


HEALTH = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


@contextlib.contextmanager
def raw_connection(server):
    """A bare socket to the server and a buffered reader over it."""
    sock = socket.create_connection(
        (server.host, server.port), timeout=10.0)
    rfile = sock.makefile("rb")
    try:
        yield sock, rfile
    finally:
        rfile.close()
        sock.close()


def read_reply(rfile, *, head: bool = False):
    """``(status line, lower-cased headers, body)`` of one reply."""
    status = rfile.readline().decode("latin-1").rstrip("\r\n")
    headers = {}
    while True:
        line = rfile.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = b"" if head else rfile.read(int(headers["content-length"]))
    return status, headers, body


class TestHappyPath:
    def test_admit_get_teardown_roundtrip(self, stack):
        reply = admit(stack.client, "f1")
        assert reply.status == 201
        assert reply.headers["location"] == "/v1/flows/f1"
        assert reply.body["decision"]["admitted"] is True
        assert reply.body["lease"]

        record = stack.client.get_flow("f1")
        assert record.status == 200
        assert record.body["flow_id"] == "f1"

        listing = stack.client.list_flows()
        assert "f1" in listing.body["flows"]

        gone = stack.client.teardown("f1", now=20.0)
        assert gone.status == 200
        assert stack.client.get_flow("f1").status == 404

    def test_health_mib_metrics(self, stack):
        health = stack.client.healthz()
        assert health.status == 200
        assert health.body["status"] == "ok"
        assert stack.client.mib().status == 200
        metrics = stack.client.metrics()
        assert metrics.status == 200
        assert "repro_controlplane_requests" in metrics.body
        assert "repro_service_" in metrics.body

    def test_duplicate_admit_is_conflict(self, stack):
        assert admit(stack.client, "f1").status == 201
        # No Idempotency-Key: a second admit of a live flow is a
        # genuine conflict, not a replay.
        dup = admit(stack.client, "f1")
        assert dup.status == 409


class TestIdempotency:
    def test_replayed_key_returns_same_body(self, stack):
        first = admit(stack.client, "f1", idempotency_key="req-1")
        assert first.status == 201
        replay = admit(stack.client, "f1", idempotency_key="req-1")
        # A re-execution would be a 409 conflict (the flow is live);
        # an identical 201 body proves the gateway's dedup window
        # answered the replay without touching the broker again.
        assert replay.status == first.status
        assert replay.body == first.body
        assert stack.broker.flow_mib.get("f1") is not None

    def test_replay_from_second_connection(self, stack):
        first = admit(stack.client, "f1", idempotency_key="req-9")
        assert first.status == 201
        with ControlPlaneClient(stack.server.host,
                                stack.server.port) as other:
            replay = admit(other, "f1", idempotency_key="req-9")
        assert replay.status == 201
        assert replay.body == first.body


class TestErrorMapping:
    def _raw(self, stack, body: bytes,
             content_type: str = "application/json"):
        conn = HTTPConnection(stack.server.host, stack.server.port,
                              timeout=10.0)
        try:
            conn.request("POST", "/v1/flows", body=body,
                         headers={"Content-Type": content_type})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_malformed_json_is_400_not_500(self, stack):
        status, body = self._raw(stack, b"{not json at all")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_non_object_body_is_400(self, stack):
        status, body = self._raw(stack, b"[1, 2, 3]")
        assert status == 400
        assert "object" in body["error"]

    def test_missing_field_is_400(self, stack):
        status, body = self._raw(stack, json.dumps(
            {"flow_id": "f1"}).encode())
        assert status == 400
        assert "missing field" in body["error"]

    def test_bad_spec_is_400(self, stack):
        bad = {"flow_id": "f1", "spec": {"sigma": "wat"},
               "delay_requirement": D_REQ,
               "ingress": "I1", "egress": "E1"}
        status, body = self._raw(stack, json.dumps(bad).encode())
        assert status == 400

    def test_unknown_flow_teardown_is_404(self, stack):
        reply = stack.client.teardown("never-admitted", now=5.0)
        assert reply.status == 404

    def test_unknown_flow_refresh_is_404(self, stack):
        reply = stack.client.refresh("never-admitted", now=5.0)
        assert reply.status == 404

    def test_unknown_flow_get_is_404(self, stack):
        assert stack.client.get_flow("never-admitted").status == 404

    def test_unknown_route_is_404(self, stack):
        reply = stack.client.request("GET", "/v2/nothing")
        assert reply.status == 404

    def test_wrong_method_is_405(self, stack):
        reply = stack.client.request("PUT", "/v1/flows")
        assert reply.status == 405
        assert "POST" in reply.headers["allow"]

    def test_bad_timeout_header_is_400(self, stack):
        reply = stack.client.request(
            "POST", "/v1/flows",
            body={"flow_id": "f1", "spec": SPEC_JSON,
                  "delay_requirement": D_REQ,
                  "ingress": "I1", "egress": "E1"},
            headers={"X-Request-Timeout": "soon"},
        )
        assert reply.status == 400


class TestBackpressure:
    def test_overload_maps_to_429_with_retry_after(self):
        # One slow worker + a depth-1 queue: parallel admits must shed
        # at the gateway, and the shed must surface as HTTP 429 with
        # the machine-readable Retry-After hint — the remote client
        # owns the retry.
        with _Stack(agents=4, workers=1, queue_limit=1,
                    edge_rtt=0.2) as stack:
            replies = [None] * 10

            def drive(index: int) -> None:
                with ControlPlaneClient(stack.server.host,
                                        stack.server.port) as client:
                    replies[index] = admit(client, f"bp-{index}")

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(len(replies))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            statuses = [r.status for r in replies if r is not None]
            assert statuses, "no replies collected"
            shed = [r for r in replies
                    if r is not None and r.status == 429]
            assert shed, f"expected 429s under overload, got {statuses}"
            for reply in shed:
                assert reply.retry_after > 0
                assert reply.body["error"] == "backpressure"
            # Nothing leaked past the mapping as a 500.
            assert all(status != 500 for status in statuses)


class TestKeepAlive:
    def test_pipelined_requests_get_replies_in_order(self, stack):
        with raw_connection(stack.server) as (sock, rfile):
            sock.sendall(HEALTH * 2)
            for _ in range(2):
                status, _, body = read_reply(rfile)
                assert status == "HTTP/1.1 200 OK"
                assert json.loads(body)["status"] == "ok"

    def test_http_connection_keeps_its_socket(self, stack):
        conn = HTTPConnection(stack.server.host, stack.server.port,
                              timeout=10.0)
        try:
            sockets = []
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.will_close is False
                sockets.append(conn.sock)
            assert sockets[0] is not None
            assert all(sock is sockets[0] for sock in sockets)
        finally:
            conn.close()

    def test_http10_keep_alive_is_honoured(self, stack):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with raw_connection(stack.server) as (sock, rfile):
            for _ in range(2):
                sock.sendall(request)
                status, headers, _ = read_reply(rfile)
                assert status == "HTTP/1.1 200 OK"
                assert headers["connection"] == "keep-alive"


class TestFraming:
    @staticmethod
    def _answered_then_closed(server, request: bytes):
        with raw_connection(server) as (sock, rfile):
            sock.sendall(request)
            status, headers, body = read_reply(rfile)
            assert rfile.read() == b""  # the server closed
        assert headers["connection"] == "close"
        return status, body

    def test_malformed_request_line_is_400_and_close(self, stack):
        status, body = self._answered_then_closed(stack.server,
                                                  b"NONSENSE\r\n")
        assert status == "HTTP/1.1 400 Bad Request"
        assert "request line" in json.loads(body)["error"]

    def test_transfer_encoding_is_501_and_close(self, stack):
        status, _ = self._answered_then_closed(
            stack.server, b"POST /v1/flows HTTP/1.1\r\nHost: test\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n")
        assert status == "HTTP/1.1 501 Not Implemented"
        assert stack.app.requests == 0

    def test_oversized_body_is_413_without_reading_it(self, stack):
        # Headers only: a server waiting for the body would never
        # answer, and the reader would time out instead.
        request = (f"POST /v1/flows HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Length: {MAX_BODY + 1}\r\n\r\n").encode()
        status, _ = self._answered_then_closed(stack.server, request)
        assert status.startswith("HTTP/1.1 413 ")
        assert stack.app.requests == 0

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    ], ids=["http10", "connection-close"])
    def test_close_is_honoured(self, stack, request_bytes):
        status, body = self._answered_then_closed(stack.server,
                                                  request_bytes)
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body)["status"] == "ok"

    def test_ignored_get_body_does_not_corrupt_the_next_request(self,
                                                                stack):
        # The body reads like a request: left on the stream, it would
        # be answered as one (with the MIB view, not the health check).
        decoy = b"GET /v1/mib HTTP/1.1\r\n\r\n"
        first = (b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                 b"Content-Length: %d\r\n\r\n" % len(decoy)) + decoy
        with raw_connection(stack.server) as (sock, rfile):
            sock.sendall(first + HEALTH)
            for _ in range(2):
                status, _, body = read_reply(rfile)
                assert status == "HTTP/1.1 200 OK"
                assert json.loads(body)["status"] == "ok"
        assert stack.app.requests == 2

    def test_head_sends_no_body(self, stack):
        with raw_connection(stack.server) as (sock, rfile):
            sock.sendall(b"HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
                         + HEALTH)
            status, headers, _ = read_reply(rfile, head=True)
            assert status == "HTTP/1.1 200 OK"
            assert int(headers["content-length"]) > 0
            # A body sent for the HEAD would sit where this reply is.
            status, _, body = read_reply(rfile)
            assert status == "HTTP/1.1 200 OK"
            assert json.loads(body)["status"] == "ok"

    def test_raising_app_is_500_and_close(self, capsys):
        def app(request):
            raise RuntimeError("boom")

        with ControlPlaneServer(app) as server:
            status, body = self._answered_then_closed(server, HEALTH)
        assert status == "HTTP/1.1 500 Internal Server Error"
        assert json.loads(body)["error"] == "RuntimeError: boom"
        assert "RuntimeError: boom" in capsys.readouterr().err


class TestServerLifecycle:
    def test_close_ends_live_keep_alive_connections(self, stack):
        assert stack.client.healthz().status == 200
        name = f"controlplane-{stack.server.port}-conn"

        def handlers():
            return [t for t in threading.enumerate() if t.name == name]

        assert handlers(), "the client's connection is not being served"
        stack.server.close()
        deadline = time.monotonic() + 1.0
        while handlers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not handlers()
        with pytest.raises(OSError):
            stack.client.healthz()

    def test_client_retries_once_on_a_dropped_connection(self, stack):
        assert stack.client.healthz().status == 200
        assert stack.client.reconnects == 0
        # A restart on the same port drops the idle keep-alive socket
        # the client holds; its next request finds it dead.
        port = stack.server.port
        stack.server.close()
        stack.server = ControlPlaneServer(stack.app, port=port).start()
        assert stack.client.healthz().status == 200
        assert stack.client.reconnects == 1

    def test_client_raises_a_timeout_instead_of_resending(self):
        # A server that takes requests and never answers: connections
        # wait in the listener's backlog, each holding what the client
        # sent, so draining the backlog counts the requests delivered.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]
            with ControlPlaneClient(host, port, timeout=0.5) as client:
                started = time.monotonic()
                with pytest.raises(socket.timeout):
                    admit(client, "f1")
                elapsed = time.monotonic() - started
            listener.setblocking(False)
            received = b""
            while True:
                try:
                    sock, _ = listener.accept()
                except BlockingIOError:
                    break  # the backlog is drained
                with sock:
                    sock.settimeout(1.0)
                    while chunk := sock.recv(65536):
                        received += chunk
        assert received.count(b"POST /v1/flows ") == 1
        assert elapsed < 0.9
