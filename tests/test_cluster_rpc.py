"""The cluster's one op-RPC client against its one server loop.

:class:`~repro.cluster.remote.OpClient` is the only request/response
client between the coordinator, the gateway workers and the shards, so
its policy is pinned here once: sequence matching, the attempt budget,
redial through a re-read endpoint, the reconnect hook, and the op table
both halves share.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.cluster import (
    CoordinatorServer,
    FrameServer,
    OpClient,
    ShardServer,
    build_pod_cluster,
)
from repro.cluster.procs import _COORDINATOR_OPS
from repro.cluster.remote import _OPS, FRAME
from repro.errors import SignalingError
from repro.service.transport import TcpListener, connect_tcp, pipe_pair

TABLE = {"echo": FRAME, "reap": ("now",), "status": ()}


class Servant:
    """The smallest object a :class:`FrameServer` can dispatch to."""

    def echo(self, frame):
        return {"status": "ok", "flow_id": frame.get("flow_id")}

    def reap(self, now):
        return {"status": "reaped", "now": now}

    def status(self):
        return {"status": "ok"}


class Endpoint:
    """A servant behind a TCP listener that can move to a new port —
    what a restarted shard process looks like from the parent."""

    def __init__(self):
        self.dials = 0
        self._lock = threading.Lock()
        self.start()

    def start(self):
        self.listener = TcpListener("127.0.0.1", 0)
        self.server = FrameServer(Servant(), TABLE)
        self.listener.serve(self.server.serve_connection)

    def stop(self):
        self.listener.close()

    def bounce(self):
        old = self.listener.port
        self.stop()
        self.start()
        assert self.listener.port != old

    def dial(self):
        with self._lock:
            self.dials += 1
        return connect_tcp("127.0.0.1", self.listener.port, timeout=2.0)


@pytest.fixture()
def endpoint():
    endpoint = Endpoint()
    yield endpoint
    endpoint.stop()


def serve_in_background(server, conn):
    """Serve a pipe end on a daemon thread (a listener's job on TCP)."""
    threading.Thread(target=server.serve_connection, args=(conn,),
                     daemon=True).start()


def run_bounded(target, *, timeout=10.0):
    """Run *target* on a thread; fail instead of hanging the suite."""
    outcome = {}

    def body():
        try:
            outcome["value"] = target()
        except BaseException as exc:  # re-raised on the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "call did not return (deadlock?)"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestSequenceMatching:
    def test_stale_reply_to_a_resent_seq_is_discarded(self):
        client_end, peer_end = pipe_pair()
        seen = []

        def peer():
            first = peer_end.recv(timeout=2.0)   # left unanswered
            again = peer_end.recv(timeout=2.0)   # the resend
            seen.extend([first, again])
            for _ in range(2):                   # both get an answer
                peer_end.send({"status": "ok", "answers": "status",
                               "client_seq": again["client_seq"]})
            nxt = peer_end.recv(timeout=2.0)
            seen.append(nxt)
            peer_end.send({"status": "ok", "answers": "reap",
                           "client_seq": nxt["client_seq"]})

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        client = OpClient("peer", TABLE, lambda: client_end)
        client.timeout = 0.2
        assert run_bounded(client.status)["answers"] == "status"
        assert client.resends == 1
        # The second copy of the status answer is still queued; the
        # next op must not take it for its own.
        reply = run_bounded(lambda: client.reap(7.0))
        assert reply["answers"] == "reap"
        thread.join(timeout=2.0)
        first, again, nxt = seen
        assert first["client_seq"] == again["client_seq"]
        assert nxt["client_seq"] != again["client_seq"]
        assert nxt["op"] == "reap" and nxt["now"] == 7.0
        assert client.high_water_now == 7.0


class TestAttemptBudget:
    @pytest.mark.network
    @pytest.mark.parametrize("peer", ["dead", "silent"])
    def test_unreachable_peer_raises_within_the_budget(self, peer):
        listener = TcpListener("127.0.0.1", 0)
        port = listener.port
        if peer == "dead":
            listener.close()
        client = OpClient(
            "peer", TABLE,
            lambda: connect_tcp("127.0.0.1", port, timeout=2.0))
        client.timeout = 0.1
        client.dial_timeout = 0.3
        bound = client.dial_timeout + client.attempts * client.timeout
        # The two nested loops this client replaced allowed
        # 2 * (dial + hello + 2 sends) with the same settings.
        assert bound <= 2 * (client.dial_timeout + 3 * client.timeout)
        began = time.monotonic()
        try:
            with pytest.raises(SignalingError):
                run_bounded(client.status)
            elapsed = time.monotonic() - began
        finally:
            client.close()
            if peer == "silent":
                listener.close()
        assert elapsed <= bound + 0.5, (elapsed, bound)
        if peer == "silent":
            # Connected but never answered: every attempt was a send.
            assert client.resends == client.attempts - 1
        assert client.reconnects == 0


@pytest.mark.network
class TestRedial:
    def test_restart_on_a_new_port_is_followed(self, endpoint):
        fired = []
        client = OpClient("peer", TABLE, endpoint.dial,
                          on_reconnect=lambda: fired.append(1))
        try:
            assert client.status()["status"] == "ok"
            assert (client.reconnects, fired) == (0, [])
            endpoint.bounce()
            # The pooled connection is dead and the port it knew is
            # gone: the call has to re-read the endpoint.
            reply = run_bounded(lambda: client.echo({"flow_id": "f1"}))
            assert reply["flow_id"] == "f1"
            assert client.reconnects == 1
            assert fired == [1]
            assert endpoint.dials == 2
            # Nothing more happens on a healthy connection.
            assert client.status()["status"] == "ok"
            assert (client.reconnects, fired) == (1, [1])
        finally:
            client.close()

    def test_first_dial_of_an_idle_slot_is_not_a_reconnect(
            self, endpoint):
        client = OpClient("peer", TABLE, endpoint.dial)
        release = threading.Event()
        endpoint.server.handle.status = lambda: (
            release.wait(5.0), {"status": "ok"})[1]
        try:
            # Two overlapping calls need both pool slots dialed.
            threads = [threading.Thread(target=client.status)
                       for _ in range(client.pool_size)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while (endpoint.dials < client.pool_size
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            release.set()
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert endpoint.dials == client.pool_size
            assert client.reconnects == 0
        finally:
            release.set()
            client.close()

    def test_hook_calling_through_a_pool_of_one(self, endpoint,
                                                monkeypatch):
        """The hook's own ops borrow the only slot (so it must be back
        in the pool first), and a reconnect inside the hook does not
        enter the hook again."""
        monkeypatch.setattr(OpClient, "pool_size", 1)
        fired = []

        def hook():
            fired.append(client.reconnects)
            endpoint.bounce()
            assert client.status()["status"] == "ok"

        client = OpClient("peer", TABLE, endpoint.dial,
                          on_reconnect=hook)
        try:
            assert client.status()["status"] == "ok"
            endpoint.bounce()
            assert run_bounded(client.status)["status"] == "ok"
            assert fired == [1]
            assert client.reconnects == 2
            assert endpoint.dials == 3
        finally:
            client.close()


class TestOpTable:
    @pytest.mark.parametrize("table", ["shard", "coordinator"])
    def test_client_surface_is_the_server_allow_list(self, table):
        with build_pod_cluster(2) as cluster:
            if table == "shard":
                ops = _OPS
                server = ShardServer(cluster.shards["shard0"])
            else:
                ops = _COORDINATOR_OPS
                server = CoordinatorServer(cluster.coordinator)
            client_end, server_end = pipe_pair()
            serve_in_background(server, server_end)
            client = OpClient(table, ops, lambda: client_end)
            try:
                assert set(client.ops) == set(server.ops) == set(ops)
                for op, shape in ops.items():
                    args = ({},) if shape is FRAME else (0.0,) * len(shape)
                    reply = getattr(client, op)(*args)
                    # An empty frame may be refused, but it is the
                    # servant that refuses it, not the allow-list.
                    assert reply.get("error") != "unknown-op", (op, reply)
                with pytest.raises(AttributeError):
                    client.explode
                reply = client.call("explode", {})
                assert reply["error"] == "unknown-op"
                # No op negotiates anything on a new connection.
                assert client.call("hello", {})["error"] == "unknown-op"
                assert client.call("__class__", {})["error"] == "unknown-op"
            finally:
                client.close()
                server.close()


class TestCounters:
    def test_counts_are_exact_under_contention(self, endpoint):
        """More callers than pool slots (and than cores), a short
        switch interval: a lost ``+= 1`` would show in the totals."""
        client = OpClient("peer", TABLE, endpoint.dial)
        callers, calls = 8, 50
        errors = []

        def caller(index):
            try:
                for n in range(calls):
                    now = float(index * calls + n)
                    assert client.reap(now)["now"] == now
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert errors == []
        assert client.high_water_now == float(callers * calls - 1)
        assert (client.resends, client.reconnects) == (0, 0)
        # Every op, and nothing else: a dial sends no handshake.
        deadline = time.monotonic() + 2.0
        expected = callers * calls
        while (endpoint.server.frames_served < expected
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert endpoint.server.frames_served == expected
