"""Transport framing under adversarial byte boundaries.

TCP delivers a byte stream, not frames: a sender's single frame may
arrive split across many reads, and many frames may coalesce into one
read.  :meth:`TcpConnection._parse_buffered` must reassemble the
length-prefixed frames identically under *every* chunking — these
tests fuzz the split points.  Socket-backed cases carry the
``network`` marker (deselect with ``-m "not network"`` on machines
without loopback).
"""

from __future__ import annotations

import gc
import json
import random
import socket
import struct
import sys
import threading
import time

import pytest

from repro.cluster.remote import FRAME, FrameServer, OpClient
from repro.controlplane import ControlPlaneServer
from repro.core.broker import BandwidthBroker
from repro.edge import AdmitOp, EdgeAgent, EdgeGateway, protocol
from repro.edge.agent import tcp_connector
from repro.service import BrokerService, provision_parallel_paths
from repro.service.transport import (
    MAX_FRAME_BYTES,
    TcpConnection,
    TcpListener,
    TransportClosed,
    connect_tcp,
    pipe_pair,
)
from repro.service.wire import CODEC_JSON, encode_binary
from repro.workloads.profiles import flow_type

_HEADER = struct.Struct(">I")


def encode_frame(frame) -> bytes:
    """The wire form of a connection switched to the JSON codec."""
    blob = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(blob)) + blob


def encode_frame_binary(frame) -> bytes:
    """The wire form ``TcpConnection.send`` produces (binary codec)."""
    blob = encode_binary(frame)
    return _HEADER.pack(len(blob)) + blob


def parser_only() -> TcpConnection:
    """A TcpConnection with just the parser state — no socket, so the
    split/coalesce logic can be fuzzed deterministically byte by byte.
    """
    conn = TcpConnection.__new__(TcpConnection)
    conn._buffer = bytearray()
    conn._offset = 0
    conn._closed = False
    return conn


def drain(conn: TcpConnection):
    frames = []
    while True:
        frame = conn._parse_buffered()
        if frame is None:
            return frames
        frames.append(frame)


FRAMES = [
    {"type": "hello", "agent": "edge-1"},
    {"type": "admit", "idem": "edge-1#1", "payload": "x" * 200,
     "nested": {"sigma": 60000.0, "nodes": ["I1", "R2", "E1"]}},
    {"type": "reply", "status": "ok", "unicode": "π ≤ ∞", "n": 3},
    {},
    {"type": "bye"},
]


class TestParseBuffered:
    def test_single_frame_round_trip(self):
        conn = parser_only()
        conn._buffer.extend(encode_frame(FRAMES[1]))
        assert drain(conn) == [FRAMES[1]]
        assert conn._buffer == bytearray()

    def test_every_split_point_of_one_frame(self):
        """Feed the frame in two chunks, split at every byte offset:
        the parser must return nothing until the frame completes, then
        exactly the frame."""
        wire = encode_frame(FRAMES[2])
        for cut in range(len(wire) + 1):
            conn = parser_only()
            conn._buffer.extend(wire[:cut])
            early = drain(conn)
            assert early == ([] if cut < len(wire) else [FRAMES[2]])
            conn._buffer.extend(wire[cut:])
            assert drain(conn) == ([FRAMES[2]] if cut < len(wire)
                                   else [])

    def test_coalesced_frames_parse_in_order(self):
        conn = parser_only()
        for frame in FRAMES:
            conn._buffer.extend(encode_frame(frame))
        assert drain(conn) == FRAMES
        assert conn._buffer == bytearray()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_chunking_round_trips(self, seed):
        """Fuzz: a long multi-frame stream delivered in random-sized
        chunks (1..17 bytes) yields the identical frame sequence."""
        rng = random.Random(seed)
        sent = [
            {"type": "admit", "idem": f"a#{index}",
             "blob": "y" * rng.randrange(0, 300),
             "value": rng.random()}
            for index in range(25)
        ]
        wire = b"".join(encode_frame(frame) for frame in sent)
        conn = parser_only()
        received = []
        cursor = 0
        while cursor < len(wire):
            step = rng.randrange(1, 18)
            conn._buffer.extend(wire[cursor:cursor + step])
            cursor += step
            received.extend(drain(conn))
        assert received == sent
        assert conn._buffer == bytearray()

    def test_torn_tail_stays_pending(self):
        """A complete frame followed by half of the next: the parser
        hands out the first and keeps the tail buffered."""
        first, second = encode_frame(FRAMES[0]), encode_frame(FRAMES[1])
        conn = parser_only()
        conn._buffer.extend(first + second[: len(second) // 2])
        assert drain(conn) == [FRAMES[0]]
        assert len(conn._buffer) == len(second) // 2

    def test_oversize_length_prefix_is_rejected(self):
        """A peer speaking another protocol reads as an absurd length
        prefix — refuse it instead of allocating gigabytes."""
        conn = parser_only()
        conn._buffer.extend(_HEADER.pack(MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(TransportClosed, match="exceeds"):
            conn._parse_buffered()

    def test_header_alone_is_not_a_frame(self):
        conn = parser_only()
        conn._buffer.extend(_HEADER.pack(100))
        assert conn._parse_buffered() is None


class TestParseBufferedBinary:
    """The same adversarial chunking, binary and mixed codecs.

    Payloads are self-describing (first byte names the codec), so a
    stream may interleave JSON and binary frames arbitrarily — the
    receiver needs no per-connection state to parse it.
    """

    def canonical(self, frame):
        return json.loads(json.dumps(frame))

    def test_every_split_point_of_a_binary_frame(self):
        frame = {"type": "reply", "re": "admit", "idem": "a#1",
                 "status": "ok"}
        wire = encode_frame_binary(frame)
        want = self.canonical(frame)
        for cut in range(len(wire) + 1):
            conn = parser_only()
            conn._buffer.extend(wire[:cut])
            early = drain(conn)
            assert early == ([] if cut < len(wire) else [want])
            conn._buffer.extend(wire[cut:])
            assert drain(conn) == ([want] if cut < len(wire) else [])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_chunking_of_mixed_codecs(self, seed):
        """JSON and binary frames interleaved on one stream, delivered
        in random 1..17-byte chunks, parse to the same sequence."""
        rng = random.Random(seed)
        sent, wire = [], b""
        for index in range(25):
            frame = {"type": "admit", "idem": f"a#{index}",
                     "blob": "y" * rng.randrange(0, 300),
                     "value": rng.random(),
                     "nodes": ["I1", "R2", "E1"][: rng.randrange(4)]}
            sent.append(self.canonical(frame))
            encode = rng.choice((encode_frame, encode_frame_binary))
            wire += encode(frame)
        conn = parser_only()
        received = []
        cursor = 0
        while cursor < len(wire):
            step = rng.randrange(1, 18)
            conn._buffer.extend(wire[cursor:cursor + step])
            cursor += step
            received.extend(drain(conn))
        assert received == sent
        assert conn._buffer == bytearray()

    def test_corrupt_binary_frame_is_a_transport_error(self):
        """A frame whose payload fails to decode poisons the stream —
        framing is lost, so the connection must surface closure."""
        conn = parser_only()
        conn._buffer.extend(_HEADER.pack(3) + bytes([0xF1, 0, 0]))
        with pytest.raises(TransportClosed):
            conn._parse_buffered()


class TestPipePair:
    def test_round_trip_and_close_semantics(self):
        a, b = pipe_pair()
        a.send({"n": 1})
        a.send({"n": 2})
        assert b.recv(timeout=1.0) == {"n": 1}
        assert b.recv(timeout=1.0) == {"n": 2}
        assert b.recv(timeout=0.01) is None  # idle, not closed
        b.close()
        with pytest.raises(TransportClosed):
            a.send({"n": 3})
        with pytest.raises(TransportClosed):
            a.recv(timeout=1.0)

    def test_pipe_drains_before_raising(self):
        a, b = pipe_pair()
        a.send({"seq": 1})
        a.send({"seq": 2})
        a.close()
        # Frames delivered before the close are still readable.
        assert b.recv(timeout=1.0) == {"seq": 1}
        assert b.recv(timeout=1.0) == {"seq": 2}
        with pytest.raises(TransportClosed):
            b.recv(timeout=1.0)


@pytest.mark.network
class TestTcpSockets:
    def setup_method(self):
        self.listener = TcpListener()
        self.raw: list = []

    def teardown_method(self):
        for sock in self.raw:
            try:
                sock.close()
            except OSError:
                pass
        self.listener.close()

    def raw_client(self) -> socket.socket:
        sock = socket.create_connection(
            (self.listener.host, self.listener.port), timeout=5.0
        )
        self.raw.append(sock)
        return sock

    def test_dribbled_bytes_reassemble(self):
        """One byte per segment — the worst split TCP can produce."""
        client = self.raw_client()
        server = self.listener.accept(timeout=5.0)
        wire = b"".join(encode_frame(frame) for frame in FRAMES)

        def dribble():
            for offset in range(len(wire)):
                client.sendall(wire[offset:offset + 1])

        thread = threading.Thread(target=dribble)
        thread.start()
        received = [server.recv(timeout=5.0) for _ in FRAMES]
        thread.join()
        assert received == FRAMES
        server.close()

    def test_coalesced_burst_reassembles(self):
        """All frames in a single send — maximal coalescing."""
        client = self.raw_client()
        server = self.listener.accept(timeout=5.0)
        client.sendall(b"".join(encode_frame(frame) for frame in FRAMES))
        received = [server.recv(timeout=5.0) for _ in FRAMES]
        assert received == FRAMES
        server.close()

    def test_peer_close_mid_frame_raises(self):
        client = self.raw_client()
        server = self.listener.accept(timeout=5.0)
        wire = encode_frame(FRAMES[1])
        client.sendall(wire[: len(wire) - 3])
        client.close()
        with pytest.raises(TransportClosed, match="closed"):
            server.recv(timeout=5.0)
        server.close()

    def test_tcp_connection_round_trip(self):
        """The real client class against the real listener."""
        client = connect_tcp(self.listener.host, self.listener.port)
        server = self.listener.accept(timeout=5.0)
        for frame in FRAMES:
            client.send(frame)
        received = [server.recv(timeout=5.0) for _ in FRAMES]
        assert received == FRAMES
        server.send({"type": "reply", "status": "ok"})
        assert client.recv(timeout=5.0) == {"type": "reply",
                                            "status": "ok"}
        client.close()
        server.close()

    def test_send_many_coalesces_into_the_same_stream(self):
        client = connect_tcp(self.listener.host, self.listener.port)
        server = self.listener.accept(timeout=5.0)
        client.send_many(FRAMES)
        received = [server.recv(timeout=5.0) for _ in FRAMES]
        assert received == FRAMES
        client.close()
        server.close()

    def test_short_recv_timeouts_never_fail_a_concurrent_send(self):
        """Regression: ``recv(timeout=...)`` used to settimeout() the
        shared socket, so a blocking ``sendall`` racing with it could
        hit a spurious ``socket.timeout`` and report a false
        TransportClosed.  With a slow reader and the send buffer full,
        sendall blocks for long stretches — hammer recv() with short
        timeouts meanwhile and require every byte to land anyway.
        """
        client = connect_tcp(self.listener.host, self.listener.port)
        server = self.listener.accept(timeout=5.0)
        # Shrink the buffers so a modest frame is enough to block.
        for conn in (client, server):
            conn._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * 1024)
            conn._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 16 * 1024)
        frames = [{"seq": index, "blob": "z" * (512 * 1024)}
                  for index in range(4)]
        send_errors = []

        def sender():
            try:
                for frame in frames:
                    client.send(frame)
            except Exception as exc:
                send_errors.append(repr(exc))

        thread = threading.Thread(target=sender)
        thread.start()
        # The send buffer is full almost immediately (nobody reads).
        # Spin short-timeout recvs on the SAME connection: with the
        # settimeout leak these poisoned the in-flight sendall.
        for _ in range(40):
            assert client.recv(timeout=0.005) is None
        received = [server.recv(timeout=10.0) for _ in frames]
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert send_errors == []
        assert received == frames
        client.close()
        server.close()

    def test_close_during_concurrent_ops_raises_transport_closed(self):
        """Ordered close: threads blocked in send/recv while close()
        runs must observe TransportClosed — never ENOTSOCK/EBADF from
        a released fd (which could also hit an unrelated reused fd).
        """
        for _ in range(5):
            client = connect_tcp(self.listener.host,
                                 self.listener.port)
            server = self.listener.accept(timeout=5.0)
            client._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * 1024)
            unexpected = []
            stop = threading.Event()

            def hammer(op):
                while not stop.is_set():
                    try:
                        op()
                    except TransportClosed:
                        return  # the one acceptable outcome
                    except Exception as exc:
                        unexpected.append(repr(exc))
                        return

            big = {"blob": "q" * (256 * 1024)}
            threads = [
                threading.Thread(
                    target=hammer, args=(lambda: client.send(big),)),
                threading.Thread(
                    target=hammer,
                    args=(lambda: client.recv(timeout=0.01),)),
            ]
            for thread in threads:
                thread.start()
            client.close()
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert unexpected == []
            server.close()

    def test_close_is_idempotent_and_ops_fail_cleanly_after(self):
        client = connect_tcp(self.listener.host, self.listener.port)
        server = self.listener.accept(timeout=5.0)
        client.close()
        client.close()
        with pytest.raises(TransportClosed):
            client.send({"a": 1})
        with pytest.raises(TransportClosed):
            client.recv(timeout=0.1)
        server.close()

    def test_failed_send_poisons_the_connection(self):
        """A sendall that dies mid-write may have emitted a *prefix*
        of the frame, so the byte stream is no longer frame-aligned.
        The connection must poison itself: the failing send raises
        TransportClosed and every later send/recv does too — never a
        fresh frame appended after half of an old one.
        """
        client = connect_tcp(self.listener.host, self.listener.port)
        server = self.listener.accept(timeout=5.0)
        real_sock = client._sock

        class _PartialWriteSock:
            """Writes a prefix, then fails — an interrupted sendall."""

            def sendall(self, blob):
                real_sock.sendall(blob[: len(blob) // 2])
                raise OSError("simulated mid-write failure")

            def __getattr__(self, name):
                return getattr(real_sock, name)

        client._sock = _PartialWriteSock()
        with pytest.raises(TransportClosed, match="send failed"):
            client.send({"blob": "x" * 1024})
        # Poisoned: the half-written frame must never be "repaired"
        # by later traffic on a desynchronized stream.
        client._sock = real_sock
        with pytest.raises(TransportClosed):
            client.send({"seq": 2})
        with pytest.raises(TransportClosed):
            client.recv(timeout=0.1)
        # The peer sees the prefix then the shutdown — a clean
        # TransportClosed, not a garbled frame.
        with pytest.raises(TransportClosed):
            server.recv(timeout=5.0)
        client.close()
        server.close()

    def test_close_racing_send_many_surfaces_transport_closed(self):
        """close() landing mid-``send_many`` must surface as
        TransportClosed to the sender — not a silent partial batch
        the caller believes was delivered.
        """
        for _ in range(5):
            client = connect_tcp(self.listener.host, self.listener.port)
            server = self.listener.accept(timeout=5.0)
            # Tiny buffers + a huge batch: sendall WILL block with
            # the batch partially written, which is exactly the
            # window close() has to race into.
            client._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * 1024)
            server._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 16 * 1024)
            batch = [{"seq": index, "blob": "y" * (128 * 1024)}
                     for index in range(16)]
            outcome = []

            def send_batch():
                try:
                    client.send_many(batch)
                    outcome.append("sent")
                except TransportClosed:
                    outcome.append("closed")
                except Exception as exc:
                    outcome.append(repr(exc))

            thread = threading.Thread(target=send_batch)
            thread.start()
            time.sleep(0.02)  # let sendall fill the buffer and block
            client.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            # Nobody drained the 2 MiB batch through a 16 KiB pipe in
            # 20 ms: the close raced an in-flight write and the sender
            # must have seen TransportClosed, nothing else.
            assert outcome == ["closed"]
            with pytest.raises(TransportClosed):
                client.send({"after": True})
            server.close()

    def test_reuseport_listeners_share_one_accept_group(self):
        """Two listeners on the same port with ``reuseport=True`` —
        the kernel balances connections across them (the gateway
        worker group's accept path).
        """
        first = TcpListener(reuseport=True)
        second = TcpListener(first.host, first.port, reuseport=True)
        try:
            assert second.port == first.port
            hits = {"first": 0, "second": 0}
            for index in range(8):
                sock = socket.create_connection(
                    (first.host, first.port), timeout=5.0)
                self.raw.append(sock)
                sock.sendall(encode_frame({"seq": index}))
                for name, listener in (("first", first),
                                       ("second", second)):
                    conn = listener.accept(timeout=0.2)
                    if conn is not None:
                        assert conn.recv(timeout=5.0) == {"seq": index}
                        conn.close()
                        hits[name] += 1
                        break
                else:
                    pytest.fail("no listener accepted the connection")
            assert hits["first"] + hits["second"] == 8
        finally:
            first.close()
            second.close()


# ----------------------------------------------------------------------
# TcpListener.serve / close: the one accept loop and the one drain
# ----------------------------------------------------------------------


def threads_named(name: str):
    return [t for t in threading.enumerate() if t.name == name]


def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def live_connections():
    gc.collect()
    return [obj for obj in gc.get_objects()
            if isinstance(obj, TcpConnection)]


class _Servant:
    """A frame servant whose ``slow`` op blocks until released."""

    def __init__(self, entered=None, release=None):
        self.entered = entered
        self.release = release

    def echo(self, frame):
        return {"status": "ok"}

    def slow(self, frame):
        self.entered.set()
        self.release.wait(10.0)
        return {"status": "ok", "answer": "done"}


_TABLE = {"echo": FRAME, "slow": FRAME}


class _FrameRig:
    """A FrameServer on a listener; one client connection."""

    conn_thread = "rpc-under-test-conn"

    def __init__(self, entered=None, release=None):
        self.listener = TcpListener()
        self.server = FrameServer(_Servant(entered, release), _TABLE)
        self.listener.serve(self.server.serve_connection,
                            name="rpc-under-test")
        self.conn = None

    def short_session(self, index: int) -> None:
        conn = connect_tcp(self.listener.host, self.listener.port)
        conn.send({"op": "echo", "client_seq": 1})
        assert conn.recv(timeout=5.0)["status"] == "ok"
        conn.close()

    def send(self) -> None:
        if self.conn is None:
            self.conn = connect_tcp(self.listener.host, self.listener.port)
        self.conn.send({"op": "slow", "client_seq": 2})

    def answer(self) -> str:
        reply = self.conn.recv(timeout=5.0)
        assert reply is not None, "no reply within 5 s"
        return reply["answer"]

    def close(self) -> None:
        self.listener.close()

    def dispose(self) -> None:
        if self.conn is not None:
            self.conn.close()
        self.close()


class _GatewayRig:
    """An EdgeGateway on TCP in front of a running BrokerService."""

    conn_thread = "edge-conn"

    def __init__(self):
        self.service = BrokerService(BandwidthBroker(), workers=1).start()
        self.gateway = EdgeGateway(self.service)
        self.host, self.port = self.gateway.listen()
        self.gateway.start()

    def short_session(self, index: int) -> None:
        conn = connect_tcp(self.host, self.port)
        conn.send(protocol.make_hello(f"edge-{index}"))
        assert conn.recv(timeout=5.0)["type"] == "welcome"
        conn.close()

    def dispose(self) -> None:
        self.gateway.stop()
        self.service.stop()


class _RestRig:
    """A ControlPlaneServer whose ``/slow`` route blocks until
    released; one raw keep-alive client socket."""

    def __init__(self, entered, release):
        def app(request):
            if request.path == "/slow":
                entered.set()
                release.wait(10.0)
            return 200, [("Content-Type", "text/plain")], b"done"

        self.server = ControlPlaneServer(app).start()
        self.sock = socket.create_connection(
            (self.server.host, self.server.port), timeout=5.0)
        self.rfile = self.sock.makefile("rb")

    def send(self) -> None:
        self.sock.sendall(b"GET /slow HTTP/1.1\r\nHost: test\r\n\r\n")

    def answer(self) -> str:
        status = self.rfile.readline()
        if not status:
            raise ConnectionError("the server closed the connection")
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        assert status.startswith(b"HTTP/1.1 200")
        return self.rfile.read(length).decode("latin-1")

    def close(self) -> None:
        self.server.close()

    def dispose(self) -> None:
        self.rfile.close()
        self.sock.close()
        self.close()


@pytest.mark.network
class TestOneServer:
    """Every listening component is a handler on one TcpListener."""

    @pytest.mark.parametrize("rig_class", [_FrameRig, _GatewayRig],
                             ids=["frame-server", "edge-gateway"])
    def test_short_connections_leave_nothing_behind(self, rig_class):
        """50 short connections from 5 racing clients: every handler
        thread ends and no connection stays reachable."""
        before = {id(conn) for conn in live_connections()}
        rig = rig_class()
        errors = []

        def client(rank: int) -> None:
            try:
                for index in range(10):
                    rig.short_session(rank * 10 + index)
            except Exception as exc:  # surfaced after the join
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client, args=(rank,))
                       for rank in range(5)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(30.0)
                assert not thread.is_alive()
            assert errors == []
            assert wait_for(lambda: not threads_named(rig.conn_thread))
            kept = [conn for conn in live_connections()
                    if id(conn) not in before]
            assert kept == []
        finally:
            sys.setswitchinterval(interval)
            rig.dispose()

    def test_gateway_stop_joins_every_session_hello_or_not(self):
        rig = _GatewayRig()
        socks = []
        try:
            for index in range(4):
                conn = connect_tcp(rig.host, rig.port)
                conn.send(protocol.make_hello(f"edge-{index}"))
                assert conn.recv(timeout=5.0)["type"] == "welcome"
                socks.append(conn)
            # Connected, never says hello: no session, still a thread.
            socks.append(connect_tcp(rig.host, rig.port))
            assert wait_for(lambda: len(threads_named("edge-conn")) == 5)
            rig.gateway.stop()
            assert threads_named("edge-conn") == []
        finally:
            for conn in socks:
                conn.close()
            rig.dispose()

    @pytest.mark.parametrize("rig_class", [_RestRig, _FrameRig],
                             ids=["rest", "frame-server"])
    def test_close_lets_the_request_in_flight_answer(self, rig_class):
        entered, release = threading.Event(), threading.Event()
        rig = rig_class(entered, release)
        try:
            rig.send()
            assert entered.wait(5.0)
            closer = threading.Thread(target=rig.close)
            closer.start()
            time.sleep(0.2)
            assert closer.is_alive(), "close() did not wait for the reply"
            release.set()
            closer.join(5.0)
            assert not closer.is_alive()
            assert rig.answer() == "done"
            with pytest.raises((OSError, TransportClosed)):
                rig.send()
                rig.answer()
        finally:
            release.set()
            rig.dispose()


# ----------------------------------------------------------------------
# one wire format
# ----------------------------------------------------------------------


def json_dialer(dial, dialed):
    """*dial*, with every connection it returns switched to JSON (a
    peer whose sends a person can read) and appended to *dialed*."""
    def connect():
        conn = dial()
        conn.set_codec(CODEC_JSON)
        dialed.append(conn)
        return conn
    return connect


def serve_edge_json_peer(tmp_path, dialed) -> None:
    """An agent sending JSON admits, heartbeats and tears down a
    window of flows through a gateway on TCP."""
    broker = BandwidthBroker()
    nodes = provision_parallel_paths(broker, paths=1)[0]
    spec = flow_type(0).spec
    with BrokerService(broker, workers=1) as service:
        gateway = EdgeGateway(service, lease_duration=60.0)
        host, port = gateway.listen()
        gateway.start()
        try:
            with EdgeAgent("edge-json",
                           json_dialer(tcp_connector(host, port), dialed),
                           seed=1) as agent:
                replies = agent.admit_many(
                    [AdmitOp(f"json-{k}", spec, 2.44, nodes[0],
                             nodes[-1], path_nodes=nodes)
                     for k in range(8)], now=0.0)
                assert all(reply["decision"]["admitted"]
                           for reply in replies.values())
                assert broker.stats().active_flows == 8
                agent.heartbeat(now=1.0)
                downs = agent.teardown_many(sorted(replies), now=2.0)
                assert all(reply["status"] == "ok"
                           for reply in downs.values())
            counters = gateway.counters()
        finally:
            gateway.stop()
    assert broker.stats().active_flows == 0
    assert counters["leases"]["granted"] == 8
    assert counters["leases"]["released"] == 8


def serve_op_rpc_json_peer(tmp_path, dialed) -> None:
    """An :class:`OpClient` sending JSON gets every op answered."""
    listener = TcpListener()
    server = FrameServer(_Servant(), _TABLE)
    listener.serve(server.serve_connection)
    client = OpClient("peer", _TABLE, json_dialer(
        lambda: connect_tcp(listener.host, listener.port), dialed))
    try:
        for index in range(20):
            assert client.echo({"flow_id": f"f{index}"})["status"] == "ok"
        assert (client.resends, client.reconnects) == (0, 0)
    finally:
        client.close()
        listener.close()
    assert server.frames_served == 20


@pytest.mark.network
class TestOneWireFormat:
    """Every connection sends binary from its first frame, and every
    server still reads a peer that sends JSON."""

    @pytest.mark.parametrize("side", ["dialed", "accepted"])
    def test_first_frame_is_binary(self, side):
        if side == "dialed":
            server = socket.create_server(("127.0.0.1", 0))
            conn = connect_tcp("127.0.0.1", server.getsockname()[1])
            peer, _ = server.accept()
            server.close()
        else:
            listener = TcpListener()
            peer = socket.create_connection(
                (listener.host, listener.port), timeout=5.0)
            conn = listener.accept(timeout=5.0)
            listener.close()
        try:
            conn.send(protocol.make_hello("edge-1"))
            peer.settimeout(5.0)
            head = b""
            while len(head) < _HEADER.size + 1:
                head += peer.recv(_HEADER.size + 1 - len(head))
            assert head[_HEADER.size] >= 0xE0, head
        finally:
            conn.close()
            peer.close()

    @pytest.mark.parametrize("serve", [
        serve_edge_json_peer,
        serve_op_rpc_json_peer,
    ], ids=["edge-gateway", "op-rpc"])
    def test_a_json_peer_is_served_in_full(self, serve, tmp_path):
        dialed = []
        serve(tmp_path, dialed)
        # Nothing the server said switched the peer back to binary.
        assert dialed
        assert [conn.codec for conn in dialed] == [CODEC_JSON] * len(dialed)
