"""Framed peer-to-peer frame exchange (pipes and TCP), and the one
TCP server.

Every inter-process protocol in this repo — edge signaling
(:mod:`repro.edge`) and cluster shard RPC
(:mod:`repro.cluster.remote`) — holds one *connection*: an ordered,
bidirectional channel of JSON-compatible **frames** (plain dicts)
that never cares how the bytes move.  Two implementations are provided:

* :func:`pipe_pair` — an in-process pipe (two mailboxes guarded by
  condition variables).  Zero setup, deterministic, used by the tests
  and the single-process demos.
* :class:`TcpConnection` — a TCP socket carrying length-prefixed
  payloads (4-byte big-endian payload length, then the payload), for
  a peer on another machine.

:class:`TcpListener` is the one TCP server every listening component
runs on — shard and coordinator RPC, the edge gateway, the REST
control plane.  Its :meth:`~TcpListener.serve` is the only accept
loop: each accepted connection is served by a handler on a thread of
its own, and :meth:`~TcpListener.close` is the one graceful drain.
:func:`serve_frames` is the one per-connection frame loop the framed
servers hand their frame handlers to.

The payload is **self-describing** per frame
(:mod:`repro.service.wire`): the binary codec (struct-packed records +
tagged fallback) or UTF-8 JSON.  ``send`` uses binary from the first
frame — every peer is built from this package, so there is no codec
to negotiate.  ``recv`` decodes whatever arrives, so a peer that
sends JSON is still served; :meth:`TcpConnection.set_codec` switches
one connection's sends to JSON for a capture a person can read.

Connection contract (both implementations):

* ``send(frame)`` delivers the whole frame or raises
  :class:`TransportClosed`; ``send_many(frames)`` delivers a batch
  with **one** coalesced write (one ``sendall`` of N frames — the
  pipelining write path);
* ``recv(timeout)`` returns the next frame, ``None`` on timeout
  (a partially received TCP frame stays buffered — timeouts never
  lose sync), or raises :class:`TransportClosed` once the peer is
  gone *and* every already-delivered frame has been drained.  A
  ``timeout`` of 0 polls: buffered frames drain without a syscall.
  The wait never touches the socket's blocking mode (it is
  ``select``-based), so a concurrent ``send`` keeps its own
  semantics — a short receive timeout can never fail an in-flight
  ``sendall`` on the shared socket;
* ``close()`` is idempotent and unblocks any pending ``recv``/
  ``send``; it shuts the socket down first and only releases the fd
  once no call is inside a socket op, so racing operations surface
  as :class:`TransportClosed`, never ``ENOTSOCK`` or an fd-reuse
  corruption.

The module also defines the transport-level **keepalive** frames
shared by every protocol that rides a connection: a peer that has
been idle for a while sends :func:`ping_frame`; the other side must
answer with :func:`pong_frame`.  Keepalives are how an edge agent
distinguishes "the gateway is slow" from "the connection is dead"
without waiting for TCP's own (minutes-long) timeouts.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import traceback
from collections import deque
from typing import (
    Any, BinaryIO, Callable, Deque, Dict, Iterable, Optional, Tuple,
)

from repro import clock
from repro.errors import SignalingError
from repro.service.wire import (
    CODEC_BINARY,
    WireError,
    decode_payload,
    encode_payload,
)

__all__ = [
    "TransportClosed",
    "PipeConnection",
    "pipe_pair",
    "TcpConnection",
    "TcpListener",
    "connect_tcp",
    "serve_frames",
    "recv_matching",
    "PING",
    "PONG",
    "ping_frame",
    "pong_frame",
    "is_ping",
    "is_pong",
]

#: 4-byte big-endian payload-length prefix (TCP framing).
_FRAME_HEADER = struct.Struct(">I")

#: Refuse absurd frame lengths instead of allocating them (a stray
#: connection speaking another protocol would otherwise look like a
#: multi-gigabyte frame).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: How long :meth:`TcpListener.close` waits for handlers to finish.
DRAIN_TIMEOUT = 5.0

Frame = Dict[str, Any]


class TransportClosed(SignalingError):
    """The peer closed the connection (or it was closed locally)."""


# ----------------------------------------------------------------------
# keepalive frames
# ----------------------------------------------------------------------

#: Frame ``type`` of a keepalive probe / its answer.
PING = "ping"
PONG = "pong"


def ping_frame(nonce: int = 0) -> Frame:
    """A keepalive probe; the peer must answer with the same nonce."""
    return {"type": PING, "nonce": int(nonce)}


def pong_frame(ping: Frame) -> Frame:
    """The answer to *ping* (echoes its nonce so RTTs can be paired)."""
    return {"type": PONG, "nonce": int(ping.get("nonce", 0))}


def is_ping(frame: Frame) -> bool:
    """Is *frame* a keepalive probe?"""
    return frame.get("type") == PING


def is_pong(frame: Frame) -> bool:
    """Is *frame* a keepalive answer?"""
    return frame.get("type") == PONG


def recv_matching(conn, timeout: float,
                  match: Callable[[Frame], bool]) -> Optional[Frame]:
    """The first frame *match* accepts within *timeout* seconds, or
    ``None`` once the time is up; frames it rejects are dropped."""
    deadline = clock.Deadline(timeout)
    while True:
        frame = conn.recv(timeout=deadline.remaining())
        if frame is None or match(frame):
            return frame


def serve_frames(conn, handle: Callable[[Frame], bool], *,
                 stopping: Callable[[], bool]) -> None:
    """Serve *conn* until it closes — the one per-connection frame loop.

    Keepalive pings are answered here; every other frame goes to
    ``handle(frame)``, which returns ``True`` to end the session.  An
    idle poll ends it once ``stopping()`` is true (a pipe has no
    listener to drain it).  *conn* is closed on the way out.
    """
    try:
        while True:
            frame = conn.recv(timeout=0.2)
            if frame is None:
                if stopping():
                    return
            elif is_ping(frame):
                conn.send(pong_frame(frame))
            elif handle(frame):
                return
    except TransportClosed:
        pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# in-process pipe
# ----------------------------------------------------------------------


class _Mailbox:
    """One direction of an in-process pipe: a bounded-by-trust queue."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._frames: Deque[Frame] = deque()
        self._closed = False

    def put(self, frame: Frame) -> None:
        with self._cond:
            if self._closed:
                raise TransportClosed("pipe is closed")
            self._frames.append(frame)
            self._cond.notify_all()

    def put_many(self, frames: Iterable[Frame]) -> None:
        with self._cond:
            if self._closed:
                raise TransportClosed("pipe is closed")
            self._frames.extend(frames)
            self._cond.notify_all()

    def get(self, timeout: Optional[float]) -> Optional[Frame]:
        deadline = clock.Deadline(timeout) if timeout is not None else None
        with self._cond:
            while True:
                if self._frames:
                    return self._frames.popleft()
                if self._closed:
                    raise TransportClosed("pipe is closed")
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        return None
                    clock.wait(self._cond, remaining)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class PipeConnection:
    """One endpoint of an in-process pipe (see :func:`pipe_pair`)."""

    def __init__(self, outbox: _Mailbox, inbox: _Mailbox) -> None:
        self._outbox = outbox
        self._inbox = inbox

    def send(self, frame: Frame) -> None:
        """Deliver *frame* to the peer."""
        self._outbox.put(frame)

    def send_many(self, frames: Iterable[Frame]) -> None:
        """Deliver a batch of frames atomically, in order."""
        self._outbox.put_many(frames)

    def recv(self, timeout: Optional[float] = None) -> Optional[Frame]:
        """Next frame from the peer; ``None`` on timeout."""
        return self._inbox.get(timeout)

    def close(self) -> None:
        """Close both directions (the peer sees TransportClosed)."""
        self._outbox.close()
        self._inbox.close()


def pipe_pair() -> Tuple[PipeConnection, PipeConnection]:
    """Two connected in-process endpoints ``(a, b)``.

    Whatever ``a`` sends, ``b`` receives, and vice versa; closing
    either endpoint closes the pipe for both.
    """
    a_to_b = _Mailbox()
    b_to_a = _Mailbox()
    return (
        PipeConnection(outbox=a_to_b, inbox=b_to_a),
        PipeConnection(outbox=b_to_a, inbox=a_to_b),
    )


# ----------------------------------------------------------------------
# length-prefixed TCP
# ----------------------------------------------------------------------


class TcpConnection:
    """A connection over a TCP socket with length-prefixed frames."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The socket stays in plain blocking mode for its whole life:
        # receive timeouts are select()-based (below), so they can
        # never leak a short timeout onto a concurrent sendall.
        sock.settimeout(None)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._buffer = bytearray()
        self._offset = 0
        self._closed = False
        self._fd_closed = False
        self.codec = CODEC_BINARY

    # -- sending -------------------------------------------------------

    def send(self, frame: Frame) -> None:
        """Serialize and deliver *frame* (whole or not at all)."""
        payload = encode_payload(frame, self.codec)
        self._sendall(_FRAME_HEADER.pack(len(payload)) + payload)

    def send_many(self, frames: Iterable[Frame]) -> None:
        """Deliver a batch of frames with one coalesced ``sendall``.

        This is the pipelining write path: N frames, one syscall, one
        TCP segment train — the peer's parser slices them back apart.
        """
        codec = self.codec
        pack = _FRAME_HEADER.pack
        chunks = []
        for frame in frames:
            payload = encode_payload(frame, codec)
            chunks.append(pack(len(payload)))
            chunks.append(payload)
        if chunks:
            self._sendall(b"".join(chunks))

    def _sendall(self, blob: bytes) -> None:
        with self._send_lock:
            if self._closed:
                raise TransportClosed("connection is closed")
            try:
                self._sock.sendall(blob)
            except OSError as exc:
                # A failed sendall may have written a *prefix* of the
                # blob (a close() racing a send_many lands here), so
                # the byte stream is no longer frame-aligned.  Poison
                # the connection: every later send/recv surfaces
                # TransportClosed instead of corrupting framing.
                with self._close_lock:
                    self._closed = True
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                raise TransportClosed(f"send failed: {exc}") from exc

    def send_bytes(self, data: bytes) -> None:
        """Deliver raw, unframed bytes (a handler whose peer speaks
        another protocol, e.g. HTTP, writes its replies here)."""
        self._sendall(data)

    def set_codec(self, codec: str) -> None:
        """Switch the codec used for subsequent sends (``"json"``
        makes a capture a person can read); receiving needs no
        switch — payloads are self-describing."""
        self.codec = codec

    # -- receiving -----------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Optional[Frame]:
        """Next frame; ``None`` on timeout (partial reads buffered)."""
        deadline = clock.Deadline(timeout) if timeout is not None else None
        with self._recv_lock:
            while True:
                frame = self._parse_buffered()
                if frame is not None:
                    return frame
                if self._closed:
                    raise TransportClosed("connection is closed")
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        return None
                # select()-based wait: the socket's own blocking mode
                # is never touched, so a concurrent sendall on this
                # fd keeps blocking semantics regardless of how short
                # this receive timeout is.
                try:
                    ready, _, _ = select.select(
                        (self._sock,), (), (), remaining
                    )
                except (OSError, ValueError) as exc:
                    raise TransportClosed(f"recv failed: {exc}") from exc
                if not ready:
                    return None
                try:
                    chunk = self._sock.recv(65536)
                except OSError as exc:
                    raise TransportClosed(f"recv failed: {exc}") from exc
                if not chunk:
                    raise TransportClosed("peer closed the connection")
                self._buffer.extend(chunk)

    def _parse_buffered(self) -> Optional[Frame]:
        """Parse one frame from the receive buffer, or ``None``.

        The buffer is consumed by advancing an offset and the payload
        is handed to the decoder as a :class:`memoryview` slice — no
        per-frame byte-stream copy while a burst drains.  The consumed
        prefix is dropped only once no complete frame remains (one
        compaction per wakeup, not per frame).
        """
        buffer = self._buffer
        offset = self._offset
        header_end = offset + _FRAME_HEADER.size
        if len(buffer) < header_end:
            self._compact()
            return None
        (length,) = _FRAME_HEADER.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise TransportClosed(
                f"frame length {length} exceeds {MAX_FRAME_BYTES} "
                "(peer is not speaking the framed protocol)"
            )
        end = header_end + length
        if len(buffer) < end:
            self._compact()
            return None
        # Consume before decoding: a corrupt payload must not wedge
        # the stream by being re-parsed forever.
        self._offset = end
        view = memoryview(buffer)[header_end:end]
        try:
            frame = decode_payload(view)
        except WireError as exc:
            raise TransportClosed(f"undecodable frame: {exc}") from exc
        finally:
            view.release()
        if end == len(buffer):
            buffer.clear()
            self._offset = 0
        return frame

    def _compact(self) -> None:
        if self._offset:
            del self._buffer[:self._offset]
            self._offset = 0

    def reader(self) -> BinaryIO:
        """A buffered reader of the raw byte stream, for a peer that
        speaks an unframed protocol (HTTP).  Do not mix it with
        :meth:`recv`, and close it before the connection."""
        return self._sock.makefile("rb")

    # -- closing -------------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent; unblocks send/recv).

        Ordered teardown: mark closed, shut the socket down (which
        makes any in-flight blocking ``sendall``/``recv`` return with
        an error that maps to :class:`TransportClosed`), then release
        the fd only while briefly holding both operation locks — so
        no thread can be inside a socket op when the fd number is
        freed for reuse.
        """
        with self._close_lock:
            if self._closed:
                first = False
            else:
                self._closed = True
                first = True
        if first:
            self._shutdown(socket.SHUT_RDWR)
        with self._send_lock:
            with self._recv_lock:
                with self._close_lock:
                    if not self._fd_closed:
                        self._fd_closed = True
                        self._sock.close()

    def _shutdown(self, how: int) -> None:
        """Shut the socket down unless its fd is already released
        (under the close lock, so never on a reused fd number)."""
        with self._close_lock:
            if self._fd_closed:
                return
            try:
                self._sock.shutdown(how)
            except OSError:
                pass


class TcpListener:
    """A listening TCP socket — and the one TCP server.

    Binding to port 0 (the default) picks a free ephemeral port —
    read it back from :attr:`port`.  Use it one of two ways:

    * :meth:`accept` takes one connection (a caller that dials its
      own listener, such as the benchmark's transport layer);
    * :meth:`serve` runs the accept loop on a daemon thread and serves
      every accepted connection with ``handler(conn)`` on a daemon
      thread of its own.  The listener tracks each connection while
      its handler runs and forgets it (closing it) when the handler
      returns.  Shard and coordinator RPC, the edge gateway and the
      REST control plane are all handlers here.

    :meth:`close` is the one graceful drain, in three steps: stop
    accepting (:meth:`stop_accepting` alone is the first step); shut
    the *read* side of every live connection, so an idle handler sees
    end-of-stream while a request already in flight still writes its
    reply; join the handler threads, within :data:`DRAIN_TIMEOUT`
    seconds.  A connection is shut down only while it is registered
    and closed only after it is unregistered; :class:`TcpConnection`
    serializes its own shutdown against releasing the fd, so a
    handler that closes its connection early is safe too.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 reuseport: bool = False) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            # Shared accept group: N processes bind the same port and
            # the kernel load-balances incoming connections across the
            # *listening* sockets (the multi-process gateway's accept
            # path).  Raises on platforms without SO_REUSEPORT rather
            # than silently serving from one process.
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._lock = threading.Lock()
        self._live: Dict[TcpConnection, threading.Thread] = {}
        self._acceptor: Optional[threading.Thread] = None
        self._accepting = True

    def accept(self, timeout: Optional[float] = None
               ) -> Optional[TcpConnection]:
        """Accept one connection; ``None`` on timeout."""
        try:
            self._sock.settimeout(timeout)
            sock, _addr = self._sock.accept()
        except socket.timeout:
            return None
        except OSError as exc:
            raise TransportClosed(f"accept failed: {exc}") from exc
        return TcpConnection(sock)

    def serve(self, handler: Callable[[TcpConnection], None], *,
              name: str = "tcp") -> None:
        """Serve every connection with *handler* until :meth:`close`.

        The accept thread is named *name*, each connection's thread
        ``f"{name}-conn"``.  An exception escaping *handler* is
        printed and ends only its own connection.
        """
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(handler, name), name=name,
            daemon=True,
        )
        self._acceptor.start()

    def _accept_loop(self, handler: Callable[[TcpConnection], None],
                     name: str) -> None:
        while self._accepting:
            try:
                # stop_accepting() shuts the socket down, which wakes
                # this select at once; the timeout is only a fallback.
                ready, _, _ = select.select((self._sock,), (), (), 0.5)
                if ready and self._accepting:
                    # No local keeps the socket: a finished connection
                    # must not stay reachable from this loop.
                    self._spawn(handler, name, self._sock.accept()[0])
            except (OSError, ValueError):
                return

    def _spawn(self, handler: Callable[[TcpConnection], None], name: str,
               sock: socket.socket) -> None:
        conn = TcpConnection(sock)
        thread = threading.Thread(
            target=self._run, args=(handler, conn),
            name=f"{name}-conn", daemon=True,
        )
        with self._lock:
            self._live[conn] = thread
        thread.start()

    def _run(self, handler: Callable[[TcpConnection], None],
             conn: TcpConnection) -> None:
        try:
            handler(conn)
        except Exception:  # noqa: BLE001 - one connection, not the server
            traceback.print_exc()
        finally:
            with self._lock:
                del self._live[conn]
            conn.close()

    def stop_accepting(self) -> None:
        """Close the accept socket; live connections keep being served
        (idempotent)."""
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._acceptor is not None:
            self._acceptor.join()
        self._sock.close()

    def close(self) -> None:
        """Drain: stop accepting, shut the read side of every live
        connection, and join their handlers within
        :data:`DRAIN_TIMEOUT` seconds."""
        self.stop_accepting()
        with self._lock:
            live = list(self._live.items())
            for conn, _ in live:
                conn._shutdown(socket.SHUT_RD)
        deadline = clock.Deadline(DRAIN_TIMEOUT)
        for _, thread in live:
            if thread is not threading.current_thread():
                thread.join(deadline.remaining())


def connect_tcp(host: str, port: int, *,
                timeout: float = 5.0) -> TcpConnection:
    """Dial a peer's :class:`TcpListener` and return the connection."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportClosed(
            f"cannot reach peer at {host}:{port}: {exc}"
        ) from exc
    return TcpConnection(sock)
