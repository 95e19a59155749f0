"""The cluster's op RPC: one server loop and one client, one op table.

The coordinator talks to shards through a duck-typed op surface —
``admit/teardown/prepare/commit/abort/release`` each taking a
JSON-compatible frame and returning one, ``reap(now)`` and
``status/stats/dump()`` — which :class:`~repro.cluster.shard.
BrokerShard` implements itself, so an in-process cluster hands the
coordinator the shard objects directly.  Across a socket the same
surface is described once, by an *op table* (:data:`_OPS` for shards;
the multi-process layer adds one for its wire coordinator), and both
halves read it:

* :class:`FrameServer` dispatches exactly the ops the table lists
  (the accept loop, the per-connection threads, keepalive pongs and
  the drain are :class:`~repro.service.transport.TcpListener`'s and
  :func:`~repro.service.transport.serve_frames`');
* :class:`OpClient` generates one method per table entry over a pool
  of lazily dialed :mod:`repro.service.transport` connections.
  Requests carry a client sequence number; the client resends on
  timeout, redials on a dead connection, and matches replies by
  sequence.  Resends are safe end to end because every op is
  idempotent by txid/flow id — the at-least-once transport composes
  with the participant's exactly-once effects.

Nothing is negotiated on a new connection: both halves send the
binary codec from the first frame and read either codec
(:mod:`repro.service.wire`).
"""

from __future__ import annotations

import itertools
import queue
import threading
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro import clock
from repro.errors import SignalingError
from repro.service.transport import (
    TransportClosed,
    recv_matching,
    serve_frames,
)

__all__ = [
    "FRAME",
    "FrameServer",
    "OpClient",
    "ShardServer",
]

#: Call shape of an op whose single argument *is* the frame.  The other
#: shape is a tuple naming positional arguments that travel as frame
#: fields (``reap(now)`` is sent as ``{"op": "reap", "now": now}``).
FRAME = None

#: An op table: op name -> call shape.  The client's methods and the
#: server's allow-list are both read from it.
OpTable = Mapping[str, Optional[Tuple[str, ...]]]

_OPS: OpTable = {
    "admit": FRAME, "teardown": FRAME, "prepare": FRAME,
    "commit": FRAME, "abort": FRAME, "release": FRAME,
    "reap": ("now",), "status": (), "stats": (), "dump": (),
}


class FrameServer:
    """Serve op frames from any number of transport connections.

    :meth:`serve_connection` serves one connection on the calling
    thread, so it is the handler a
    :class:`~repro.service.transport.TcpListener` runs per accepted
    connection (concurrent client connections — a pooled
    :class:`OpClient` — are served in parallel; per-op serialization
    is the handle's own job, e.g. the shard's operation lock).

    :param handle: the object ops are dispatched to.
    :param ops: the op table; anything it does not list is answered
        with ``unknown-op`` instead of being looked up — the wire
        surface is an allow-list, not ``getattr`` on arbitrary strings.
    """

    def __init__(self, handle: Any, ops: OpTable) -> None:
        self.handle = handle
        self.ops = ops
        self.frames_served = 0
        self._closing = threading.Event()
        self._lock = threading.Lock()

    def serve_connection(self, conn) -> None:
        """Serve frames from *conn* until it closes or :meth:`close`
        (blocking)."""
        def handle(frame: Dict[str, Any]) -> bool:
            conn.send(self._dispatch(frame))
            with self._lock:
                self.frames_served += 1
            return False

        serve_frames(conn, handle, stopping=self._closing.is_set)

    def _dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        op = frame.get("op", "")
        seq = frame.get("client_seq")
        if not isinstance(op, str) or op not in self.ops:
            return {
                "status": "error", "error": "unknown-op",
                "detail": f"op {op!r}", "client_seq": seq,
            }
        shape = self.ops[op]
        if shape is FRAME:
            args: tuple = (frame,)
        else:
            # A missing field reads as 0.0, the same default the frame
            # ops give a missing ``now``.
            args = tuple(frame.get(field, 0.0) for field in shape)
        try:
            result = getattr(self.handle, op)(*args)
        except Exception as exc:  # surface, never kill the loop
            result = {
                "status": "error", "error": type(exc).__name__,
                "detail": str(exc),
            }
        result = dict(result)
        result["client_seq"] = seq
        return result

    def close(self) -> None:
        """End every session at its next idle poll (a TCP listener's
        own :meth:`~repro.service.transport.TcpListener.close` drains
        its connections at once)."""
        self._closing.set()


class ShardServer(FrameServer):
    """Serves one shard's ops over transport connections."""

    def __init__(self, shard: Any) -> None:
        super().__init__(shard, _OPS)


#: The redial backoff: 0.05 s doubling to 0.5 s, no jitter.
_REDIAL = clock.Backoff(0.05, 0.5)

#: Pool marker for a slot whose connection failed (``None`` is a slot
#: that was never dialed).
_LOST = object()


class OpClient:
    """Client half of the op protocol: pooled, lazily dialing,
    seq-matched, resending and redialing.

    ``client.<op>(...)`` exists for every entry of the op table and is
    one round trip through :meth:`call`.  A call borrows one of
    :attr:`pool_size` connection slots (one connection carries one op
    at a time) and makes up to :attr:`attempts` sends.  A reply that
    does not arrive within :attr:`timeout` is asked for again on the
    same connection; replies are matched by sequence number, so a late
    answer to an earlier send is discarded rather than mistaken for
    the current op's.  An empty slot is dialed through *dial*, which
    re-reads the peer's endpoint because a restarted process publishes
    a fresh ephemeral port.  A call that has sent nothing yet keeps
    dialing, with backoff, for :attr:`dial_timeout` — it waits out a
    restart.  A call whose connection dies under it redials once,
    which is enough for a peer that is already back, and otherwise
    fails: its op may have been applied, and the coordinator should
    decide (abort, park the op as unresolved) now rather than hold an
    in-doubt transaction for a restart's worth of time.  Either way
    the caller sees :class:`SignalingError` within
    ``dial_timeout + attempts * timeout``.

    After a call that had to *re*-dial (the peer was reachable before,
    lost, and is back) the client runs ``on_reconnect`` — the
    multi-process cluster wires it to reap the shard and re-drive the
    coordinator's unresolved ops.  The hook runs after the slot is
    back in the pool, so its own ops flow through the client normally,
    and it is never entered recursively.

    :param name: the peer's name, for error messages.
    :param ops: the op table the peer's :class:`FrameServer` serves.
    :param dial: returns a fresh transport connection to the peer.
    """

    #: Connections per peer (the most ops one client has in flight).
    pool_size = 2
    #: Sends per call before it fails with :class:`SignalingError`.
    attempts = 3

    def __init__(
        self,
        name: str,
        ops: OpTable,
        dial: Callable[[], Any],
        *,
        on_reconnect: Optional[Callable[[], None]] = None,
    ) -> None:
        self.name = name
        self.ops = ops
        self._dial = dial
        self.on_reconnect = on_reconnect
        #: How long one send waits for its reply.
        self.timeout = 5.0
        #: How long a redial keeps trying (a restarting shard replays
        #: its WAL before it binds); chaos partitions shorten it.
        self.dial_timeout = 10.0
        self._slots: "queue.LifoQueue" = queue.LifoQueue()
        for _ in range(self.pool_size):
            self._slots.put(None)
        self._seq = itertools.count(1)
        self._state_lock = threading.Lock()
        self._local = threading.local()
        self.reconnects = 0
        self.resends = 0
        #: High-water mark of every domain ``now`` sent through this
        #: client — what the reconnect reap/reconcile runs at.
        self.high_water_now = 0.0

    def __getattr__(self, op: str):
        # Only reached for names that are not real attributes: the op
        # surface, generated from the table.
        try:
            shape = self.__dict__["ops"][op]
        except KeyError:
            raise AttributeError(op) from None
        if shape is FRAME:
            return lambda frame: self.call(op, frame)
        return lambda *args: self.call(op, dict(zip(shape, args)))

    # -- the round trip ------------------------------------------------

    def call(self, op: str, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One op round trip; raises :class:`SignalingError` when the
        attempt budget is spent or the peer cannot be redialed."""
        now = frame.get("now")
        if isinstance(now, (int, float)):
            with self._state_lock:
                if now > self.high_water_now:
                    self.high_water_now = float(now)
        message = dict(frame)
        message["op"] = op
        message["client_seq"] = next(self._seq)
        reconnected = False
        reply = None
        conn = self._slots.get()
        try:
            for attempt in range(self.attempts):
                if attempt:
                    with self._state_lock:
                        self.resends += 1
                try:
                    if conn is None or conn is _LOST:
                        # Wait out a restart only while nothing has
                        # been sent; see the class docstring.
                        fresh = self._connect(
                            0.0 if attempt else self.dial_timeout)
                        if conn is _LOST:
                            reconnected = True
                            with self._state_lock:
                                self.reconnects += 1
                        conn = fresh
                    reply = self._exchange(conn, message)
                except TransportClosed:
                    conn = self._drop(conn)
                if reply is not None:
                    break
            else:
                conn = self._drop(conn)
                raise SignalingError(
                    f"{self.name!r} unreachable: no reply to {op!r} "
                    f"after {self.attempts} attempt(s)"
                )
        finally:
            self._slots.put(conn)
        if reconnected:
            self._fire_reconnect()
        return reply

    def _exchange(self, conn, message: Dict[str, Any]
                  ) -> Optional[Dict[str, Any]]:
        """Send *message*, wait for the reply carrying its sequence
        number; ``None`` when :attr:`timeout` passes without one."""
        conn.send(message)
        seq = message["client_seq"]
        # A stale reply to an earlier, resent op is discarded.
        return recv_matching(conn, self.timeout,
                             lambda reply: reply.get("client_seq") == seq)

    def _connect(self, window: float):
        """Dial, retrying with backoff for *window* seconds."""
        deadline = clock.Deadline(window)
        for attempt in itertools.count(1):
            try:
                return self._dial()
            except (SignalingError, OSError) as exc:
                if deadline.expired:
                    raise SignalingError(
                        f"{self.name!r} unreachable: redial window "
                        f"({window:g}s) exhausted"
                    ) from exc
                clock.sleep(_REDIAL.delay(attempt))

    @staticmethod
    def _drop(conn):
        """Close a connection that failed; returns the marker its slot
        goes back to the pool with, so the dial that refills it counts
        as a reconnect."""
        if conn is not None and conn is not _LOST:
            try:
                conn.close()
            except Exception:
                pass
        return _LOST

    def _fire_reconnect(self) -> None:
        if self.on_reconnect is None:
            return
        if getattr(self._local, "in_hook", False):
            return  # the hook's own ops must not recurse into it
        self._local.in_hook = True
        try:
            self.on_reconnect()
        except Exception:
            pass  # never let reconciliation break the op path
        finally:
            self._local.in_hook = False

    def close(self) -> None:
        """Close every idle pooled connection; the client stays
        usable (the next call redials)."""
        idle = []
        try:
            while True:
                idle.append(self._slots.get_nowait())
        except queue.Empty:
            pass
        for conn in idle:
            self._drop(conn)
            self._slots.put(None)
