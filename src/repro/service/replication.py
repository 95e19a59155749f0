"""WAL log-shipping replication: hot standbys with fenced failover.

The paper centralizes a domain's *entire* QoS state in one bandwidth
broker and leaves its survivability to future work (footnote 2 and
the "multiple brokers per domain" outlook).  PR 2's write-ahead
journal answers the crash: an acknowledged operation replays from
local disk.  This module answers the *machine*: the primary streams
its :class:`~repro.service.durability.FileJournal` records to N
follower replicas, each of which persists its own journal copy and
continuously replays into a warm standby
:class:`~repro.core.broker.BandwidthBroker` — so failover is a
promotion, not a cold rebuild, and read-only query load (MIB
snapshots, dry-run admissibility checks) scales horizontally across
followers.

Three durability modes gate the primary's group commit
(:class:`ReplicationHub`, plugged into
:class:`~repro.service.runtime.BrokerService`):

* ``async`` — ship with bounded lag, never wait (a reply is durable
  on the primary only);
* ``semi-sync`` — a reply resolves once **at least one** follower
  acked its records;
* ``sync`` — a reply resolves only after a **quorum** of followers
  acked (kill the primary at any point: every acknowledged admission
  is already on quorum-many standbys).

**Epoch fencing** rules out split brain: every journal record and
checkpoint carries a monotonically increasing *epoch*;
:meth:`ReplicaServer.promote` bumps it, and a follower rejects any
frame whose epoch is lower than the highest it has adopted — a
demoted primary's writes bounce, its replication hub fences itself,
and its clients get errors instead of silently diverging state.

The shipping protocol is strict request/response per follower
session, over any :mod:`repro.service.transport` connection::

    follower                                primary
       | -- hello {follower_id, last_seq, epoch} -->
       | <-- welcome {primary_id, epoch} ----------|
       | <-- append {epoch, entries: [...]} -------|
       | -- ack {seq, epoch} --------------------->|
       | <-- heartbeat {epoch} -------------------|   (idle keepalive,
       | -- ack {seq, epoch} --------------------->|    also carries fencing)
       | -- reject {epoch, reason} --------------->|   (stale primary)

Operational rule (documented, not enforced): promote the **most
advanced** follower.  A follower whose journal is ahead of a new
primary's holds records that were never quorum-acknowledged; the
session refuses to ship to it rather than silently fork history.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.admission import (
    AdmissionDecision,
    AdmissionRequest,
    RejectionReason,
)
from repro.core.broker import BandwidthBroker, BrokerStats
from repro.core.journal import JournalEntry
from repro.core.mibs import PathRecord
from repro.core.persistence import checkpoint_broker
from repro.core.policy import PolicyModule
from repro.errors import StateError
from repro.service.durability import (
    FileJournal,
    recover_broker,
    write_checkpoint,
)
from repro.service.transport import Frame, TransportClosed

__all__ = [
    "ASYNC",
    "SEMI_SYNC",
    "SYNC",
    "REPLICATION_MODES",
    "FollowerStatus",
    "FollowerSession",
    "ReplicationHub",
    "ReplicaServer",
    "PromotionReport",
    "promote_directory",
    "dry_run_admissibility",
]

#: Fire-and-forget shipping; replies never wait for follower acks.
ASYNC = "async"
#: A reply resolves once at least one follower acked its records.
SEMI_SYNC = "semi-sync"
#: A reply resolves once ``quorum`` followers acked its records.
SYNC = "sync"

REPLICATION_MODES = (ASYNC, SEMI_SYNC, SYNC)


# ----------------------------------------------------------------------
# primary side
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FollowerStatus:
    """One follower's replication health, as the primary sees it.

    :param name: session name (the follower's self-declared id once
        the handshake completes).
    :param alive: the session thread is still shipping.
    :param acked_seq: highest journal sequence the follower confirmed
        durable+applied.
    :param lag_records: ``primary durable position - acked_seq``.
    :param lag_seconds: 0.0 while caught up; otherwise seconds since
        this follower last *was* caught up — how stale a read served
        from it can be.
    :param ack_ms: mean round-trip of append->ack exchanges, ms.
    :param acks: ack frames received over the session's lifetime.
    :param detail: why a dead session ended ("" while healthy).
    """

    name: str
    alive: bool
    acked_seq: int
    lag_records: int
    lag_seconds: float
    ack_ms: float
    acks: int
    detail: str = ""


class FollowerSession:
    """One primary->follower shipping loop (its own daemon thread).

    Strict request/response: ship a batch of durable records (or a
    heartbeat when idle), then block for the follower's ``ack`` —
    which doubles as the lag/ack-latency measurement — or ``reject``,
    which fences the hub.
    """

    def __init__(self, hub: "ReplicationHub", conn: Any,
                 name: str) -> None:
        self.hub = hub
        self.conn = conn
        self.name = name
        self.alive = True
        self.detail = ""
        self.acked_seq = 0
        self.acks = 0
        self._ack_total = 0.0
        self._caught_up_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name=f"bb-ship-{name}", daemon=True,
        )

    # -- status ---------------------------------------------------------

    def status(self) -> FollowerStatus:
        with self.hub._cond:
            durable = self.hub.journal.durable_position
            lag = max(0, durable - self.acked_seq)
            if lag == 0:
                lag_seconds = 0.0
            else:
                lag_seconds = time.monotonic() - self._caught_up_at
            return FollowerStatus(
                name=self.name,
                alive=self.alive,
                acked_seq=self.acked_seq,
                lag_records=lag,
                lag_seconds=lag_seconds,
                ack_ms=(
                    self._ack_total / self.acks * 1000.0
                    if self.acks else 0.0
                ),
                acks=self.acks,
                detail=self.detail,
            )

    # -- shipping loop --------------------------------------------------

    def _run(self) -> None:
        try:
            if not self._handshake():
                return
            while not self.hub._closed:
                entries = self.hub.journal.read_durable(
                    self.acked_seq, limit=self.hub.batch_limit
                )
                if not entries:
                    with self.hub._cond:
                        if self.hub._closed:
                            break
                        if (self.hub.journal.durable_position
                                <= self.acked_seq):
                            self.hub._cond.wait(
                                self.hub.heartbeat_interval
                            )
                    entries = self.hub.journal.read_durable(
                        self.acked_seq, limit=self.hub.batch_limit
                    )
                if self.hub._closed:
                    break
                if entries:
                    frame: Frame = {
                        "kind": "append",
                        "epoch": self.hub.epoch,
                        "entries": [e.to_dict() for e in entries],
                    }
                else:
                    frame = {
                        "kind": "heartbeat", "epoch": self.hub.epoch,
                    }
                sent_at = time.monotonic()
                self.conn.send(frame)
                reply = self.conn.recv(self.hub.ack_timeout)
                if reply is None:
                    self._die(
                        f"no ack within {self.hub.ack_timeout}s"
                    )
                    return
                if not self._handle_reply(reply, sent_at):
                    return
        except TransportClosed as exc:
            self._die(str(exc))
        except Exception as exc:  # session must never kill the primary
            self._die(f"session failed: {exc}")
        else:
            self._die("hub closed")

    def _handshake(self) -> bool:
        hello = self.conn.recv(self.hub.ack_timeout)
        if hello is None or hello.get("kind") != "hello":
            self._die("follower did not say hello")
            return False
        follower_id = str(hello.get("follower_id", "")) or self.name
        follower_epoch = int(hello.get("epoch", 0))
        last_seq = int(hello.get("last_seq", 0))
        with self.hub._cond:
            self.name = follower_id
        if follower_epoch > self.hub.epoch:
            # The follower outlived a promotion this primary never saw:
            # this primary *is* the stale one.
            self.conn.send({
                "kind": "reject", "epoch": follower_epoch,
                "reason": f"primary epoch {self.hub.epoch} is stale",
            })
            self.hub._fence(follower_epoch)
            self._die(f"fenced by follower at epoch {follower_epoch}")
            return False
        if last_seq > self.hub.journal.position:
            # The follower holds records this primary never wrote —
            # shipping would fork history (see module docstring).
            self.conn.send({
                "kind": "reject", "epoch": follower_epoch,
                "reason": (
                    f"follower at seq {last_seq} is ahead of primary "
                    f"at {self.hub.journal.position}; promote the "
                    "most advanced follower instead"
                ),
            })
            self._die(f"follower ahead at seq {last_seq}")
            return False
        self.conn.send({
            "kind": "welcome",
            "epoch": self.hub.epoch,
            "primary_id": self.hub.primary_id,
        })
        with self.hub._cond:
            # Everything the follower already holds counts as acked.
            self.acked_seq = last_seq
            self.hub._cond.notify_all()
        return True

    def _handle_reply(self, reply: Frame, sent_at: float) -> bool:
        kind = reply.get("kind")
        if kind == "reject":
            epoch = int(reply.get("epoch", 0))
            self.hub._fence(epoch)
            self._die(
                f"fenced: follower rejected epoch {self.hub.epoch} "
                f"(follower at {epoch})"
            )
            return False
        if kind != "ack":
            self._die(f"unexpected frame {kind!r} instead of ack")
            return False
        latency = time.monotonic() - sent_at
        with self.hub._cond:
            seq = int(reply.get("seq", 0))
            if seq > self.acked_seq:
                self.acked_seq = seq
            self.acks += 1
            self._ack_total += latency
            if self.acked_seq >= self.hub.journal.durable_position:
                self._caught_up_at = time.monotonic()
            self.hub._cond.notify_all()
        return True

    def _die(self, detail: str) -> None:
        with self.hub._cond:
            if self.alive:
                self.alive = False
                self.detail = detail
            self.hub._cond.notify_all()
        try:
            self.conn.close()
        except Exception:
            pass


class ReplicationHub:
    """The primary's replication fan-out over one :class:`FileJournal`.

    Wire it into the service with
    ``BrokerService(broker, wal=journal, replicator=hub)``: after each
    group commit the service calls :meth:`publish` (wake the shipping
    threads) and :meth:`wait_durable` (the mode's ack gate) before any
    reply in the group resolves.

    :param journal: the primary's write-ahead journal (the hub only
        ever reads it).
    :param mode: ``async`` / ``semi-sync`` / ``sync``.
    :param quorum: follower acks required in ``sync`` mode.
    :param ack_timeout: seconds :meth:`wait_durable` (and each
        append->ack exchange) may wait before giving up.
    :param heartbeat_interval: idle keepalive period, seconds — also
        how fast fencing propagates to an idle primary.
    :param batch_limit: max records shipped per append frame.
    :param primary_id: name announced in the ``welcome`` frame.
    """

    def __init__(
        self,
        journal: FileJournal,
        *,
        mode: str = ASYNC,
        quorum: int = 2,
        ack_timeout: float = 10.0,
        heartbeat_interval: float = 0.2,
        batch_limit: int = 256,
        primary_id: str = "primary",
    ) -> None:
        if mode not in REPLICATION_MODES:
            raise StateError(
                f"unknown replication mode {mode!r} "
                f"(expected one of {REPLICATION_MODES})"
            )
        if quorum < 1:
            raise StateError(f"quorum must be >= 1, got {quorum}")
        self.journal = journal
        self.mode = mode
        self.quorum = int(quorum)
        self.ack_timeout = float(ack_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.batch_limit = int(batch_limit)
        self.primary_id = primary_id
        self._cond = threading.Condition()
        self._sessions: List[FollowerSession] = []
        self._names = itertools.count()
        self._closed = False
        self._fenced_epoch: Optional[int] = None

    # -- wiring ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The primary's current epoch (the journal's)."""
        return self.journal.epoch

    @property
    def fenced(self) -> bool:
        """Has any follower rejected this primary as stale?"""
        with self._cond:
            return self._fenced_epoch is not None

    def _fence(self, epoch: int) -> None:
        """A follower reported a newer epoch: this primary is demoted.

        Permanent for the hub's lifetime — every subsequent
        :meth:`wait_durable` raises, so the service answers its
        clients with errors instead of acknowledging writes the
        cluster has moved past.
        """
        with self._cond:
            if (self._fenced_epoch is None
                    or epoch > self._fenced_epoch):
                self._fenced_epoch = epoch
            self._cond.notify_all()

    def add_follower(self, conn: Any,
                     name: Optional[str] = None) -> FollowerSession:
        """Start shipping to the follower on *conn*."""
        with self._cond:
            if self._closed:
                raise StateError("replication hub is closed")
            session = FollowerSession(
                self, conn,
                name or f"follower-{next(self._names)}",
            )
            self._sessions.append(session)
        session._thread.start()
        return session

    # -- the commit gate ------------------------------------------------

    def publish(self, upto: Optional[int] = None) -> None:
        """Wake the shipping threads (new durable records exist)."""
        with self._cond:
            self._cond.notify_all()

    def wait_durable(self, seq: int) -> None:
        """Block until the mode's ack requirement covers *seq*.

        ``async`` returns immediately (unless fenced — a demoted
        primary fails fast in every mode).  Raises
        :class:`~repro.errors.StateError` on fencing or when the
        requirement is not met within ``ack_timeout`` — the caller
        must then answer its client with an error, because the
        operation's replication guarantee does not hold.
        """
        needed = {ASYNC: 0, SEMI_SYNC: 1, SYNC: self.quorum}[self.mode]
        deadline = time.monotonic() + self.ack_timeout
        with self._cond:
            while True:
                if self._fenced_epoch is not None:
                    raise StateError(
                        f"primary fenced: epoch {self.epoch} was "
                        f"superseded by epoch {self._fenced_epoch}"
                    )
                if needed == 0:
                    return
                acked = sum(
                    1 for s in self._sessions if s.acked_seq >= seq
                )
                if acked >= needed:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    live = sum(1 for s in self._sessions if s.alive)
                    raise StateError(
                        f"replication ack timeout: {acked}/{needed} "
                        f"follower acks for seq {seq} within "
                        f"{self.ack_timeout}s ({live} live "
                        f"follower(s), mode {self.mode!r})"
                    )
                self._cond.wait(remaining)

    # -- observability --------------------------------------------------

    def status(self) -> List[FollowerStatus]:
        """Per-follower replication health, session order."""
        return [session.status() for session in self._sessions]

    def min_acked_seq(self) -> int:
        """The slowest live follower's ack position (0 if none)."""
        with self._cond:
            live = [s.acked_seq for s in self._sessions if s.alive]
        return min(live) if live else 0

    def close(self) -> None:
        """Stop shipping and join the session threads."""
        with self._cond:
            self._closed = True
            sessions = list(self._sessions)
            self._cond.notify_all()
        for session in sessions:
            try:
                session.conn.close()
            except Exception:
                pass
        for session in sessions:
            if session._thread.is_alive():
                session._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# follower side
# ----------------------------------------------------------------------


def dry_run_admissibility(
    broker: BandwidthBroker,
    flow_id: str,
    spec,
    delay_requirement: float,
    ingress: str,
    egress: str,
    *,
    path_nodes: Optional[Sequence[str]] = None,
) -> AdmissionDecision:
    """Would *broker*'s domain admit this per-flow request right now?

    A strictly read-only admissibility check: policy control, path
    resolution over *ephemeral* (unregistered) path records, and the
    schedulability test phase — no reservation, no MIB write, no
    rejection counted.  Shared by the read-replica query path
    (:meth:`ReplicaServer.dry_run`) and the edge gateway's ``dry-run``
    frame; the caller is responsible for whatever synchronization its
    consistency story needs (the replica holds its apply lock, the
    gateway holds the candidate links' shard locks).

    Class-based requests are not supported: a class join moves the
    domain-wide contingency schedule, which has no side-effect-free
    test phase.
    """
    request = AdmissionRequest(
        flow_id=flow_id, spec=spec,
        delay_requirement=delay_requirement,
    )
    verdict = broker.policy.evaluate(request, ingress, egress)
    if not verdict.allowed:
        return AdmissionDecision(
            admitted=False, flow_id=flow_id,
            reason=RejectionReason.POLICY,
            detail=f"{verdict.rule}: {verdict.detail}",
        )
    if path_nodes is not None:
        candidate_nodes = [list(path_nodes)]
    else:
        candidate_nodes = broker.routing.shortest_paths(ingress, egress)
    if not candidate_nodes:
        return AdmissionDecision(
            admitted=False, flow_id=flow_id,
            reason=RejectionReason.NO_PATH,
            detail=f"{egress!r} unreachable from {ingress!r}",
        )
    ordered = sorted(
        candidate_nodes,
        key=lambda nodes: (
            -broker.routing.bottleneck(nodes), list(nodes),
        ),
    )
    decision: Optional[AdmissionDecision] = None
    for nodes in ordered:
        links = [
            broker.node_mib.link(src, dst)
            for src, dst in zip(nodes, nodes[1:])
        ]
        path = PathRecord("->".join(nodes), tuple(nodes), links)
        decision = broker.perflow.test(request, path)
        if decision.admitted:
            return decision
    assert decision is not None
    return decision


class ReplicaServer:
    """A hot-standby broker continuously replaying a primary's WAL.

    The replica owns its *own* journal directory: every shipped record
    is persisted (``append_entry`` + group commit) **before** it is
    replayed into the standby broker and acked — so the replica's
    directory recovers exactly like a primary's, and promotion is
    local work.

    A replica also serves **read-only** queries while it follows —
    :meth:`stats`, :meth:`mib_snapshot` and :meth:`dry_run` (a
    no-side-effect admissibility check) — which is how query load
    scales horizontally across followers.

    :param directory: the replica's journal/checkpoint directory.  If
        it already holds state (a restarted replica), the standby is
        recovered from it and the primary ships only the suffix.
    :param broker_factory: builds the provisioned-but-empty twin
        broker (topology provisioning is not journaled — same
        contract as cold :func:`recover_broker`).
    :param follower_id: name sent in the ``hello`` frame.
    :param policy: optional policy module for the recovered broker.
    :param fsync: ``False`` skips physical fsyncs (tests/benchmarks).
    """

    def __init__(
        self,
        directory,
        broker_factory: Callable[[], BandwidthBroker],
        *,
        follower_id: str = "replica",
        policy: Optional[PolicyModule] = None,
        fsync: bool = True,
        segment_bytes: Optional[int] = None,
    ) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.follower_id = follower_id
        report = recover_broker(
            self.directory, policy=policy, broker_factory=broker_factory,
        )
        kwargs: Dict[str, Any] = {"fsync": fsync}
        if segment_bytes is not None:
            kwargs["segment_bytes"] = segment_bytes
        self.journal = FileJournal(self.directory, **kwargs)
        self.journal.set_epoch(max(report.epoch, self.journal.epoch))
        #: The replay the live apply loop continues: catch-up recovery
        #: and shipped records fold into one state (broker, 2PC table).
        self.state = report
        self.broker = report.broker
        #: Journal position replayed into the standby broker.
        self.applied_seq = self.journal.position
        #: Shipped entries replayed to a decision / skipped (the
        #: primary's deterministic failures, re-raised identically).
        self.applied_entries = 0
        self.skipped_entries = 0
        #: Frames bounced for carrying a stale epoch.
        self.rejected_frames = 0
        self.acks_sent = 0
        self.primary_id: Optional[str] = None
        self.promoted = False
        self._lock = threading.RLock()
        self._conn: Optional[Any] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.detail = ""

    # -- lifecycle ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Highest epoch this replica has adopted."""
        return self.journal.epoch

    @property
    def following(self) -> bool:
        """Is the apply loop currently attached to a primary?"""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def connect(self, conn: Any) -> "ReplicaServer":
        """Attach to a primary over *conn* and start applying."""
        with self._lock:
            if self.promoted:
                raise StateError(
                    f"replica {self.follower_id!r} was promoted and "
                    "no longer follows"
                )
            if self.following:
                raise StateError(
                    f"replica {self.follower_id!r} already follows a "
                    "primary"
                )
            self._conn = conn
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=f"bb-replica-{self.follower_id}",
                daemon=True,
            )
        self._thread.start()
        return self

    def disconnect(self) -> None:
        """Detach from the primary (the standby stays warm)."""
        self._stop.set()
        conn = self._conn
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._thread = None
        self._conn = None

    def close(self) -> None:
        """Detach and close the replica's journal."""
        self.disconnect()
        self.journal.close()

    # -- the apply loop -------------------------------------------------

    def _run(self) -> None:
        conn = self._conn
        assert conn is not None
        try:
            conn.send({
                "kind": "hello",
                "follower_id": self.follower_id,
                "last_seq": self.journal.position,
                "epoch": self.epoch,
            })
            welcome = conn.recv(10.0)
            if welcome is None:
                self.detail = "no welcome from primary"
                return
            if welcome.get("kind") == "reject":
                self.detail = str(welcome.get("reason", "rejected"))
                return
            if welcome.get("kind") != "welcome":
                self.detail = (
                    f"unexpected frame {welcome.get('kind')!r} "
                    "instead of welcome"
                )
                return
            if not self._adopt_or_reject(conn, welcome):
                return
            self.primary_id = str(welcome.get("primary_id", ""))
            while not self._stop.is_set():
                frame = conn.recv(0.2)
                if frame is None:
                    continue
                self._handle(conn, frame)
        except TransportClosed as exc:
            self.detail = str(exc)
        except Exception as exc:  # the standby must survive bad frames
            self.detail = f"apply loop failed: {exc}"

    def _adopt_or_reject(self, conn: Any, frame: Frame) -> bool:
        """Enforce epoch monotonicity on one inbound frame.

        Frames from a newer primary raise our epoch; frames from a
        *stale* one (a demoted primary that kept writing) are bounced
        with a ``reject`` — the split-brain fence.
        """
        epoch = int(frame.get("epoch", 0))
        if epoch < self.epoch:
            self.rejected_frames += 1
            conn.send({
                "kind": "reject",
                "epoch": self.epoch,
                "reason": (
                    f"stale epoch {epoch} < {self.epoch} "
                    f"(follower {self.follower_id!r})"
                ),
            })
            return False
        if epoch > self.epoch:
            with self._lock:
                self.journal.set_epoch(epoch)
        return True

    def _handle(self, conn: Any, frame: Frame) -> None:
        kind = frame.get("kind")
        if kind not in ("append", "heartbeat"):
            self.detail = f"ignoring unexpected frame {kind!r}"
            return
        if not self._adopt_or_reject(conn, frame):
            return
        if kind == "append":
            entries = [
                JournalEntry.from_dict(data)
                for data in frame.get("entries", [])
            ]
            self._apply(entries)
        conn.send({
            "kind": "ack", "seq": self.applied_seq, "epoch": self.epoch,
        })
        self.acks_sent += 1

    def _apply(self, entries: Sequence[JournalEntry]) -> None:
        with self._lock:
            # Re-shipped prefixes (a reconnect overlap) are idempotent.
            fresh = [
                entry for entry in entries
                if entry.seq > self.journal.position
            ]
            if not fresh:
                return
            # Persist-then-replay, the primary's own write-ahead
            # discipline: a replica crash between the two recovers the
            # records from its journal copy.
            for entry in fresh:
                self.journal.append_entry(entry)
            self.journal.commit()
            applied, skipped = self.state.apply(fresh)
            self.applied_entries += applied
            self.skipped_entries += skipped
            self.applied_seq = self.journal.position

    # -- read-only queries ----------------------------------------------

    def stats(self) -> BrokerStats:
        """The standby broker's control-plane counters (read-only)."""
        with self._lock:
            return self.broker.stats()

    def mib_snapshot(self) -> Dict[str, Any]:
        """A full MIB snapshot, consistent at ``applied_seq``.

        The same JSON-compatible shape as a checkpoint — this is the
        read-replica answer to "dump the domain's QoS state" without
        touching the primary.
        """
        with self._lock:
            return checkpoint_broker(
                self.broker, journal_seq=self.applied_seq,
                epoch=self.epoch,
            )

    def dry_run(
        self,
        flow_id: str,
        spec,
        delay_requirement: float,
        ingress: str,
        egress: str,
        *,
        path_nodes: Optional[Sequence[str]] = None,
    ) -> AdmissionDecision:
        """Would the domain admit this per-flow request *right now*?

        A strictly read-only admissibility check against the standby's
        replicated state: policy control, path resolution over
        *ephemeral* (unregistered) path records, and the
        schedulability test phase — no reservation, no MIB write, no
        rejection counted, so any number of these run against a read
        replica without perturbing replay equivalence.

        Class-based requests raise :class:`~repro.errors.StateError`:
        a class join moves the domain-wide contingency schedule, which
        has no side-effect-free test phase.
        """
        with self._lock:
            return dry_run_admissibility(
                self.broker, flow_id, spec, delay_requirement,
                ingress, egress, path_nodes=path_nodes,
            )

    # -- failover -------------------------------------------------------

    def promote(self) -> "PromotionReport":
        """Fence and take over: this standby becomes the new primary.

        Detaches from the (presumed dead) primary, bumps the epoch to
        one above everything this replica has seen, and writes a
        checkpoint under the new epoch — making the fencing term
        durable before the first new write.  The returned report
        carries the live broker and the journal, ready to serve::

            report = replica.promote()
            hub = ReplicationHub(report.journal, mode="sync")
            service = BrokerService(report.broker,
                                    wal=report.journal,
                                    replicator=hub)

        Any surviving old primary is now one epoch behind: every
        follower that adopts the new epoch bounces its writes.
        """
        self.disconnect()
        with self._lock:
            new_epoch = self.epoch + 1
            self.journal.set_epoch(new_epoch)
            checkpoint_path = write_checkpoint(
                self.directory, self.broker, self.journal,
            )
            self.promoted = True
        return PromotionReport(
            broker=self.broker,
            journal=self.journal,
            epoch=new_epoch,
            checkpoint_path=checkpoint_path,
            last_seq=self.journal.position,
        )


@dataclass
class PromotionReport:
    """What a promotion produced: a servable primary.

    :param broker: the (previously standby) broker, now writable.
    :param journal: its journal, stamped with the new epoch — pass it
        as ``wal=`` to the new :class:`BrokerService`.
    :param epoch: the new fencing epoch.
    :param checkpoint_path: the fencing checkpoint written during
        promotion.
    :param last_seq: the journal position taken over.
    """

    broker: BandwidthBroker
    journal: FileJournal
    epoch: int
    checkpoint_path: str
    last_seq: int


def promote_directory(
    directory,
    *,
    policy: Optional[PolicyModule] = None,
    broker_factory: Optional[Callable[[], BandwidthBroker]] = None,
) -> PromotionReport:
    """Promote a replica's journal *directory* to a new primary.

    The offline counterpart of :meth:`ReplicaServer.promote` (CLI:
    ``repro promote DIR``): recover the broker from the directory,
    bump the epoch above everything recorded there, and write the
    fencing checkpoint.  The returned journal is open and ready to be
    served as the new primary's WAL.
    """
    report = recover_broker(
        directory, policy=policy, broker_factory=broker_factory,
    )
    journal = FileJournal(directory)
    new_epoch = max(report.epoch, journal.epoch) + 1
    journal.set_epoch(new_epoch)
    checkpoint_path = write_checkpoint(directory, report.broker, journal)
    return PromotionReport(
        broker=report.broker,
        journal=journal,
        epoch=new_epoch,
        checkpoint_path=checkpoint_path,
        last_seq=journal.position,
    )
