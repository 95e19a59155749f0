"""One broker shard of a partitioned domain, with 2PC participant ops.

A :class:`BrokerShard` wraps a full existing stack — a provisioned
:class:`~repro.core.broker.BandwidthBroker` for the links this shard
owns, a :class:`~repro.service.runtime.BrokerService` worker pool in
front of it, and (optionally) a :class:`~repro.service.durability.
FileJournal` WAL — and adds the **participant
half** of the cross-shard admission protocol:

``prepare``
    Places a *bandwidth hold* for a transaction on this shard's
    segment of a spanning path: a plain link reservation under the
    key ``txn:<txid>``, so the eq.-6 / Figure-4 feasibility checks of
    concurrent admissions naturally see held + committed state
    through ``residual_rate`` and the deadline ledgers.  The hold is
    journaled (``cprepare``) before it is placed and fsynced before
    it is acked — a prepared shard that crashes recovers its promise.
``commit``
    Converts the hold into ordinary admitted-flow state: the hold key
    is released and each contiguous run of the segment's links is
    pinned as a real path with a :class:`~repro.core.mibs.FlowRecord`
    reserved on it.  Committed spanning flows are therefore *native*
    broker state — checkpoints capture them, ``restore_broker``
    replays them, and teardown is a normal release.
``abort``
    Releases the hold and journals a **tombstone** even for an
    unknown transaction (presumed abort): a late, retried prepare
    that lost the race to its own abort finds the tombstone and
    cannot re-strand capacity.
``release``
    Cross-shard teardown of a committed flow's local segment.

Every operation journals its record and applies it through the same
:data:`~repro.core.journal.KINDS` row replay runs, into the wrapped
service's state (whose ``txns`` is the 2PC table).  Every operation is
**idempotent by transaction id** (a retry is answered from the
transaction's state), serialized per shard by an operation lock, and
guarded against superseded coordinators by the partition map's
``(version, epoch)`` stamp.  Holds are leased
(:class:`~repro.edge.leases.LeaseTable` keyed by txid): if the
coordinator crashes between prepare and decision, :meth:`reap`
expires the hold into a journaled abort, so capacity is never
stranded — the recovering coordinator's retry then meets the
tombstone and compensates.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.admission import AdmissionDecision, PerFlowAdmission, _EPS
from repro.core.broker import BandwidthBroker
from repro.core.journal import _flow_keys, _resolve_links
from repro.core.mibs import LinkQoSState, PathRecord
from repro.edge.leases import LeaseTable
from repro.errors import StateError, TopologyError
from repro.service.durability import (
    FileJournal,
    RecoveryReport,
    recover_broker,
    write_checkpoint,
)
from repro.service.runtime import BrokerService
from repro.traffic.spec import TSpec
from repro.vtrs.delay_bounds import PathProfile

from repro.cluster.partition import PartitionMap

__all__ = [
    "BrokerShard",
    "ShardRecovery",
    "recover_shard",
]


# ----------------------------------------------------------------------
# the shard
# ----------------------------------------------------------------------

class BrokerShard:
    """One shard: a full broker stack plus 2PC participant operations.

    :param name: shard name, as the partition map knows it.
    :param broker: broker provisioned with this shard's links/paths.
    :param partition: the map this shard validates frame stamps
        against.
    :param wal: optional shared WAL — the same journal the wrapped
        :class:`BrokerService` write-aheads requests to; cluster
        records interleave in lock order, so one replay pass rebuilds
        both kinds of state.  They ride the service's group commit,
        and a failed commit raises out of the 2PC op, so no reply
        leaves the shard for a record that is not on disk.
    :param hold_duration: seconds a prepare's hold survives without a
        decision before :meth:`reap` may expire it.
    :param workers / lock_shards / queue_limit / edge_rtt:
        forwarded to the wrapped service.
    """

    def __init__(
        self,
        name: str,
        broker: BandwidthBroker,
        partition: PartitionMap,
        *,
        wal: Optional[FileJournal] = None,
        hold_duration: float = 30.0,
        workers: int = 2,
        lock_shards: int = 4,
        queue_limit: int = 256,
        edge_rtt: float = 0.0,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.name = name
        self.broker = broker
        self.partition = partition
        self.wal = wal
        self.service = BrokerService(
            broker,
            workers=workers,
            shards=lock_shards,
            queue_limit=queue_limit,
            edge_rtt=edge_rtt,
            wal=wal,
            default_timeout=default_timeout,
        )
        self.holds = LeaseTable(duration=hold_duration)
        self._admission = PerFlowAdmission(
            broker.node_mib, broker.flow_mib, broker.path_mib
        )
        #: Serializes cluster ops against each other; the wrapped
        #: service's workers take only the link-shard locks, so the
        #: established order (_op_lock -> shard locks) cannot deadlock
        #: against them.
        self._op_lock = threading.RLock()
        self.prepares = 0
        self.prepared_total = 0
        self.committed_total = 0
        self.aborted_total = 0
        self.reaped_total = 0
        self.released_total = 0
        self.duplicate_ops = 0
        self.stale_frames = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "BrokerShard":
        self.service.start()
        return self

    def stop(self, *, close_wal: bool = True) -> None:
        self.service.stop()
        if close_wal and self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "BrokerShard":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- frame plumbing -------------------------------------------------

    def _stale(self, frame: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if self.partition.accepts(frame):
            return None
        self.stale_frames += 1
        return {
            "status": "error",
            "error": "stale-map",
            "shard": self.name,
            "detail": (
                f"shard holds map v{self.partition.version} "
                f"e{self.partition.epoch}, frame stamped "
                f"v{frame.get('map_version')} e{frame.get('map_epoch')}"
            ),
        }

    def _reject(self, txid: str, reason: str, detail: str
                ) -> Dict[str, Any]:
        return {
            "status": "rejected", "txid": txid, "shard": self.name,
            "reason": reason, "detail": detail,
        }

    def _txn_reply(self, txid: str) -> Dict[str, Any]:
        """The answer to any op on a known *txid*, from its state in
        the service's 2PC table (``state.txns``): live and recovered
        shards answer duplicates alike."""
        txn = self.service.state.txns[txid]
        if txn["state"] == "rejected":
            return dict(txn["reply"])
        reply = {"status": txn["state"], "txid": txid, "shard": self.name}
        if txn["state"] != "aborted":
            reply.update(rate=txn["rate"], delay=txn["delay"])
        if txn["state"] == "committed":
            reply["flows"] = list(txn["flows"])
        return reply

    # -- one-hop (single-shard) service ---------------------------------

    def admit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Single-shard admission: one hop into the wrapped service."""
        stale = self._stale(frame)
        if stale is not None:
            return stale
        path_nodes = frame.get("path_nodes")
        reply = self.service.request(
            frame["flow_id"],
            TSpec.from_dict(frame["spec"]),
            frame.get("delay_requirement", 0.0),
            frame.get("ingress", ""),
            frame.get("egress", ""),
            service_class=frame.get("service_class", ""),
            path_nodes=tuple(path_nodes) if path_nodes else None,
            now=frame.get("now", 0.0),
        )
        return self._service_reply(reply)

    def teardown(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Single-shard teardown through the wrapped service."""
        stale = self._stale(frame)
        if stale is not None:
            return stale
        reply = self.service.teardown(
            frame["flow_id"], now=frame.get("now", 0.0)
        )
        return self._service_reply(reply)

    def _service_reply(self, reply) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "status": reply.status,
            "admitted": bool(reply.admitted),
            "shard": self.name,
            "detail": reply.detail,
            "retry_after": reply.retry_after,
        }
        decision = reply.decision
        if decision is not None:
            data.update({
                "rate": decision.rate,
                "delay": decision.delay,
                "path_id": decision.path_id,
                "reason": decision.reason.value if decision.reason else "",
                "decision_detail": decision.detail,
            })
        return data

    # -- 2PC participant ops --------------------------------------------

    def prepare(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Phase 1: journal + place a bandwidth hold for ``txid``.

        ``mode`` selects the feasibility check:

        * ``"fixed"`` — the coordinator computed the grant from the
          full path's static profile (eq. 6); this shard verifies the
          rate against its local residuals — exactly the
          ``low > high`` arm of the fused broker's rate-only test,
          distributed (min over shards of the local bound *is* the
          path bound).
        * ``"choose"`` — this shard owns every delay-based hop: it
          runs the Figure-4 scan over a synthetic segment record
          carrying the full path's profile, and returns the granted
          ``(rate, delay)`` pair for the remaining shards to verify.

        A rejected prepare mutates no broker state and journals
        nothing; its reply is kept in the 2PC table so retries get it
        back.
        """
        stale = self._stale(frame)
        if stale is not None:
            return stale
        txid = frame["txid"]
        now = frame.get("now", 0.0)
        txns = self.service.state.txns
        with self._op_lock:
            self.prepares += 1
            if txid in txns:
                self.duplicate_ops += 1
                return self._txn_reply(txid)
            try:
                links = _resolve_links(self.broker, frame["links"])
            except TopologyError as exc:
                return {
                    "status": "error", "error": "unknown-link",
                    "txid": txid, "shard": self.name, "detail": str(exc),
                }
            spec = TSpec.from_dict(frame["spec"])
            flow_id = frame["flow_id"]
            with self.service.shards.locked(
                    self.service.shards.shards_for(links)):
                if flow_id in self.broker.flow_mib:
                    verdict = self._reject(
                        txid, "duplicate",
                        f"flow {flow_id!r} already admitted on shard "
                        f"{self.name!r}",
                    )
                else:
                    verdict = self._feasible(frame, spec, links)
                if isinstance(verdict, dict):
                    txns[txid] = {
                        "txid": txid, "state": "rejected", "links": [],
                        "reply": verdict,
                    }
                    return dict(verdict)
                rate, delay = verdict
                self.service.record("cprepare", {
                    "txid": txid,
                    "flow_id": flow_id,
                    "links": [list(link.link_id) for link in links],
                    "rate": rate,
                    "delay": delay,
                    "spec": spec.to_dict(),
                    "delay_requirement": frame.get("delay_requirement", 0.0),
                    "now": now,
                })
                self.holds.grant(
                    txid, frame.get("coordinator", "coordinator"), now,
                )
            # Hold is durable before the promise leaves the shard.
            self.service.commit()
            self.prepared_total += 1
            return self._txn_reply(txid)

    def _feasible(self, frame: Dict[str, Any], spec: TSpec,
                  links: Sequence[LinkQoSState]):
        """Local feasibility for one prepare; pair or reject reply."""
        txid = frame["txid"]
        if frame.get("mode") == "choose":
            profile = PathProfile(
                hops=frame["profile"]["hops"],
                rate_based_hops=frame["profile"]["rate_based_hops"],
                d_tot=frame["profile"]["d_tot"],
                max_packet=frame["profile"]["max_packet"],
            )
            nodes = [links[0].link_id[0]]
            nodes += [link.link_id[1] for link in links]
            segment = PathRecord(f"txn-seg:{txid}", nodes, links)
            # The scan reads only profile constants, the local delay
            # ledgers, and the local residual cap; installing the full
            # path's profile makes the synthetic segment compute the
            # fused broker's bounds (rate-cap monotonicity covers the
            # remote residuals, which the other shards verify).
            segment._profile = profile
            result = self._admission.probe_min_rate_pair(
                spec, frame["delay_requirement"], segment
            )
            if isinstance(result, AdmissionDecision):
                return self._reject(
                    txid,
                    result.reason.value if result.reason else "rejected",
                    result.detail,
                )
            return result
        rate = frame["rate"]
        high = min(
            spec.peak, min(link.residual_rate for link in links)
        )
        if rate > high * (1 + _EPS) + _EPS:
            return self._reject(
                txid, "insufficient-bandwidth",
                f"feasible range empty: need r in "
                f"[{rate:.1f}, {high:.1f}] b/s on shard {self.name!r}",
            )
        return rate, frame.get("delay", 0.0)

    def commit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Phase 2: finalize a prepared hold into native flow state."""
        stale = self._stale(frame)
        if stale is not None:
            return stale
        txid = frame["txid"]
        now = frame.get("now", 0.0)
        with self._op_lock:
            txn = self.service.state.txns.get(txid)
            if txn is None:
                # History may have been checkpoint-pruned: answer by
                # effect so a re-driven commit stays idempotent.
                flow_id = frame.get("flow_id", "")
                if flow_id and flow_id in self.broker.flow_mib:
                    return {
                        "status": "committed", "txid": txid,
                        "shard": self.name,
                    }
                return {
                    "status": "unknown", "txid": txid, "shard": self.name,
                }
            if txn["state"] == "committed":
                self.duplicate_ops += 1
                return self._txn_reply(txid)
            if txn["state"] in ("aborted", "rejected"):
                return {
                    "status": "aborted", "txid": txid, "shard": self.name,
                }
            links = _resolve_links(self.broker, txn["links"])
            with self.service.shards.locked(
                    self.service.shards.shards_for(links)):
                self.service.record("ccommit", {"txid": txid, "now": now})
            self.service.commit()
            self.holds.release(txid)
            self.committed_total += 1
            return self._txn_reply(txid)

    def abort(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Phase 2 (negative) / reap path: release and tombstone."""
        stale = self._stale(frame)
        if stale is not None:
            return stale
        with self._op_lock:
            return self._abort_locked(
                frame["txid"], frame.get("now", 0.0)
            )

    def _abort_locked(self, txid: str, now: float) -> Dict[str, Any]:
        txn = self.service.state.txns.get(txid)
        if txn is not None and txn["state"] == "committed":
            # Too late: the decision already landed.  The coordinator
            # compensates with a release of the flow instead.
            return self._txn_reply(txid)
        if txn is not None and txn["state"] == "aborted":
            self.duplicate_ops += 1
            return self._txn_reply(txid)
        # A prepared txid's holds are released; an unknown or rejected
        # one gets a tombstone: deterministic on replay, and it blocks
        # a late retried prepare for good.
        links = _resolve_links(
            self.broker, txn["links"] if txn is not None else [],
        )
        with self.service.shards.locked(
                self.service.shards.shards_for(links)):
            self.service.record("cabort", {"txid": txid, "now": now})
        self.service.commit()
        self.holds.release(txid)
        self.aborted_total += 1
        return self._txn_reply(txid)

    def release(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Cross-shard teardown of a committed flow's local segment."""
        stale = self._stale(frame)
        if stale is not None:
            return stale
        flow_id = frame["flow_id"]
        now = frame.get("now", 0.0)
        with self._op_lock:
            keys = _flow_keys(self.broker, flow_id)
            if not keys:
                return {
                    "status": "released", "flows": [],
                    "shard": self.name,
                }
            links: List[LinkQoSState] = []
            for key in keys:
                record = self.broker.flow_mib.get(key)
                links.extend(self.broker.path_mib.get(record.path_id).links)
            with self.service.shards.locked(
                    self.service.shards.shards_for(links)):
                removed = self.service.record(
                    "crelease", {"flow_id": flow_id, "now": now}
                )
            self.service.commit()
            self.released_total += 1
            return {
                "status": "released", "flows": removed,
                "shard": self.name,
            }

    def reap(self, now: float) -> Dict[str, Any]:
        """Expire overdue holds into journaled aborts.

        The anti-stranding guarantee: a coordinator that died between
        prepare and decision leaves leased holds behind; reaping turns
        each into the same tombstoned abort an explicit ABORT would
        have produced, so the capacity returns and any later decision
        retry meets a deterministic verdict.
        """
        with self._op_lock:
            due = self.holds.expire_due(now)
            reaped = []
            for lease in due:
                self._abort_locked(lease.flow_id, now)
                reaped.append(lease.flow_id)
            self.reaped_total += len(reaped)
            return {
                "status": "reaped", "txids": reaped, "shard": self.name,
            }

    # -- observability / durability -------------------------------------

    def status(self, frame: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
        """Control-plane counters (also served as a remote op)."""
        with self._op_lock:
            states: Dict[str, int] = {}
            for txn in self.service.state.txns.values():
                states[txn["state"]] = states.get(txn["state"], 0) + 1
            return {
                "status": "ok",
                "shard": self.name,
                "map_version": self.partition.version,
                "map_epoch": self.partition.epoch,
                "flows": len(self.broker.flow_mib),
                "txns": states,
                "holds": self.holds.counters(),
                "prepares": self.prepares,
                "prepared": self.prepared_total,
                "committed": self.committed_total,
                "aborted": self.aborted_total,
                "reaped": self.reaped_total,
                "released": self.released_total,
                "duplicates": self.duplicate_ops,
                "stale_frames": self.stale_frames,
            }

    def stats(self, frame: Optional[Dict[str, Any]] = None
              ) -> Dict[str, Any]:
        """Cross-process stats snapshot (served as the ``stats`` op).

        Bundles the wrapped service's :class:`~repro.service.stats.
        ServiceStats` with the shard's 2PC counters and the serving
        pid, so a parent aggregating N shard processes can label each
        sample set with the process it came from.
        """
        service = self.service.stats().as_dict()
        cluster = self.status()
        cluster.pop("status", None)
        return {
            "status": "ok",
            "shard": self.name,
            "pid": os.getpid(),
            "service": service,
            "cluster": cluster,
        }

    def dump(self, frame: Optional[Dict[str, Any]] = None
             ) -> Dict[str, Any]:
        """Per-link reservation state (served as the ``dump`` op).

        The differential harness compares this against a fused
        single-broker oracle, and cross-process clusters use it to
        prove zero stranded ``txn:`` holds after a crash — the shard's
        own view of its links, not the parent's stale copy.
        """
        with self._op_lock:
            links: Dict[str, Dict[str, Any]] = {}
            for link in self.broker.node_mib.links():
                links[f"{link.link_id[0]}->{link.link_id[1]}"] = {
                    "reserved_rate": link.reserved_rate,
                    "keys": sorted(link.reservation_keys()),
                }
            return {
                "status": "ok",
                "shard": self.name,
                "flows": sorted(
                    record.flow_id
                    for record in self.broker.flow_mib.records()
                ),
                "links": links,
            }

    def checkpoint(self) -> str:
        """Write a hold-quiescent checkpoint of this shard's broker.

        Holds are journal-only state (checkpoints serialize admitted
        flows, not transactions), so checkpointing with outstanding
        prepares would silently drop them; refuse instead.
        """
        if self.wal is None:
            raise StateError(f"shard {self.name!r} has no WAL")
        with self._op_lock:
            if self.holds.counters()["active"]:
                raise StateError(
                    f"shard {self.name!r} has outstanding 2PC holds; "
                    "resolve or reap them before checkpointing"
                )
            return write_checkpoint(
                self.wal.directory, self.broker, self.wal
            )


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------

@dataclass
class ShardRecovery:
    """What :func:`recover_shard` rebuilt.

    :param shard: the recovered shard (service not yet started).
    :param report: the underlying broker recovery report — now the
        shard service's live state, so its ``txns`` is the shard's
        transaction table.
    :param prepared: txids still holding capacity — the coordinator's
        recovery (or a reap after the hold lease runs out) resolves
        them.
    """

    shard: BrokerShard
    report: RecoveryReport
    prepared: Tuple[str, ...] = ()


def recover_shard(
    directory,
    *,
    name: str,
    partition: PartitionMap,
    broker_factory=None,
    policy=None,
    now: float = 0.0,
    fsync: bool = True,
    **shard_kwargs,
) -> ShardRecovery:
    """Rebuild a :class:`BrokerShard` from its journal directory.

    One replay pass over the shared WAL rebuilds both the service
    state (requests/terminations) and the cluster state (holds and
    the transaction table); the journal is then reopened for
    appending (sequence numbers resume) and a fresh shard is
    assembled around the recovered broker.  Recovered holds restart
    their expiry lease at *now* — the conservative choice, since the
    original grant instant did not survive the crash.
    """
    report = recover_broker(
        directory, policy=policy, broker_factory=broker_factory,
    )
    journal = FileJournal(directory, fsync=fsync)
    shard = BrokerShard(
        name, report.broker, partition, wal=journal, **shard_kwargs,
    )
    # The replayed state is the live one: its 2PC table answers
    # duplicates exactly as the crashed shard's did.
    shard.service.state = report
    for txid in report.prepared():
        shard.holds.grant(txid, "recovered", now)
    return ShardRecovery(
        shard=shard,
        report=report,
        prepared=tuple(report.prepared()),
    )
