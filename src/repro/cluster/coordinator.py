"""Cluster coordinator: one-hop local admission, 2PC for spanning paths.

The :class:`ClusterCoordinator` is the cluster's signaling front: it
routes each request by the :class:`~repro.cluster.partition.
PartitionMap`, hands single-shard paths to the owning shard in one
hop (the common case the topology-aware map maximizes), and runs a
presumed-abort two-phase commit for paths whose links span shards.

Decision equivalence with a fused single broker, by construction:

* **rate-only spanning paths** — eq. (6)'s minimal rate is a pure
  function of the *static* path profile, which the coordinator holds
  in its atlas; the grant ``r = max(rho, r_min)`` does not depend on
  residuals at all.  Feasibility is the only distributed part, and
  ``low > min(peak, residual)`` over the whole path is exactly
  "``low > min(peak, local residual)`` on at least one shard" — the
  per-shard prepare check.
* **mixed spanning paths** — the Figure-4 scan needs every
  delay-based hop's deadline ledger, so the map must co-locate a
  path's delay hops on one shard (the planner guarantees this for
  pinned paths; other layouts are rejected as unsupported).  That
  *scan owner* runs the real scan with the full path's profile; the
  remaining (rate-based) shards verify the returned rate against
  their residuals.  When both sides admit, the granted pair is
  identical to the fused broker's (rate-cap monotonicity); when a
  remote residual binds, the cluster errs rejecting — never
  over-admitting.

The coordinator write-aheads its own protocol state (``cbegin`` ->
``cdecide`` -> ``cdone``); the fsync of ``cdecide`` is the atomic
commit point.  Every participant op is idempotent by txid, so
recovery simply re-drives undecided transactions to abort (presumed
abort) and decided ones to completion; a participant whose hold
expired before a commit retry arrived answers "aborted", and the
coordinator **compensates** by releasing the flow everywhere — the
flow nets to not-admitted, never half-admitted.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.admission import _EPS
from repro.core.broker import BandwidthBroker
from repro.core.journal import Replay
from repro.errors import StateError, TopologyError
from repro.service.durability import FileJournal
from repro.traffic.spec import TSpec
from repro.vtrs.delay_bounds import min_feasible_rate_rate_based
from repro.vtrs.timestamps import SchedulerKind

from repro.cluster.partition import PartitionMap

__all__ = [
    "ClusterCoordinator",
    "ClusterDecision",
    "CoordinatorRecovery",
]


@dataclass(frozen=True)
class ClusterDecision:
    """The coordinator's answer to one cluster request.

    ``status``: ``"ok"`` (judged — check ``admitted``), ``"rejected"``
    (2PC aborted or pre-checked infeasible), ``"in-doubt"`` (a commit
    retry could not reach every participant; recovery will finish the
    transaction), ``"error"`` (the owning shard or a 2PC participant
    was unreachable: retry), or the wrapped service's transient
    statuses (``"shed"``/``"expired"``/``"error"``) passed through
    from one-hop admissions.
    """

    flow_id: str
    admitted: bool
    status: str
    rate: float = 0.0
    delay: float = 0.0
    path_nodes: Tuple[str, ...] = ()
    shards: Tuple[str, ...] = ()
    txid: str = ""
    reason: str = ""
    detail: str = ""
    retry_after: float = 0.0


@dataclass
class CoordinatorRecovery:
    """What coordinator recovery found and did."""

    aborted: List[str] = field(default_factory=list)
    committed: List[str] = field(default_factory=list)
    compensated: List[str] = field(default_factory=list)
    in_doubt: List[str] = field(default_factory=list)
    flows: int = 0


class ClusterCoordinator:
    """Admission front-end for a sharded domain.

    :param partition: the routing map; its stamp fences every frame.
    :param handles: shard name -> handle (the :class:`~repro.cluster.
        shard.BrokerShard` itself, or an :class:`~repro.cluster.remote.
        OpClient` to one served elsewhere) exposing
        ``admit/teardown/prepare/commit/abort/release/reap``.
    :param atlas: a broker provisioned with the **full** domain
        topology and pinned paths but carrying no reservations — the
        coordinator's static route/profile oracle.  It is never
        mutated by admissions.
    :param wal: optional coordinator journal; without it the
        protocol still runs, but a coordinator crash relies solely on
        the shards' hold reaper (presumed abort) for cleanup.
    """

    def __init__(
        self,
        partition: PartitionMap,
        handles: Mapping[str, Any],
        atlas: BandwidthBroker,
        *,
        wal: Optional[FileJournal] = None,
        name: str = "coordinator",
    ) -> None:
        self.partition = partition
        self.handles = dict(handles)
        self.atlas = atlas
        self.wal = wal
        self.name = name
        missing = set(partition.shards) - set(self.handles)
        if missing:
            raise StateError(
                f"no handles for shards: {sorted(missing)}"
            )
        self._seq = itertools.count(1)
        #: Guards the flow registry (flow -> placement for teardown).
        self._lock = threading.Lock()
        self._registry: Dict[str, Dict[str, Any]] = {}
        #: Registered flows a teardown is working on; a concurrent
        #: duplicate is answered "retry", not "unknown flow".
        self._tearing_down: Set[str] = set()
        #: shard -> op key -> pending op a crashed/unreachable shard
        #: still owes us (abort/commit/release); drained by
        #: :meth:`reconcile_shard` when the shard comes back.
        self._unresolved: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self.local_admits = 0
        self.spanning_admits = 0
        self.spanning_commits = 0
        self.spanning_aborts = 0
        self.compensations = 0
        self.reconciled = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def admit(
        self,
        flow_id: str,
        spec: TSpec,
        delay_requirement: float,
        ingress: str,
        egress: str,
        *,
        path_nodes: Optional[Sequence[str]] = None,
        now: float = 0.0,
    ) -> ClusterDecision:
        """Admit one flow, one-hop or via cross-shard 2PC."""
        nodes = (
            tuple(path_nodes) if path_nodes is not None
            else self._route(ingress, egress)
        )
        if nodes is None:
            return ClusterDecision(
                flow_id=flow_id, admitted=False, status="rejected",
                reason="no-path",
                detail=f"no atlas path {ingress!r} -> {egress!r}",
            )
        path = self.atlas.routing.pin_path(nodes)
        segments = self.partition.segments(nodes)
        if len(segments) == 1:
            return self._admit_local(
                segments[0][0], flow_id, spec, delay_requirement,
                ingress, egress, nodes, now,
            )
        return self._admit_spanning(
            flow_id, spec, delay_requirement, nodes, path, segments, now,
        )

    def _route(self, ingress: str, egress: str
               ) -> Optional[Tuple[str, ...]]:
        """Deterministic widest-shortest route from the atlas.

        The atlas carries no reservations, so "widest" degenerates to
        a pure function of capacities — every coordinator generation
        picks the same route for the same pair.
        """
        try:
            candidates = self.atlas.routing.candidate_paths(
                ingress, egress
            )
        except TopologyError:
            return None
        if not candidates:
            return None
        return tuple(candidates[0].nodes)

    def _admit_local(self, shard: str, flow_id: str, spec: TSpec,
                     delay_requirement: float, ingress: str, egress: str,
                     nodes: Tuple[str, ...], now: float
                     ) -> ClusterDecision:
        self.local_admits += 1
        try:
            reply = self.handles[shard].admit({
                "flow_id": flow_id,
                "spec": spec.to_dict(),
                "delay_requirement": delay_requirement,
                "ingress": ingress,
                "egress": egress,
                "path_nodes": list(nodes),
                "now": now,
                **self.partition.stamp(),
            })
        except Exception as exc:  # shard process down / unreachable
            return ClusterDecision(
                flow_id=flow_id, admitted=False, status="error",
                path_nodes=nodes, shards=(shard,),
                reason="shard-unreachable",
                detail=f"admit on {shard!r} failed: {exc}",
            )
        if reply.get("status") == "ok" and reply.get("admitted"):
            with self._lock:
                self._registry[flow_id] = {
                    "kind": "local", "shard": shard,
                }
            if self.wal is not None:
                self.wal.append("clocal", {
                    "flow_id": flow_id, "shard": shard, "now": now,
                })
                self.wal.commit()
        return ClusterDecision(
            flow_id=flow_id,
            admitted=bool(reply.get("admitted")),
            status=reply.get("status", "error"),
            rate=reply.get("rate", 0.0),
            delay=reply.get("delay", 0.0),
            path_nodes=nodes,
            shards=(shard,),
            reason=reply.get("reason", reply.get("error", "")),
            detail=reply.get("decision_detail", reply.get("detail", "")),
            retry_after=reply.get("retry_after", 0.0),
        )

    # -- spanning (2PC) --------------------------------------------------

    def _admit_spanning(self, flow_id, spec, delay_requirement, nodes,
                        path, segments, now) -> ClusterDecision:
        self.spanning_admits += 1
        shard_names = [shard for shard, _ in segments]
        txid = f"{self.name}-{next(self._seq):06d}"
        profile = path.profile()
        delay_owner = ""
        for shard, pairs in segments:
            if any(
                self.atlas.node_mib.link(src, dst).kind
                is SchedulerKind.DELAY_BASED
                for src, dst in pairs
            ):
                if delay_owner and delay_owner != shard:
                    return self._reject_unbegun(
                        flow_id, nodes, shard_names, txid,
                        "unsupported-layout",
                        "delay-based hops span multiple shards; "
                        "co-locate them via the partition plan",
                    )
                delay_owner = shard
        self._journal("cbegin", {
            "txid": txid, "flow_id": flow_id, "nodes": list(nodes),
            "shards": shard_names, "now": now,
        })
        rate = 0.0
        delay = 0.0
        if not delay_owner:
            # Rate-only: the grant is static — compute it here exactly
            # as the fused broker's rate-only test would.
            r_min = min_feasible_rate_rate_based(
                spec, delay_requirement, profile
            )
            if math.isinf(r_min):
                return self._abort_txn(
                    flow_id, nodes, shard_names, txid, [], now,
                    "delay-unachievable",
                    "fixed path latency alone exceeds the requirement",
                )
            rate = max(spec.rho, r_min)
            if rate > spec.peak * (1 + _EPS) + _EPS:
                return self._abort_txn(
                    flow_id, nodes, shard_names, txid, [], now,
                    "delay-unachievable",
                    f"feasible range empty: need r in "
                    f"[{rate:.1f}, {spec.peak:.1f}] b/s",
                )
        # Prepare order: scan owner first (it chooses the pair the
        # rest verify), then the remaining shards in name order.
        order = [s for s in [delay_owner] if s]
        order += sorted(s for s in shard_names if s != delay_owner)
        prepared: List[str] = []
        failure: Optional[ClusterDecision] = None
        by_name = dict(segments)
        for shard in order:
            frame: Dict[str, Any] = {
                "txid": txid,
                "flow_id": flow_id,
                "links": [list(pair) for pair in by_name[shard]],
                "spec": spec.to_dict(),
                "delay_requirement": delay_requirement,
                "now": now,
                "coordinator": self.name,
                **self.partition.stamp(),
            }
            if shard == delay_owner:
                frame["mode"] = "choose"
                frame["profile"] = {
                    "hops": profile.hops,
                    "rate_based_hops": profile.rate_based_hops,
                    "d_tot": profile.d_tot,
                    "max_packet": profile.max_packet,
                }
            else:
                frame["mode"] = "fixed"
                frame["rate"] = rate
                frame["delay"] = delay
            try:
                reply = self.handles[shard].prepare(frame)
            except Exception as exc:  # participant unreachable/crashed
                # Not a refusal: the flow may be admissible, so the
                # answer is a retryable error (like a one-shard admit
                # whose shard is down), which no front end caches.
                failure = ClusterDecision(
                    flow_id=flow_id, admitted=False, status="error",
                    path_nodes=nodes, shards=tuple(shard_names),
                    txid=txid, reason="participant-unreachable",
                    detail=f"prepare on {shard!r} failed: {exc}",
                )
                break
            if reply.get("status") != "prepared":
                failure = ClusterDecision(
                    flow_id=flow_id, admitted=False, status="rejected",
                    path_nodes=nodes, shards=tuple(shard_names),
                    txid=txid,
                    reason=reply.get("reason", reply.get("error", "")),
                    detail=reply.get("detail", ""),
                )
                break
            prepared.append(shard)
            if shard == delay_owner:
                rate = reply["rate"]
                delay = reply["delay"]
        if failure is not None:
            self._abort_txn(
                flow_id, nodes, shard_names, txid, prepared, now,
                failure.reason, failure.detail,
            )
            return failure
        # ---- commit point: the fsync of this decision record. ----
        self._journal("cdecide", {
            "txid": txid, "outcome": "commit", "flow_id": flow_id,
            "nodes": list(nodes), "shards": shard_names,
            "rate": rate, "delay": delay, "now": now,
        })
        outcome = self._drive_commit(txid, flow_id, shard_names, now)
        if outcome == "in-doubt":
            return ClusterDecision(
                flow_id=flow_id, admitted=False, status="in-doubt",
                rate=rate, delay=delay, path_nodes=nodes,
                shards=tuple(shard_names), txid=txid,
                detail="decision journaled; commit delivery incomplete",
            )
        if outcome == "compensated":
            return ClusterDecision(
                flow_id=flow_id, admitted=False, status="rejected",
                path_nodes=nodes, shards=tuple(shard_names), txid=txid,
                reason="try-again",
                detail="a participant's hold expired before commit; "
                       "retry the admission",
            )
        return ClusterDecision(
            flow_id=flow_id, admitted=True, status="ok",
            rate=rate, delay=delay, path_nodes=nodes,
            shards=tuple(shard_names), txid=txid,
        )

    def _reject_unbegun(self, flow_id, nodes, shard_names, txid,
                        reason, detail) -> ClusterDecision:
        return ClusterDecision(
            flow_id=flow_id, admitted=False, status="rejected",
            path_nodes=tuple(nodes), shards=tuple(shard_names),
            txid=txid, reason=reason, detail=detail,
        )

    def _abort_txn(self, flow_id, nodes, shard_names, txid, prepared,
                   now, reason, detail) -> ClusterDecision:
        """Journal the abort decision and release every placed hold."""
        self.spanning_aborts += 1
        self._journal("cdecide", {
            "txid": txid, "outcome": "abort", "flow_id": flow_id,
            "shards": shard_names, "now": now,
        })
        # Abort every shard we touched (the failing one included: its
        # tombstone blocks a late retried prepare); unreachable shards
        # get the abort re-driven on reconnect, with the lease reaper
        # as the backstop — presumed abort either way.
        for shard in shard_names:
            try:
                self.handles[shard].abort({
                    "txid": txid, "now": now, **self.partition.stamp(),
                })
            except Exception:
                self._note_unresolved(shard, "abort", txid=txid, now=now)
        self._journal("cdone", {"txid": txid, "outcome": "abort"})
        return ClusterDecision(
            flow_id=flow_id, admitted=False, status="rejected",
            path_nodes=tuple(nodes), shards=tuple(shard_names),
            txid=txid, reason=reason, detail=detail,
        )

    def _drive_commit(self, txid: str, flow_id: str,
                      shard_names: Sequence[str], now: float) -> str:
        """Deliver a journaled commit decision; returns the outcome.

        ``"committed"``: every participant finalized.  ``"degraded"``
        answers (a hold reaped between decision and delivery) trigger
        compensation — the flow is released everywhere so the domain
        nets to not-admitted.  Unreachable participants leave the
        transaction ``"in-doubt"`` (no ``cdone``); recovery re-drives
        it, which is safe because every op is idempotent by txid.
        """
        degraded: List[str] = []
        unreachable: List[str] = []
        for shard in shard_names:
            try:
                reply = self.handles[shard].commit({
                    "txid": txid, "flow_id": flow_id, "now": now,
                    **self.partition.stamp(),
                })
            except Exception:
                unreachable.append(shard)
                self._note_unresolved(
                    shard, "commit", txid=txid, flow_id=flow_id,
                    shards=list(shard_names), now=now,
                )
                continue
            if reply.get("status") != "committed":
                degraded.append(shard)
        if unreachable:
            return "in-doubt"
        if degraded:
            self.compensations += 1
            for shard in shard_names:
                try:
                    self.handles[shard].release({
                        "flow_id": flow_id, "now": now,
                        **self.partition.stamp(),
                    })
                    self.handles[shard].abort({
                        "txid": txid, "now": now,
                        **self.partition.stamp(),
                    })
                except Exception:
                    self._note_unresolved(
                        shard, "compensate", txid=txid,
                        flow_id=flow_id, now=now,
                    )
            self._journal("cdone", {
                "txid": txid, "outcome": "compensated",
            })
            return "compensated"
        # The one place a committed spanning flow enters the registry,
        # whether admitted, reconciled or recovered.
        with self._lock:
            first = flow_id not in self._registry
            self._registry[flow_id] = {
                "kind": "spanning", "shards": list(shard_names),
                "txid": txid,
            }
        if first:
            self.spanning_commits += 1
        self._journal("cdone", {"txid": txid, "outcome": "commit"})
        return "committed"

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def teardown(self, flow_id: str, *, now: float = 0.0
                 ) -> ClusterDecision:
        """Tear down a previously admitted flow, wherever it lives.

        The registry entry stays until the shard work is done, marked
        as tearing down: a duplicate teardown arriving meanwhile gets a
        retryable ``teardown-in-progress`` error (the flow still holds
        capacity), and one after a failed attempt finds the entry.
        """
        with self._lock:
            entry = self._registry.get(flow_id)
            busy = flow_id in self._tearing_down
            if entry is not None and not busy:
                self._tearing_down.add(flow_id)
        if entry is None:
            return ClusterDecision(
                flow_id=flow_id, admitted=False, status="error",
                reason="unknown-flow",
                detail=f"flow {flow_id!r} is not registered here",
            )
        if busy:
            return ClusterDecision(
                flow_id=flow_id, admitted=False, status="error",
                reason="teardown-in-progress",
                detail=f"flow {flow_id!r} is being torn down; retry",
            )
        try:
            decision = self._release(flow_id, entry, now)
            if decision.reason != "shard-unreachable":
                with self._lock:  # unless a re-admit replaced it
                    if self._registry.get(flow_id) is entry:
                        del self._registry[flow_id]
            return decision
        finally:
            with self._lock:
                self._tearing_down.discard(flow_id)

    def _release(self, flow_id: str, entry: Dict[str, Any],
                 now: float) -> ClusterDecision:
        """The shard work of :meth:`teardown`."""
        local = entry["kind"] == "local"
        shards = [entry["shard"]] if local else entry["shards"]
        self._journal("cteardown", {
            "flow_id": flow_id, "shards": shards, "now": now,
        })
        if local:
            shard = shards[0]
            try:
                reply = self.handles[shard].teardown({
                    "flow_id": flow_id, "now": now,
                    **self.partition.stamp(),
                })
            except Exception as exc:
                # Shard unreachable: the registry entry stays, so a
                # retried teardown still knows where the flow lives.
                return ClusterDecision(
                    flow_id=flow_id, admitted=False, status="error",
                    shards=(shard,), reason="shard-unreachable",
                    detail=f"teardown on {shard!r} failed: {exc}",
                )
            return ClusterDecision(
                flow_id=flow_id, admitted=False,
                status=reply.get("status", "error"),
                shards=(shard,),
                detail=reply.get("detail", ""),
            )
        released: List[str] = []
        for shard in shards:
            try:
                reply = self.handles[shard].release({
                    "flow_id": flow_id, "now": now,
                    **self.partition.stamp(),
                })
            except Exception:
                # Release the segment when the shard comes back; the
                # flow still nets to torn-down everywhere.
                self._note_unresolved(
                    shard, "release", flow_id=flow_id, now=now,
                )
                continue
            released.extend(reply.get("flows", ()))
        return ClusterDecision(
            flow_id=flow_id, admitted=False, status="ok",
            shards=tuple(shards),
            detail=f"released {len(released)} segment reservation(s)",
        )

    # ------------------------------------------------------------------
    # maintenance / observability
    # ------------------------------------------------------------------

    def reap(self, now: float) -> Dict[str, List[str]]:
        """Ask every shard to expire overdue holds (operator hook)."""
        reaped: Dict[str, List[str]] = {}
        for shard, handle in sorted(self.handles.items()):
            try:
                reaped[shard] = handle.reap(now).get("txids", [])
            except Exception:
                reaped[shard] = []
        return reaped

    def _note_unresolved(self, shard: str, op: str, *,
                         txid: str = "", flow_id: str = "",
                         shards: Optional[List[str]] = None,
                         now: float = 0.0) -> None:
        """Remember an op an unreachable shard still owes us."""
        key = f"{op}:{txid or flow_id}"
        with self._lock:
            self._unresolved.setdefault(shard, {})[key] = {
                "op": op, "txid": txid, "flow_id": flow_id,
                "shards": list(shards) if shards else [],
                "now": now,
            }

    def unresolved(self) -> Dict[str, List[str]]:
        """Pending per-shard ops awaiting a reconnect (observability)."""
        with self._lock:
            return {
                shard: sorted(ops)
                for shard, ops in self._unresolved.items() if ops
            }

    def reconcile_shard(self, shard: str, *, now: float = 0.0) -> int:
        """Re-drive every op *shard* missed while it was unreachable.

        The reap-on-reconnect path: a shard process that died during
        an in-flight 2PC recovers its journaled ``txn:`` holds, and
        this delivers the decisions it missed — explicit aborts for
        aborted transactions (no waiting out the hold lease), commit
        re-drives for in-doubt ones, and segment releases for
        teardowns that could not reach it.  Idempotent: every re-driven
        op is idempotent by txid/flow id, and an op that fails again
        is re-noted for the next reconnect.  Returns how many ops were
        resolved.
        """
        with self._lock:
            pending = self._unresolved.pop(shard, None) or {}
        if not pending:
            return 0
        handle = self.handles.get(shard)
        resolved = 0
        for _key, info in sorted(pending.items()):
            op = info["op"]
            try:
                if op == "abort":
                    handle.abort({
                        "txid": info["txid"], "now": now,
                        **self.partition.stamp(),
                    })
                elif op == "release":
                    handle.release({
                        "flow_id": info["flow_id"], "now": now,
                        **self.partition.stamp(),
                    })
                elif op == "compensate":
                    handle.release({
                        "flow_id": info["flow_id"], "now": now,
                        **self.partition.stamp(),
                    })
                    handle.abort({
                        "txid": info["txid"], "now": now,
                        **self.partition.stamp(),
                    })
                elif op == "commit":
                    outcome = self._drive_commit(
                        info["txid"], info["flow_id"],
                        info["shards"], now,
                    )
                    if outcome == "in-doubt":
                        # _drive_commit re-noted the unreachable
                        # shard(s); nothing resolved for this txn yet.
                        continue
                resolved += 1
            except Exception:
                with self._lock:
                    self._unresolved.setdefault(shard, {})[_key] = info
        self.reconciled += resolved
        return resolved

    def counters(self) -> Dict[str, Any]:
        """The coordinator's counters, as its ``status`` op and
        ``ProcCluster.merged_stats`` report them.  ``wal_appends`` and
        ``wal_fsyncs`` count its decision log's records and forced
        writes (0 without a log)."""
        wal = self.wal
        return {
            "name": self.name,
            "pid": os.getpid(),
            "local_admits": self.local_admits,
            "spanning_admits": self.spanning_admits,
            "spanning_commits": self.spanning_commits,
            "spanning_aborts": self.spanning_aborts,
            "compensations": self.compensations,
            "reconciled": self.reconciled,
            "flows": len(self._registry),
            "unresolved": self.unresolved(),
            "wal_appends": wal.appends if wal is not None else 0,
            "wal_fsyncs": wal.fsyncs if wal is not None else 0,
        }

    def flows(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {k: dict(v) for k, v in self._registry.items()}

    def _journal(self, kind: str, payload: Dict[str, Any]) -> None:
        if self.wal is not None:
            self.wal.append(kind, payload)
            self.wal.commit()

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory,
        partition: PartitionMap,
        handles: Mapping[str, Any],
        atlas: BandwidthBroker,
        *,
        name: str = "coordinator",
        now: float = 0.0,
        fsync: bool = True,
    ) -> Tuple["ClusterCoordinator", CoordinatorRecovery]:
        """Reopen a coordinator journal and finish unfinished business.

        Presumed abort: transactions with no journaled decision are
        aborted everywhere (idempotent; shards that never saw the
        prepare just tombstone).  Decided-commit transactions are
        re-driven to completion; a participant that answers
        ``aborted``/``unknown`` (its hold was reaped while the
        coordinator was down) triggers compensation, so the flow nets
        to not-admitted on every shard.
        """
        journal = FileJournal(directory, fsync=fsync)
        state = Replay()
        state.apply(journal.entries_after(0))
        coordinator = cls(
            partition, handles, atlas, wal=journal, name=name,
        )
        coordinator._seq = itertools.count(1 + max(
            (_txid_seq(txid, name) for txid in state.decisions), default=0,
        ))
        # The log's registry is the live one before anything is
        # re-driven: a completed commit adds its flow to it.
        coordinator._registry = state.flows
        report = CoordinatorRecovery()
        for txid, txn in sorted(state.decisions.items()):
            if txn["state"] == "done":
                continue
            if txn["state"] in ("open", "decided-abort"):
                if txn["state"] == "open":
                    coordinator._journal("cdecide", {
                        "txid": txid, "outcome": "abort",
                        "flow_id": txn.get("flow_id", ""),
                        "shards": txn.get("shards", []), "now": now,
                    })
                for shard in txn.get("shards", []):
                    try:
                        handles[shard].abort({
                            "txid": txid, "now": now,
                            **partition.stamp(),
                        })
                    except Exception:
                        pass
                coordinator._journal(
                    "cdone", {"txid": txid, "outcome": "abort"}
                )
                report.aborted.append(txid)
            elif txn["state"] == "decided-commit":
                outcome = coordinator._drive_commit(
                    txid, txn["flow_id"], txn.get("shards", []), now,
                )
                if outcome == "committed":
                    report.committed.append(txid)
                elif outcome == "compensated":
                    report.compensated.append(txid)
                else:
                    report.in_doubt.append(txid)
        report.flows = len(coordinator._registry)
        return coordinator, report


def _txid_seq(txid: str, name: str) -> int:
    prefix, _, seq = txid.rpartition("-")
    return int(seq) if prefix == name and seq.isdigit() else 0
