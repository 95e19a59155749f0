"""The journal's record table and its one replay.

Every durable record is a :class:`JournalEntry` in one segmented
:class:`~repro.service.durability.FileJournal`: service decisions and
the edge gateway's own lease events, a cluster shard's 2PC records and
a coordinator's decision log.  :data:`KINDS` decides once what each
kind means — the function that applies it to a :class:`Replay` state,
and whether the live service may have raised on it.  Recovery, shard
and coordinator recovery and the soak audit all fold records through
it, so none of them can read a record differently.  The live
:class:`~repro.service.runtime.BrokerService` and
:class:`~repro.cluster.shard.BrokerShard` change state through the same
rows: each journaled operation appends its record and then applies it
through its row, so live and replayed state agree by construction.
Every decision is a deterministic function of broker state and request
inputs, so replaying the inputs reproduces the decisions (verified by
tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.errors import StateError
from repro.core.broker import BandwidthBroker
from repro.core.mibs import FlowRecord, LinkQoSState
from repro.traffic.spec import TSpec
from repro.vtrs.timestamps import SchedulerKind

__all__ = [
    "JournalEntry",
    "KINDS",
    "Replay",
    "replay",
    "request_payload",
]


def request_payload(flow_id: str, spec: TSpec, delay_requirement: float,
                    ingress: str, egress: str, *,
                    service_class: str = "", path_nodes=None,
                    now: float = 0.0,
                    lease: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """The JSON-compatible journal payload of one service request.

    *lease* (``{"agent", "duration"}``) names the edge lease the
    request asks for; the field is left out when it is ``None``.
    """
    payload = {
        "flow_id": flow_id,
        "spec": spec.to_dict(),
        "delay_requirement": delay_requirement,
        "ingress": ingress,
        "egress": egress,
        "service_class": service_class,
        "path_nodes": list(path_nodes) if path_nodes is not None else None,
        "now": now,
    }
    if lease is not None:
        payload["lease"] = lease
    return payload


@dataclass(frozen=True)
class JournalEntry:
    """One recorded control operation.

    :param kind: one of :data:`KINDS`.
    :param epoch: the epoch stamped on the record — 0, unless an
        older build's log-shipping promotion raised it; still written
        and read so such a WAL replays byte for byte.  Replay ignores
        it — the decision inputs are ``kind``/``payload`` alone.
    """

    seq: int
    kind: str
    payload: Dict[str, Any]
    epoch: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "seq": self.seq, "kind": self.kind, "payload": self.payload,
            "epoch": self.epoch,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JournalEntry":
        """Inverse of :meth:`to_dict` (pre-epoch records read as 0)."""
        return JournalEntry(
            seq=data["seq"], kind=data["kind"], payload=data["payload"],
            epoch=int(data.get("epoch", 0)),
        )


# ----------------------------------------------------------------------
# 2PC participant transitions (shared by the live shard ops and replay)
# ----------------------------------------------------------------------

def _hold_key(txid: str) -> str:
    return f"txn:{txid}"


def _resolve_links(broker: BandwidthBroker,
                   pairs: Sequence[Sequence[str]]) -> List[LinkQoSState]:
    return [broker.node_mib.link(src, dst) for src, dst in pairs]


def _reserve(link: LinkQoSState, key: str, txn: Dict[str, Any]) -> None:
    if link.kind is SchedulerKind.DELAY_BASED:
        link.reserve(key, txn["rate"], deadline=txn["delay"],
                     max_packet=txn["spec"]["max_packet"])
    else:
        link.reserve(key, txn["rate"])


def _apply_prepare(broker: BandwidthBroker, txn: Dict[str, Any]) -> None:
    """Place the hold reservations a ``cprepare`` record describes."""
    key = _hold_key(txn["txid"])
    for link in _resolve_links(broker, txn["links"]):
        _reserve(link, key, txn)


def _apply_abort(broker: BandwidthBroker, txn: Dict[str, Any]) -> None:
    """Release a prepared transaction's holds."""
    key = _hold_key(txn["txid"])
    for link in _resolve_links(broker, txn["links"]):
        if link.holds(key):
            link.release(key)


def _apply_commit(broker: BandwidthBroker, txn: Dict[str, Any],
                  now: float) -> List[str]:
    """Convert a prepared transaction's holds into native flow state.

    Each maximal contiguous run of the segment's links becomes a
    pinned path carrying a :class:`FlowRecord` (key ``<flow_id>`` for
    the first run, ``<flow_id>#<n>`` for later ones — the
    hash-fallback case where a shard owns non-adjacent hops).  Native
    records are the point: checkpoint/restore and plain termination
    handle committed spanning flows with zero cluster-specific code.
    """
    _apply_abort(broker, txn)  # the holds become the flow's reservations
    links = _resolve_links(broker, txn["links"])
    spec = TSpec.from_dict(txn["spec"])
    runs: List[List[LinkQoSState]] = [[links[0]]]
    for link in links[1:]:
        if runs[-1][-1].link_id[1] == link.link_id[0]:
            runs[-1].append(link)
        else:
            runs.append([link])
    keys: List[str] = []
    for index, run in enumerate(runs):
        key = txn["flow_id"] if index == 0 else f"{txn['flow_id']}#{index}"
        nodes = [run[0].link_id[0]] + [link.link_id[1] for link in run]
        path = broker.routing.pin_path(nodes)
        for link in run:
            _reserve(link, key, txn)
        broker.flow_mib.add(FlowRecord(
            flow_id=key,
            spec=spec,
            delay_requirement=txn.get("delay_requirement", 0.0),
            path_id=path.path_id,
            rate=txn["rate"],
            delay=txn["delay"],
            admitted_at=now,
        ))
        keys.append(key)
    return keys


def _flow_keys(broker: BandwidthBroker, flow_id: str) -> List[str]:
    """All local record keys of *flow_id* (base + segment suffixes)."""
    keys = [flow_id] if flow_id in broker.flow_mib else []
    index = 1
    while f"{flow_id}#{index}" in broker.flow_mib:
        keys.append(f"{flow_id}#{index}")
        index += 1
    return keys


def _apply_release(broker: BandwidthBroker, flow_id: str) -> List[str]:
    """Tear down every local record of *flow_id*; returns removed keys."""
    removed = []
    for key in _flow_keys(broker, flow_id):
        record = broker.flow_mib.remove(key)
        for link in broker.path_mib.get(record.path_id).links:
            link.release(key)
        removed.append(key)
    return removed


# ----------------------------------------------------------------------
# the replay state and the record table
# ----------------------------------------------------------------------

class Replay:
    """The state one pass over a journal rebuilds.

    :param broker: the broker the service and shard kinds apply to —
        a restored checkpoint or a provisioned-but-empty twin.  A
        coordinator's decision log never touches one, so it replays
        with ``None``.

    Besides the broker it holds ``txns``, a shard's 2PC table (txid ->
    the ``cprepare`` payload plus ``state``: ``prepared``,
    ``committed`` (with ``flows``, the record keys the commit made) or
    ``aborted``; a live shard also keeps ``rejected`` prepares there),
    and the coordinator's side:
    ``decisions`` (txid -> its ``cbegin``/``cdecide`` payloads plus
    ``state``: ``open``, ``decided-commit``, ``decided-abort`` or
    ``done``) and ``flows``, its registry (flow id -> placement).
    """

    def __init__(self, broker: Optional[BandwidthBroker] = None) -> None:
        self.broker = broker
        self.txns: Dict[str, Dict[str, Any]] = {}
        self.decisions: Dict[str, Dict[str, Any]] = {}
        self.flows: Dict[str, Dict[str, Any]] = {}
        self.applied = 0
        self.skipped = 0

    def apply(self, entries: Iterable[JournalEntry]) -> Tuple[int, int]:
        """Apply *entries* in order; returns ``(applied, skipped)``.

        Rejected requests are re-executed and re-rejected (their
        outcome is a function of the same state), so they count as
        applied.  A *skippable* kind that raises
        :class:`~repro.errors.StateError` raised identically on the
        primary (journaling is write-ahead, so a failed terminate is
        still recorded); neither run mutated state for it, so it is
        counted as skipped.  Any other failure, and an unknown kind,
        raises.
        """
        applied = skipped = 0
        for entry in entries:
            row = KINDS.get(entry.kind)
            if row is None:
                raise StateError(
                    f"unknown journal entry kind {entry.kind!r}"
                )
            apply, skippable = row
            try:
                apply(self, entry.payload)
            except StateError:
                if not skippable:
                    raise
                skipped += 1
                continue
            applied += 1
        self.applied += applied
        self.skipped += skipped
        return applied, skipped

    def prepared(self) -> List[str]:
        """Shard txids still holding capacity."""
        return [
            txid for txid, txn in self.txns.items()
            if txn["state"] == "prepared"
        ]

    def decisions_in(self, state: str) -> List[str]:
        """Coordinator txids whose log ends in *state*, sorted."""
        return sorted(
            txid for txid, txn in self.decisions.items()
            if txn["state"] == state
        )


def _request(state: Replay, p: Dict[str, Any]) -> None:
    path_nodes = p.get("path_nodes")
    state.broker.request_service(
        p["flow_id"], TSpec.from_dict(p["spec"]), p["delay_requirement"],
        p["ingress"], p["egress"],
        service_class=p["service_class"],
        path_nodes=tuple(path_nodes) if path_nodes is not None else None,
        now=p["now"],
    )


def _resize(state: Replay, p: Dict[str, Any]) -> float:
    # Shrink clamps to the safe floor broker-side, inflate is gated by
    # capacity: both deterministic, so replay reproduces the rate.
    aggregate = state.broker.aggregate
    resize = aggregate.shrink if p["mode"] == "shrink" else aggregate.inflate
    return resize(p["macroflow_key"], p["rate"], now=p["now"])


def _cprepare(state: Replay, p: Dict[str, Any]) -> None:
    txn = dict(p, state="prepared")
    _apply_prepare(state.broker, txn)
    state.txns[p["txid"]] = txn


def _ccommit(state: Replay, p: Dict[str, Any]) -> None:
    # A decision for a txid whose prepare is not in the suffix is a
    # no-op tombstone, exactly as the live shard treats late ones.
    txn = state.txns.get(p["txid"])
    if txn is not None and txn["state"] == "prepared":
        txn["flows"] = _apply_commit(state.broker, txn, p.get("now", 0.0))
        txn["state"] = "committed"


def _cabort(state: Replay, p: Dict[str, Any]) -> None:
    txn = state.txns.get(p["txid"])
    if txn is None:
        txn = state.txns[p["txid"]] = {"txid": p["txid"], "links": []}
    elif txn["state"] == "prepared":
        _apply_abort(state.broker, txn)
    txn["state"] = "aborted"


def _cbegin(state: Replay, p: Dict[str, Any]) -> None:
    state.decisions[p["txid"]] = dict(p, state="open")


def _cdecide(state: Replay, p: Dict[str, Any]) -> None:
    txn = state.decisions.setdefault(p["txid"], {})
    txn.update(p)
    txn["state"] = f"decided-{p['outcome']}"


def _cdone(state: Replay, p: Dict[str, Any]) -> None:
    txn = state.decisions.get(p["txid"])
    if txn is None:
        return
    if p.get("outcome") == "commit" and txn.get("flow_id"):
        state.flows[txn["flow_id"]] = {
            "kind": "spanning", "shards": txn.get("shards", []),
            "txid": p["txid"],
        }
    txn["state"] = "done"


def _clocal(state: Replay, p: Dict[str, Any]) -> None:
    state.flows[p["flow_id"]] = {"kind": "local", "shard": p["shard"]}


#: kind -> ``(apply(state, payload), skippable)``: every record kind
#: the repo writes, and the one place that says what it means.  An
#: apply's return value is what the live writer answers with (the
#: allocations a feedback released, the rate a resize moved, the keys
#: a release removed); replay ignores it.
KINDS: Dict[str, Tuple[Callable[[Replay, Dict[str, Any]], Any], bool]] = {
    # BrokerService decisions (repro.service.runtime).  An edge
    # agent's "request" or "terminate" may carry an optional "lease"
    # field ({"agent", "duration"}): the lease its admit asked for or
    # its teardown releases.  Replay ignores it; the replayed decision
    # says whether the lease was granted (or released).
    "request": (_request, True),
    "terminate": (
        lambda state, p: state.broker.terminate(p["flow_id"], now=p["now"]),
        True,
    ),
    "advance": (lambda state, p: state.broker.advance(p["now"]), False),
    # Section 4.2.1 edge feedback: the macroflow's edge buffer
    # drained, so its contingency bandwidth is released early.
    "feedback": (
        lambda state, p: state.broker.aggregate.notify_edge_empty(
            p["macroflow_key"], p["now"]
        ),
        False,
    ),
    "resize": (_resize, True),
    # The edge gateway's own lease events (expire, reclaim, the
    # orphan-adoption grant; older journals also hold a marker for
    # every agent grant and release).  Leases live at the gateway, not
    # in the broker MIBs, and a reap's broker-visible effect is its
    # own "terminate" record, so a marker replays as a no-op.
    "lease": (lambda state, p: None, False),
    # BrokerShard 2PC participant records (repro.cluster.shard).
    "cprepare": (_cprepare, False),
    "ccommit": (_ccommit, False),
    "cabort": (_cabort, False),
    "crelease": (
        lambda state, p: _apply_release(state.broker, p["flow_id"]),
        False,
    ),
    # ClusterCoordinator decision log (repro.cluster.coordinator).
    "cbegin": (_cbegin, False),
    "cdecide": (_cdecide, False),
    "cdone": (_cdone, False),
    "clocal": (_clocal, False),
    "cteardown": (lambda state, p: state.flows.pop(p["flow_id"], None),
                  False),
}


def replay(broker: BandwidthBroker,
           entries: Iterable[JournalEntry]) -> Tuple[int, int]:
    """Apply *entries* to *broker* in one fresh :class:`Replay`.

    Returns ``(applied, skipped)`` (see :meth:`Replay.apply`).
    """
    return Replay(broker).apply(entries)
