"""Broker state checkpoint / restore.

The paper's footnote 2 flags broker **reliability** as the price of
centralizing QoS state: if the broker dies, the domain's reservations
must not be lost (the data plane keeps forwarding — packets carry
their own state — but no new flow could be admitted correctly).

This module serializes the complete control-plane state — topology,
service classes, per-flow reservations, macroflows with their live
contingency allocations — into a JSON-compatible dict, and rebuilds a
broker from it whose *subsequent decisions are bit-identical* to the
original's (tested). Crash recovery (:mod:`repro.service.durability`)
restores the newest checkpoint and replays the journal suffix
recorded after it.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Optional

from repro.errors import StateError
from repro.core.aggregate import (
    ContingencyAllocation,
    ContingencyMethod,
    ServiceClass,
)
from repro.core.broker import BandwidthBroker
from repro.core.mibs import FlowRecord
from repro.core.policy import PolicyModule
from repro.traffic.spec import TSpec
from repro.vtrs.timestamps import SchedulerKind

__all__ = ["checkpoint_broker", "restore_broker", "CHECKPOINT_VERSION"]

#: Version 2 added ``journal_seq`` — the decision-journal position at
#: checkpoint time, so recovery knows exactly which journal suffix to
#: replay.  Version 3 added ``epoch`` — the journal's epoch, kept so a
#: checkpoint an older build's log-shipping promotion wrote still
#: restores.  Older checkpoints still restore, with the missing fields
#: taken as 0.
CHECKPOINT_VERSION = 3


def checkpoint_broker(broker: BandwidthBroker, *,
                      journal_seq: int = 0,
                      epoch: int = 0) -> Dict[str, Any]:
    """Serialize the broker's full control-plane state.

    The result contains only JSON-compatible types (dicts, lists,
    strings, numbers), so it can be written with ``json.dump``.

    :param journal_seq: the decision-journal sequence number this
        checkpoint is consistent with (every journal entry with
        ``seq <= journal_seq`` is already reflected in the state).
        Recovery replays only entries after it; checkpointing also
        lets the journal prune segments at or before it.
    :param epoch: the journal's epoch (see
        :class:`~repro.core.journal.JournalEntry`); recovery reports
        it.
    """
    links = [
        {
            "src": link.link_id[0],
            "dst": link.link_id[1],
            "capacity": link.capacity,
            "kind": link.kind.value,
            "error_term": link.error_term,
            "propagation": link.propagation,
            "max_packet": link.max_packet,
        }
        for link in broker.node_mib.links()
    ]
    paths = [
        {"path_id": record.path_id, "nodes": list(record.nodes)}
        for record in broker.path_mib.records()
    ]
    classes = [
        {
            "class_id": klass.class_id,
            "delay_bound": klass.delay_bound,
            "class_delay": klass.class_delay,
        }
        for klass in broker.classes.values()
    ]
    flows = [
        {
            "flow_id": record.flow_id,
            "spec": record.spec.to_dict(),
            "delay_requirement": record.delay_requirement,
            "path_id": record.path_id,
            "rate": record.rate,
            "delay": record.delay,
            "class_id": record.class_id,
            "admitted_at": record.admitted_at,
        }
        for record in broker.flow_mib.records()
    ]
    macroflows = [
        {
            "key": macro.key,
            "class_id": macro.service_class.class_id,
            "path_id": macro.path.path_id,
            "members": {
                flow_id: spec.to_dict()
                for flow_id, spec in macro.members.items()
            },
            "base_rate": macro.base_rate,
            "join_count": macro.join_count,
            "leave_count": macro.leave_count,
            "contingencies": [
                {
                    "amount": c.amount,
                    "granted_at": c.granted_at,
                    "expires_at": c.expires_at,
                    "prior_edge_bound": c.prior_edge_bound,
                }
                for c in macro.contingencies
            ],
        }
        for macro in broker.aggregate.macroflows.values()
        if macro.member_count > 0 or macro.contingencies
    ]
    return {
        "version": CHECKPOINT_VERSION,
        "journal_seq": int(journal_seq),
        "epoch": int(epoch),
        "contingency_method": broker.aggregate.method.value,
        "links": links,
        "paths": paths,
        "classes": classes,
        "flows": flows,
        "macroflows": macroflows,
    }


def restore_broker(
    data: Dict[str, Any], *, policy: Optional[PolicyModule] = None
) -> BandwidthBroker:
    """Rebuild a broker from a checkpoint.

    Reservation state is *replayed*, not copied: each per-flow record
    re-reserves along its path, each macroflow re-installs its total
    rate — so the restored MIBs satisfy every internal invariant by
    construction.
    """
    version = data.get("version")
    if version not in (1, 2, CHECKPOINT_VERSION):
        raise StateError(
            f"unsupported checkpoint version {version!r} "
            f"(expected <= {CHECKPOINT_VERSION})"
        )
    broker = BandwidthBroker(
        policy=policy,
        contingency_method=ContingencyMethod(data["contingency_method"]),
    )
    for link in data["links"]:
        broker.add_link(
            link["src"], link["dst"], link["capacity"],
            SchedulerKind(link["kind"]),
            error_term=link["error_term"],
            propagation=link["propagation"],
            max_packet=link["max_packet"],
        )
    for path in data["paths"]:
        broker.routing.pin_path(path["nodes"])
    for klass in data["classes"]:
        broker.register_class(ServiceClass(
            class_id=klass["class_id"],
            delay_bound=klass["delay_bound"],
            class_delay=klass["class_delay"],
        ))

    # --- per-flow reservations -------------------------------------------
    for flow in data["flows"]:
        record = FlowRecord(
            flow_id=flow["flow_id"],
            spec=TSpec.from_dict(flow["spec"]),
            delay_requirement=flow["delay_requirement"],
            path_id=flow["path_id"],
            rate=flow["rate"],
            delay=flow["delay"],
            class_id=flow["class_id"],
            admitted_at=flow["admitted_at"],
        )
        broker.flow_mib.add(record)
        if record.class_id:
            continue  # link state comes from the macroflow replay
        path = broker.path_mib.get(record.path_id)
        for link in path.links:
            if link.kind is SchedulerKind.DELAY_BASED:
                link.reserve(
                    record.flow_id, record.rate,
                    deadline=record.delay,
                    max_packet=record.spec.max_packet,
                )
            else:
                link.reserve(record.flow_id, record.rate)

    # --- macroflows ---------------------------------------------------------
    aggregate = broker.aggregate
    for entry in data["macroflows"]:
        klass = broker.classes[entry["class_id"]]
        path = broker.path_mib.get(entry["path_id"])
        macro = aggregate.macroflow(klass, path)
        assert macro.key == entry["key"]
        macro.members = {
            flow_id: TSpec.from_dict(spec)
            for flow_id, spec in entry["members"].items()
        }
        if macro.members:
            specs = list(macro.members.values())
            total = specs[0]
            for spec in specs[1:]:
                total = total + spec
            macro.aggregate = total
        macro.base_rate = entry["base_rate"]
        macro.join_count = entry["join_count"]
        macro.leave_count = entry["leave_count"]
        for c in entry["contingencies"]:
            token = next(aggregate._tokens)
            macro.contingencies.append(ContingencyAllocation(
                amount=c["amount"],
                granted_at=c["granted_at"],
                expires_at=c["expires_at"],
                prior_edge_bound=c["prior_edge_bound"],
                token=token,
            ))
            heapq.heappush(
                aggregate._expirations,
                (c["expires_at"], token, macro.key),
            )
        aggregate._apply_total_rate(macro)
    return broker
