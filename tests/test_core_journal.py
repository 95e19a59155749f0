"""The journal record table and its one replay = exact warm failover."""

import json
import os
import random

import pytest

from repro.cluster import build_pod_cluster
from repro.core.aggregate import ServiceClass
from repro.core.broker import BandwidthBroker
from repro.core.journal import (
    KINDS,
    JournalEntry,
    Replay,
    replay,
    request_payload,
)
from repro.core.persistence import checkpoint_broker, restore_broker
from repro.errors import StateError
from repro.service import BrokerService, FileJournal, read_journal
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain


def fig8_broker():
    broker = BandwidthBroker()
    fig8_domain(SchedulerSetting.MIXED).provision_broker(broker)
    broker.register_class(ServiceClass("gold", 2.44, 0.24))
    return broker


def journal(records):
    """Entries sequenced from 1, from ``(kind, payload)`` pairs."""
    return [
        JournalEntry(seq, kind, payload)
        for seq, (kind, payload) in enumerate(records, 1)
    ]


def admit(broker, records, flow_id, spec, delay, now=0.0):
    """Record a request the way the service WAL does, then execute it."""
    records.append(("request", request_payload(
        flow_id, spec, delay, "I1", "E1", now=now,
    )))
    return broker.request_service(flow_id, spec, delay, "I1", "E1", now=now)


def failed_terminate(broker, records, flow_id, now=0.0):
    """Write-ahead: a terminate is recorded even when it raises."""
    records.append(("terminate", {"flow_id": flow_id, "now": now}))
    with pytest.raises(StateError):
        broker.terminate(flow_id, now=now)


class TestJournalBasics:
    def test_entries_sequence(self, tmp_path):
        wal = FileJournal(tmp_path, fsync=False)
        a = wal.append("request", {"x": 1})
        b = wal.append("terminate", {"y": 2})
        wal.close()
        assert (a.seq, b.seq) == (1, 2)
        assert wal.position == 2
        assert len(read_journal(tmp_path).entries) == 2

    def test_entries_after(self, tmp_path):
        wal = FileJournal(tmp_path, fsync=False)
        for index in range(5):
            wal.append("advance", {"now": float(index)})
        wal.close()
        suffix = wal.entries_after(3)
        assert [entry.seq for entry in suffix] == [4, 5]

    def test_empty_position_zero(self, tmp_path):
        assert FileJournal(tmp_path, fsync=False).position == 0

    def test_entry_roundtrips_through_json(self):
        entry = JournalEntry(seq=7, kind="request", payload={"a": 1.5})
        clone = JournalEntry.from_dict(
            json.loads(json.dumps(entry.to_dict()))
        )
        assert clone == entry

    def test_replay_unknown_kind_raises(self):
        broker = BandwidthBroker()
        with pytest.raises(StateError):
            replay(broker, [JournalEntry(1, "frobnicate", {})])


class TestServiceJournal:
    def test_operations_recorded(self, tmp_path, type0_spec):
        wal = FileJournal(tmp_path, fsync=False)
        with BrokerService(fig8_broker(), workers=1, wal=wal) as service:
            service.request("f1", type0_spec, 2.44, "I1", "E1")
            service.teardown("f1")
            service.advance(100.0)
        wal.close()
        kinds = [entry.kind for entry in read_journal(tmp_path).entries]
        assert kinds == ["request", "terminate", "advance"]

    def test_rejections_also_recorded(self, tmp_path, type0_spec):
        wal = FileJournal(tmp_path, fsync=False)
        with BrokerService(fig8_broker(), workers=1, wal=wal) as service:
            reply = service.request("f1", type0_spec, 0.2, "I1", "E1")
        wal.close()
        assert not reply.admitted
        assert len(read_journal(tmp_path).entries) == 1


class TestWarmFailover:
    def drive(self, service, operations, rng, now=0.0):
        """Apply a random operation mix through the journaled service."""
        spec_pool = [flow_type(i).spec for i in range(4)]
        active = []
        for index in range(operations):
            now += rng.uniform(10.0, 400.0)
            roll = rng.random()
            if roll < 0.55 or not active:
                spec = rng.choice(spec_pool)
                use_class = rng.random() < 0.4
                flow_id = f"f{now:.3f}"
                reply = service.request(
                    flow_id, spec,
                    0.0 if use_class else rng.uniform(2.5, 6.0),
                    "I1", "E1",
                    service_class="gold" if use_class else "",
                    now=now,
                )
                if reply.admitted:
                    active.append(flow_id)
            elif roll < 0.85:
                service.teardown(
                    active.pop(rng.randrange(len(active))), now=now
                )
            else:
                service.advance(now)
        return now

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_checkpoint_plus_replay_equals_primary(self, seed, tmp_path,
                                                   type0_spec):
        rng = random.Random(seed)
        primary = fig8_broker()
        wal = FileJournal(tmp_path, fsync=False)
        with BrokerService(primary, workers=1, wal=wal) as service:
            # Phase 1: operations before the checkpoint.
            now = self.drive(service, 25, rng)
            snapshot = checkpoint_broker(primary)
            marker = wal.position
            # Phase 2: operations after the checkpoint.
            now = self.drive(service, 25, rng, now)
        wal.close()

        # Failover: restore + replay the suffix.
        standby = restore_broker(snapshot)
        replay(standby, wal.entries_after(marker))

        a, b = primary.stats(), standby.stats()
        assert (a.active_flows, a.macroflows, a.qos_state_entries) == (
            b.active_flows, b.macroflows, b.qos_state_entries
        )
        for link in primary.node_mib.links():
            twin = standby.node_mib.link(*link.link_id)
            assert twin.reserved_rate == pytest.approx(link.reserved_rate)
        # And the next decision is identical on both.
        now += 100.0
        d1 = primary.request_service("post", type0_spec, 2.19, "I1",
                                     "E1", now=now)
        d2 = standby.request_service("post", type0_spec, 2.19, "I1",
                                     "E1", now=now)
        assert d1.admitted == d2.admitted
        if d1.admitted:
            assert d1.rate == pytest.approx(d2.rate)
            assert d1.delay == pytest.approx(d2.delay)

    def test_replay_from_empty_checkpoint(self, tmp_path, type0_spec):
        """Replaying the whole journal onto a fresh broker works too
        (checkpointless cold recovery)."""
        primary = fig8_broker()
        wal = FileJournal(tmp_path, fsync=False)
        with BrokerService(primary, workers=1, wal=wal) as service:
            service.request("f1", type0_spec, 2.44, "I1", "E1")
            service.request("f2", type0_spec, 0.0, "I1", "E1",
                            service_class="gold", now=10.0)
            service.teardown("f1", now=20.0)
        wal.close()

        standby = fig8_broker()
        applied, skipped = replay(standby, read_journal(tmp_path).entries)
        assert (applied, skipped) == (3, 0)
        assert standby.stats().active_flows == primary.stats().active_flows


class TestWriteAheadFailures:
    def test_failed_terminate_replays_harmlessly(self, type0_spec):
        """Write-ahead journaling records a terminate that raised on
        the primary; replay must skip it identically instead of
        crashing the standby."""
        primary, records = fig8_broker(), []
        admit(primary, records, "f1", type0_spec, 2.44)
        failed_terminate(primary, records, "ghost")
        standby = fig8_broker()
        applied, skipped = replay(standby, journal(records))
        assert (applied, skipped) == (1, 1)
        assert standby.stats().active_flows == 1

    def test_unknown_kind_still_raises(self):
        standby = fig8_broker()
        with pytest.raises(StateError):
            replay(standby, [JournalEntry(1, "frobnicate", {})])

    def test_capacity_rejections_replay_as_applied(self, type0_spec):
        """A capacity rejection is a *decision*, not a failure: replay
        re-executes and re-rejects it, counting it applied — only
        entries that raised on the primary count as skipped — and the
        replayed broker's next decisions match the primary's."""
        primary, records = fig8_broker(), []
        admitted = rejected = 0
        index = 0
        # Saturate the I1->E1 capacity so the tail of the stream is
        # genuinely rejected for bandwidth.
        while rejected < 3 and index < 400:
            decision = admit(primary, records, f"f{index}", type0_spec,
                             2.44, now=float(index))
            if decision.admitted:
                admitted += 1
            else:
                rejected += 1
            index += 1
        assert admitted > 0 and rejected >= 3
        # One failed terminate mid-journal (raised on the primary).
        failed_terminate(primary, records, "never-admitted",
                         now=float(index))
        standby = fig8_broker()
        applied, skipped = replay(standby, journal(records))
        assert applied == admitted + rejected
        assert skipped == 1
        a, b = primary.stats(), standby.stats()
        assert a.active_flows == b.active_flows
        assert a.rejected_total == b.rejected_total
        d1 = primary.request_service(
            "probe", type0_spec, 2.44, "I1", "E1", now=float(index + 1)
        )
        d2 = standby.request_service(
            "probe", type0_spec, 2.44, "I1", "E1", now=float(index + 1)
        )
        assert d1.admitted == d2.admitted
        assert d1.rate == pytest.approx(d2.rate)

    def test_failed_terminate_then_readmit_replays_identically(
            self, type0_spec):
        """Replay over a trace holding a failed terminate keeps later
        entries aligned: the skipped entry must not shift decisions."""
        primary, records = fig8_broker(), []
        admit(primary, records, "f1", type0_spec, 2.44)
        failed_terminate(primary, records, "f2")    # skipped on replay
        records.append(("terminate", {"flow_id": "f1", "now": 5.0}))
        primary.terminate("f1", now=5.0)            # applied
        decision = admit(primary, records, "f1", type0_spec, 2.44,
                         now=10.0)
        assert decision.admitted    # re-admission after teardown
        standby = fig8_broker()
        applied, skipped = replay(standby, journal(records))
        assert (applied, skipped) == (3, 1)
        record = standby.flow_mib.get("f1")
        assert record is not None and record.admitted_at == 10.0


class TestRecordTable:
    def test_skippable_rows(self):
        skippable = {kind for kind, (_, skip) in KINDS.items() if skip}
        assert skippable == {"request", "terminate", "resize"}

    def test_every_kind_comes_from_a_real_writer(self, tmp_path,
                                                 type0_spec):
        """Write every kind through the code that writes it in
        production; the kinds seen are exactly the table's, every
        journal replays through it, and each replayed broker equals
        the live one that wrote the journal."""
        service_dir = str(tmp_path / "service")
        broker = fig8_broker()
        wal = FileJournal(service_dir, fsync=False)
        with BrokerService(broker, workers=1, wal=wal) as service:
            assert service.request("f1", type0_spec, 2.44, "I1", "E1",
                                   ).admitted
            assert service.request("g1", type0_spec, 0.0, "I1", "E1",
                                   service_class="gold", now=1.0,
                                   ).admitted
            macroflow = next(iter(broker.aggregate.macroflows))
            service.feedback(macroflow, now=2.0)
            service.shrink(macroflow, 0.0, now=3.0)
            assert service.inflate(macroflow, 1e4, now=3.5).detail == (
                "inflate moved 10000.0 b/s")
            service.journal_lease("expire", "f1", "agent-0", now=4.0)
            service.teardown("f1", now=5.0)
            service.advance(10.0)
        wal.close()

        wal_root = str(tmp_path / "cluster")
        cluster = build_pod_cluster(2, wal_root=wal_root, fsync=False)
        with cluster:
            coordinator = cluster.coordinator
            local, span = cluster.pod_paths[0], cluster.spanning_paths[0]
            for flow_id, nodes in (("l1", local), ("s1", span)):
                assert coordinator.admit(
                    flow_id, type0_spec, 2.44, nodes[0], nodes[-1],
                    path_nodes=nodes,
                ).admitted
                assert coordinator.teardown(flow_id).status == "ok"
            cluster.shards["shard0"].abort({
                "txid": "never-prepared", "now": 0.0,
                **cluster.partition.stamp(),
            })

        twin = build_pod_cluster(2)
        brokers = {service_dir: (broker, fig8_broker()), os.path.join(
            wal_root, "coordinator"): (None, None)}
        for name, shard in twin.shards.items():
            brokers[os.path.join(wal_root, name)] = (
                cluster.shards[name].broker, shard.broker)
        seen = set()
        for directory, (live, fresh) in brokers.items():
            entries = read_journal(directory).entries
            seen |= {entry.kind for entry in entries}
            state = Replay(fresh)
            assert state.apply(entries) == (len(entries), 0)
            if live is not None:
                assert checkpoint_broker(fresh) == checkpoint_broker(live)
        assert seen == set(KINDS)
