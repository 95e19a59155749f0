"""Crash recovery of the sharded cluster: the consistency proof.

The acceptance property of the cluster subsystem: inject coordinator
and participant crashes into **every phase** of the two-phase
admission, recover every shard by journal replay plus the coordinator
from its decision log, and the global link-load state must equal a
single fused broker that admitted exactly the surviving committed
flows — zero double-admits, zero stranded holds.

Each scenario in :class:`TestDifferentialConsistency` drives the same
mixed single-shard/spanning workload against a 2-shard pod cluster
with one fault injected at a chosen 2PC point, then runs the
differential check.  The remaining classes cover the recovery
machinery directly: shard journal replay, prepared-hold resurrection,
checkpoint hold-quiescence, replica chains shipping cluster records,
and promotion of a shard directory.
"""

from __future__ import annotations

import contextlib
import errno
import os
import threading

import pytest

from repro import clock
from repro.cluster import (
    ClusterCoordinator,
    PartitionMap,
    build_pod_cluster,
    recover_shard,
)
from repro.cluster.partition import link_id_str
from repro.cluster.procs import _journal_failed, _serve_until_stopped
from repro.cluster.shard import BrokerShard
from repro.core.broker import BandwidthBroker
from repro.errors import StateError
from repro.service.durability import FileJournal, recover_broker
from repro.soak.audit import audit_recovered_shards
from repro.units import mbps
from repro.vtrs.timestamps import SchedulerKind
from repro.workloads.profiles import flow_type

SPEC = flow_type(0).spec
D_REQ = 2.44
SHARDS = 2


def fresh_twin():
    """A pristine cluster with the same deterministic layout."""
    return build_pod_cluster(SHARDS)


class FaultyHandle:
    """Wraps a shard handle; raises on the n-th call of one op.

    ``after=True`` crashes *after* the shard processed the op (the
    reply is lost on the wire); the default crashes before the shard
    ever sees it.  Either way the caller observes an unreachable
    participant.
    """

    def __init__(self, inner, fail_op: str, *, fail_on: int = 1,
                 after: bool = False) -> None:
        self._inner = inner
        self._fail_op = fail_op
        self._fail_on = fail_on
        self._after = after
        self._calls = 0

    def __getattr__(self, name):
        target = getattr(self._inner, name)
        if name != self._fail_op:
            return target

        def wrapped(*args, **kwargs):
            self._calls += 1
            if self._calls == self._fail_on:
                if self._after:
                    target(*args, **kwargs)
                raise RuntimeError(
                    f"injected crash on {self._fail_op} #{self._calls}"
                )
            return target(*args, **kwargs)

        return wrapped


class FaultyJournal:
    """Delegating journal that raises on appends of one record kind."""

    def __init__(self, inner, fail_kind: str) -> None:
        self._inner = inner
        self._fail_kind = fail_kind

    def append(self, kind, payload):
        if kind == self._fail_kind:
            raise RuntimeError(f"injected crash at {kind} append")
        return self._inner.append(kind, payload)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def run_workload(cluster):
    """Background flows every scenario shares; returns survivors.

    Two local flows per pod, one of which is torn down again
    (exercising terminate/``crelease`` replay), plus one fully
    committed spanning flow.
    """
    surviving = {}
    for pod, nodes in enumerate(cluster.pod_paths):
        for worker in range(2):
            flow_id = f"local-p{pod}-{worker}"
            decision = cluster.coordinator.admit(
                flow_id, SPEC, D_REQ, nodes[0], nodes[-1],
                path_nodes=nodes,
            )
            assert decision.admitted, decision
            surviving[flow_id] = nodes
        drop = f"local-p{pod}-1"
        assert cluster.coordinator.teardown(drop).status == "ok"
        del surviving[drop]
    span = cluster.spanning_paths[0]
    decision = cluster.coordinator.admit(
        "span-ok", SPEC, D_REQ, span[0], span[-1], path_nodes=span,
    )
    assert decision.admitted, decision
    surviving["span-ok"] = span
    return surviving


def recover_cluster(root, partition, *, now=1000.0):
    """Recover every shard + the coordinator from *root* on disk."""
    shards = {}
    for name in partition.shards:
        def factory(name=name):
            return fresh_twin().shards[name].broker

        shards[name] = recover_shard(
            os.path.join(root, name),
            name=name, partition=partition,
            broker_factory=factory, now=now, fsync=False,
        )
    handles = {name: rec.shard for name, rec in shards.items()}
    coordinator, report = ClusterCoordinator.recover(
        os.path.join(root, "coordinator"),
        partition, handles, fresh_twin().atlas, now=now, fsync=False,
    )
    return shards, coordinator, report


def assert_matches_oracle(shards, coordinator, surviving):
    """The differential check: recovered union == fused oracle.

    Thin wrapper over :func:`repro.soak.audit.audit_recovered_shards`
    — the same invariant suite the million-event soak runs (oracle
    link loads/keys, zero ``txn:`` holds, zero double admits,
    registry == survivors), asserted here for pytest reporting.
    """
    report = audit_recovered_shards(
        shards, coordinator, dict(surviving), SPEC, D_REQ,
        fresh_twin().atlas,
    )
    assert report.ok, report.summary() + "".join(
        f"\n  {f.kind}: {f.subject}: {f.detail}"
        for f in report.findings
    )


class TestDifferentialConsistency:
    def run_scenario(self, tmp_path, inject, *, expect=None):
        """Common harness: workload, one faulty spanning admit, crash,
        recover, differential check.  ``inject(cluster)`` arms the
        fault and returns the expected post-recovery fate of the
        faulty flow (``"committed"`` / ``"gone"``)."""
        root = str(tmp_path)
        cluster = build_pod_cluster(SHARDS, wal_root=root, fsync=False)
        partition = cluster.partition
        with cluster:
            surviving = run_workload(cluster)
            fate = inject(cluster)
            span = cluster.spanning_paths[0]
            try:
                decision = cluster.coordinator.admit(
                    "span-x", SPEC, D_REQ, span[0], span[-1],
                    path_nodes=span,
                )
            except RuntimeError:
                decision = None  # the "coordinator crashed" shapes
            if fate == "committed":
                surviving["span-x"] = span
            if expect is not None:
                expect(decision)
        shards, coordinator, report = recover_cluster(root, partition)
        assert_matches_oracle(shards, coordinator, surviving)
        return report

    def test_participant_crash_before_first_prepare(self, tmp_path):
        def inject(cluster):
            # shard0 is first in the rate-only prepare order: no hold
            # is ever placed anywhere.
            cluster.coordinator.handles["shard0"] = FaultyHandle(
                cluster.coordinator.handles["shard0"], "prepare"
            )
            return "gone"

        def expect(decision):
            assert decision is not None and not decision.admitted
            assert decision.reason == "participant-unreachable"

        report = self.run_scenario(tmp_path, inject, expect=expect)
        assert report.in_doubt == []

    def test_participant_crash_after_partial_prepare(self, tmp_path):
        def inject(cluster):
            # shard0 prepares and holds; shard1 crashes, so the
            # coordinator must abort shard0's hold.
            cluster.coordinator.handles["shard1"] = FaultyHandle(
                cluster.coordinator.handles["shard1"], "prepare"
            )
            return "gone"

        self.run_scenario(tmp_path, inject)

    def test_participant_prepared_but_reply_lost(self, tmp_path):
        def inject(cluster):
            # shard1 journals the hold, then the reply is lost: its
            # disk state says prepared, the coordinator says abort.
            cluster.coordinator.handles["shard1"] = FaultyHandle(
                cluster.coordinator.handles["shard1"], "prepare",
                after=True,
            )
            return "gone"

        self.run_scenario(tmp_path, inject)

    def test_coordinator_crash_before_decision(self, tmp_path):
        def inject(cluster):
            # cbegin lands, both shards hold, the decision append
            # dies: presumed abort must clean both shards up.
            cluster.coordinator.wal = FaultyJournal(
                cluster.coordinator.wal, "cdecide"
            )
            return "gone"

        def expect(decision):
            assert decision is None  # admit raised: coordinator died

        report = self.run_scenario(tmp_path, inject, expect=expect)
        assert len(report.aborted) == 1

    def test_coordinator_crash_after_decision(self, tmp_path):
        def inject(cluster):
            # The commit decision is durable but no participant hears
            # it: recovery must re-drive the commit to completion.
            for name in ("shard0", "shard1"):
                cluster.coordinator.handles[name] = FaultyHandle(
                    cluster.coordinator.handles[name], "commit"
                )
            return "committed"

        def expect(decision):
            assert decision is not None
            assert decision.status == "in-doubt"

        report = self.run_scenario(tmp_path, inject, expect=expect)
        assert len(report.committed) == 1

    def test_coordinator_crash_after_partial_commit(self, tmp_path):
        def inject(cluster):
            # shard0 finalizes, shard1 never hears the commit: the
            # re-drive must finish shard1 without double-reserving
            # shard0 (its cached verdict answers the retry).
            cluster.coordinator.handles["shard1"] = FaultyHandle(
                cluster.coordinator.handles["shard1"], "commit"
            )
            return "committed"

        def expect(decision):
            assert decision is not None
            assert decision.status == "in-doubt"

        report = self.run_scenario(tmp_path, inject, expect=expect)
        assert len(report.committed) == 1

    def test_expired_hold_compensates_decided_commit(self, tmp_path):
        def inject(cluster):
            for name in ("shard0", "shard1"):
                cluster.coordinator.handles[name] = FaultyHandle(
                    cluster.coordinator.handles[name], "commit"
                )
            return "gone"

        def expect(decision):
            assert decision is not None
            assert decision.status == "in-doubt"
            # While the coordinator is down, the hold leases run out
            # and the reaper aborts them — journaled tombstones.
            for shard in self._cluster.shards.values():
                shard.reap(10_000.0)

        self._cluster = None

        def arm(cluster):
            self._cluster = cluster
            return inject(cluster)

        report = self.run_scenario(tmp_path, arm, expect=expect)
        assert len(report.compensated) == 1


class TestShardRecovery:
    def test_replay_rebuilds_live_state(self, tmp_path):
        root = str(tmp_path)
        cluster = build_pod_cluster(SHARDS, wal_root=root, fsync=False)
        with cluster:
            run_workload(cluster)
            live = {
                name: {
                    link_id_str(l.link_id): (
                        sorted(l.reservation_keys()), l.reserved_rate
                    )
                    for l in shard.broker.node_mib.links()
                }
                for name, shard in cluster.shards.items()
            }
            live_flows = {
                name: sorted(
                    r.flow_id
                    for r in shard.broker.flow_mib.records()
                )
                for name, shard in cluster.shards.items()
            }
        for name in cluster.partition.shards:
            recovery = recover_shard(
                os.path.join(root, name),
                name=name, partition=cluster.partition,
                broker_factory=(
                    lambda name=name: fresh_twin().shards[name].broker
                ),
                fsync=False,
            )
            broker = recovery.shard.broker
            assert sorted(
                r.flow_id for r in broker.flow_mib.records()
            ) == live_flows[name]
            for link in broker.node_mib.links():
                keys, rate = live[name][link_id_str(link.link_id)]
                assert sorted(link.reservation_keys()) == keys
                assert link.reserved_rate == pytest.approx(
                    rate, abs=1e-9
                )
            assert recovery.prepared == ()

    def test_prepared_hold_survives_crash(self, tmp_path):
        pmap = PartitionMap(["s0"])
        broker = BandwidthBroker()
        broker.add_link("a", "b", mbps(10), SchedulerKind.RATE_BASED)
        wal = FileJournal(str(tmp_path), fsync=False)
        shard = BrokerShard("s0", broker, pmap, wal=wal)
        frame = {
            "txid": "tx-1", "flow_id": "f1", "links": [["a", "b"]],
            "spec": SPEC.to_dict(), "delay_requirement": D_REQ,
            "mode": "fixed", "rate": SPEC.rho, "delay": 0.0,
            "now": 0.0, **pmap.stamp(),
        }
        assert shard.prepare(frame)["status"] == "prepared"
        wal.close()  # crash: the service never stopped cleanly
        recovery = recover_shard(
            str(tmp_path), name="s0", partition=pmap,
            broker_factory=lambda: _single_link_broker(), now=50.0,
            fsync=False,
        )
        assert recovery.prepared == ("tx-1",)
        revived = recovery.shard
        link = revived.broker.node_mib.link("a", "b")
        assert "txn:tx-1" in link.reservation_keys()
        # The recovered shard can finish the transaction.
        reply = revived.commit({"txid": "tx-1", "flow_id": "f1",
                                "now": 51.0, **pmap.stamp()})
        assert reply["status"] == "committed"
        assert "f1" in revived.broker.flow_mib
        assert "txn:tx-1" not in link.reservation_keys()

    def test_recovered_shard_answers_duplicates_like_the_live_one(
            self, tmp_path):
        """Replies come from a transaction's state, so a recovered
        shard answers a retried prepare, commit or abort exactly as
        the live shard did — a commit's flow keys included."""
        pmap = PartitionMap(["s0"])
        wal = FileJournal(str(tmp_path), fsync=False)
        shard = BrokerShard("s0", _single_link_broker(), pmap, wal=wal)

        def frame(txid):
            return {
                "txid": txid, "flow_id": f"f-{txid}", "links": [["a", "b"]],
                "spec": SPEC.to_dict(), "delay_requirement": D_REQ,
                "mode": "fixed", "rate": SPEC.rho, "delay": 0.0,
                "now": 1.0, **pmap.stamp(),
            }

        for txid in ("tx-commit", "tx-abort", "tx-open"):
            assert shard.prepare(frame(txid))["status"] == "prepared"
        shard.commit(frame("tx-commit"))
        shard.abort(frame("tx-abort"))
        shard.abort(frame("tx-tombstone"))

        def duplicates(shard):
            # Retries that find a settled transaction change nothing.
            ops = {"tx-open": ("prepare",)}
            for txid in ("tx-commit", "tx-abort", "tx-tombstone"):
                ops[txid] = ("prepare", "commit", "abort")
            return {
                (txid, op): getattr(shard, op)(frame(txid))
                for txid, names in ops.items() for op in names
            }

        live = duplicates(shard)
        assert live["tx-commit", "commit"]["flows"] == ["f-tx-commit"]
        wal.close()  # crash
        recovery = recover_shard(
            str(tmp_path), name="s0", partition=pmap,
            broker_factory=_single_link_broker, fsync=False,
        )
        assert recovery.prepared == ("tx-open",)
        assert duplicates(recovery.shard) == live

    def test_checkpoint_refuses_outstanding_holds(self, tmp_path):
        pmap = PartitionMap(["s0"])
        wal = FileJournal(str(tmp_path), fsync=False)
        shard = BrokerShard(
            "s0", _single_link_broker(), pmap, wal=wal
        )
        frame = {
            "txid": "tx-1", "flow_id": "f1", "links": [["a", "b"]],
            "spec": SPEC.to_dict(), "delay_requirement": D_REQ,
            "mode": "fixed", "rate": SPEC.rho, "delay": 0.0,
            "now": 0.0, **pmap.stamp(),
        }
        shard.prepare(frame)
        with pytest.raises(StateError, match="outstanding 2PC holds"):
            shard.checkpoint()
        shard.commit({"txid": "tx-1", "flow_id": "f1", "now": 1.0,
                      **pmap.stamp()})
        path = shard.checkpoint()
        assert os.path.exists(path)
        # Post-checkpoint recovery prunes txn history; a re-driven
        # commit still answers by effect.
        wal.close()
        recovery = recover_shard(
            str(tmp_path), name="s0", partition=pmap,
            broker_factory=lambda: _single_link_broker(), fsync=False,
        )
        reply = recovery.shard.commit({
            "txid": "tx-1", "flow_id": "f1", "now": 2.0, **pmap.stamp()
        })
        assert reply["status"] == "committed"


class TestShardDirectory:
    def test_plain_recover_broker_replays_cluster_kinds(self, tmp_path):
        # A shard directory recovers like any other: the 2PC table
        # comes back in the report, never silently dropped.
        pmap = PartitionMap(["s0"])
        wal = FileJournal(str(tmp_path), fsync=False)
        shard = BrokerShard("s0", _single_link_broker(), pmap, wal=wal)
        shard.prepare({
            "txid": "tx-1", "flow_id": "f1", "links": [["a", "b"]],
            "spec": SPEC.to_dict(), "delay_requirement": D_REQ,
            "mode": "fixed", "rate": SPEC.rho, "delay": 0.0,
            "now": 0.0, **pmap.stamp(),
        })
        shard.abort({"txid": "tx-2", "now": 0.0, **pmap.stamp()})
        wal.close()
        report = recover_broker(
            str(tmp_path), broker_factory=_single_link_broker
        )
        assert report.applied == 2
        assert report.prepared() == ["tx-1"]
        assert report.txns["tx-2"]["state"] == "aborted"
        link = report.broker.node_mib.link("a", "b")
        assert "txn:tx-1" in link.reservation_keys()


class TestFailedJournal:
    def test_shard_process_stops_serving_once_its_journal_failed(
            self, tmp_path, monkeypatch):
        """A journal whose ``fsync`` failed refuses every later record,
        so the shard would fail each op (answered ``error`` on the
        wire) for good.  The
        shard process's wait loop ends unasked (its main then exits 1
        and the supervisor restarts it from what is on disk); a
        healthy shard keeps waiting for SIGTERM."""
        from repro.service import durability

        pmap = PartitionMap(["s0"])
        wal = FileJournal(str(tmp_path), fsync=True)
        shard = BrokerShard("s0", _single_link_broker(), pmap,
                            wal=wal).start()
        stop = threading.Event()

        def prepare(txid):
            return shard.prepare({
                "txid": txid, "flow_id": f"f-{txid}",
                "links": [["a", "b"]], "spec": SPEC.to_dict(),
                "delay_requirement": D_REQ, "mode": "fixed",
                "rate": SPEC.rho, "delay": 0.0, "now": 0.0,
                **pmap.stamp(),
            })

        def broken_fsync(fd):
            raise OSError(errno.EIO, "injected EIO")

        try:
            assert prepare("tx-1")["status"] == "prepared"
            with clock.use(clock.FakeClock()) as fake:
                # Healthy: polls every 0.2 s until told otherwise.
                polls = []
                assert _serve_until_stopped(
                    stop, lambda: polls.append(1) or len(polls) == 6,
                ) is False
                assert fake.slept == [0.2] * 6
                assert not _journal_failed(shard)
                with monkeypatch.context() as patch:
                    patch.setattr(durability.os, "fsync", broken_fsync)
                    with pytest.raises(StateError, match="EIO"):
                        prepare("tx-2")
                assert _journal_failed(shard)
                assert _serve_until_stopped(
                    stop, lambda: _journal_failed(shard)) is False
                with pytest.raises(StateError, match="journal failed"):
                    prepare("tx-3")
        finally:
            with contextlib.suppress(StateError):
                shard.stop(close_wal=False)


def _single_link_broker() -> BandwidthBroker:
    broker = BandwidthBroker()
    broker.add_link("a", "b", mbps(10), SchedulerKind.RATE_BASED)
    broker.routing.pin_path(("a", "b"))
    return broker
