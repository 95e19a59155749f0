"""Cross-shard two-phase admission: protocol and decision equivalence.

Covers :mod:`repro.cluster.coordinator`, :mod:`repro.cluster.shard`
and :mod:`repro.cluster.remote` in a live (no-crash) cluster.  The
central claims:

* **decision equivalence** — for rate-only spanning paths the cluster
  admits exactly the flows a fused single broker admits, with the
  identical granted rate (eq. 6 is static; feasibility distributes as
  a min over shards).  For mixed paths whose delay hops are
  co-located, an admitted flow's ``(rate, delay)`` pair equals the
  fused broker's;
* **all-or-nothing** — a prepare rejection on any shard releases
  every hold already placed (no stranded capacity, no partial admit);
* **idempotency** — every phase answers retries with the cached
  verdict; aborts tombstone unknown txids so late prepares lose;
* **hold expiry** — the lease reaper turns an undecided hold into the
  same journaled abort an explicit ABORT produces;
* **no leaks under load** — a concurrent closed loop with spanning
  admits ends with every hold and every reservation released.
"""

from __future__ import annotations

import os
import threading
from types import SimpleNamespace

import pytest

from repro.cluster import (
    ClusterCoordinator,
    OpClient,
    PartitionMap,
    ShardServer,
    build_pod_cluster,
    run_cluster_loop,
)
from repro.cluster.remote import _OPS
from repro.cluster.shard import BrokerShard
from repro.core.broker import BandwidthBroker
from repro.errors import SignalingError
from repro.service.durability import read_journal
from repro.service.transport import TcpListener, connect_tcp, pipe_pair
from repro.traffic.spec import TSpec
from repro.units import kbps, mbps
from repro.vtrs.timestamps import SchedulerKind
from repro.workloads.profiles import flow_type

SPEC = flow_type(0).spec
D_REQ = 2.44


def fused_oracle(cluster) -> BandwidthBroker:
    """A single broker with the whole domain (fresh reservations)."""
    oracle = BandwidthBroker()
    for link in cluster.atlas.node_mib.links():
        oracle.add_link(
            link.link_id[0], link.link_id[1], link.capacity, link.kind,
            propagation=link.propagation, max_packet=link.max_packet,
        )
    for record in cluster.atlas.path_mib.records():
        oracle.routing.pin_path(record.nodes)
    return oracle


@pytest.fixture()
def duo():
    cluster = build_pod_cluster(2)
    with cluster:
        yield cluster


class TestOneHop:
    def test_local_path_admits_in_one_hop(self, duo):
        decision = duo.coordinator.admit(
            "f1", SPEC, D_REQ, "I0", "E0",
            path_nodes=duo.pod_paths[0],
        )
        assert decision.admitted and decision.status == "ok"
        assert decision.shards == ("shard0",)
        assert duo.coordinator.local_admits == 1
        assert duo.coordinator.spanning_admits == 0
        down = duo.coordinator.teardown("f1")
        assert down.status == "ok"

    def test_unroutable_pair_rejected(self, duo):
        decision = duo.coordinator.admit(
            "f1", SPEC, D_REQ, "E1", "I0"
        )
        assert not decision.admitted
        assert decision.reason == "no-path"

    def test_teardown_of_unknown_flow_errors(self, duo):
        assert duo.coordinator.teardown("ghost").reason == "unknown-flow"

    def test_counters_report_the_decision_log_writes(self, duo,
                                                     tmp_path):
        counters = duo.coordinator.counters()
        assert counters["wal_appends"] == counters["wal_fsyncs"] == 0
        cluster = build_pod_cluster(2, wal_root=str(tmp_path),
                                    fsync=False)
        with cluster:
            nodes = cluster.spanning_paths[0]
            assert cluster.coordinator.admit(
                "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes,
            ).admitted
            counters = cluster.coordinator.counters()
            records = len(read_journal(
                os.path.join(str(tmp_path), "coordinator")
            ).entries)
        assert counters["wal_appends"] == records > 0
        assert 0 < counters["wal_fsyncs"] <= records


class TestSpanningRateOnly:
    def test_spanning_admit_matches_fused_oracle(self, duo):
        oracle = fused_oracle(duo)
        nodes = duo.spanning_paths[0]
        expect = oracle.request_service(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes
        )
        decision = duo.coordinator.admit(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes
        )
        assert decision.admitted == expect.admitted is True
        assert decision.rate == pytest.approx(expect.rate, abs=1e-9)
        assert decision.shards == ("shard0", "shard1")
        assert decision.txid
        # Committed state is native: one FlowRecord per shard segment.
        assert "f1" in duo.shards["shard0"].broker.flow_mib
        assert "f1" in duo.shards["shard1"].broker.flow_mib
        assert duo.outstanding_holds() == []

    def test_spanning_reject_matches_fused_oracle(self, duo):
        # Saturate the bridge link so the spanning path is infeasible
        # in both worlds, then compare verdicts flow by flow.
        oracle = fused_oracle(duo)
        nodes = duo.spanning_paths[0]
        admitted_cluster = []
        admitted_oracle = []
        for index in range(2000):
            flow_id = f"f{index}"
            cluster_says = duo.coordinator.admit(
                flow_id, SPEC, D_REQ, nodes[0], nodes[-1],
                path_nodes=nodes,
            )
            oracle_says = oracle.request_service(
                flow_id, SPEC, D_REQ, nodes[0], nodes[-1],
                path_nodes=nodes,
            )
            assert cluster_says.admitted == oracle_says.admitted, (
                f"divergence at {flow_id}: cluster="
                f"{cluster_says.reason} oracle={oracle_says.reason}"
            )
            if not cluster_says.admitted:
                break
            assert cluster_says.rate == pytest.approx(
                oracle_says.rate, abs=1e-9
            )
            admitted_cluster.append(flow_id)
            admitted_oracle.append(flow_id)
        else:
            pytest.fail("link never saturated")
        assert admitted_cluster  # some flows fit before saturation
        assert duo.outstanding_holds() == []

    def test_rejected_prepare_releases_all_holds(self):
        # Exhaust shard1's pod links out of band (static profile
        # unchanged): shard0 prepares first, then shard1 rejects, and
        # the abort must release shard0's hold.
        cluster = build_pod_cluster(2)
        with cluster:
            link = cluster.shards["shard1"].broker.node_mib.link(
                "I1", "C1_1"
            )
            link.reserve("blocker", link.capacity - kbps(1))
            nodes = cluster.spanning_paths[0]
            decision = cluster.coordinator.admit(
                "f1", SPEC, D_REQ, nodes[0], nodes[-1],
                path_nodes=nodes,
            )
            assert not decision.admitted
            assert decision.reason == "insufficient-bandwidth"
            assert cluster.outstanding_holds() == []
            for shard in cluster.shards.values():
                assert len(shard.broker.flow_mib) == 0

    def test_unreachable_participant_is_a_retryable_error(self, duo):
        """A prepare that raises is no refusal: the admit is answered
        as a retryable error (REST 502, never cached as a 409), and
        the hold already placed on the other shard is released."""
        def unreachable(frame):
            raise SignalingError("shard1 unreachable")

        duo.coordinator.handles["shard1"] = SimpleNamespace(
            prepare=unreachable, abort=unreachable)
        nodes = duo.spanning_paths[0]
        decision = duo.coordinator.admit(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes
        )
        assert decision.status == "error"
        assert decision.reason == "participant-unreachable"
        assert not decision.admitted
        assert duo.shards["shard0"].status()["txns"] == {"aborted": 1}
        assert duo.outstanding_holds() == []
        assert "f1" not in duo.coordinator.flows()

    def test_duplicate_flow_id_rejected_across_shards(self, duo):
        nodes = duo.spanning_paths[0]
        first = duo.coordinator.admit(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes
        )
        assert first.admitted
        second = duo.coordinator.admit(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes
        )
        assert not second.admitted
        assert second.reason == "duplicate"
        # The loser's abort must not damage the winner's reservation.
        assert "f1" in duo.shards["shard0"].broker.flow_mib
        assert duo.outstanding_holds() == []

    def test_spanning_teardown_releases_both_shards(self, duo):
        nodes = duo.spanning_paths[0]
        duo.coordinator.admit(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes
        )
        loaded = {k: v for k, v in duo.link_loads().items() if v > 1.0}
        assert loaded
        down = duo.coordinator.teardown("f1")
        assert down.status == "ok"
        for shard in duo.shards.values():
            assert len(shard.broker.flow_mib) == 0
        assert all(v < 1.0 for v in duo.link_loads().values())


class _GatedShard:
    """A shard handle whose *op* blocks until :attr:`gate` is set;
    every other op goes straight through."""

    def __init__(self, shard, op: str) -> None:
        self.shard = shard
        self.op = op
        self.entered = threading.Event()
        self.gate = threading.Event()

    def __getattr__(self, name):
        method = getattr(self.shard, name)
        if name != self.op:
            return method

        def gated(*args, **kwargs):
            self.entered.set()
            assert self.gate.wait(10.0), "gate never opened"
            return method(*args, **kwargs)

        return gated


class TestConcurrentTeardown:
    """A duplicate teardown (an agent's resend through another gateway
    worker) can reach the coordinator while the first one is still in
    the shard: it must be told to retry, not that the flow is unknown
    (REST would answer 404 while the flow still holds capacity)."""

    @pytest.mark.parametrize("kind,op", [
        ("local", "teardown"), ("spanning", "release"),
    ])
    def test_duplicate_during_teardown_is_retryable(self, duo, kind, op):
        nodes = (duo.pod_paths[0] if kind == "local"
                 else duo.spanning_paths[0])
        assert duo.coordinator.admit(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes,
        ).admitted
        gated = _GatedShard(duo.coordinator.handles["shard0"], op)
        duo.coordinator.handles["shard0"] = gated
        first = []
        thread = threading.Thread(
            target=lambda: first.append(duo.coordinator.teardown("f1")))
        thread.start()
        try:
            assert gated.entered.wait(10.0)
            duplicate = duo.coordinator.teardown("f1")
            held = "f1" in duo.coordinator.flows()
        finally:
            gated.gate.set()
            thread.join(10.0)
        assert not thread.is_alive()
        assert duplicate.status == "error"
        assert duplicate.reason == "teardown-in-progress"
        # The REST tier answers 404 on either phrase; this must be 502.
        assert "not admitted" not in duplicate.detail
        assert "is not registered" not in duplicate.detail
        assert held
        assert first[0].status == "ok"
        assert "f1" not in duo.coordinator.flows()
        assert duo.coordinator.teardown("f1").reason == "unknown-flow"
        assert all(load < 1.0 for load in duo.link_loads().values())

    def test_retry_after_an_unreachable_shard_finds_the_flow(self, duo):
        nodes = duo.pod_paths[0]
        assert duo.coordinator.admit(
            "f1", SPEC, D_REQ, nodes[0], nodes[-1], path_nodes=nodes,
        ).admitted
        shard = duo.coordinator.handles["shard0"]

        def unreachable(frame):
            raise SignalingError("shard0 unreachable")

        duo.coordinator.handles["shard0"] = SimpleNamespace(
            teardown=unreachable)
        failed = duo.coordinator.teardown("f1")
        assert failed.reason == "shard-unreachable"
        duo.coordinator.handles["shard0"] = shard
        assert duo.coordinator.teardown("f1").status == "ok"
        assert "f1" not in duo.coordinator.flows()


class TestSpanningMixed:
    @staticmethod
    def _mixed_cluster():
        """a -(rate, s0)-> b -(delay, s1)-> c -(delay, s1)-> d."""
        pmap = PartitionMap(["s0", "s1"])
        pmap.assign(("a", "b"), "s0")
        pmap.assign(("b", "c"), "s1")
        pmap.assign(("c", "d"), "s1")
        kinds = {
            ("a", "b"): SchedulerKind.RATE_BASED,
            ("b", "c"): SchedulerKind.DELAY_BASED,
            ("c", "d"): SchedulerKind.DELAY_BASED,
        }
        atlas = BandwidthBroker()
        oracle = BandwidthBroker()
        shards = {name: BandwidthBroker() for name in pmap.shards}
        for (src, dst), kind in kinds.items():
            for broker in (atlas, oracle,
                           shards[pmap.shard_of((src, dst))]):
                broker.add_link(src, dst, mbps(10), kind,
                                max_packet=12000)
        atlas.routing.pin_path(("a", "b", "c", "d"))
        oracle.routing.pin_path(("a", "b", "c", "d"))
        shard_objs = {
            name: BrokerShard(name, broker, pmap)
            for name, broker in shards.items()
        }
        coordinator = ClusterCoordinator(
            pmap,
            shard_objs,
            atlas,
        )
        return coordinator, shard_objs, oracle

    def test_mixed_grant_pair_matches_fused_oracle(self):
        coordinator, shards, oracle = self._mixed_cluster()
        nodes = ("a", "b", "c", "d")
        for index in range(40):
            flow_id = f"f{index}"
            expect = oracle.request_service(
                flow_id, SPEC, D_REQ, "a", "d", path_nodes=nodes
            )
            decision = coordinator.admit(
                flow_id, SPEC, D_REQ, "a", "d", path_nodes=nodes
            )
            assert decision.admitted == expect.admitted
            if not expect.admitted:
                break
            assert decision.rate == pytest.approx(
                expect.rate, abs=1e-9
            )
            assert decision.delay == pytest.approx(
                expect.delay, abs=1e-12
            )
            assert shards["s1"].prepares > 0  # the scan owner ran

    def test_split_delay_hops_rejected_as_unsupported(self):
        # Force delay hops onto both shards of a spanning path: the
        # coordinator must reject before touching any shard.
        pmap = PartitionMap(["s0", "s1"])
        pmap.assign(("a", "b"), "s0")
        pmap.assign(("b", "c"), "s1")
        atlas = BandwidthBroker()
        atlas.add_link("a", "b", mbps(10), SchedulerKind.DELAY_BASED,
                       max_packet=12000)
        atlas.add_link("b", "c", mbps(10), SchedulerKind.DELAY_BASED,
                       max_packet=12000)
        atlas.routing.pin_path(("a", "b", "c"))
        shards = {}
        for name, (src, dst) in (("s0", ("a", "b")), ("s1", ("b", "c"))):
            broker = BandwidthBroker()
            broker.add_link(src, dst, mbps(10),
                            SchedulerKind.DELAY_BASED, max_packet=12000)
            shards[name] = BrokerShard(name, broker, pmap)
        coordinator = ClusterCoordinator(
            pmap,
            shards,
            atlas,
        )
        decision = coordinator.admit(
            "f1", SPEC, D_REQ, "a", "c", path_nodes=("a", "b", "c")
        )
        assert not decision.admitted
        assert decision.reason == "unsupported-layout"
        for shard in shards.values():
            assert shard.prepares == 0


class TestIdempotency:
    def _prepare_frame(self, duo, txid: str, flow_id: str):
        nodes = duo.spanning_paths[0]
        segments = duo.partition.segments(nodes)
        by_name = dict(segments)
        return {
            "txid": txid, "flow_id": flow_id,
            "links": [list(p) for p in by_name["shard0"]],
            "spec": SPEC.to_dict(),
            "delay_requirement": D_REQ,
            "mode": "fixed", "rate": SPEC.rho, "delay": 0.0,
            "now": 0.0, **duo.partition.stamp(),
        }

    def test_prepare_retry_returns_cached_verdict(self, duo):
        shard = duo.shards["shard0"]
        frame = self._prepare_frame(duo, "tx-1", "f1")
        first = shard.prepare(frame)
        again = shard.prepare(frame)
        assert first == again
        assert shard.duplicate_ops == 1
        assert shard.prepared_total == 1  # hold placed exactly once

    def test_commit_and_abort_retries_are_stable(self, duo):
        shard = duo.shards["shard0"]
        shard.prepare(self._prepare_frame(duo, "tx-1", "f1"))
        stamp = duo.partition.stamp()
        commit = {"txid": "tx-1", "flow_id": "f1", "now": 0.0, **stamp}
        first = shard.commit(commit)
        assert first["status"] == "committed"
        assert shard.commit(commit) == first
        # An abort arriving after commit reports the commit, does not
        # undo it.
        late = shard.abort({"txid": "tx-1", "now": 0.0, **stamp})
        assert late["status"] == "committed"
        assert "f1" in shard.broker.flow_mib

    def test_abort_tombstone_blocks_late_prepare(self, duo):
        shard = duo.shards["shard0"]
        stamp = duo.partition.stamp()
        gone = shard.abort({"txid": "tx-9", "now": 0.0, **stamp})
        assert gone["status"] == "aborted"
        late = shard.prepare(self._prepare_frame(duo, "tx-9", "f9"))
        assert late["status"] == "aborted"  # cached tombstone verdict
        assert shard.prepared_total == 0
        assert duo.outstanding_holds() == []

    def test_commit_of_unknown_txn_answers_by_effect(self, duo):
        shard = duo.shards["shard0"]
        stamp = duo.partition.stamp()
        reply = shard.commit({"txid": "never", "flow_id": "nope",
                              "now": 0.0, **stamp})
        assert reply["status"] == "unknown"


class TestHoldExpiry:
    def test_reaper_releases_undecided_holds(self):
        cluster = build_pod_cluster(2, hold_duration=5.0)
        with cluster:
            shard = cluster.shards["shard0"]
            frame = {
                "txid": "tx-orphan", "flow_id": "f1",
                "links": [list(l)
                          for l in cluster.partition.segments(
                              cluster.spanning_paths[0])[0][1]
                          if cluster.partition.shard_of(l) == "shard0"],
                "spec": SPEC.to_dict(),
                "delay_requirement": D_REQ,
                "mode": "fixed", "rate": SPEC.rho, "delay": 0.0,
                "now": 100.0, **cluster.partition.stamp(),
            }
            assert shard.prepare(frame)["status"] == "prepared"
            assert cluster.outstanding_holds()
            # Not yet due: nothing reaped.
            assert shard.reap(104.0)["txids"] == []
            assert cluster.outstanding_holds()
            reaped = shard.reap(106.0)
            assert reaped["txids"] == ["tx-orphan"]
            assert cluster.outstanding_holds() == []
            assert shard.reaped_total == 1
            # The reaped abort is a tombstone: a commit retry is told.
            stamp = cluster.partition.stamp()
            reply = shard.commit({"txid": "tx-orphan", "flow_id": "f1",
                                  "now": 107.0, **stamp})
            assert reply["status"] == "aborted"


class TestConcurrentLoad:
    @pytest.mark.parametrize(
        "num_shards,pods", [(4, None), (1, 2)],
        ids=["pod-per-shard", "one-shard-two-pods"],
    )
    def test_spanning_closed_loop_leaves_nothing_reserved(
            self, num_shards, pods):
        """Concurrent clients on every pod, every 2nd admit crossing
        into the neighbour pod: 2PC under contention ends with no
        error, no stranded ``txn:`` hold and every link back at zero
        load once each admitted flow is torn down.  With one shard
        owning every pod the "spanning" path is shard-local and must
        come out just as clean."""
        cluster = build_pod_cluster(num_shards, pods=pods, workers=1,
                                    edge_rtt=0.001)
        with cluster:
            report = run_cluster_loop(
                cluster, SPEC, D_REQ, clients_per_pod=2,
                requests_per_client=6, spanning_every=2,
            )
            stranded = cluster.outstanding_holds()
            loads = cluster.link_loads()
        assert report.errors == 0
        assert report.admitted == report.requests
        assert report.spanning_admitted == report.spanning_requests > 0
        assert stranded == []
        assert loads and all(abs(load) < 1e-6 for load in loads.values())


class TestRemoteHandles:
    def test_ops_over_pipe_transport(self, duo):
        client, server_end = pipe_pair()
        server = ShardServer(duo.shards["shard0"])
        threading.Thread(target=server.serve_connection,
                         args=(server_end,), daemon=True).start()
        handle = OpClient("shard0", _OPS, lambda: client)
        try:
            status = handle.status()
            assert status["shard"] == "shard0"
            nodes = duo.pod_paths[0]
            reply = handle.admit({
                "flow_id": "f1", "spec": SPEC.to_dict(),
                "delay_requirement": D_REQ,
                "ingress": nodes[0], "egress": nodes[-1],
                "path_nodes": list(nodes), "now": 0.0,
                **duo.partition.stamp(),
            })
            assert reply["status"] == "ok" and reply["admitted"]
            down = handle.teardown({
                "flow_id": "f1", "now": 0.0, **duo.partition.stamp(),
            })
            assert down["status"] == "ok"
        finally:
            handle.close()
            server.close()

    def test_unknown_op_and_dead_transport(self, duo):
        client, server_end = pipe_pair()
        server = ShardServer(duo.shards["shard0"])
        threading.Thread(target=server.serve_connection,
                         args=(server_end,), daemon=True).start()
        client.send({"op": "explode", "client_seq": 1})
        reply = client.recv(timeout=2.0)
        assert reply["error"] == "unknown-op"
        server.close()
        client.close()
        handle = OpClient("shard0", _OPS, lambda: client)
        with pytest.raises(SignalingError):
            handle.status()

    @pytest.mark.network
    def test_spanning_2pc_over_tcp(self):
        cluster = build_pod_cluster(2)
        listeners, handles = [], {}
        with cluster:
            try:
                for name, shard in cluster.shards.items():
                    listener = TcpListener("127.0.0.1", 0)
                    server = ShardServer(shard)
                    listener.serve(server.serve_connection)
                    listeners.append(listener)
                    handles[name] = OpClient(
                        name, _OPS,
                        lambda port=listener.port: connect_tcp(
                            "127.0.0.1", port),
                    )
                coordinator = ClusterCoordinator(
                    cluster.partition, handles, cluster.atlas,
                )
                nodes = cluster.spanning_paths[0]
                decision = coordinator.admit(
                    "f1", SPEC, D_REQ, nodes[0], nodes[-1],
                    path_nodes=nodes,
                )
                assert decision.admitted
                assert coordinator.teardown("f1").status == "ok"
                assert cluster.outstanding_holds() == []
            finally:
                for handle in handles.values():
                    handle.close()
                for listener in listeners:
                    listener.close()
