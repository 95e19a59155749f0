"""The edge gateway: exactly-once execution, leases, backpressure.

Drives :class:`repro.edge.gateway.EdgeGateway` with raw protocol
frames over in-process pipes — below the :class:`EdgeAgent` client,
so the gateway's own contract is pinned down: idempotent retries are
answered from the dedup window or attached in flight, admitted flows
carry leases that the reaper tears down on expiry, service
backpressure maps to ``try-again`` frames with the machine-readable
hint, and Section 4.2.1 feedback releases contingency bandwidth
end-to-end.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.aggregate import ContingencyMethod, ServiceClass
from repro.core.broker import BandwidthBroker
from repro.core.persistence import checkpoint_broker
from repro.edge import EdgeGateway, protocol
from repro.service import (
    BrokerService,
    FileJournal,
    read_journal,
    recover_broker,
)
from repro.service.transport import pipe_pair, ping_frame
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain

SPEC = flow_type(0).spec


def make_broker() -> BandwidthBroker:
    broker = BandwidthBroker(
        contingency_method=ContingencyMethod.FEEDBACK
    )
    fig8_domain(SchedulerSetting.RATE_ONLY).provision_broker(broker)
    broker.register_class(
        ServiceClass("gold", delay_bound=2.44, class_delay=0.24)
    )
    return broker


def canonical(broker: BandwidthBroker) -> str:
    """The broker's checkpointable state, flow order normalized (a
    concurrent primary and its replay insert flows in different
    orders)."""
    data = checkpoint_broker(broker)
    data["flows"] = sorted(data["flows"], key=lambda f: f["flow_id"])
    return json.dumps(data, sort_keys=True)


class RawSession:
    """A scripted agent: raw frames over a pipe, no client library."""

    def __init__(self, gateway: EdgeGateway, agent: str = "edge-1",
                 *, hello: bool = True) -> None:
        self.agent = agent
        self.conn, server_end = pipe_pair()
        self.thread = threading.Thread(
            target=gateway.serve_connection, args=(server_end,),
            daemon=True,
        )
        self.thread.start()
        self.welcome = None
        if hello:
            self.conn.send(protocol.make_hello(agent))
            self.welcome = self.recv()

    def recv(self, timeout: float = 5.0):
        frame = self.conn.recv(timeout=timeout)
        assert frame is not None, "expected a frame, got a timeout"
        return frame

    def rpc(self, frame, timeout: float = 5.0):
        """Send one request and wait for the reply to its idem key."""
        self.conn.send(frame)
        while True:
            reply = self.recv(timeout)
            if reply.get("type") == "reply" and \
                    reply.get("idem") == frame.get("idem"):
                return reply

    def close(self) -> None:
        self.conn.close()
        self.thread.join(timeout=5.0)


@pytest.fixture
def broker() -> BandwidthBroker:
    return make_broker()


@pytest.fixture
def stack(broker):
    """(service, gateway) with a short lease for reap tests."""
    with BrokerService(broker, workers=2, shards=4) as service:
        gateway = EdgeGateway(service, lease_duration=10.0)
        yield service, gateway


def admit_frame(idem: str, flow_id: str, *, agent: str = "edge-1",
                now: float = 0.0, **overrides):
    fields = dict(service_class="", path_nodes=None, now=now)
    fields.update(overrides)
    return protocol.make_admit(
        agent, idem, flow_id, SPEC, 2.44, "I1", "E1", **fields
    )


class TestSessions:
    def test_hello_welcome_announces_lease(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        assert session.welcome["type"] == "welcome"
        assert session.welcome["lease_duration"] == 10.0
        assert session.welcome["resumed"] is False
        session.close()

    def test_reconnect_with_state_is_resumed(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        reply = session.rpc(admit_frame("i1", "f1"))
        assert reply["status"] == protocol.STATUS_OK
        session.close()
        again = RawSession(gateway)
        assert again.welcome["resumed"] is True
        again.close()

    def test_ping_answered_below_the_protocol(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        session.conn.send(ping_frame(42))
        pong = session.recv()
        assert pong["type"] == "pong" and pong["nonce"] == 42
        session.close()

    def test_bye_ends_the_session(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        session.conn.send(protocol.make_bye("edge-1"))
        session.thread.join(timeout=5.0)
        assert not session.thread.is_alive()
        assert gateway.counters()["sessions"] == 0


class TestProtocolErrors:
    def test_bad_version_answered_not_dropped(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        frame = admit_frame("i1", "f1")
        frame["v"] = 99
        reply = session.rpc(frame)
        assert reply["status"] == protocol.STATUS_ERROR
        assert reply["reason"] == "protocol"
        assert "bad-version" in reply["detail"]
        assert gateway.counters()["protocol_errors"] == 1
        session.close()

    def test_missing_field_reported_by_name(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        frame = admit_frame("i1", "f1")
        del frame["spec"]
        reply = session.rpc(frame)
        assert reply["status"] == protocol.STATUS_ERROR
        assert "spec" in reply["detail"]
        session.close()

    def test_malformed_spec_is_an_error_reply(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        frame = admit_frame("i1", "f1")
        frame["spec"] = {"sigma": "NaNsense"}
        reply = session.rpc(frame)
        assert reply["status"] == protocol.STATUS_ERROR
        session.close()


class TestAdmissionAndLeases:
    def test_admit_grants_lease_and_teardown_releases(self, stack,
                                                      broker):
        _service, gateway = stack
        session = RawSession(gateway)
        reply = session.rpc(admit_frame("i1", "f1", now=5.0))
        assert reply["status"] == protocol.STATUS_OK
        assert reply["decision"]["admitted"] is True
        assert reply["lease"]["duration"] == 10.0
        assert reply["lease"]["expires_at"] == 15.0
        assert broker.flow_mib.get("f1") is not None
        assert gateway.leases.get("f1").agent == "edge-1"
        down = session.rpc(protocol.make_teardown(
            "edge-1", "i2", "f1", now=6.0
        ))
        assert down["status"] == protocol.STATUS_OK
        assert broker.flow_mib.get("f1") is None
        assert gateway.leases.get("f1") is None
        session.close()

    def test_capacity_rejection_is_ok_without_lease(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        admitted = 0
        rejected_reply = None
        for index in range(40):
            reply = session.rpc(admit_frame(f"i{index}", f"f{index}"))
            assert reply["status"] == protocol.STATUS_OK
            if reply["decision"]["admitted"]:
                admitted += 1
            else:
                rejected_reply = reply
                break
        assert admitted > 0 and rejected_reply is not None
        assert rejected_reply.get("lease") is None
        assert len(gateway.leases) == admitted
        session.close()

    def test_refresh_partitions_known_and_unknown(self, stack):
        _service, gateway = stack
        session = RawSession(gateway)
        session.rpc(admit_frame("i1", "f1", now=0.0))
        reply = session.rpc(protocol.make_refresh(
            "edge-1", "i2", ["f1", "ghost"], now=1.0
        ))
        assert reply["status"] == protocol.STATUS_OK
        assert reply["refreshed"] == ["f1"]
        assert reply["unknown"] == ["ghost"]
        session.close()

    def test_dry_run_probes_without_reserving(self, stack, broker):
        _service, gateway = stack
        session = RawSession(gateway)
        reply = session.rpc(protocol.make_dry_run(
            "edge-1", "i1", "probe", SPEC, 2.44, "I1", "E1"
        ))
        assert reply["status"] == protocol.STATUS_OK
        assert reply["decision"]["admitted"] is True
        assert broker.flow_mib.get("probe") is None
        assert len(gateway.leases) == 0
        session.close()


class TestIdempotency:
    def test_retry_answered_from_dedup_window(self, stack, broker):
        _service, gateway = stack
        session = RawSession(gateway)
        first = session.rpc(admit_frame("i1", "f1"))
        second = session.rpc(admit_frame("i1", "f1"))
        assert first["status"] == second["status"] == protocol.STATUS_OK
        assert first["decision"] == second["decision"]
        # One broker-side admission, not two (no DUPLICATE rejection).
        assert first["decision"]["admitted"] is True
        assert broker.stats().active_flows == 1
        assert gateway.dedup.hits == 1
        assert gateway.counters()["leases"]["granted"] == 1
        session.close()

    def test_duplicate_of_inflight_request_attaches(self, broker):
        # Slow the service down so the duplicate provably arrives
        # while the original is still executing.
        with BrokerService(broker, workers=1, shards=2,
                           edge_rtt=0.2) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            session = RawSession(gateway)
            frame = admit_frame("i1", "f1")
            session.conn.send(frame)
            session.conn.send(frame)  # retransmit, original in flight
            # An attached retransmit produces no second execution and
            # no extra frame: one reply answers both sends...
            reply = session.recv()
            assert reply["idem"] == "i1"
            assert reply["status"] == protocol.STATUS_OK
            assert broker.stats().active_flows == 1
            assert gateway.counters()["duplicates_attached"] == 1
            # ...and a later retry is served from the dedup window.
            again = session.rpc(frame)
            assert again["decision"] == reply["decision"]
            assert gateway.dedup.hits == 1
            session.close()

    def test_teardown_retry_is_idempotent_not_an_error(self, stack,
                                                       broker):
        _service, gateway = stack
        session = RawSession(gateway)
        session.rpc(admit_frame("i1", "f1"))
        down = protocol.make_teardown("edge-1", "i2", "f1")
        first = session.rpc(down)
        second = session.rpc(down)  # would be ERROR if re-executed
        assert first["status"] == protocol.STATUS_OK
        assert second["status"] == protocol.STATUS_OK
        assert broker.flow_mib.get("f1") is None
        session.close()


class TestBackpressure:
    def test_try_again_carries_retry_after_hint(self, broker):
        with BrokerService(broker, workers=1, shards=2, queue_limit=1,
                           edge_rtt=0.1) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            session = RawSession(gateway)
            for index in range(6):
                session.conn.send(
                    admit_frame(f"i{index}", f"f{index}")
                )
            statuses = {}
            for _ in range(6):
                reply = session.recv()
                statuses[reply["idem"]] = reply
            shed = [reply for reply in statuses.values()
                    if reply["status"] == protocol.STATUS_TRY_AGAIN]
            assert shed, "expected at least one try-again under overload"
            assert all(reply["retry_after"] > 0 for reply in shed)
            # try-again was never cached: a retry re-executes.
            idem = shed[0]["idem"]
            retry = session.rpc(admit_frame(idem, "f" + idem[1:]))
            assert retry["status"] in (protocol.STATUS_OK,
                                       protocol.STATUS_TRY_AGAIN)
            session.close()

    def test_exhausted_budget_is_shed_unserved(self, stack, broker):
        _service, gateway = stack
        session = RawSession(gateway)
        frame = admit_frame("i1", "f1", budget_ms=0.0)
        reply = session.rpc(frame)
        assert reply["status"] == protocol.STATUS_TRY_AGAIN
        assert broker.flow_mib.get("f1") is None
        session.close()


class TestReaping:
    def test_expired_lease_tears_the_flow_down(self, stack, broker):
        _service, gateway = stack
        session = RawSession(gateway)
        session.rpc(admit_frame("i1", "f1", now=0.0))
        assert broker.flow_mib.get("f1") is not None
        # Heartbeats keep it alive...
        session.rpc(protocol.make_refresh("edge-1", "i2", ["f1"],
                                          now=8.0))
        assert gateway.reap(now=12.0) == []
        assert broker.flow_mib.get("f1") is not None
        # ...until they stop (agent crash/partition).
        reaped = gateway.reap(now=18.1)
        assert reaped == ["f1"]
        assert broker.flow_mib.get("f1") is None
        assert gateway.counters()["reaped"] == 1
        # The late heartbeat learns the flow is gone.
        reply = session.rpc(protocol.make_refresh(
            "edge-1", "i3", ["f1"], now=19.0
        ))
        assert reply["unknown"] == ["f1"]
        session.close()

    def test_reap_uses_domain_high_water_clock(self, stack, broker):
        _service, gateway = stack
        session = RawSession(gateway)
        session.rpc(admit_frame("i1", "f1", now=0.0))
        # Another agent's traffic advances the domain clock past the
        # lease; the reaper needs no explicit now.
        other = RawSession(gateway, agent="edge-2")
        other.rpc(admit_frame("i1", "f2", agent="edge-2", now=50.0))
        assert gateway.domain_now == 50.0
        reaped = gateway.reap()
        assert "f1" in reaped
        assert broker.flow_mib.get("f1") is None
        session.close()
        other.close()


class TestFeedback:
    def test_feedback_releases_contingency_end_to_end(self, stack,
                                                      broker):
        service, gateway = stack
        session = RawSession(gateway)
        reply = session.rpc(admit_frame(
            "i1", "g1", service_class="gold", now=1.0
        ))
        assert reply["decision"]["admitted"] is True
        lease = reply["lease"]
        assert lease["macroflow_key"]
        assert lease["drain_bound"] > 0.0
        macro = broker.aggregate.macroflows[lease["macroflow_key"]]
        assert macro.contingencies
        feedback = session.rpc(protocol.make_feedback(
            "edge-1", "i2", lease["macroflow_key"], now=2.0
        ))
        assert feedback["status"] == protocol.STATUS_OK
        assert "released 1" in feedback["detail"]
        assert not macro.contingencies
        stats = service.stats()
        assert stats.feedbacks == 1
        assert stats.feedback_released == 1
        assert broker.aggregate.feedback_events == 1
        session.close()

    def test_feedback_for_unknown_macroflow_is_ok_noop(self, stack):
        service, gateway = stack
        session = RawSession(gateway)
        reply = session.rpc(protocol.make_feedback(
            "edge-1", "i1", "ghost@nowhere", now=1.0
        ))
        assert reply["status"] == protocol.STATUS_OK
        assert "released 0" in reply["detail"]
        session.close()


class TestDurability:
    def test_lease_lifecycle_rides_the_wal(self, broker, tmp_path):
        wal = FileJournal(str(tmp_path))
        with BrokerService(broker, workers=2, shards=4,
                           wal=wal) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            session = RawSession(gateway)
            session.rpc(admit_frame("i1", "f1", now=0.0))
            session.rpc(protocol.make_teardown("edge-1", "i2", "f1",
                                               now=1.0))
            session.rpc(admit_frame("i3", "f2", now=2.0))
            assert gateway.reap(now=50.0) == ["f2"]
            session.close()
        wal.close()
        kinds = [entry.kind for entry in
                 read_journal(str(tmp_path)).entries]
        # grant f1, terminate f1, release f1, grant f2,
        # expire f2, terminate f2 — interleaved with the requests.
        lease_events = [
            entry.payload["event"] for entry in
            read_journal(str(tmp_path)).entries
            if entry.kind == "lease"
        ]
        assert lease_events == ["grant", "release", "grant", "expire"]
        assert kinds.count("request") == 2
        assert kinds.count("terminate") == 2

    def test_feedback_journals_and_replays(self, broker, tmp_path):
        wal = FileJournal(str(tmp_path))
        with BrokerService(broker, workers=2, shards=4,
                           wal=wal) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            session = RawSession(gateway)
            reply = session.rpc(admit_frame(
                "i1", "g1", service_class="gold", now=1.0
            ))
            key = reply["lease"]["macroflow_key"]
            session.rpc(protocol.make_feedback("edge-1", "i2", key,
                                               now=2.0))
            session.close()
        wal.close()
        report = recover_broker(
            str(tmp_path),
            broker_factory=make_broker,
        )
        twin = report.broker
        assert twin.flow_mib.get("g1") is not None
        macro = twin.aggregate.macroflows[key]
        # The replayed feedback released the contingency bandwidth:
        # the twin's macroflow matches the primary's exactly.
        assert not macro.contingencies
        assert macro.total_rate == \
            broker.aggregate.macroflows[key].total_rate
        assert report.applied > 0 and report.skipped == 0

    def test_one_commit_per_admit_and_per_teardown(self, broker,
                                                   tmp_path):
        """A lease marker shares its decision's group commit instead
        of paying a second one."""
        wal = FileJournal(str(tmp_path))
        with BrokerService(broker, workers=2, shards=4,
                           wal=wal) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            session = RawSession(gateway)
            before = wal.fsyncs
            session.rpc(admit_frame("i1", "f1", now=0.0))
            assert wal.fsyncs - before == 1
            before = wal.fsyncs
            session.rpc(protocol.make_teardown("edge-1", "i2", "f1",
                                               now=1.0))
            assert wal.fsyncs - before == 1
            session.close()
        wal.close()

    def test_pipelined_replies_never_outrun_their_lease_marker(
            self, broker, tmp_path):
        """When a reply reaches the agent, the WAL is durable past the
        op's lease marker — and the window's WAL replays to the live
        MIB."""
        wal = FileJournal(str(tmp_path))
        durable_at_send = {}
        with BrokerService(broker, workers=2, shards=4,
                           wal=wal) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            send = gateway._send_to_agent

            def spy(agent, frame):
                durable_at_send[frame["idem"]] = wal.durable_position
                send(agent, frame)

            gateway._send_to_agent = spy
            session = RawSession(gateway)
            flows = [f"f{index}" for index in range(12)]
            for index, flow_id in enumerate(flows):
                session.conn.send(admit_frame(f"a{index}", flow_id))
            for _ in flows:
                assert session.recv()["decision"]["admitted"] is True
            for index, flow_id in enumerate(flows[::2]):
                session.conn.send(protocol.make_teardown(
                    "edge-1", f"d{index}", flow_id, now=1.0))
            for _ in flows[::2]:
                assert session.recv()["status"] == protocol.STATUS_OK
            session.close()
        wal.close()
        markers = {
            (entry.payload["event"], entry.payload["flow_id"]): entry.seq
            for entry in read_journal(str(tmp_path)).entries
            if entry.kind == "lease"
        }
        for index, flow_id in enumerate(flows):
            assert durable_at_send[f"a{index}"] >= \
                markers[("grant", flow_id)]
        for index, flow_id in enumerate(flows[::2]):
            assert durable_at_send[f"d{index}"] >= \
                markers[("release", flow_id)]
        report = recover_broker(str(tmp_path), broker_factory=make_broker)
        assert report.skipped == 0
        assert sorted(
            record.flow_id for record in report.broker.flow_mib.records()
        ) == sorted(flows[1::2])
        assert canonical(report.broker) == canonical(broker)


class TestCodecNegotiation:
    def test_v1_hello_gets_a_v1_welcome(self, stack):
        """An old agent's hello has no capability fields; the welcome
        must come back in the old shape (no codec talk at all)."""
        _service, gateway = stack
        session = RawSession(gateway, hello=False)
        session.conn.send(protocol.make_hello("edge-old", version=1))
        welcome = session.recv()
        assert welcome["type"] == "welcome"
        assert welcome["v"] == 1
        for absent in ("versions", "codecs", "codec"):
            assert absent not in welcome
        session.close()

    def test_v2_hello_negotiates_the_best_common_codec(self, stack):
        _service, gateway = stack
        session = RawSession(gateway, hello=False)
        session.conn.send(protocol.make_hello(
            "edge-new", codecs=("binary", "json")))
        welcome = session.recv()
        assert welcome["v"] == 2
        assert welcome["codec"] == "binary"
        assert welcome["versions"] == [1, 2]
        session.close()

    def test_json_only_offer_negotiates_json(self, stack):
        _service, gateway = stack
        session = RawSession(gateway, hello=False)
        session.conn.send(protocol.make_hello(
            "edge-new", codecs=("json",)))
        assert session.recv()["codec"] == "json"
        session.close()

    def test_future_version_hello_is_clamped_not_rejected(self, stack):
        """A v3 agent (some future release) advertising v2 support
        must get a v2 session, not an error."""
        _service, gateway = stack
        session = RawSession(gateway, hello=False)
        hello = protocol.make_hello("edge-future")
        hello["v"] = 3
        hello["versions"] = [1, 2, 3]
        session.conn.send(hello)
        welcome = session.recv()
        assert welcome["type"] == "welcome"
        assert welcome["v"] == 2
        session.close()


@pytest.mark.network
class TestMixedFleet:
    def test_legacy_json_and_binary_agents_share_a_gateway(self):
        """The deployment story: a fleet upgrades edge by edge, so
        one gateway terminates v1 JSON sessions and v2 binary
        sessions at the same time — both exactly-once."""
        from repro.edge import AdmitOp, EdgeAgent, tcp_connector
        from repro.service.transport import connect_tcp

        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=60.0)
            host, port = gateway.listen()
            gateway.start()
            try:
                # The legacy edge: raw v1 JSON frames over TCP.
                legacy = connect_tcp(host, port)
                legacy.send(protocol.make_hello("edge-old",
                                                version=1))
                welcome = legacy.recv(timeout=5.0)
                assert welcome["type"] == "welcome"
                assert welcome["v"] == 1

                # The upgraded edge: the real client, binary codec.
                with EdgeAgent("edge-new", tcp_connector(host, port),
                               seed=1,
                               codecs=("binary", "json")) as agent:
                    assert agent.ping()
                    assert agent.negotiated_codec == "binary"
                    new_replies = agent.admit_many(
                        [AdmitOp(f"new-{k}", SPEC, 2.44, "I1", "E1")
                         for k in range(8)],
                        now=0.0,
                    )
                    assert all(r["decision"]["admitted"]
                               for r in new_replies.values())

                    old_flows = []
                    for k in range(8):
                        frame = protocol.make_admit(
                            "edge-old", f"old#{k}", f"old-{k}", SPEC,
                            2.44, "I1", "E1", service_class="",
                            path_nodes=None, now=0.0, version=1,
                        )
                        legacy.send(frame)
                        while True:
                            reply = legacy.recv(timeout=5.0)
                            if reply.get("type") == "reply" and \
                                    reply.get("idem") == f"old#{k}":
                                break
                        assert reply["v"] == 1
                        assert reply["status"] == "ok", reply
                        assert reply["decision"]["admitted"]
                        old_flows.append(f"old-{k}")

                    # 16 distinct flows, no cross-talk, every reply
                    # went back in its own session's codec.
                    assert broker.stats().active_flows == 16

                    agent.teardown_many(sorted(new_replies), now=1.0)
                    for k, flow_id in enumerate(old_flows):
                        legacy.send(protocol.make_teardown(
                            "edge-old", f"old-down#{k}", flow_id,
                            now=1.0, version=1,
                        ))
                        while True:
                            reply = legacy.recv(timeout=5.0)
                            if reply.get("idem") == f"old-down#{k}":
                                break
                        assert reply["status"] == "ok", reply
                legacy.close()
                counters = gateway.counters()
            finally:
                gateway.stop()
        assert broker.stats().active_flows == 0
        assert counters["leases"]["granted"] == 16
        assert counters["leases"]["released"] == 16

    def test_concurrent_binary_fleet_is_exactly_once(self):
        """Several agents pipeline windows of admits over TCP at
        once, each on its own disjoint path, heartbeat their leases
        and tear down: every admit lands exactly once and nothing
        stays reserved."""
        from repro.edge import AdmitOp, EdgeAgent, tcp_connector
        from repro.service import provision_parallel_paths

        agents, windows, window = 4, 2, 8
        broker = BandwidthBroker()
        pinned = provision_parallel_paths(broker, paths=agents)
        codecs = [""] * agents
        errors = []
        with BrokerService(broker, workers=2, shards=4, edge_rtt=0.001,
                           batch_limit=window) as service:
            gateway = EdgeGateway(service, lease_duration=60.0)
            host, port = gateway.listen()

            def client(rank: int) -> None:
                nodes = pinned[rank]
                try:
                    with EdgeAgent(f"edge-{rank}", tcp_connector(host, port),
                                   seed=rank, op_budget=30.0,
                                   codecs=("binary", "json")) as agent:
                        assert agent.ping()
                        codecs[rank] = agent.negotiated_codec
                        admitted = []
                        for round_no in range(windows):
                            replies = agent.admit_many(
                                [AdmitOp(f"a{rank}-w{round_no}-f{k}", SPEC,
                                         2.44, nodes[0], nodes[-1],
                                         path_nodes=nodes)
                                 for k in range(window)],
                                now=float(round_no),
                            )
                            assert len(replies) == window
                            for flow_id, reply in replies.items():
                                assert reply["status"] == "ok", reply
                                assert reply["decision"]["admitted"]
                                admitted.append(flow_id)
                            agent.heartbeat(now=float(round_no))
                        agent.teardown_many(admitted, now=float(windows))
                except Exception as exc:  # surfaced after the join
                    errors.append((rank, repr(exc)))

            threads = [threading.Thread(target=client, args=(rank,))
                       for rank in range(agents)]
            gateway.start()
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                counters = gateway.counters()
            finally:
                gateway.stop()
        assert errors == []
        total = agents * windows * window
        assert broker.stats().active_flows == 0
        assert counters["leases"]["granted"] == total
        assert counters["leases"]["released"] == total
        assert codecs == ["binary"] * agents
