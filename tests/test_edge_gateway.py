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

from repro.core.admission import RejectionReason
from repro.core.aggregate import ContingencyMethod, ServiceClass
from repro.core.broker import BandwidthBroker
from repro.core.journal import Replay
from repro.core.persistence import checkpoint_broker
from repro.edge import EdgeGateway, protocol
from repro.edge.gateway import dry_run_admissibility
from repro.service import (
    BrokerService,
    FileJournal,
    provision_parallel_paths,
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

    @pytest.mark.parametrize("version, advertised", [
        (1, None),      # an agent of the JSON-only first release
        (3, [2, 3]),    # a future agent that still lists v2
    ], ids=["v1", "v3-advertising-2-3"])
    def test_bad_version_hello_answered_not_dropped(self, stack, version,
                                                     advertised):
        """Only one protocol version is spoken: any other hello gets a
        ``protocol`` error reply, never a welcome or a downgrade."""
        _service, gateway = stack
        session = RawSession(gateway, hello=False)
        hello = protocol.make_hello("edge-other")
        hello["v"] = version
        if advertised is not None:
            hello["versions"] = advertised
        session.conn.send(hello)
        reply = session.recv()
        assert reply["type"] == "reply" and reply["re"] == "hello"
        assert reply["status"] == protocol.STATUS_ERROR
        assert reply["reason"] == "protocol"
        assert "bad-version" in reply["detail"]
        assert gateway.counters()["sessions"] == 0
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


class TestDryRun:
    """:func:`dry_run_admissibility`, the ``dry-run`` frame's check."""

    @staticmethod
    def parallel_broker():
        broker = BandwidthBroker()
        nodes = provision_parallel_paths(broker, paths=4)
        return broker, nodes

    def test_dry_run_rejections_are_read_only(self):
        broker, nodes = self.parallel_broker()
        before = canonical(broker)
        # The parallel paths are link-disjoint: path 1's egress is
        # unreachable from path 0's ingress -> NO_PATH, no exception.
        decision = dry_run_admissibility(
            broker, "p", SPEC, 2.44, nodes[0][0], nodes[1][-1],
        )
        assert not decision.admitted
        assert decision.reason is RejectionReason.NO_PATH
        # The rejection was not counted anywhere.
        assert broker.stats().rejected_total == 0
        assert canonical(broker) == before

    def test_dry_run_matches_subsequent_admission(self):
        """The dry-run verdict predicts the real admission: same path,
        same rate-delay pair."""
        broker, nodes = self.parallel_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            for index in range(4):
                path = nodes[index % len(nodes)]
                assert service.request(
                    f"f{index}", SPEC, 2.44, path[0], path[-1],
                    path_nodes=path, now=float(index),
                ).admitted
            path = nodes[1]
            predicted = dry_run_admissibility(
                broker, "next", SPEC, 2.44, path[0], path[-1],
                path_nodes=path,
            )
            actual = service.request(
                "next", SPEC, 2.44, path[0], path[-1],
                path_nodes=path, now=99.0,
            ).decision
        assert predicted.admitted == actual.admitted
        assert predicted.path_id == actual.path_id
        assert predicted.rate == pytest.approx(actual.rate)


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


    def test_stop_wakes_the_reaper_out_of_its_interval(self, broker):
        """``stop`` wakes the background reaper at once, so a long
        ``reap_interval`` never holds up a shutdown (nor leaks the
        thread past the join)."""
        import time

        with BrokerService(broker, workers=1, shards=2) as service:
            gateway = EdgeGateway(service, reap_interval=30.0).start()
            reaper = gateway._reaper
            began = time.monotonic()
            gateway.stop()
            assert time.monotonic() - began < 2.0
            assert not reaper.is_alive()


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
        # An agent's grant and release are the lease field of its
        # decision's own record; the reaper's expiry is a lease record
        # of its own, and its teardown names no agent.
        journaled = [
            (entry.kind, entry.payload["flow_id"],
             entry.payload["event"] if entry.kind == "lease"
             else entry.payload.get("lease"))
            for entry in read_journal(str(tmp_path)).entries
        ]
        grant = {"agent": "edge-1", "duration": 10.0}
        release = {"agent": "edge-1", "duration": 0.0}
        assert journaled == [
            ("request", "f1", grant),
            ("terminate", "f1", release),
            ("request", "f2", grant),
            ("lease", "f2", "expire"),
            ("terminate", "f2", None),
        ]

    def test_each_agent_op_writes_one_record_naming_its_agent(
            self, broker, tmp_path):
        """One record per admit or teardown, refused admits included;
        replaying it says whether the lease was granted."""
        wal = FileJournal(str(tmp_path))
        with BrokerService(broker, workers=2, shards=4,
                           wal=wal) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            session = RawSession(gateway, agent="edge-7")
            assert session.rpc(admit_frame(
                "i1", "f1", agent="edge-7"))["decision"]["admitted"]
            refused = session.rpc(protocol.make_admit(
                "edge-7", "i2", "f2", SPEC, 1e-6, "I1", "E1", now=0.5,
            ))
            assert refused["decision"]["admitted"] is False
            assert refused.get("lease") is None
            session.rpc(protocol.make_teardown("edge-7", "i3", "f1",
                                               now=1.0))
            session.close()
        wal.close()
        entries = read_journal(str(tmp_path)).entries
        assert [(e.kind, e.payload["flow_id"], e.payload["lease"]["agent"])
                for e in entries] == [
            ("request", "f1", "edge-7"),
            ("request", "f2", "edge-7"),
            ("terminate", "f1", "edge-7"),
        ]
        twin = make_broker()
        recover = Replay(twin)
        recover.apply(entries[:2])
        assert twin.flow_mib.get("f1") is not None  # granted
        assert twin.flow_mib.get("f2") is None      # refused
        recover.apply(entries[2:])
        assert twin.flow_mib.get("f1") is None      # released
        assert recover.skipped == 0

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
        record that carries the op's lease — and the window's WAL
        replays to the live MIB."""
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
        entries = read_journal(str(tmp_path)).entries
        assert all(entry.payload["lease"]["agent"] == "edge-1"
                   for entry in entries)
        leased = {
            (entry.kind, entry.payload["flow_id"]): entry.seq
            for entry in entries
        }
        assert len(leased) == len(entries) == len(flows) + len(flows[::2])
        for index, flow_id in enumerate(flows):
            assert durable_at_send[f"a{index}"] >= \
                leased[("request", flow_id)]
        for index, flow_id in enumerate(flows[::2]):
            assert durable_at_send[f"d{index}"] >= \
                leased[("terminate", flow_id)]
        report = recover_broker(str(tmp_path), broker_factory=make_broker)
        assert report.skipped == 0
        assert sorted(
            record.flow_id for record in report.broker.flow_mib.records()
        ) == sorted(flows[1::2])
        assert canonical(report.broker) == canonical(broker)


@pytest.mark.network
class TestMixedFleet:
    def test_legacy_json_and_binary_agents_share_a_gateway(self):
        """One gateway terminates a plain-JSON session (raw frames
        from a connection switched to JSON) and a binary session at
        the same time — both exactly-once."""
        from repro.edge import AdmitOp, EdgeAgent, tcp_connector
        from repro.service.transport import connect_tcp

        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=60.0)
            host, port = gateway.listen()
            gateway.start()
            try:
                # The JSON edge: raw JSON frames over TCP.
                legacy = connect_tcp(host, port)
                legacy.set_codec("json")
                legacy.send(protocol.make_hello("edge-old"))
                welcome = legacy.recv(timeout=5.0)
                assert welcome["type"] == "welcome"

                # The binary edge: the real client, binary codec.
                with EdgeAgent("edge-new", tcp_connector(host, port),
                               seed=1) as agent:
                    assert agent.ping()
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
                            path_nodes=None, now=0.0,
                        )
                        legacy.send(frame)
                        while True:
                            reply = legacy.recv(timeout=5.0)
                            if reply.get("type") == "reply" and \
                                    reply.get("idem") == f"old#{k}":
                                break
                        assert reply["v"] == protocol.PROTOCOL_VERSION
                        assert reply["status"] == "ok", reply
                        assert reply["decision"]["admitted"]
                        old_flows.append(f"old-{k}")

                    # 16 distinct flows, no cross-talk between the
                    # sessions.
                    assert broker.stats().active_flows == 16

                    agent.teardown_many(sorted(new_replies), now=1.0)
                    for k, flow_id in enumerate(old_flows):
                        legacy.send(protocol.make_teardown(
                            "edge-old", f"old-down#{k}", flow_id,
                            now=1.0,
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
        self.run_fleet("binary")

    def test_concurrent_json_fleet_is_exactly_once(self):
        """The same fleet on connections switched to JSON: every
        frame the agents send rides the JSON codec over TCP (pipes
        never encode, so only a socket test exercises it)."""
        self.run_fleet("json")

    @staticmethod
    def run_fleet(codec) -> None:
        from repro.edge import AdmitOp, EdgeAgent, tcp_connector
        from repro.service import provision_parallel_paths

        agents, windows, window = 4, 2, 8
        broker = BandwidthBroker()
        pinned = provision_parallel_paths(broker, paths=agents)
        dialed = []
        errors = []
        with BrokerService(broker, workers=2, shards=4, edge_rtt=0.001,
                           batch_limit=window) as service:
            gateway = EdgeGateway(service, lease_duration=60.0)
            host, port = gateway.listen()
            dial = tcp_connector(host, port)

            def connect():
                conn = dial()
                conn.set_codec(codec)
                dialed.append(conn)
                return conn

            def client(rank: int) -> None:
                nodes = pinned[rank]
                try:
                    with EdgeAgent(f"edge-{rank}", connect,
                                   seed=rank, op_budget=30.0) as agent:
                        assert agent.ping()
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
        assert {conn.codec for conn in dialed} == {codec}
