"""The edge agent under failure: the robustness contract.

The acceptance property of the edge plane: over a transport that
drops, duplicates and delays frames, an :class:`EdgeAgent` workload
of admits and teardowns converges to the **same broker MIB state** as
a lossless run — retries never double-admit (idempotency keys +
dedup window), crashes never strand reservations (soft-state leases +
the reaper), and reconnects resume exactly where the old connection
died.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

import pytest

from repro.core.aggregate import ContingencyMethod, ServiceClass
from repro.core.broker import BandwidthBroker
from repro.edge import AgentTimeout, EdgeAgent, EdgeGateway
from repro.service import BrokerService
from repro.service.transport import TransportClosed, pipe_pair
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


class FaultyConnection:
    """Drop/duplicate/delay fault injection around a real connection.

    Requests may vanish on the wire (``drop``), arrive twice
    (``duplicate``) or arrive late (``delay``); replies may vanish
    too.  Faults draw from the caller's seeded RNG, so every failure
    schedule is reproducible.
    """

    def __init__(self, inner, rng, *, drop: float = 0.0,
                 duplicate: float = 0.0, delay: float = 0.0) -> None:
        self.inner = inner
        self.rng = rng
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay

    def send(self, frame) -> None:
        if self.rng.random() < self.drop:
            return  # lost on the wire; the peer never sees it
        if self.delay > 0:
            time.sleep(self.rng.random() * self.delay)
        self.inner.send(frame)
        if self.rng.random() < self.duplicate:
            self.inner.send(frame)  # retransmitted by "the network"

    def recv(self, timeout: Optional[float] = None):
        frame = self.inner.recv(timeout)
        if frame is not None and self.rng.random() < self.drop:
            return None  # the reply was lost; reads as a timeout
        return frame

    def close(self) -> None:
        self.inner.close()


class CuttingConnection:
    """Severs the connection right after the Nth send (then behaves
    like a clean :class:`TransportClosed` on both directions)."""

    def __init__(self, inner, *, cut_after_sends: int) -> None:
        self.inner = inner
        self.remaining = cut_after_sends
        self.cut = False

    def send(self, frame) -> None:
        if self.cut:
            raise TransportClosed("connection was cut")
        self.inner.send(frame)
        self.remaining -= 1
        if self.remaining <= 0:
            self.cut = True

    def recv(self, timeout: Optional[float] = None):
        if self.cut:
            raise TransportClosed("connection was cut")
        return self.inner.recv(timeout)

    def close(self) -> None:
        self.inner.close()


def pipe_connector(gateway: EdgeGateway,
                   wrap: Optional[Callable] = None,
                   dialed: Optional[List] = None) -> Callable:
    """A reconnecting dial function over in-process pipes: every call
    opens a fresh pipe served by its own gateway thread (the pipe
    analogue of redialing TCP)."""

    def connect():
        client, server = pipe_pair()
        threading.Thread(
            target=gateway.serve_connection, args=(server,),
            daemon=True,
        ).start()
        conn = wrap(client) if wrap is not None else client
        if dialed is not None:
            dialed.append(conn)
        return conn

    return connect


def run_workload(agent: EdgeAgent, *, flows: int = 12,
                 teardown_every: int = 3) -> Tuple[List[str], List[str]]:
    """Admit *flows* flows, tear every *teardown_every*-th down.

    Returns ``(admitted, kept)`` flow-id lists — deterministic, so a
    lossless and a lossy run submit the identical logical sequence.
    """
    admitted: List[str] = []
    kept: List[str] = []
    for index in range(flows):
        flow_id = f"wf-{index}"
        reply = agent.admit(flow_id, SPEC, 2.44, "I1", "E1",
                            now=float(index))
        assert reply["status"] == "ok", reply
        if reply["decision"]["admitted"]:
            admitted.append(flow_id)
            if index % teardown_every == 0:
                down = agent.teardown(flow_id, now=float(index))
                assert down["status"] == "ok", down
            else:
                kept.append(flow_id)
    return admitted, kept


def mib_fingerprint(broker: BandwidthBroker):
    """The broker state the convergence contract compares: which
    flows are admitted, and what every link has reserved."""
    flows = sorted(
        (record.flow_id, record.path_id, round(record.rate, 6))
        for record in broker.flow_mib.records()
    )
    links = sorted(
        (link.link_id, round(link.reserved_rate, 6),
         link.reservation_count)
        for link in broker.node_mib.links()
    )
    return flows, links


class TestFaultInjection:
    def test_lossy_run_converges_to_lossless_mib_state(self):
        """The headline contract: drop 25% of frames, duplicate 25%,
        delay the rest — the broker ends in the same MIB state as a
        fault-free run of the same workload, with zero double-admits
        and zero stranded reservations."""
        import random

        # Reference run over a clean transport.
        clean_broker = make_broker()
        with BrokerService(clean_broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=1e9)
            with EdgeAgent("edge-1", pipe_connector(gateway),
                           seed=1) as agent:
                clean_admitted, clean_kept = run_workload(agent)
        assert clean_admitted, "workload admitted nothing"

        # Same workload over the faulty transport.
        lossy_broker = make_broker()
        rng = random.Random(42)
        with BrokerService(lossy_broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=1e9)

            def wrap(conn):
                return FaultyConnection(
                    conn, rng, drop=0.25, duplicate=0.25, delay=0.002,
                )

            with EdgeAgent("edge-1", pipe_connector(gateway, wrap),
                           seed=2, op_budget=30.0) as agent:
                agent.attempt_timeout = 0.05
                admitted, kept = run_workload(agent)
                counters = agent.counters()
            gateway_counters = gateway.counters()

        assert admitted == clean_admitted and kept == clean_kept
        assert mib_fingerprint(lossy_broker) == \
            mib_fingerprint(clean_broker)
        # The faults really happened and were really absorbed.
        assert counters["retries"] > 0
        assert gateway_counters["dedup_hits"] + \
            gateway_counters["duplicates_attached"] > 0

    def test_pure_duplication_never_double_admits(self):
        import random

        broker = make_broker()
        rng = random.Random(7)
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=1e9)

            def wrap(conn):
                # Every frame arrives twice; nothing is lost.
                return FaultyConnection(conn, rng, duplicate=1.0)

            with EdgeAgent("edge-1", pipe_connector(gateway, wrap),
                           seed=3, op_budget=30.0) as agent:
                agent.attempt_timeout = 0.2
                for index in range(8):
                    reply = agent.admit(f"f{index}", SPEC, 2.44,
                                        "I1", "E1")
                    assert reply["decision"]["admitted"] is True
            counters = gateway.counters()

        assert broker.stats().active_flows == 8
        assert counters["leases"]["granted"] == 8
        assert counters["dedup_hits"] + \
            counters["duplicates_attached"] >= 8

    def test_reconnect_retry_fetches_the_lost_reply(self):
        """The connection dies after the admit frame went out but
        before its reply came back: the agent redials, retries the
        same idempotency key, and is answered from the dedup window —
        exactly one admission at the broker."""
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=1e9)
            dialed: List = []

            def wrap(conn):
                if not dialed:
                    # First dial: hello survives (send #1), the admit
                    # goes out (send #2), then the wire is cut before
                    # the reply is read.
                    return CuttingConnection(conn, cut_after_sends=2)
                return conn

            connector = pipe_connector(gateway, wrap, dialed)
            with EdgeAgent("edge-1", connector, seed=4,
                           op_budget=30.0) as agent:
                agent.attempt_timeout = 0.2
                reply = agent.admit("f1", SPEC, 2.44, "I1", "E1")
                assert reply["decision"]["admitted"] is True
                assert agent.reconnects >= 1
            counters = gateway.counters()

        assert broker.stats().active_flows == 1
        assert counters["leases"]["granted"] == 1
        assert counters["dedup_hits"] + \
            counters["duplicates_attached"] >= 1

    def test_unreachable_gateway_times_out_with_budget(self):
        def connect():
            raise TransportClosed("nobody listening")

        agent = EdgeAgent("edge-1", connect, seed=5)
        agent.attempt_timeout = 0.01
        agent.base_backoff = 0.001
        begin = time.monotonic()
        with pytest.raises(AgentTimeout, match="budget"):
            agent.admit("f1", SPEC, 2.44, "I1", "E1", budget=0.15)
        assert time.monotonic() - begin < 5.0
        assert agent.reconnects > 0


class TestLeasesAndCrashes:
    def test_crashed_agent_leaves_no_orphaned_flows(self):
        """An agent dies silently holding admitted flows; its leases
        expire and the reaper tears every one down at the broker —
        the MIB converges to the set of flows with live edges."""
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            with EdgeAgent("edge-1", pipe_connector(gateway),
                           seed=6) as agent:
                for index in range(4):
                    agent.admit(f"f{index}", SPEC, 2.44, "I1", "E1",
                                now=0.0)
                assert broker.stats().active_flows == 4
                # The agent heartbeats once, then "crashes" (silence).
                agent.heartbeat(now=5.0)
            assert gateway.reap(now=12.0) == []  # leases run to 15.0
            reaped = gateway.reap(now=15.5)
            assert sorted(reaped) == [f"f{index}" for index in range(4)]
        assert broker.stats().active_flows == 0
        assert len(gateway.leases) == 0

    def test_survivor_flows_outlive_the_crashed_agents(self):
        """Reaping is per-lease, not per-gateway: only the silent
        agent's flows go; the heartbeating agent's stay."""
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            live = EdgeAgent("edge-live", pipe_connector(gateway),
                             seed=7)
            dead = EdgeAgent("edge-dead", pipe_connector(gateway),
                             seed=8)
            live.admit("live-1", SPEC, 2.44, "I1", "E1", now=0.0)
            dead.admit("dead-1", SPEC, 2.44, "I2", "E2", now=0.0)
            live.heartbeat(now=9.0)   # extends live-1 to 19.0
            assert gateway.reap(now=11.0) == ["dead-1"]
            assert broker.flow_mib.get("live-1") is not None
            assert broker.flow_mib.get("dead-1") is None
            # The dead agent restarts and learns its flow is gone.
            refreshed, unknown = dead.refresh(now=12.0)
            assert unknown == ["dead-1"]
            assert dead.flows == {}
            assert dead.leases_lost == 1
            live.close()
            dead.close()

    def test_heartbeat_thread_keeps_leases_alive(self):
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=10.0)
            with EdgeAgent("edge-1", pipe_connector(gateway),
                           seed=9) as agent:
                agent.admit("f1", SPEC, 2.44, "I1", "E1", now=0.0)
                agent.start_heartbeat(interval=0.01)
                # Walk the domain clock well past many lease windows;
                # the background refresh keeps re-arming the lease.
                for step in range(1, 6):
                    agent.advance_clock(step * 9.0)
                    time.sleep(0.03)
                    assert gateway.reap() == []
                agent.stop_heartbeat()
                # Silence now: the next windows expire the lease.
                assert gateway.reap(now=agent.domain_now + 10.5) == \
                    ["f1"]
        assert broker.stats().active_flows == 0


class TestFeedbackWatcher:
    def test_drain_hint_drives_edge_feedback(self):
        """Section 4.2.1 end-to-end from outside the process: a class
        join piles contingency bandwidth on the macroflow, the admit
        reply carries the broker's drain hint, and the agent's
        feedback watcher releases the bandwidth once its domain clock
        passes the hint — ahead of the eq.-(17) expiry."""
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=1e9)
            with EdgeAgent("edge-1", pipe_connector(gateway),
                           seed=10) as agent:
                agent.admit("g1", SPEC, 0.0, "I1", "E1",
                            service_class="gold", now=1.0)
                # The second join resizes a live macroflow, so its
                # contingency runs a real (non-degenerate) eq.-(17)
                # period, and the reply's drain hint is the early-out.
                reply = agent.admit("g2", SPEC, 0.0, "I1", "E1",
                                    service_class="gold", now=2.0)
                assert reply["decision"]["admitted"] is True
                key = reply["lease"]["macroflow_key"]
                drain = reply["lease"]["drain_bound"]
                assert key and drain > 0.0
                macro = broker.aggregate.macroflows[key]
                assert macro.contingencies
                assert macro.contingencies[-1].expires_at > 2.0
                # Not due yet: the conditioner has not drained.
                assert agent.poll_feedback(2.0 + drain / 2) == []
                assert macro.contingencies
                # Due: feedback fires, bandwidth comes back early —
                # no waiting for the eq.-(17) timers to run out.
                reported = agent.poll_feedback(2.0 + drain + 0.01)
                assert reported == [key]
                assert not macro.contingencies
                assert agent.feedbacks_sent == 1
            stats = service.stats()
        assert stats.feedbacks == 1
        assert stats.feedback_released >= 1
        assert broker.aggregate.feedback_events == 1

    def test_heartbeat_combines_refresh_and_feedback(self):
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=100.0)
            with EdgeAgent("edge-1", pipe_connector(gateway),
                           seed=11) as agent:
                reply = agent.admit("g1", SPEC, 0.0, "I1", "E1",
                                    service_class="gold", now=1.0)
                key = reply["lease"]["macroflow_key"]
                refreshed, lost, reported = agent.heartbeat(now=1e8)
                assert refreshed == ["g1"]
                assert lost == []
                assert reported == [key]


class TryAgainOnceGateway:
    """A pipe stub gateway that answers each key's first attempt with
    ``try-again`` (``retry_after`` 10 ms) and its second with ``ok``."""

    def connector(self):
        def connect():
            client, server = pipe_pair()
            threading.Thread(
                target=self._serve, args=(server,), daemon=True,
            ).start()
            return client
        return connect

    @staticmethod
    def _serve(conn) -> None:
        from repro.edge import protocol
        seen = set()
        while True:
            try:
                frame = conn.recv(timeout=5.0)
            except TransportClosed:
                return
            if frame is None or frame["type"] == "bye":
                return
            if frame["type"] == "hello":
                conn.send(protocol.make_welcome(
                    "stub", lease_duration=30.0, resumed=False))
            elif frame["idem"] not in seen:
                seen.add(frame["idem"])
                conn.send(protocol.make_reply(
                    frame["type"], frame["idem"],
                    protocol.STATUS_TRY_AGAIN, retry_after=0.01))
            else:
                conn.send(protocol.make_reply(
                    frame["type"], frame["idem"], protocol.STATUS_OK,
                    decision={"admitted": True}))


class TestPipelinedOps:
    def ops(self, count: int, tag: str = "pl") -> list:
        from repro.edge import AdmitOp
        return [
            AdmitOp(f"{tag}-{index}", SPEC, 2.44, "I1", "E1")
            for index in range(count)
        ]

    def test_admit_many_then_teardown_many_is_clean(self):
        broker = make_broker()
        baseline = mib_fingerprint(broker)
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=60.0)
            with EdgeAgent("edge-1", pipe_connector(gateway),
                           seed=7) as agent:
                replies = agent.admit_many(self.ops(20), now=0.0)
                assert len(replies) == 20
                assert all(r["status"] == "ok"
                           for r in replies.values())
                assert all(r["decision"]["admitted"]
                           for r in replies.values())
                assert len(agent.flows) == 20
                downs = agent.teardown_many(sorted(replies), now=1.0)
                assert len(downs) == 20
                assert agent.flows == {}
        assert mib_fingerprint(broker) == baseline
        assert broker.stats().active_flows == 0

    def test_duplicating_transport_never_double_admits(self):
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=60.0)
            rng = __import__("random").Random(13)
            connector = pipe_connector(
                gateway,
                wrap=lambda conn: FaultyConnection(
                    conn, rng, duplicate=0.4),
            )
            with EdgeAgent("edge-1", connector, seed=13) as agent:
                replies = agent.admit_many(self.ops(16), now=0.0)
                assert len(replies) == 16
                assert all(r["decision"]["admitted"]
                           for r in replies.values())
        assert broker.stats().active_flows == 16
        flows = {record.flow_id
                 for record in broker.flow_mib.records()}
        assert flows == {f"pl-{index}" for index in range(16)}

    def test_lossy_transport_resends_only_pending(self):
        broker = make_broker()
        with BrokerService(broker, workers=2, shards=4) as service:
            gateway = EdgeGateway(service, lease_duration=60.0)
            rng = __import__("random").Random(29)
            connector = pipe_connector(
                gateway,
                wrap=lambda conn: FaultyConnection(
                    conn, rng, drop=0.25),
            )
            with EdgeAgent("edge-1", connector, seed=29) as agent:
                agent.attempt_timeout = 0.1
                replies = agent.admit_many(self.ops(16), now=0.0,
                                           budget=30.0)
                assert len(replies) == 16
                assert agent.retries > 0
        # Drops forced resend rounds, yet nothing double-admitted.
        assert broker.stats().active_flows == 16

    def test_budget_exhaustion_reports_partial_results(self):
        def connect():
            client, server = pipe_pair()
            return client  # nobody serves: every reply times out

        agent = EdgeAgent("edge-1", connect, seed=1)
        agent.attempt_timeout = 0.02
        with pytest.raises(AgentTimeout) as info:
            agent.admit_many(self.ops(4), now=0.0, budget=0.2)
        assert info.value.partial == {}
        agent.close()

    def test_try_again_resends_after_the_hint_not_the_idle_timeout(self):
        """A window whose first replies are all ``try-again`` resends
        as soon as the ``retry_after`` hint has passed: the round is
        over once every key has answered, so it never idles for
        ``attempt_timeout`` (0.25 s), and a try-again is not a retry
        after silence."""
        stub = TryAgainOnceGateway()
        with EdgeAgent("edge-1", stub.connector(), seed=3) as agent:
            begin = time.monotonic()
            replies = agent.admit_many(self.ops(8), now=0.0)
            elapsed = time.monotonic() - begin
            assert elapsed < 0.1, f"window took {elapsed * 1000:.0f} ms"
            assert len(replies) == 8
            assert all(r["status"] == "ok" for r in replies.values())
            assert agent.try_agains == 8
            assert agent.retries == 0
