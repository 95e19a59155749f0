"""The concurrent service runtime: lifecycle, backpressure, batching.

Covers :mod:`repro.service.runtime` — the queue/worker front-end over
the broker.  The concurrency *correctness* properties (sequential
equivalence, capacity safety) live in ``test_service_shards.py``;
here we exercise the service contract itself: replies always arrive,
overload sheds with ``TRY_AGAIN`` instead of blocking, deadlines are
honoured, errors become error replies, and the stats reconcile.
"""

from __future__ import annotations

import errno
import logging
import threading
from contextlib import contextmanager

import pytest

from repro.core.admission import RejectionReason
from repro.core.aggregate import ServiceClass
from repro.core.broker import BandwidthBroker
from repro.errors import StateError
from repro.service import (
    ERROR,
    EXPIRED,
    OK,
    SHED,
    BrokerService,
    FileJournal,
    FlowTemplate,
    LoadReport,
    ServiceRequest,
    provision_parallel_paths,
    read_journal,
    run_closed_loop,
)
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain

SPEC = flow_type(0).spec


@pytest.fixture
def broker() -> BandwidthBroker:
    broker = BandwidthBroker()
    fig8_domain(SchedulerSetting.RATE_ONLY).provision_broker(broker)
    broker.register_class(
        ServiceClass("gold", delay_bound=2.44, class_delay=0.24)
    )
    return broker


def admit_request(flow_id: str, **overrides) -> ServiceRequest:
    fields = dict(
        flow_id=flow_id, spec=SPEC, delay_requirement=2.44,
        ingress="I1", egress="E1",
    )
    fields.update(overrides)
    return ServiceRequest(**fields)


@contextmanager
def parked_worker(service: BrokerService):
    """Park a 1-worker service's only worker until the block exits.

    The worker serves an ``advance`` and then blocks inside its
    done-callback, so everything submitted inside the block is queued
    behind it and popped together once it exits; counters read inside
    the block no longer move.
    """
    parked, release = threading.Event(), threading.Event()

    def park(_reply) -> None:
        parked.set()
        release.wait(10.0)

    # The shard locks hold the advance unserved until its callback is
    # registered, so the callback runs on the worker.
    with service.shards.locked(service.shards.all_shards()):
        service.submit(ServiceRequest("", op="advance")).add_done_callback(
            park
        )
    assert parked.wait(10.0)
    try:
        yield
    finally:
        release.set()


def terminated(directory) -> list:
    """Flow ids of the journal's ``terminate`` records, in order."""
    return [
        entry.payload["flow_id"]
        for entry in read_journal(directory).entries
        if entry.kind == "terminate"
    ]


class TestLifecycle:
    def test_admit_then_teardown_roundtrip(self, broker):
        with BrokerService(broker, workers=2, shards=4) as service:
            reply = service.request("f1", SPEC, 2.44, "I1", "E1")
            assert reply.status == OK and reply.admitted
            assert broker.flow_mib.get("f1") is not None
            down = service.teardown("f1")
            assert down.status == OK and down.decision is None
        assert broker.flow_mib.get("f1") is None
        assert broker.stats().active_flows == 0

    def test_class_based_request_creates_macroflow(self, broker):
        with BrokerService(broker, workers=2, shards=4) as service:
            reply = service.request(
                "g1", SPEC, 0.0, "I2", "E2", service_class="gold"
            )
        assert reply.admitted
        assert broker.stats().macroflows == 1

    def test_advance_serializes_through_the_queue(self, broker):
        """``advance`` is a first-class queued op: it runs under all
        shard locks (and, with a WAL, is journaled) rather than
        mutating the broker behind the workers' backs."""
        with BrokerService(broker, workers=2, shards=4) as service:
            reply = service.request(
                "g1", SPEC, 0.0, "I1", "E1",
                service_class="gold", now=10.0,
            )
            assert reply.admitted
            assert service.teardown("g1", now=20.0).status == OK
            assert broker.stats().qos_state_entries > 0
            advanced = service.advance(1e9)
            assert advanced.status == OK
            assert advanced.decision is None
            assert broker.stats().qos_state_entries == 0

    def test_submit_when_stopped_raises(self, broker):
        service = BrokerService(broker, workers=1)
        with pytest.raises(StateError):
            service.submit(admit_request("f1"))

    def test_stop_drains_queued_work(self, broker):
        service = BrokerService(broker, workers=1, edge_rtt=0.005)
        service.start()
        pendings = [
            service.submit(admit_request(f"f{index}"))
            for index in range(6)
        ]
        service.stop()
        replies = [pending.wait(5.0) for pending in pendings]
        assert all(reply.status == OK for reply in replies)
        assert service.stats().queue_depth == 0

    def test_context_manager_restart_is_idempotent(self, broker):
        service = BrokerService(broker, workers=1)
        with service:
            service.start()  # second start is a no-op
            assert service.request("f1", SPEC, 2.44, "I1", "E1").admitted


class TestBackpressure:
    def test_full_queue_sheds_with_try_again(self, broker):
        """Satellite: overload never blocks and never raises — every
        submit gets an immediate answer, surplus ones a distinct
        ``TRY_AGAIN`` rejection, and the stats account for the shed."""
        with BrokerService(broker, workers=1, shards=2, queue_limit=2,
                           batch_limit=1, edge_rtt=0.02) as service:
            pendings = [
                service.submit(admit_request(f"f{index}"))
                for index in range(20)
            ]
            replies = [pending.wait(10.0) for pending in pendings]
            stats = service.stats()
        shed = [reply for reply in replies if reply.status == SHED]
        served = [reply for reply in replies if reply.status == OK]
        assert len(shed) + len(served) == 20
        assert shed, "a 20-deep burst into a 2-deep queue must shed"
        for reply in shed:
            assert reply.try_again
            assert not reply.admitted
            assert reply.decision is not None
            assert reply.decision.reason is RejectionReason.TRY_AGAIN
        # Shed replies resolve synchronously at submit time.
        assert all(reply.service_time == 0.0 for reply in shed)
        assert stats.shed == len(shed)
        assert stats.submitted == stats.completed + stats.shed
        assert stats.try_again_total == len(shed)
        # Shedding happened in the service; the broker's admission
        # machinery never saw those requests.
        assert broker.stats().rejected_total == 0

    def test_deadline_expiry_sheds_at_dequeue(self, broker):
        with BrokerService(broker, workers=1, shards=2, batch_limit=1,
                           edge_rtt=0.05) as service:
            slow = service.submit(admit_request("slow"))
            hasty = service.submit(
                admit_request("hasty", timeout=0.001)
            )
            slow_reply = slow.wait(5.0)
            hasty_reply = hasty.wait(5.0)
            stats = service.stats()
        assert slow_reply.status == OK and slow_reply.admitted
        assert hasty_reply.status == EXPIRED
        assert hasty_reply.try_again
        assert hasty_reply.decision.reason is RejectionReason.TRY_AGAIN
        assert stats.expired == 1
        assert broker.flow_mib.get("hasty") is None

    def test_default_timeout_applies_when_request_has_none(self, broker):
        with BrokerService(broker, workers=1, shards=2, batch_limit=1,
                           default_timeout=0.001,
                           edge_rtt=0.05) as service:
            first = service.submit(admit_request("first"))
            second = service.submit(admit_request("second"))
            assert first.wait(5.0).status == OK
            assert second.wait(5.0).status == EXPIRED


class TestErrorsAndRejections:
    def test_unknown_service_class_yields_error_reply(self, broker):
        with BrokerService(broker, workers=1, shards=2) as service:
            reply = service.request(
                "f1", SPEC, 0.0, "I1", "E1", service_class="platinum"
            )
        assert reply.status == "error"
        assert not reply.admitted
        assert "platinum" in reply.detail
        assert service.stats().errors == 1

    def test_no_route_is_a_real_rejection_not_an_error(self, broker):
        # E1 -> I1 runs against the (directed) Figure 8 topology:
        # both nodes exist but no route does.
        with BrokerService(broker, workers=1, shards=2) as service:
            reply = service.request("f1", SPEC, 2.44, "E1", "I1")
        assert reply.status == OK
        assert not reply.admitted
        assert reply.decision.reason is RejectionReason.NO_PATH
        assert broker.stats().rejected_total == 1

    def test_teardown_of_unknown_flow_is_an_error(self, broker):
        with BrokerService(broker, workers=1, shards=2) as service:
            reply = service.teardown("ghost")
        assert reply.status == "error"
        assert "ghost" in reply.detail

    def test_capacity_rejections_fan_out_per_flow(self, broker):
        """A batch that exhausts the path rejects the surplus flows
        with per-flow decisions carrying their own flow ids."""
        with BrokerService(broker, workers=1, shards=2,
                           batch_limit=64, edge_rtt=0.01) as service:
            pendings = [
                service.submit(admit_request(f"f{index}"))
                for index in range(40)
            ]
            replies = [pending.wait(10.0) for pending in pendings]
        admitted = [reply for reply in replies if reply.admitted]
        rejected = [
            reply for reply in replies
            if reply.status == OK and not reply.admitted
        ]
        assert admitted and rejected, "40 type-0 flows must overrun path 1"
        for reply in rejected:
            assert reply.decision.flow_id == reply.request.flow_id
            assert reply.decision.reason in (
                RejectionReason.INSUFFICIENT_BANDWIDTH,
                RejectionReason.UNSCHEDULABLE,
            )
        assert broker.stats().active_flows == len(admitted)


class TestBatching:
    def test_same_key_burst_is_coalesced(self, broker):
        with BrokerService(broker, workers=1, shards=2, batch_limit=16,
                           edge_rtt=0.02) as service:
            pendings = [
                service.submit(admit_request(f"f{index}"))
                for index in range(10)
            ]
            replies = [pending.wait(10.0) for pending in pendings]
            stats = service.stats()
        assert all(reply.admitted for reply in replies)
        assert stats.max_batch >= 2
        assert stats.batches < 10
        assert stats.batched_requests == 10
        assert max(reply.batch_size for reply in replies) == stats.max_batch

    def test_mixed_now_requests_keep_their_own_clock(self, broker):
        """Regression: ``batch_key`` used to omit ``request.now``, so
        a burst of same-spec requests with *different* domain clocks
        coalesced into one batch and every flow was bookkept at the
        head request's ``now`` — replay would then diverge from the
        live run.  Each flow must be admitted at its own clock, and
        the batched trace must match its sequential execution."""
        nows = [float(index) * 7.0 for index in range(8)]
        with BrokerService(broker, workers=1, shards=2, batch_limit=16,
                           edge_rtt=0.02) as service:
            pendings = [
                service.submit(admit_request(f"f{index}", now=now))
                for index, now in enumerate(nows)
            ]
            replies = [pending.wait(10.0) for pending in pendings]
        assert all(reply.admitted for reply in replies)
        for index, now in enumerate(nows):
            record = broker.flow_mib.get(f"f{index}")
            assert record.admitted_at == now

        # Sequential twin: the same trace executed one-by-one on a
        # fresh broker lands on identical per-flow state.
        twin = BandwidthBroker()
        fig8_domain(SchedulerSetting.RATE_ONLY).provision_broker(twin)
        for index, now in enumerate(nows):
            decision = twin.request_service(
                f"f{index}", SPEC, 2.44, "I1", "E1", now=now
            )
            assert decision.admitted
            assert twin.flow_mib.get(f"f{index}").admitted_at == (
                broker.flow_mib.get(f"f{index}").admitted_at
            )

    def test_same_now_requests_still_coalesce(self, broker):
        """The clock fix must not cost the batching win: identical
        ``now`` values still share a batch."""
        with BrokerService(broker, workers=1, shards=2, batch_limit=16,
                           edge_rtt=0.02) as service:
            pendings = [
                service.submit(admit_request(f"f{index}", now=5.0))
                for index in range(8)
            ]
            for pending in pendings:
                assert pending.wait(10.0).admitted
            stats = service.stats()
        assert stats.max_batch >= 2

    def test_mixed_keys_all_get_served(self, broker):
        with BrokerService(broker, workers=2, shards=4, batch_limit=8,
                           edge_rtt=0.005) as service:
            pendings = [
                service.submit(admit_request(
                    f"f{index}",
                    ingress="I1" if index % 2 == 0 else "I2",
                    egress="E1" if index % 2 == 0 else "E2",
                ))
                for index in range(12)
            ]
            replies = [pending.wait(10.0) for pending in pendings]
        assert all(reply.status == OK for reply in replies)
        assert all(reply.admitted for reply in replies)


class TestTeardownRuns:
    """Consecutive teardowns at the queue head share one group commit."""

    @staticmethod
    def admit(service: BrokerService, *flow_ids: str) -> None:
        for flow_id in flow_ids:
            assert service.request(flow_id, SPEC, 2.44, "I1", "E1").admitted

    def test_queued_teardowns_share_one_commit(self, broker, tmp_path):
        wal = FileJournal(tmp_path)
        flows = [f"f{index}" for index in range(5)]
        with BrokerService(broker, workers=1, shards=2,
                           wal=wal) as service:
            self.admit(service, *flows)
            with parked_worker(service):
                before = wal.fsyncs
                pendings = [
                    service.submit(ServiceRequest(flow_id, op="teardown"))
                    for flow_id in reversed(flows)
                ]
            replies = [pending.wait(5.0) for pending in pendings]
            assert wal.fsyncs - before == 1
            stats = service.stats()
        wal.close()
        assert all(reply.status == OK for reply in replies)
        assert broker.stats().active_flows == 0
        # Journaled in submit order, not admission order.
        assert terminated(tmp_path) == list(reversed(flows))
        # mean_batch keeps describing admission batches only.
        assert (stats.batches, stats.batched_requests) == (5, 5)

    def test_run_stops_at_the_first_other_op(self, broker, tmp_path):
        wal = FileJournal(tmp_path)
        with BrokerService(broker, workers=1, shards=2,
                           wal=wal) as service:
            self.admit(service, "f0", "f1")
            with parked_worker(service):
                pendings = [
                    service.submit(ServiceRequest("f0", op="teardown")),
                    service.submit(admit_request("f2")),
                    service.submit(ServiceRequest("f1", op="teardown")),
                ]
            replies = [pending.wait(5.0) for pending in pendings]
        wal.close()
        assert all(reply.status == OK for reply in replies)
        served = [
            (entry.kind, entry.payload["flow_id"])
            for entry in read_journal(tmp_path).entries
            if entry.kind in ("request", "terminate")
        ]
        assert served[-3:] == [
            ("terminate", "f0"), ("request", "f2"), ("terminate", "f1"),
        ]

    def test_unknown_flow_in_a_run_errors_alone(self, broker, tmp_path):
        wal = FileJournal(tmp_path)
        with BrokerService(broker, workers=1, shards=2,
                           wal=wal) as service:
            self.admit(service, "f0", "f1")
            with parked_worker(service):
                before = wal.fsyncs
                pendings = [
                    service.submit(ServiceRequest(flow_id, op="teardown"))
                    for flow_id in ("f0", "ghost", "f1")
                ]
            replies = [pending.wait(5.0) for pending in pendings]
            assert wal.fsyncs - before == 1
        wal.close()
        assert [reply.status for reply in replies] == [OK, ERROR, OK]
        assert "ghost" in replies[1].detail
        assert terminated(tmp_path) == ["f0", "f1"]

    def test_failed_fsync_answers_error_and_keeps_serving(
            self, broker, tmp_path, monkeypatch):
        """A group commit whose ``fsync`` raises answers its group
        ``ERROR`` and the worker keeps serving.  The journal then
        fails-stop: a retried ``fsync`` may report success for pages
        the kernel already dropped, so no later op or commit is
        acknowledged, even once ``fsync`` works again."""
        from repro.service import durability

        def broken_fsync(fd):
            raise OSError(errno.EIO, "injected EIO")

        wal = FileJournal(tmp_path, fsync=True)
        service = BrokerService(broker, workers=1, shards=2,
                                wal=wal).start()
        assert service.request("f0", SPEC, 2.44, "I1", "E1",
                               wait=5.0).admitted
        with monkeypatch.context() as patch:
            patch.setattr(durability.os, "fsync", broken_fsync)
            reply = service.request("f1", SPEC, 2.44, "I1", "E1",
                                    wait=5.0)
        assert reply.status == ERROR
        assert "injected EIO" in reply.detail
        later = [
            service.request("f2", SPEC, 2.44, "I1", "E1", wait=5.0),
            service.teardown("f0", wait=5.0),
            service.advance(1.0, wait=5.0),
        ]
        assert [r.status for r in later] == [ERROR] * 3
        assert all("journal failed" in r.detail for r in later)
        assert service.stats().errors == 4
        with pytest.raises(StateError, match="journal failed"):
            wal.commit()
        with pytest.raises(StateError, match="journal failed"):
            service.stop()
        with pytest.raises(StateError, match="journal failed"):
            wal.close()
        # Only the acknowledged admit is on disk for sure; f2, the
        # teardown and the advance never reached the journal.
        kinds = [(e.kind, e.payload.get("flow_id"))
                 for e in read_journal(tmp_path).entries]
        assert kinds == [("request", "f0"), ("request", "f1")]


class TestClosedLoop:
    @pytest.mark.parametrize("durable", [False, True])
    def test_disjoint_fan_is_conflict_free(self, durable, tmp_path):
        """The :func:`provision_parallel_paths` fan: concurrent
        clients, one pinned link-disjoint path each, admit + teardown in a
        loop.  Nothing conflicts, and every reply waited out the edge
        round-trip of the batch or teardown that served it."""
        edge_rtt = 0.001
        broker = BandwidthBroker()
        templates = [
            FlowTemplate(SPEC, 2.44, nodes[0], nodes[-1], path_nodes=nodes)
            for nodes in provision_parallel_paths(broker, paths=4)
        ]
        wal = FileJournal(tmp_path) if durable else None
        with BrokerService(broker, workers=2, shards=4, edge_rtt=edge_rtt,
                           wal=wal) as service:
            report = run_closed_loop(service, templates, clients=4,
                                     requests_per_client=6)
            stats = service.stats()
        if wal is not None:
            wal.close()
        assert report.errors == report.rejected == report.shed == 0
        assert report.admitted == report.requests
        assert min(report.latencies) >= edge_rtt
        assert broker.stats().active_flows == 0
        if durable:
            # At least one flush, and never more than journal records.
            assert stats.wal_mean_group >= 1.0

    def test_latency_percentile_is_nearest_rank(self):
        """``latency_ms(p)`` is the ceil(p * n)-th smallest sample."""
        def report(latencies):
            return LoadReport(
                clients=1, requests=len(latencies),
                operations=len(latencies), admitted=len(latencies),
                rejected=0, shed=0, errors=0, duration=1.0,
                latencies=latencies,
            )

        four = report([0.004, 0.001, 0.003, 0.002])
        assert four.latency_ms(0.50) == pytest.approx(2.0)
        assert four.latency_ms(0.75) == pytest.approx(3.0)
        assert four.latency_ms(1.0) == pytest.approx(4.0)
        assert four.latency_ms(0.0) == pytest.approx(1.0)
        hundred = report([ms / 1000.0 for ms in range(100, 0, -1)])
        assert hundred.latency_ms(0.99) == pytest.approx(99.0)
        assert hundred.latency_ms(0.50) == pytest.approx(50.0)
        assert report([]).latency_ms(0.5) == 0.0


class TestCallbackIsolation:
    def test_raising_callback_spares_its_batch_and_worker(self, broker,
                                                           caplog):
        """Regression: a done-callback that raised on the worker used to
        kill it mid-batch — the batch's later futures never resolved
        and the next request timed out."""
        caplog.set_level(logging.ERROR, logger="repro.service.runtime")
        with BrokerService(broker, workers=1, shards=2) as service:
            with parked_worker(service):
                pendings = [
                    service.submit(admit_request(f"f{index}"))
                    for index in range(3)
                ]

                def boom(_reply) -> None:
                    raise OSError("front-end callback failed")

                pendings[0].add_done_callback(boom)
                answered = []
                for pending in pendings[1:]:
                    pending.add_done_callback(answered.append)
            replies = [pending.wait(5.0) for pending in pendings]
            assert [reply.batch_size for reply in replies] == [3, 3, 3]
            assert all(reply.admitted for reply in replies)
            # The worker survived: it serves the next request.
            assert service.request("f3", SPEC, 2.44, "I1", "E1",
                                   wait=5.0).admitted
            stats = service.stats()
        assert len(answered) == 2
        assert stats.callback_errors == 1
        assert stats.as_dict()["callback_errors"] == 1
        assert "front-end callback failed" in caplog.text


class TestStats:
    def test_snapshot_shape_and_reconciliation(self, broker):
        with BrokerService(broker, workers=2, shards=4,
                           edge_rtt=0.002) as service:
            for index in range(8):
                service.request(f"f{index}", SPEC, 2.44, "I1", "E1")
            stats = service.stats()
        assert stats.workers == 2
        assert stats.shards == 4
        assert stats.queue_capacity == 256
        assert stats.queue_depth == 0
        assert stats.submitted == 8
        assert stats.completed == 8
        assert stats.admitted + stats.rejected == 8
        assert stats.p99_ms >= stats.p50_ms > 0
        assert len(stats.shard_acquisitions) == 4
        assert sum(stats.shard_acquisitions) >= stats.batches
        payload = stats.as_dict()
        assert payload["workers"] == 2
        assert payload["p50_ms"] == pytest.approx(stats.p50_ms, abs=5e-4)
        assert payload["shard_contention"] == list(stats.shard_contention)

    def test_submit_accounting_never_outrun_by_workers(self, broker):
        """Regression hammer for the stats race: ``submit`` used to
        bump ``submitted`` *after* releasing the queue lock, so a fast
        worker could complete the job first and a concurrent snapshot
        observed ``completed > submitted`` — the reconciliation
        identity transiently went negative.  Counters now move before
        the job becomes visible, so at every concurrent sample the
        lock-atomic side of the identity holds:
        ``completed + shed + expired <= submitted``."""
        violations = []
        stop = threading.Event()

        def observer() -> None:
            while not stop.is_set():
                stats = service.stats()
                drained = stats.completed + stats.shed + stats.expired
                if drained > stats.submitted:
                    violations.append(stats)

        def client(base: int) -> None:
            for index in range(40):
                service.request(
                    f"h{base}-{index}", SPEC, 2.44, "I1", "E1"
                )
                service.teardown(f"h{base}-{index}")

        with BrokerService(broker, workers=4, shards=4,
                           queue_limit=16) as service:
            threads = [threading.Thread(target=observer)
                       for _ in range(2)]
            threads += [threading.Thread(target=client, args=(base,))
                        for base in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads[2:]:
                thread.join()
            stop.set()
            for thread in threads[:2]:
                thread.join()
            final = service.stats()
        assert not violations
        # Quiesced, the full identity is exact.
        assert final.queue_depth == 0
        assert final.submitted == (
            final.completed + final.shed + final.expired
        )

    def test_wal_counters_surface_in_stats(self, broker, tmp_path):
        wal = FileJournal(tmp_path)
        with BrokerService(broker, workers=2, shards=4,
                           wal=wal) as service:
            for index in range(6):
                service.request(f"f{index}", SPEC, 2.44, "I1", "E1",
                                now=float(index))
            stats = service.stats()
        wal.close()
        assert stats.wal_appends >= 6
        assert 1 <= stats.wal_fsyncs <= stats.wal_appends
        assert stats.wal_max_group >= 1
        assert stats.wal_mean_group == pytest.approx(
            stats.wal_appends / stats.wal_fsyncs
        )
        payload = stats.as_dict()
        assert payload["wal_appends"] == stats.wal_appends
        assert payload["wal_mean_group"] == pytest.approx(
            stats.wal_mean_group, abs=5e-4
        )

    def test_mean_batch_property(self, broker):
        with BrokerService(broker, workers=1, shards=2,
                           batch_limit=8, edge_rtt=0.01) as service:
            pendings = [
                service.submit(admit_request(f"f{index}"))
                for index in range(6)
            ]
            for pending in pendings:
                pending.wait(10.0)
            stats = service.stats()
        assert stats.mean_batch == pytest.approx(
            stats.batched_requests / stats.batches
        )
