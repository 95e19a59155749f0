"""The telemetry pipeline: sampler, report frames, broker-side store.

Pins down each stage of the closed loop's sensing path on its own —
the :class:`EdgeSampler` interval math at the edge, the packed
``report`` wire frame (type 0xF6) and its JSON fallback, the
:class:`TelemetryStore` EWMA/trend estimates and idle index broker
side — and then the whole path end to end: raw report frames over a
pipe into an :class:`EdgeGateway` whose service has a store attached.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.aggregate import ContingencyMethod, ServiceClass
from repro.core.broker import BandwidthBroker
from repro.edge import EdgeGateway, protocol
from repro.service import BrokerService
from repro.service.transport import pipe_pair
from repro.service.wire import (
    CODEC_JSON,
    decode_payload,
    encode_binary,
    encode_payload,
)
from repro.telemetry import (
    EdgeSampler,
    MacroflowSeries,
    SeriesPoint,
    TelemetryStore,
)
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain

SPEC = flow_type(0).spec


def point(at: float, rate: float, *, backlog: float = 0.0,
          idle: float = 0.0, flows: int = 1) -> SeriesPoint:
    return SeriesPoint(at=at, offered_rate=rate, backlog=backlog,
                       idle=idle, flows=flows)


class TestEdgeSampler:
    def test_rate_is_bits_over_drain_interval(self):
        sampler = EdgeSampler()
        sampler.track("f1", "", 0.0)
        sampler.drain(0.0)  # establish the interval origin
        sampler.record("f1", 500.0, 0.5)
        sampler.record("f1", 500.0, 1.5)
        samples = sampler.drain(2.0)
        assert len(samples) == 1
        assert samples[0]["scope"] == "flow"
        assert samples[0]["key"] == "f1"
        assert samples[0]["offered_rate"] == pytest.approx(500.0)

    def test_first_drain_uses_flow_lifetime(self):
        sampler = EdgeSampler()
        sampler.track("f1", "", 10.0)
        sampler.record("f1", 400.0, 11.0)
        samples = sampler.drain(12.0)
        assert samples[0]["offered_rate"] == pytest.approx(200.0)

    def test_counters_reset_between_drains(self):
        sampler = EdgeSampler()
        sampler.track("f1", "", 0.0)
        sampler.record("f1", 1000.0, 0.5)
        sampler.drain(1.0)
        samples = sampler.drain(2.0)
        assert samples[0]["offered_rate"] == 0.0

    def test_idle_grows_without_traffic(self):
        sampler = EdgeSampler()
        sampler.track("f1", "", 0.0)
        sampler.record("f1", 100.0, 1.0)
        sampler.drain(2.0)
        samples = sampler.drain(6.0)
        assert samples[0]["idle"] == pytest.approx(5.0)

    def test_backlog_is_a_gauge_not_a_delta(self):
        sampler = EdgeSampler()
        sampler.track("f1", "", 0.0)
        sampler.record("f1", 0.0, 1.0, backlog=300.0)
        sampler.record("f1", 0.0, 2.0, backlog=120.0)
        samples = sampler.drain(3.0)
        assert samples[0]["backlog"] == 120.0

    def test_macroflow_sample_aggregates_members(self):
        sampler = EdgeSampler()
        sampler.track("f1", "gold@p", 0.0)
        sampler.track("f2", "gold@p", 0.0)
        sampler.drain(0.0)
        sampler.record("f1", 100.0, 0.5)
        sampler.record("f2", 300.0, 1.0)
        samples = sampler.drain(1.0)
        macros = [s for s in samples if s["scope"] == "macro"]
        assert len(macros) == 1
        macro = macros[0]
        assert macro["key"] == "gold@p"
        assert macro["offered_rate"] == pytest.approx(400.0)
        assert macro["flows"] == 2
        # The aggregate is idle only if *every* member is idle.
        assert macro["idle"] == pytest.approx(0.0)

    def test_forget_and_unknown_flows(self):
        sampler = EdgeSampler()
        sampler.track("f1", "", 0.0)
        sampler.forget("f1")
        sampler.record("f1", 100.0, 1.0)  # raced teardown: ignored
        assert sampler.drain(2.0) == []
        assert sampler.tracked() == 0

    def test_empty_drain_skips_report(self):
        sampler = EdgeSampler()
        assert sampler.drain(1.0) == []


class TestMacroflowSeries:
    def test_first_sample_seeds_both_ewmas(self):
        series = MacroflowSeries()
        series.add(point(0.0, 1000.0))
        assert series.ewma_rate == 1000.0
        assert series.trend == 0.0

    def test_trend_positive_while_accelerating(self):
        series = MacroflowSeries()
        for step, rate in enumerate((100.0, 200.0, 400.0, 800.0)):
            series.add(point(float(step), rate))
        assert series.trend > 0
        assert series.fast_rate > series.slow_rate

    def test_trend_negative_while_decaying(self):
        series = MacroflowSeries()
        for step, rate in enumerate((800.0, 400.0, 200.0, 100.0)):
            series.add(point(float(step), rate))
        assert series.trend < 0

    def test_window_bounds_the_ring(self):
        series = MacroflowSeries(window=4)
        for step in range(10):
            series.add(point(float(step), 100.0))
        assert len(series) == 4
        assert series.latest.at == 9.0

    def test_alpha_ordering_is_validated(self):
        with pytest.raises(ValueError):
            MacroflowSeries(fast_alpha=0.1, slow_alpha=0.5)


class TestTelemetryStore:
    def sample(self, scope: str, key: str, rate: float = 100.0, *,
               idle: float = 0.0, flows: int = 1):
        return protocol.encode_sample(scope, key, rate, 0.0, idle,
                                      flows)

    def test_ingest_builds_series_and_counters(self):
        store = TelemetryStore()
        accepted = store.ingest("edge-1", [
            self.sample("macro", "gold@p", 500.0, flows=4),
            self.sample("flow", "f1"),
        ], now=1.0)
        assert accepted == 2
        assert store.reports == 1
        assert store.samples == 2
        assert store.macroflow_keys() == ["gold@p"]
        assert store.series("gold@p").ewma_rate == 500.0

    def test_malformed_samples_are_skipped_not_fatal(self):
        store = TelemetryStore()
        accepted = store.ingest("edge-1", [
            {"scope": "macro"},                      # missing fields
            {"scope": "orbit", "key": "x", "offered_rate": 1,
             "backlog": 0, "idle": 0, "flows": 1},   # unknown scope
            self.sample("macro", ""),                # empty key
            self.sample("macro", "gold@p"),
        ], now=0.0)
        assert accepted == 1
        assert store.samples == 1

    def test_idle_estimate_adds_report_age(self):
        store = TelemetryStore()
        store.ingest("edge-1", [
            self.sample("flow", "f1", idle=2.0),
            self.sample("flow", "f2", idle=0.0),
        ], now=10.0)
        idle = store.idle_flows(4.0, now=13.0)
        # f1: 2s reported + 3s report age = 5s; f2 only 3s.
        assert idle == [("f1", 5.0)]
        assert store.idle_flows(2.0, now=13.0) == [
            ("f1", 5.0), ("f2", 3.0),
        ]

    def test_forget_flow_drops_idle_tracking(self):
        store = TelemetryStore()
        store.ingest("edge-1", [self.sample("flow", "f1", idle=9.0)],
                     now=0.0)
        store.forget_flow("f1")
        assert store.idle_flows(0.0, now=100.0) == []

    def test_snapshot_is_json_shaped(self):
        store = TelemetryStore()
        store.ingest("edge-1", [
            self.sample("macro", "gold@p", 250.0, flows=3),
            self.sample("flow", "f1"),
        ], now=0.0)
        snap = store.snapshot()
        assert snap["reports"] == 1
        assert snap["tracked_flows"] == 1
        assert snap["macroflows"]["gold@p"]["flows"] == 3
        assert snap["macroflows"]["gold@p"]["ewma_rate"] == 250.0


class TestReportWireFrame:
    def frame(self):
        return protocol.make_report("edge-1", "i1", [
            protocol.encode_sample("flow", "f1", 125.5, 10.0, 0.5, 1),
            protocol.encode_sample("macro", "gold@p", 1000.0, 0.0,
                                   0.0, 8),
        ], now=42.5)

    def test_packed_roundtrip(self):
        frame = self.frame()
        payload = encode_binary(frame)
        assert payload[0] == 0xF6  # packed, not tagged fallback
        assert decode_payload(payload) == frame

    def test_json_fallback_roundtrip(self):
        frame = self.frame()
        assert decode_payload(
            encode_payload(frame, CODEC_JSON)
        ) == frame

    def test_budget_rides_the_packed_frame(self):
        frame = protocol.make_report("edge-1", "i2", [], now=0.0,
                                     budget_ms=50.0)
        payload = encode_binary(frame)
        assert payload[0] == 0xF6
        assert decode_payload(payload)["budget_ms"] == 50.0


class TestGatewayIngestion:
    """Raw report frames through a live gateway into the store."""

    def make_stack(self, store):
        broker = BandwidthBroker(
            contingency_method=ContingencyMethod.FEEDBACK
        )
        fig8_domain(SchedulerSetting.RATE_ONLY).provision_broker(
            broker
        )
        broker.register_class(
            ServiceClass("gold", delay_bound=2.44, class_delay=0.24)
        )
        service = BrokerService(broker, workers=2, shards=4)
        service.start()
        if store is not None:
            service.attach_telemetry(store)
        return service, EdgeGateway(service, lease_duration=10.0)

    def rpc(self, gateway, frame):
        conn, server_end = pipe_pair()
        thread = threading.Thread(
            target=gateway.serve_connection, args=(server_end,),
            daemon=True,
        )
        thread.start()
        try:
            conn.send(protocol.make_hello(frame["agent"]))
            assert conn.recv(timeout=5.0)["type"] == "welcome"
            conn.send(frame)
            while True:
                reply = conn.recv(timeout=5.0)
                assert reply is not None
                if reply.get("type") == "reply" and \
                        reply.get("idem") == frame["idem"]:
                    return reply
        finally:
            conn.close()
            thread.join(timeout=5.0)

    def test_report_lands_in_attached_store(self):
        store = TelemetryStore()
        service, gateway = self.make_stack(store)
        try:
            reply = self.rpc(gateway, protocol.make_report(
                "edge-1", "r1", [
                    protocol.encode_sample("macro", "gold@p", 500.0,
                                           0.0, 0.0, 2),
                    protocol.encode_sample("flow", "f1", 250.0, 0.0,
                                           1.0, 1),
                ], now=3.0,
            ))
            assert reply["status"] == protocol.STATUS_OK
            assert "2/2" in reply["detail"]
            assert store.reports == 1
            assert store.series("gold@p").ewma_rate == 500.0
            assert store.idle_flows(1.0, now=3.0) == [("f1", 1.0)]
            assert gateway.counters()["telemetry_frames"] == 1
            assert service.stats().telemetry_samples == 2
        finally:
            gateway.stop()
            service.stop()

    def test_report_without_store_is_acknowledged(self):
        service, gateway = self.make_stack(None)
        try:
            reply = self.rpc(gateway, protocol.make_report(
                "edge-1", "r1",
                [protocol.encode_sample("flow", "f1", 1.0, 0.0, 0.0,
                                        1)],
                now=0.0,
            ))
            assert reply["status"] == protocol.STATUS_OK
            assert "0/1" in reply["detail"]
        finally:
            gateway.stop()
            service.stop()
