"""The edge signaling vocabulary: frames, leases, the dedup window.

Covers the three state-free/state-light layers under the gateway:
:mod:`repro.edge.protocol` (frame shapes and validation),
:class:`repro.edge.leases.LeaseTable` (soft-state flow leases) and
:class:`repro.edge.leases.DedupWindow` (idempotent-reply memory).
The gateway/agent behaviour over a live service is in
``test_edge_gateway.py`` / ``test_edge_agent.py``.
"""

from __future__ import annotations

import pytest

from repro.edge import protocol
from repro.edge.leases import DedupWindow, LeaseTable
from repro.edge.protocol import ProtocolError
from repro.traffic.spec import TSpec
from repro.workloads.profiles import flow_type

SPEC = flow_type(0).spec


class TestCodecs:
    def test_spec_round_trip(self):
        data = protocol.encode_spec(SPEC)
        back = protocol.decode_spec(data)
        assert back == TSpec(SPEC.sigma, SPEC.rho, SPEC.peak,
                             SPEC.max_packet)

    def test_malformed_spec_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            protocol.decode_spec({"sigma": 1.0, "rho": "not-a-number",
                                  "peak": 2.0, "max_packet": 1.0})
        with pytest.raises(ProtocolError):
            protocol.decode_spec({"sigma": 1.0})  # missing fields


class TestRequestFrames:
    def test_admit_frame_shape(self):
        frame = protocol.make_admit(
            "edge-1", "edge-1#7", "f1", SPEC, 2.44, "I1", "E1",
            service_class="gold", path_nodes=("I1", "R2", "E1"),
            now=3.0, budget_ms=120.0,
        )
        assert frame["v"] == protocol.PROTOCOL_VERSION
        assert frame["type"] == "admit"
        assert frame["agent"] == "edge-1"
        assert frame["idem"] == "edge-1#7"
        assert frame["budget_ms"] == 120.0
        assert frame["path_nodes"] == ["I1", "R2", "E1"]
        assert protocol.validate_request(frame) == "admit"

    def test_every_request_type_validates(self):
        frames = [
            protocol.make_hello("a"),
            protocol.make_bye("a"),
            protocol.make_admit("a", "i1", "f", SPEC, 1.0, "I", "E"),
            protocol.make_teardown("a", "i2", "f"),
            protocol.make_refresh("a", "i3", ["f", "g"]),
            protocol.make_feedback("a", "i4", "gold@p"),
            protocol.make_dry_run("a", "i5", "f", SPEC, 1.0, "I", "E"),
        ]
        types = [protocol.validate_request(frame) for frame in frames]
        assert types == ["hello", "bye", "admit", "teardown",
                         "refresh", "feedback", "dry-run"]

    def test_version_mismatch_rejected(self):
        # A non-hello frame from an unknown version is always bounced.
        frame = protocol.make_teardown("a", "i", "f")
        frame["v"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="bad-version"):
            protocol.validate_request(frame)

    def test_future_hello_without_overlap_rejected(self):
        frame = protocol.make_hello("a")
        frame["v"] = protocol.PROTOCOL_VERSION + 1
        frame["versions"] = [protocol.PROTOCOL_VERSION + 1]
        with pytest.raises(ProtocolError, match="bad-version"):
            protocol.validate_request(frame)
        del frame["versions"]
        with pytest.raises(ProtocolError, match="bad-version"):
            protocol.validate_request(frame)

    def test_future_hello_with_overlap_is_bad_version(self):
        # One protocol version: a future hello is refused even when
        # the list it advertises still names ours.
        frame = protocol.make_hello("a")
        frame["v"] = protocol.PROTOCOL_VERSION + 1
        frame["versions"] = [1, 2, protocol.PROTOCOL_VERSION + 1]
        with pytest.raises(ProtocolError, match="bad-version"):
            protocol.validate_request(frame)

    def test_hello_capability_fields_by_version(self):
        # The version is the whole capability statement: v2 reads
        # both codecs, so the hello advertises neither codecs nor
        # versions.
        hello = protocol.make_hello("a")
        assert hello == {"v": protocol.PROTOCOL_VERSION, "type": "hello",
                         "agent": "a"}

    def test_welcome_capability_fields_by_version(self):
        welcome = protocol.make_welcome("gw", lease_duration=30.0,
                                        resumed=False)
        assert welcome == {
            "v": protocol.PROTOCOL_VERSION, "type": "welcome",
            "gateway": "gw", "lease_duration": 30.0, "resumed": False,
        }

    def test_v1_frames_are_bad_version(self):
        frames = [
            protocol.make_hello("a"),
            protocol.make_admit("a", "i1", "f", SPEC, 1.0, "I", "E"),
            protocol.make_teardown("a", "i2", "f"),
        ]
        for frame in frames:
            frame["v"] = 1
            with pytest.raises(ProtocolError, match="bad-version"):
                protocol.validate_request(frame)

    def test_unknown_type_rejected(self):
        frame = protocol.make_hello("a")
        frame["type"] = "frobnicate"
        with pytest.raises(ProtocolError, match="unknown frame type"):
            protocol.validate_request(frame)

    def test_missing_agent_rejected(self):
        frame = protocol.make_teardown("a", "i", "f")
        del frame["agent"]
        with pytest.raises(ProtocolError, match="missing agent"):
            protocol.validate_request(frame)

    def test_mutating_frames_require_idempotency_key(self):
        frame = protocol.make_teardown("a", "i", "f")
        frame["idem"] = ""
        with pytest.raises(ProtocolError, match="idempotency"):
            protocol.validate_request(frame)

    def test_missing_payload_field_rejected(self):
        frame = protocol.make_admit("a", "i", "f", SPEC, 1.0, "I", "E")
        del frame["delay_requirement"]
        with pytest.raises(ProtocolError, match="delay_requirement"):
            protocol.validate_request(frame)

    def test_non_dict_frame_rejected(self):
        with pytest.raises(ProtocolError, match="must be a dict"):
            protocol.validate_request(["not", "a", "frame"])


class TestReplyFrames:
    def test_reply_optional_fields_omitted_when_empty(self):
        reply = protocol.make_reply("admit", "i1", protocol.STATUS_OK)
        assert reply["type"] == "reply"
        assert reply["re"] == "admit"
        for absent in ("detail", "reason", "retry_after", "decision",
                       "lease", "refreshed", "unknown"):
            assert absent not in reply

    def test_try_again_reply_carries_hint(self):
        reply = protocol.make_reply(
            "admit", "i1", protocol.STATUS_TRY_AGAIN,
            retry_after=0.25, detail="queue full",
        )
        assert reply["retry_after"] == 0.25
        assert reply["detail"] == "queue full"

    def test_welcome_frame(self):
        frame = protocol.make_welcome("gw", lease_duration=30.0,
                                      resumed=True)
        assert frame["type"] == "welcome"
        assert frame["lease_duration"] == 30.0
        assert frame["resumed"] is True


class TestLeaseTable:
    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            LeaseTable(duration=0.0)

    def test_grant_refresh_release_lifecycle(self):
        table = LeaseTable(duration=10.0)
        lease = table.grant("f1", "edge-1", now=5.0)
        assert lease.expires_at == 15.0
        refreshed, unknown = table.refresh(["f1", "ghost"], "edge-1",
                                           now=12.0)
        assert refreshed == ["f1"] and unknown == ["ghost"]
        assert table.get("f1").expires_at == 22.0
        assert table.release("f1").flow_id == "f1"
        assert table.release("f1") is None
        assert len(table) == 0

    def test_refresh_of_another_agents_lease_is_unknown(self):
        table = LeaseTable(duration=10.0)
        table.grant("f1", "edge-1", now=0.0)
        refreshed, unknown = table.refresh(["f1"], "edge-2", now=1.0)
        assert refreshed == [] and unknown == ["f1"]
        # ... and the rightful owner's lease was not extended.
        assert table.get("f1").expires_at == 10.0

    def test_expire_due_removes_and_returns(self):
        table = LeaseTable(duration=10.0)
        table.grant("f1", "edge-1", now=0.0)
        table.grant("f2", "edge-1", now=5.0)
        due = table.expire_due(now=10.0)
        assert [lease.flow_id for lease in due] == ["f1"]
        assert table.get("f1") is None and table.get("f2") is not None
        # A late heartbeat for the reaped flow reports unknown.
        refreshed, unknown = table.refresh(["f1"], "edge-1", now=11.0)
        assert unknown == ["f1"]

    def test_counters_reconcile(self):
        table = LeaseTable(duration=10.0)
        table.grant("f1", "a", now=0.0)
        table.grant("f2", "a", now=0.0)
        table.refresh(["f1"], "a", now=1.0)
        table.release("f2")
        table.expire_due(now=100.0)
        assert table.counters() == {
            "granted": 2, "refreshed": 1, "released": 1,
            "expired": 1, "active": 0,
        }

    def test_owned_by_lists_an_agents_flows(self):
        table = LeaseTable(duration=10.0)
        table.grant("f1", "a", now=0.0)
        table.grant("f2", "b", now=0.0)
        assert table.owned_by("a") == ["f1"]


class TestDedupWindow:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DedupWindow(capacity=0)

    def test_put_get_round_trip_and_hits(self):
        window = DedupWindow(capacity=4)
        reply = {"status": "ok", "idem": "i1"}
        window.put("a", "i1", reply)
        assert window.get("a", "i1") is reply
        assert window.get("a", "i2") is None
        assert window.get("b", "i1") is None  # keyed per agent
        assert window.hits == 1

    def test_lru_eviction_at_capacity(self):
        window = DedupWindow(capacity=2)
        window.put("a", "i1", {"status": "ok"})
        window.put("a", "i2", {"status": "ok"})
        window.get("a", "i1")  # i1 becomes most-recent
        window.put("a", "i3", {"status": "ok"})
        assert window.get("a", "i2") is None   # evicted
        assert window.get("a", "i1") is not None
        assert window.evicted == 1

    def test_refuses_to_cache_try_again(self):
        window = DedupWindow(capacity=2)
        with pytest.raises(ValueError, match="try-again"):
            window.put("a", "i1", {"status": "try-again"})
