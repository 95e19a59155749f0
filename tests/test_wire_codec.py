"""The binary wire codec: differential correctness against JSON.

:mod:`repro.service.wire` promises one invariant above all others:
``decode_payload(encode_binary(f))`` equals
``json.loads(json.dumps(f))`` for every JSON-compatible frame — the
binary codec is a drop-in representation, never a different protocol.
These tests sweep every frame vocabulary in the repo (edge signaling,
replication log-shipping, cluster shard RPC) through that property,
pin the packed-record fast paths to their tags, and exercise the
rejection paths (truncation, corruption, trailing garbage).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.edge import protocol
from repro.service import wire
from repro.service.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    WireError,
    decode_payload,
    encode_binary,
    encode_payload,
)
from repro.workloads.profiles import flow_type

SPEC = flow_type(0).spec
SPEC_DICT = protocol.encode_spec(SPEC)


def canonical(frame):
    """What the JSON wire would deliver for *frame*."""
    return json.loads(json.dumps(frame))


def edge_frames():
    """One of every edge-protocol frame shape the agent and gateway
    send, plus one hand-built ``v: 1`` frame: the codec does not
    depend on the protocol version, but the packed records carry it
    in a byte of their own."""
    samples = [
        protocol.encode_sample("flow", "flow-1", 48211.5, 0.0, 0.0, 1),
        protocol.encode_sample("macro", "gold@I1->E1", 391044.0, 1.2e4,
                               0.5, 8),
    ]
    decision = {"admitted": True, "flow_id": "flow-1", "path_id": "p0",
                "rate": 1.5, "delay": 2.2, "reason": None, "detail": ""}
    return [
        protocol.make_hello("edge-1"),
        protocol.make_bye("edge-1"),
        protocol.make_admit(
            "edge-1", "edge-1#7", "flow-1", SPEC, 2.44, "I1",
            "E1", service_class="gold",
            path_nodes=("I1", "R2", "E1"), now=3.0,
            budget_ms=120.0,
        ),
        protocol.make_admit(   # minimal admit: no class/path/budget
            "edge-1", "edge-1#8", "flow-2", SPEC, 1.0, "I1", "E1",
            now=0.0,
        ),
        protocol.make_teardown("edge-1", "edge-1#9", "flow-1", now=4.0),
        protocol.make_refresh("edge-1", "edge-1#10",
                              ["flow-1", "flow-2"], now=5.0),
        protocol.make_feedback("edge-1", "edge-1#11", "I1->E1", now=6.0),
        protocol.make_dry_run("edge-1", "edge-1#12", "flow-3",
                              SPEC, 2.0, "I1", "E1"),
        protocol.make_welcome("gw", lease_duration=30.0, resumed=False),
        protocol.make_reply("admit", "edge-1#7", "ok",
                            decision={"admitted": True,
                                      "path_id": "p0",
                                      "rate": 1.5, "delay": 2.2},
                            lease={"flow_id": "flow-1",
                                   "expires_at": 33.0,
                                   "duration": 30.0}),
        protocol.make_reply("teardown", "edge-1#9", "ok"),
        protocol.make_reply("refresh", "edge-1#10", "ok",
                            refreshed=["flow-1"], unknown=["flow-2"]),
        protocol.make_reply("admit", "edge-1#13", "try-again",
                            reason="queue-full", retry_after=0.05),
        protocol.make_reply("hello", "", "error", reason="protocol",
                            detail="bad-version: speaking v2, "
                                   "frame says 1"),
        # Budgeted and edge-case requests.
        protocol.make_hello("edge-2"),
        protocol.make_teardown("edge-1", "edge-1#14", "flow-2", now=7.0,
                               budget_ms=80.0),
        protocol.make_refresh("edge-1", "edge-1#15", [], now=8.0,
                              budget_ms=0.0),
        protocol.make_feedback("edge-1", "edge-1#16", "gold@I1->E1",
                               now=9.0, budget_ms=250.0),
        protocol.make_report("edge-1", "edge-1#17", samples, now=10.0),
        protocol.make_report("edge-1", "edge-1#18", samples[:1],
                             now=11.0, budget_ms=40.0),
        # The reply shapes the gateway builds.
        protocol.make_welcome("gw", lease_duration=10.0, resumed=True),
        protocol.make_reply("admit", "edge-1#7", "ok",
                            detail="admitted", decision=decision,
                            lease={"duration": 30.0, "expires_at": 33.0,
                                   "macroflow_key": "gold@I1->E1",
                                   "drain_bound": 0.125}),
        protocol.make_reply("admit", "edge-1#19", "ok",
                            decision=dict(decision, admitted=False,
                                          rate=0.0, path_id=None,
                                          reason="DELAY_BOUND",
                                          detail="no feasible path")),
        protocol.make_reply("teardown", "edge-1#14", "error",
                            reason="service",
                            detail="flow flow-2 not admitted"),
        protocol.make_reply("feedback", "edge-1#16", "ok",
                            detail="released 1 contingency"),
        protocol.make_reply("report", "edge-1#17", "ok",
                            detail="accepted 2/2 samples"),
        protocol.make_reply("dry-run", "edge-1#12", "ok",
                            decision=decision),
        dict(protocol.make_admit("edge-1", "edge-1#20", "flow-4", SPEC,
                                 2.44, "I1", "E1", now=12.0), v=1),
    ]


def other_frames():
    """Replication + cluster + transport frame shapes."""
    return [
        {"kind": "hello", "follower_id": "f1", "last_seq": 17,
         "epoch": 3},
        {"kind": "welcome", "epoch": 3, "primary_id": "p0"},
        {"kind": "records", "records": [
            {"seq": 18, "payload": {"type": "admit",
                                    "flow_id": "f"},
             "crc": 123456789},
        ]},
        {"kind": "ack", "follower_id": "f1", "last_seq": 18},
        {"op": "prepare", "client_seq": 9, "txid": "tx-1",
         "holds": [{"flow_id": "f", "links": ["a-b", "b-c"],
                    "rate": 2.5}]},
        {"op": "status", "client_seq": 10},
        {"status": "ok", "client_seq": 10, "map_version": 4,
         "shard": 2},
        {"type": "ping", "nonce": 42},
        {"type": "pong", "nonce": 42},
    ]


def adversarial_frames():
    """Shapes that must fall back to the tagged generic encoding."""
    return [
        {},
        {"type": "admit"},                       # missing packed keys
        {"v": 2, "type": "admit", "agent": "a", "idem": "i",
         "now": 0.0, "flow_id": "f", "spec": SPEC_DICT,
         "delay_requirement": 1.0, "ingress": "I", "egress": "E",
         "service_class": "", "path_nodes": None, "budget_ms": None,
         "extra": True},                          # extra key
        {"nested": {"deep": [{"er": [1, 2.5, None, False, "x"]}]}},
        {"long": "x" * 70_000},                   # str32 path
        {"many": list(range(300))},               # list32 path
        {("x" * 300): 1},                         # long key, map8
        {"ints": [0, -1, 127, -128, 128, 2**31 - 1, -2**31,
                  2**31, 2**63 - 1, -2**63]},
        {"floats": [0.0, -0.0, 1e308, -1e-308, 3.14159]},
        {"unicode": "π∞→ ribbon 🎀", "π": "key"},
        {str(i): i for i in range(300)},          # map32 path
    ]


class TestDifferentialRoundTrip:
    @pytest.mark.parametrize("frame", edge_frames())
    def test_edge_frames(self, frame):
        assert decode_payload(encode_binary(frame)) == canonical(frame)

    @pytest.mark.parametrize("frame", other_frames())
    def test_service_frames(self, frame):
        assert decode_payload(encode_binary(frame)) == canonical(frame)

    @pytest.mark.parametrize("frame", adversarial_frames())
    def test_generic_shapes(self, frame):
        assert decode_payload(encode_binary(frame)) == canonical(frame)

    def test_memoryview_input(self):
        frame = edge_frames()[2]
        view = memoryview(encode_binary(frame))
        assert decode_payload(view) == canonical(frame)

    def test_random_frames(self):
        rng = random.Random(7)

        def value(depth):
            kinds = "int float str bool none sym"
            if depth < 3:
                kinds += " list map"
            kind = rng.choice(kinds.split())
            if kind == "int":
                return rng.randint(-2**40, 2**40)
            if kind == "float":
                return rng.uniform(-1e6, 1e6)
            if kind == "str":
                return "".join(rng.choice("abπ🎀")
                               for _ in range(rng.randint(0, 40)))
            if kind == "sym":
                return rng.choice(wire._SYMBOLS)
            if kind == "bool":
                return rng.random() < 0.5
            if kind == "none":
                return None
            if kind == "list":
                return [value(depth + 1)
                        for _ in range(rng.randint(0, 6))]
            return {f"k{i}": value(depth + 1)
                    for i in range(rng.randint(0, 6))}

        for _ in range(200):
            frame = {f"k{i}": value(0)
                     for i in range(rng.randint(0, 8))}
            assert (decode_payload(encode_binary(frame))
                    == canonical(frame))


class TestPackedRecords:
    def test_admit_takes_the_packed_path(self):
        frame = protocol.make_admit(
            "edge-1", "edge-1#7", "flow-1", SPEC, 2.44, "I1", "E1",
            service_class="gold", path_nodes=("I1", "R2", "E1"),
            now=3.0, budget_ms=120.0,
        )
        blob = encode_binary(frame)
        assert blob[0] == 0xF1
        assert decode_payload(blob) == canonical(frame)

    def test_packed_tags_per_type(self):
        cases = [
            (protocol.make_teardown("a", "i", "f", now=1.0), 0xF2),
            (protocol.make_refresh("a", "i", ["f"], now=1.0), 0xF3),
            (protocol.make_feedback("a", "i", "mk", now=1.0), 0xF4),
            (protocol.make_reply("admit", "i", "ok"), 0xF5),
        ]
        for frame, tag in cases:
            assert encode_binary(frame)[0] == tag, frame

    def test_nonconforming_admit_falls_back_to_tagged(self):
        frame = protocol.make_admit(
            "edge-1", "i", "f", SPEC, 1.0, "I", "E", now=0.0,
        )
        frame["surprise"] = 1
        blob = encode_binary(frame)
        assert blob[0] != 0xF1
        assert decode_payload(blob) == canonical(frame)

    def test_packed_is_much_smaller_than_json(self):
        frame = protocol.make_admit(
            "edge-1", "edge-1#7", "flow-1", SPEC, 2.44, "I1", "E1",
            path_nodes=("I1", "R2", "E1"), now=3.0,
        )
        packed = len(encode_binary(frame))
        as_json = len(json.dumps(frame).encode())
        assert packed < as_json / 2, (packed, as_json)

    def test_interned_symbols_encode_in_two_bytes(self):
        out = bytearray()
        wire._enc_str(out, "flow_id")
        assert len(out) == 2
        out2 = bytearray()
        wire._enc_str(out2, "definitely-not-a-symbol")
        assert len(out2) > 2

    def test_symbol_table_is_stable_wire_format(self):
        # Ids are wire format: spot-check a few anchors so a refactor
        # that reorders the table fails loudly here, not on the wire.
        assert wire._SYMBOLS.index("v") == 0
        assert wire._SYMBOLS.index("type") == 1
        assert len(wire._SYMBOLS) <= 256
        assert len(set(wire._SYMBOLS)) == len(wire._SYMBOLS)


class TestRejection:
    def test_truncated_payloads_raise_wire_error(self):
        blob = encode_binary(edge_frames()[2])
        for cut in range(1, len(blob)):
            with pytest.raises(WireError):
                decode_payload(blob[:cut])

    def test_truncated_tagged_payloads_raise_wire_error(self):
        blob = encode_binary({"nested": {"a": [1, "xy", None]}})
        assert blob[0] in (0xEC, 0xED)
        for cut in range(1, len(blob)):
            with pytest.raises(WireError):
                decode_payload(blob[:cut])

    def test_trailing_garbage_raises_wire_error(self):
        for frame in ({"a": 1}, edge_frames()[2]):
            blob = encode_binary(frame)
            with pytest.raises(WireError):
                decode_payload(blob + b"\x00")

    def test_unknown_tag_raises_wire_error(self):
        with pytest.raises(WireError):
            decode_payload(bytes([0xFF, 0, 0]))

    def test_bad_json_raises_wire_error(self):
        with pytest.raises(WireError):
            decode_payload(b"{not json")

    def test_non_dict_payload_rejected(self):
        with pytest.raises(WireError):
            decode_payload(b"[1, 2]")
        with pytest.raises(WireError):
            encode_binary(["not", "a", "dict"])

    def test_unencodable_value_raises_wire_error(self):
        with pytest.raises(WireError):
            encode_binary({"x": object()})
        with pytest.raises(WireError):
            encode_binary({"x": {1: "non-string key"}})


class TestNegotiation:
    """Nothing is negotiated: a payload names its own codec, so a
    receiver reads either one without connection state."""

    def test_payload_codec_dispatch(self):
        for frame in (edge_frames()[2], {"type": "ping", "nonce": 1}):
            as_json = encode_payload(frame, CODEC_JSON)
            as_binary = encode_payload(frame, CODEC_BINARY)
            assert as_json[0] == ord("{")
            assert as_binary[0] >= 0xE0
            assert decode_payload(as_json) == decode_payload(as_binary)

    def test_encode_payload_respects_codec(self):
        frame = {"type": "ping", "nonce": 1}
        assert encode_payload(frame, CODEC_JSON)[0] == ord("{")
        assert encode_payload(frame, CODEC_BINARY)[0] != ord("{")
        assert (decode_payload(encode_payload(frame, CODEC_BINARY))
                == decode_payload(encode_payload(frame, CODEC_JSON)))
