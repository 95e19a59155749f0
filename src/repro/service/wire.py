"""Binary wire codec: struct-packed frames behind the length prefix.

Every inter-process hop in this repo — edge signaling and cluster
shard RPC — moves *frames* (JSON-compatible
dicts) over a 4-byte length-prefixed stream
(:class:`~repro.service.transport.TcpConnection`).  The payload is
**binary**, in the spirit of Hummingbird's fixed-format reservation
messages (UTF-8 JSON stays as the readable alternative and the
tests' reference): the hot frame types
(``admit``/``teardown``/``refresh``/``feedback``/``reply``) are
**packed records** — one tag byte naming the layout, every numeric
field in one :mod:`struct` pack, strings as u16-length-prefixed UTF-8
— and everything else (handshakes, cluster 2PC ops, arbitrary test
frames) rides a compact self-describing **tagged
encoding** with a static table of interned symbols for the field
names and enum values shared by every protocol in the repo.

Interop rules:

* the first payload byte is self-describing: UTF-8 JSON of a dict
  always starts with ``{`` (0x7B); every binary tag is >= 0xE0.  A
  receiver never needs connection state to pick the decoder, so JSON
  and binary frames may interleave freely on one stream;
* nothing is negotiated: every peer is built from this package, so a
  connection sends binary from its first frame
  (:class:`~repro.service.transport.TcpConnection`), and a peer that
  sends JSON — a connection switched to it for a readable capture —
  is still read;
* ``decode_payload(encode_payload(f, "binary"))`` equals
  ``json.loads(json.dumps(f))`` for every encodable frame — the
  differential property the codec tests fuzz.  Frames whose shape
  does not fit a packed record silently use the tagged encoding;
  frames that are not JSON-encodable (non-string keys, exotic types)
  raise :class:`WireError` under both codecs.

Zero-copy: decoders take a :class:`memoryview` over the connection's
receive buffer and slice it — only leaf strings are materialized.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SignalingError

__all__ = [
    "WireError",
    "CODEC_JSON",
    "CODEC_BINARY",
    "encode_payload",
    "encode_binary",
    "decode_payload",
]

#: Codec names, as :func:`encode_payload` and
#: :meth:`~repro.service.transport.TcpConnection.set_codec` take them.
CODEC_JSON = "json"
CODEC_BINARY = "binary"


class WireError(SignalingError):
    """A payload cannot be encoded/decoded by the wire codec."""


# ----------------------------------------------------------------------
# tag space
# ----------------------------------------------------------------------
# JSON dict payloads start with "{" (0x7B); all binary tags live at
# 0xE0+ so the first payload byte alone names the codec.

_T_NONE = 0xE0
_T_FALSE = 0xE1
_T_TRUE = 0xE2
_T_INT8 = 0xE3
_T_INT32 = 0xE4
_T_INT64 = 0xE5
_T_F64 = 0xE6
_T_STR8 = 0xE7
_T_STR32 = 0xE8
_T_SYM = 0xE9
_T_LIST8 = 0xEA
_T_LIST32 = 0xEB
_T_MAP8 = 0xEC
_T_MAP32 = 0xED

# Packed-record tags (fixed per-type layouts, the hot path).
_T_ADMIT = 0xF1
_T_TEARDOWN = 0xF2
_T_REFRESH = 0xF3
_T_FEEDBACK = 0xF4
_T_REPLY = 0xF5
_T_REPORT = 0xF6

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I8 = struct.Struct(">b")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

#: u16 length sentinel meaning "the string field is None".
_NONE_LEN = 0xFFFF

# ----------------------------------------------------------------------
# interned symbols
# ----------------------------------------------------------------------
# One static table shared by every protocol in the repo: field names
# and enum-like values that recur in edge frames and cluster 2PC RPC.
# The table is append-only across protocol versions — ids are wire
# format, never renumber (so the retired log-shipping block stays).

_SYMBOLS: Tuple[str, ...] = (
    # envelope / edge protocol fields
    "v", "type", "agent", "idem", "budget_ms", "now", "re", "status",
    "detail", "reason", "retry_after", "decision", "lease",
    "refreshed", "unknown", "flow_id", "spec", "delay_requirement",
    "ingress", "egress", "service_class", "path_nodes", "flow_ids",
    "macroflow_key", "gateway", "lease_duration", "resumed",
    "versions", "codecs", "codec",
    # frame types / statuses
    "hello", "bye", "admit", "teardown", "refresh", "feedback",
    "dry-run", "reply", "welcome", "ok", "try-again", "error",
    "ping", "pong", "nonce",
    # TSpec / decision / lease payload fields
    "sigma", "rho", "peak", "max_packet", "admitted", "path_id",
    "rate", "delay", "duration", "expires_at", "drain_bound",
    # replication log-shipping
    "kind", "follower_id", "last_seq", "seq", "epoch", "records",
    "ack", "records_behind", "payload", "crc", "welcome_seq",
    # cluster shard RPC / 2PC
    "op", "client_seq", "txid", "prepare", "commit", "abort",
    "release", "reap", "map_version", "links", "holds", "shard",
    "coordinator", "generation",
    # telemetry reports (closed-loop re-dimensioning)
    "report", "samples", "scope", "key", "offered_rate", "backlog",
    "idle", "flows", "flow", "macro", "accepted",
)
_SYM_ID: Dict[str, int] = {name: i for i, name in enumerate(_SYMBOLS)}
assert len(_SYMBOLS) <= 256


# ----------------------------------------------------------------------
# tagged encoding (generic frames)
# ----------------------------------------------------------------------


def _enc_str(out: bytearray, text: str) -> None:
    blob = text.encode("utf-8")
    size = len(blob)
    sym = _SYM_ID.get(text)
    if sym is not None:
        out += _U8.pack(_T_SYM)
        out += _U8.pack(sym)
    elif size < 256:
        out += _U8.pack(_T_STR8)
        out += _U8.pack(size)
        out += blob
    else:
        out += _U8.pack(_T_STR32)
        out += _U32.pack(size)
        out += blob


def _enc_value(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is str:
        _enc_str(out, value)
    elif kind is bool:
        out += _U8.pack(_T_TRUE if value else _T_FALSE)
    elif kind is int:
        if -128 <= value < 128:
            out += _U8.pack(_T_INT8)
            out += _I8.pack(value)
        elif -(1 << 31) <= value < (1 << 31):
            out += _U8.pack(_T_INT32)
            out += _I32.pack(value)
        elif -(1 << 63) <= value < (1 << 63):
            out += _U8.pack(_T_INT64)
            out += _I64.pack(value)
        else:
            raise WireError(f"integer out of int64 range: {value}")
    elif kind is float:
        out += _U8.pack(_T_F64)
        out += _F64.pack(value)
    elif value is None:
        out += _U8.pack(_T_NONE)
    elif kind is dict:
        size = len(value)
        if size < 256:
            out += _U8.pack(_T_MAP8)
            out += _U8.pack(size)
        else:
            out += _U8.pack(_T_MAP32)
            out += _U32.pack(size)
        for key, item in value.items():
            if type(key) is not str:
                raise WireError(
                    f"frame keys must be str, got {type(key).__name__}"
                )
            _enc_str(out, key)
            _enc_value(out, item)
    elif kind is list or kind is tuple:
        size = len(value)
        if size < 256:
            out += _U8.pack(_T_LIST8)
            out += _U8.pack(size)
        else:
            out += _U8.pack(_T_LIST32)
            out += _U32.pack(size)
        for item in value:
            _enc_value(out, item)
    elif isinstance(value, (str, bool, int, float, dict, list, tuple)):
        # subclasses (IntEnum, defaultdict, ...): re-dispatch on the
        # JSON-visible base type.
        for base in (bool, int, float, str, dict, list):
            if isinstance(value, base):
                _enc_value(out, base(value))
                return
    else:
        raise WireError(
            f"frame value of type {type(value).__name__} is not "
            "JSON-compatible"
        )


def _dec_value(buf, offset: int) -> Tuple[Any, int]:
    tag = buf[offset]
    offset += 1
    if tag == _T_SYM:
        return _SYMBOLS[buf[offset]], offset + 1
    if tag == _T_STR8:
        size = buf[offset]
        offset += 1
        return bytes(buf[offset:offset + size]).decode("utf-8"), \
            offset + size
    if tag == _T_F64:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_INT8:
        return _I8.unpack_from(buf, offset)[0], offset + 1
    if tag == _T_MAP8 or tag == _T_MAP32:
        if tag == _T_MAP8:
            size = buf[offset]
            offset += 1
        else:
            (size,) = _U32.unpack_from(buf, offset)
            offset += 4
        frame: Dict[str, Any] = {}
        for _ in range(size):
            key, offset = _dec_value(buf, offset)
            frame[key], offset = _dec_value(buf, offset)
        return frame, offset
    if tag == _T_LIST8 or tag == _T_LIST32:
        if tag == _T_LIST8:
            size = buf[offset]
            offset += 1
        else:
            (size,) = _U32.unpack_from(buf, offset)
            offset += 4
        items: List[Any] = []
        for _ in range(size):
            item, offset = _dec_value(buf, offset)
            items.append(item)
        return items, offset
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT32:
        return _I32.unpack_from(buf, offset)[0], offset + 4
    if tag == _T_INT64:
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_STR32:
        (size,) = _U32.unpack_from(buf, offset)
        offset += 4
        return bytes(buf[offset:offset + size]).decode("utf-8"), \
            offset + size
    raise WireError(f"unknown binary tag 0x{tag:02X}")


# ----------------------------------------------------------------------
# packed records (hot frame types)
# ----------------------------------------------------------------------
# Exact key sets gate the packed layouts: a frame with extra or
# missing keys falls back to the tagged encoding, so packing is an
# optimization, never a lossy projection.

_SPEC_KEYS = frozenset(("sigma", "rho", "peak", "max_packet"))
_ADMIT_KEYS = frozenset((
    "v", "type", "agent", "idem", "flow_id", "spec",
    "delay_requirement", "ingress", "egress", "service_class",
    "path_nodes", "now",
))
_TEARDOWN_KEYS = frozenset((
    "v", "type", "agent", "idem", "flow_id", "now",
))
_REFRESH_KEYS = frozenset((
    "v", "type", "agent", "idem", "flow_ids", "now",
))
_FEEDBACK_KEYS = frozenset((
    "v", "type", "agent", "idem", "macroflow_key", "now",
))
_REPORT_KEYS = frozenset((
    "v", "type", "agent", "idem", "samples", "now",
))
_SAMPLE_KEYS = frozenset((
    "scope", "key", "offered_rate", "backlog", "idle", "flows",
))
#: Sample scope byte on the wire (order is wire format, append-only).
_SAMPLE_SCOPES = ("flow", "macro")
_SAMPLE_SCOPE_ID = {name: i for i, name in enumerate(_SAMPLE_SCOPES)}
_REPLY_KEYS = frozenset(("v", "type", "re", "idem", "status"))
_REPLY_OPTIONAL = ("detail", "reason", "retry_after", "decision",
                   "lease", "refreshed", "unknown")
_DECISION_KEYS = frozenset((
    "admitted", "flow_id", "path_id", "rate", "delay", "reason",
    "detail",
))
_LEASE_KEYS = frozenset((
    "duration", "expires_at", "macroflow_key", "drain_bound",
))

#: admit numerics: sigma rho peak max_packet delay_requirement now
_ADMIT_NUMS = struct.Struct(">6d")
#: decision numerics: rate delay
_DECISION_NUMS = struct.Struct(">2d")
#: lease numerics: duration expires_at drain_bound
_LEASE_NUMS = struct.Struct(">3d")
#: sample numerics: offered_rate backlog idle
_SAMPLE_NUMS = struct.Struct(">3d")


class _Unpackable(Exception):
    """Internal: the frame does not fit the packed layout."""


def _num(value) -> float:
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise _Unpackable


def _pack_str(out: bytearray, value) -> None:
    if value is None:
        out += _U16.pack(_NONE_LEN)
        return
    if type(value) is not str:
        raise _Unpackable
    blob = value.encode("utf-8")
    if len(blob) >= _NONE_LEN:
        raise _Unpackable
    out += _U16.pack(len(blob))
    out += blob


def _unpack_str(buf, offset: int) -> Tuple[Optional[str], int]:
    (size,) = _U16.unpack_from(buf, offset)
    offset += 2
    if size == _NONE_LEN:
        return None, offset
    if offset + size > len(buf):
        raise WireError("truncated string in packed record")
    return bytes(buf[offset:offset + size]).decode("utf-8"), \
        offset + size


def _pack_version(out: bytearray, frame) -> None:
    version = frame["v"]
    if type(version) is not int or not 0 <= version < 256:
        raise _Unpackable
    out += _U8.pack(version)


def _pack_envelope(out: bytearray, frame, budget: bool) -> None:
    _pack_str(out, frame["agent"])
    _pack_str(out, frame["idem"])
    if budget:
        out += _F64.pack(_num(frame["budget_ms"]))


def _pack_admit(frame: Dict[str, Any]) -> Optional[bytearray]:
    keys = frame.keys() - _ADMIT_KEYS
    if keys and keys != {"budget_ms"}:
        return None
    if _ADMIT_KEYS - frame.keys():
        return None
    spec = frame["spec"]
    if type(spec) is not dict or spec.keys() != _SPEC_KEYS:
        return None
    budget = "budget_ms" in frame
    out = bytearray((_T_ADMIT, 1 if budget else 0))
    _pack_version(out, frame)
    _pack_envelope(out, frame, budget)
    _pack_str(out, frame["flow_id"])
    _pack_str(out, frame["ingress"])
    _pack_str(out, frame["egress"])
    _pack_str(out, frame["service_class"])
    out += _ADMIT_NUMS.pack(
        _num(spec["sigma"]), _num(spec["rho"]), _num(spec["peak"]),
        _num(spec["max_packet"]), _num(frame["delay_requirement"]),
        _num(frame["now"]),
    )
    nodes = frame["path_nodes"]
    if nodes is None:
        out += _U16.pack(_NONE_LEN)
    else:
        if type(nodes) not in (list, tuple) or \
                len(nodes) >= _NONE_LEN:
            raise _Unpackable
        out += _U16.pack(len(nodes))
        for node in nodes:
            _pack_str(out, node)
    return out


def _unpack_admit(buf) -> Dict[str, Any]:
    budget = buf[1] != 0
    version = buf[2]
    offset = 3
    agent, offset = _unpack_str(buf, offset)
    idem, offset = _unpack_str(buf, offset)
    budget_ms = None
    if budget:
        (budget_ms,) = _F64.unpack_from(buf, offset)
        offset += 8
    flow_id, offset = _unpack_str(buf, offset)
    ingress, offset = _unpack_str(buf, offset)
    egress, offset = _unpack_str(buf, offset)
    service_class, offset = _unpack_str(buf, offset)
    sigma, rho, peak, max_packet, delay_requirement, now = \
        _ADMIT_NUMS.unpack_from(buf, offset)
    offset += _ADMIT_NUMS.size
    (count,) = _U16.unpack_from(buf, offset)
    offset += 2
    nodes: Optional[List[str]] = None
    if count != _NONE_LEN:
        nodes = []
        for _ in range(count):
            node, offset = _unpack_str(buf, offset)
            nodes.append(node)
    frame = {
        "v": version, "type": "admit", "agent": agent, "idem": idem,
        "flow_id": flow_id,
        "spec": {"sigma": sigma, "rho": rho, "peak": peak,
                 "max_packet": max_packet},
        "delay_requirement": delay_requirement,
        "ingress": ingress, "egress": egress,
        "service_class": service_class,
        "path_nodes": nodes, "now": now,
    }
    if budget:
        frame["budget_ms"] = budget_ms
    return frame, offset


def _pack_flow_op(tag: int, keys: frozenset, field: str,
                  frame: Dict[str, Any]) -> Optional[bytearray]:
    extra = frame.keys() - keys
    if extra and extra != {"budget_ms"}:
        return None
    if keys - frame.keys():
        return None
    budget = "budget_ms" in frame
    out = bytearray((tag, 1 if budget else 0))
    _pack_version(out, frame)
    _pack_envelope(out, frame, budget)
    _pack_str(out, frame[field])
    out += _F64.pack(_num(frame["now"]))
    return out


def _unpack_flow_op(buf, frame_type: str, field: str) -> Dict[str, Any]:
    budget = buf[1] != 0
    version = buf[2]
    offset = 3
    agent, offset = _unpack_str(buf, offset)
    idem, offset = _unpack_str(buf, offset)
    budget_ms = None
    if budget:
        (budget_ms,) = _F64.unpack_from(buf, offset)
        offset += 8
    value, offset = _unpack_str(buf, offset)
    (now,) = _F64.unpack_from(buf, offset)
    offset += 8
    frame = {
        "v": version, "type": frame_type, "agent": agent,
        "idem": idem, field: value, "now": now,
    }
    if budget:
        frame["budget_ms"] = budget_ms
    return frame, offset


def _pack_refresh(frame: Dict[str, Any]) -> Optional[bytearray]:
    extra = frame.keys() - _REFRESH_KEYS
    if extra and extra != {"budget_ms"}:
        return None
    if _REFRESH_KEYS - frame.keys():
        return None
    flow_ids = frame["flow_ids"]
    if type(flow_ids) not in (list, tuple) or \
            len(flow_ids) >= _NONE_LEN:
        return None
    budget = "budget_ms" in frame
    out = bytearray((_T_REFRESH, 1 if budget else 0))
    _pack_version(out, frame)
    _pack_envelope(out, frame, budget)
    out += _F64.pack(_num(frame["now"]))
    out += _U16.pack(len(flow_ids))
    for flow_id in flow_ids:
        _pack_str(out, flow_id)
    return out


def _unpack_refresh(buf) -> Dict[str, Any]:
    budget = buf[1] != 0
    version = buf[2]
    offset = 3
    agent, offset = _unpack_str(buf, offset)
    idem, offset = _unpack_str(buf, offset)
    budget_ms = None
    if budget:
        (budget_ms,) = _F64.unpack_from(buf, offset)
        offset += 8
    (now,) = _F64.unpack_from(buf, offset)
    offset += 8
    (count,) = _U16.unpack_from(buf, offset)
    offset += 2
    flow_ids: List[str] = []
    for _ in range(count):
        flow_id, offset = _unpack_str(buf, offset)
        flow_ids.append(flow_id)
    frame = {
        "v": version, "type": "refresh", "agent": agent, "idem": idem,
        "flow_ids": flow_ids, "now": now,
    }
    if budget:
        frame["budget_ms"] = budget_ms
    return frame, offset


def _pack_report(frame: Dict[str, Any]) -> Optional[bytearray]:
    extra = frame.keys() - _REPORT_KEYS
    if extra and extra != {"budget_ms"}:
        return None
    if _REPORT_KEYS - frame.keys():
        return None
    samples = frame["samples"]
    if type(samples) not in (list, tuple) or len(samples) >= _NONE_LEN:
        return None
    budget = "budget_ms" in frame
    out = bytearray((_T_REPORT, 1 if budget else 0))
    _pack_version(out, frame)
    _pack_envelope(out, frame, budget)
    out += _F64.pack(_num(frame["now"]))
    out += _U16.pack(len(samples))
    for sample in samples:
        if type(sample) is not dict or sample.keys() != _SAMPLE_KEYS:
            raise _Unpackable
        scope = _SAMPLE_SCOPE_ID.get(sample["scope"])
        flows = sample["flows"]
        if scope is None or type(flows) is not int or \
                not -(1 << 31) <= flows < (1 << 31):
            raise _Unpackable
        out += _U8.pack(scope)
        _pack_str(out, sample["key"])
        out += _SAMPLE_NUMS.pack(
            _num(sample["offered_rate"]), _num(sample["backlog"]),
            _num(sample["idle"]),
        )
        out += _I32.pack(flows)
    return out


def _unpack_report(buf) -> Dict[str, Any]:
    budget = buf[1] != 0
    version = buf[2]
    offset = 3
    agent, offset = _unpack_str(buf, offset)
    idem, offset = _unpack_str(buf, offset)
    budget_ms = None
    if budget:
        (budget_ms,) = _F64.unpack_from(buf, offset)
        offset += 8
    (now,) = _F64.unpack_from(buf, offset)
    offset += 8
    (count,) = _U16.unpack_from(buf, offset)
    offset += 2
    samples: List[Dict[str, Any]] = []
    for _ in range(count):
        scope_id = buf[offset]
        offset += 1
        if scope_id >= len(_SAMPLE_SCOPES):
            raise WireError(
                f"unknown sample scope 0x{scope_id:02X} in report"
            )
        key, offset = _unpack_str(buf, offset)
        offered_rate, backlog, idle = \
            _SAMPLE_NUMS.unpack_from(buf, offset)
        offset += _SAMPLE_NUMS.size
        (flows,) = _I32.unpack_from(buf, offset)
        offset += 4
        samples.append({
            "scope": _SAMPLE_SCOPES[scope_id], "key": key,
            "offered_rate": offered_rate, "backlog": backlog,
            "idle": idle, "flows": flows,
        })
    frame = {
        "v": version, "type": "report", "agent": agent, "idem": idem,
        "samples": samples, "now": now,
    }
    if budget:
        frame["budget_ms"] = budget_ms
    return frame, offset


def _pack_reply(frame: Dict[str, Any]) -> Optional[bytearray]:
    present = frame.keys() - _REPLY_KEYS
    if _REPLY_KEYS - frame.keys():
        return None
    flags = 0
    for bit, key in enumerate(_REPLY_OPTIONAL):
        if key in frame:
            flags |= 1 << bit
    if present - set(_REPLY_OPTIONAL):
        return None
    decision = frame.get("decision")
    if decision is not None and (
        type(decision) is not dict
        or decision.keys() != _DECISION_KEYS
        or type(decision["admitted"]) is not bool
    ):
        return None
    lease = frame.get("lease")
    if "lease" in frame and lease is None:
        # make_reply never emits lease=None explicitly, but a packed
        # None-vs-absent distinction is not representable: fall back.
        return None
    if lease is not None and (
        type(lease) is not dict or lease.keys() != _LEASE_KEYS
    ):
        return None
    for key in ("refreshed", "unknown"):
        ids = frame.get(key)
        if ids is not None and (
            type(ids) not in (list, tuple) or len(ids) >= _NONE_LEN
        ):
            return None
    out = bytearray((_T_REPLY, flags))
    _pack_version(out, frame)
    _pack_str(out, frame["re"])
    _pack_str(out, frame["idem"])
    _pack_str(out, frame["status"])
    if flags & 0x01:
        _pack_str(out, frame["detail"])
    if flags & 0x02:
        _pack_str(out, frame["reason"])
    if flags & 0x04:
        out += _F64.pack(_num(frame["retry_after"]))
    if flags & 0x08:
        _pack_str(out, decision["flow_id"])
        _pack_str(out, decision["path_id"])
        _pack_str(out, decision["reason"])
        _pack_str(out, decision["detail"])
        out += _U8.pack(1 if decision["admitted"] else 0)
        out += _DECISION_NUMS.pack(_num(decision["rate"]),
                                   _num(decision["delay"]))
    if flags & 0x10:
        _pack_str(out, lease["macroflow_key"])
        out += _LEASE_NUMS.pack(
            _num(lease["duration"]), _num(lease["expires_at"]),
            _num(lease["drain_bound"]),
        )
    for bit, key in ((0x20, "refreshed"), (0x40, "unknown")):
        if flags & bit:
            ids = frame[key]
            out += _U16.pack(len(ids))
            for flow_id in ids:
                _pack_str(out, flow_id)
    return out


def _unpack_reply(buf) -> Dict[str, Any]:
    flags = buf[1]
    version = buf[2]
    offset = 3
    re, offset = _unpack_str(buf, offset)
    idem, offset = _unpack_str(buf, offset)
    status, offset = _unpack_str(buf, offset)
    frame: Dict[str, Any] = {
        "v": version, "type": "reply", "re": re, "idem": idem,
        "status": status,
    }
    if flags & 0x01:
        frame["detail"], offset = _unpack_str(buf, offset)
    if flags & 0x02:
        frame["reason"], offset = _unpack_str(buf, offset)
    if flags & 0x04:
        (frame["retry_after"],) = _F64.unpack_from(buf, offset)
        offset += 8
    if flags & 0x08:
        flow_id, offset = _unpack_str(buf, offset)
        path_id, offset = _unpack_str(buf, offset)
        reason, offset = _unpack_str(buf, offset)
        detail, offset = _unpack_str(buf, offset)
        admitted = buf[offset] != 0
        offset += 1
        rate, delay = _DECISION_NUMS.unpack_from(buf, offset)
        offset += _DECISION_NUMS.size
        frame["decision"] = {
            "admitted": admitted, "flow_id": flow_id,
            "path_id": path_id, "rate": rate, "delay": delay,
            "reason": reason, "detail": detail,
        }
    if flags & 0x10:
        macroflow_key, offset = _unpack_str(buf, offset)
        duration, expires_at, drain_bound = \
            _LEASE_NUMS.unpack_from(buf, offset)
        offset += _LEASE_NUMS.size
        frame["lease"] = {
            "duration": duration, "expires_at": expires_at,
            "macroflow_key": macroflow_key,
            "drain_bound": drain_bound,
        }
    for bit, key in ((0x20, "refreshed"), (0x40, "unknown")):
        if flags & bit:
            (count,) = _U16.unpack_from(buf, offset)
            offset += 2
            ids: List[str] = []
            for _ in range(count):
                flow_id, offset = _unpack_str(buf, offset)
                ids.append(flow_id)
            frame[key] = ids
    return frame, offset


_PACKERS = {
    "admit": _pack_admit,
    "teardown": lambda f: _pack_flow_op(
        _T_TEARDOWN, _TEARDOWN_KEYS, "flow_id", f),
    "refresh": _pack_refresh,
    "feedback": lambda f: _pack_flow_op(
        _T_FEEDBACK, _FEEDBACK_KEYS, "macroflow_key", f),
    "report": _pack_report,
    "reply": _pack_reply,
}

_UNPACKERS = {
    _T_ADMIT: _unpack_admit,
    _T_TEARDOWN: lambda b: _unpack_flow_op(b, "teardown", "flow_id"),
    _T_REFRESH: _unpack_refresh,
    _T_FEEDBACK: lambda b: _unpack_flow_op(
        b, "feedback", "macroflow_key"),
    _T_REPORT: _unpack_report,
    _T_REPLY: _unpack_reply,
}


# ----------------------------------------------------------------------
# payload entry points
# ----------------------------------------------------------------------


def encode_binary(frame: Dict[str, Any]) -> bytes:
    """Binary payload bytes for *frame* (packed when the shape fits,
    tagged otherwise)."""
    if type(frame) is not dict:
        raise WireError(
            f"frame must be a dict, got {type(frame).__name__}"
        )
    packer = _PACKERS.get(frame.get("type"))
    if packer is not None:
        try:
            out = packer(frame)
        except _Unpackable:
            out = None
        if out is not None:
            return bytes(out)
    out = bytearray()
    _enc_value(out, frame)
    return bytes(out)


def encode_payload(frame: Dict[str, Any], codec: str) -> bytes:
    """Payload bytes for *frame* under *codec* (no length prefix)."""
    if codec == CODEC_BINARY:
        return encode_binary(frame)
    if codec == CODEC_JSON:
        try:
            return json.dumps(
                frame, separators=(",", ":")
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise WireError(f"frame is not JSON-encodable: {exc}") \
                from exc
    raise WireError(f"unknown codec {codec!r}")


def decode_payload(buf) -> Dict[str, Any]:
    """Decode one payload (``bytes``/``bytearray``/``memoryview``).

    Dispatches on the first byte: ``{`` is the JSON fallback, a
    packed-record tag selects its fixed layout, a map tag the tagged
    decoder.  Raises :class:`WireError` on anything else (a peer not
    speaking this protocol).
    """
    if len(buf) == 0:
        raise WireError("empty payload")
    first = buf[0]
    if first == 0x7B:  # "{"
        try:
            return json.loads(bytes(buf).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireError(f"bad JSON payload: {exc}") from exc
    try:
        unpacker = _UNPACKERS.get(first)
        if unpacker is not None:
            frame, end = unpacker(buf)
        elif first == _T_MAP8 or first == _T_MAP32:
            frame, end = _dec_value(buf, 0)
        else:
            frame = None
        if frame is not None:
            if end != len(buf):
                raise WireError(
                    f"trailing garbage after binary frame "
                    f"({len(buf) - end} bytes)"
                )
            return frame
    except WireError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise WireError(f"truncated/corrupt binary payload: {exc}") \
            from exc
    raise WireError(
        f"payload starts with 0x{first:02X}: neither JSON nor a "
        "binary frame"
    )
