"""Durable WAL + crash recovery: fault injection and bit-identity.

Covers :mod:`repro.service.durability` — the file-backed write-ahead
journal (record framing, CRC, segment rotation, group commit), the
checkpoint that embeds a journal position and prunes covered segments,
and :func:`~repro.service.durability.recover_broker`.  The central
property under test is the paper's footnote-2 reliability bar: after a
crash (simulated by torn/corrupted journal tails), recovery rebuilds a
broker whose checkpoint is **byte-identical** to the pre-crash
primary's for every durably-acknowledged operation, and whose
subsequent decisions match the survivor's exactly.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import threading
import zlib

import pytest

from repro.core.aggregate import ServiceClass
from repro.core.broker import BandwidthBroker
from repro.core.journal import KINDS, JournalEntry, request_payload
from repro.core.persistence import CHECKPOINT_VERSION, checkpoint_broker
from repro.errors import StateError
from repro.service import (
    BrokerService,
    FileJournal,
    provision_parallel_paths,
    read_journal,
    recover_broker,
    write_checkpoint,
)
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain

SPEC = flow_type(0).spec


def fig8_broker() -> BandwidthBroker:
    broker = BandwidthBroker()
    fig8_domain(SchedulerSetting.MIXED).provision_broker(broker)
    broker.register_class(ServiceClass("gold", 2.44, 0.24))
    return broker


def canonical(broker: BandwidthBroker) -> str:
    """A canonical byte string of the broker's checkpointable state.

    Flow/macroflow lists are sorted because concurrent primaries
    insert MIB records in worker-scheduling order while recovery
    inserts them in journal order — same set, possibly different
    sequence.
    """
    data = checkpoint_broker(broker)
    data["flows"] = sorted(data["flows"], key=lambda f: f["flow_id"])
    data["macroflows"] = sorted(data["macroflows"],
                                key=lambda m: m["key"])
    return json.dumps(data, sort_keys=True)


def wal_segments(directory: str):
    return sorted(
        name for name in os.listdir(directory)
        if name.startswith("wal-") and name.endswith(".log")
    )


def epoch_records(epoch: int, *nows: float) -> bytes:
    """``advance`` records stamped *epoch*, seq 1 up, in the on-disk
    record format (length, crc32, compact JSON) — how a WAL that an
    older build's log-shipping promotion raised to *epoch* reads."""
    data = b""
    for seq, now in enumerate(nows, start=1):
        entry = JournalEntry(seq, "advance", {"now": now}, epoch=epoch)
        blob = json.dumps(entry.to_dict(),
                          separators=(",", ":")).encode("utf-8")
        data += struct.pack(">II", len(blob), zlib.crc32(blob)) + blob
    return data


def broken_fsync(fd: int) -> None:
    raise OSError(errno.EIO, "injected EIO")


class TestFileJournal:
    def test_append_commit_reopen_roundtrip(self, tmp_path):
        wal = FileJournal(tmp_path)
        wal.append("advance", {"now": 1.0})
        wal.append("terminate", {"flow_id": "f1", "now": 2.0})
        assert wal.position == 2
        assert wal.durable_position == 0
        assert wal.commit() == 2
        assert wal.durable_position == 2
        wal.close()

        reopened = FileJournal(tmp_path)
        assert reopened.position == 2
        entries = reopened.entries_after(0)
        assert [(e.seq, e.kind) for e in entries] == [
            (1, "advance"), (2, "terminate"),
        ]
        # The sequence resumes, it does not restart.
        assert reopened.append("advance", {"now": 3.0}).seq == 3
        reopened.close()

    def test_entries_after_filters(self, tmp_path):
        wal = FileJournal(tmp_path)
        for index in range(5):
            wal.append("advance", {"now": float(index)})
        wal.commit()
        assert [e.seq for e in wal.entries_after(3)] == [4, 5]
        wal.close()

    def test_segment_rotation_and_prune(self, tmp_path):
        wal = FileJournal(tmp_path, segment_bytes=256)
        for index in range(30):
            wal.append("advance", {"now": float(index)})
            wal.commit()  # rotation happens at commit boundaries
        segments = wal_segments(tmp_path)
        assert len(segments) > 1
        # All 30 entries survive rotation, in order.
        assert [e.seq for e in wal.entries_after(0)] == list(range(1, 31))

        removed = wal.prune(30)
        assert removed  # everything but the active segment
        remaining = wal_segments(tmp_path)
        assert len(remaining) < len(segments)
        # The active segment is never pruned, and appends continue.
        assert wal.append("advance", {"now": 99.0}).seq == 31
        wal.close()

    def test_prune_keeps_uncovered_segments(self, tmp_path):
        wal = FileJournal(tmp_path, segment_bytes=256)
        for index in range(30):
            wal.append("advance", {"now": float(index)})
            wal.commit()
        before = wal_segments(tmp_path)
        wal.prune(1)  # covers nothing beyond the first segment's head
        assert wal_segments(tmp_path) == before
        wal.close()

    def test_torn_tail_truncated_with_warning(self, tmp_path):
        wal = FileJournal(tmp_path)
        wal.append("advance", {"now": 1.0})
        wal.append("advance", {"now": 2.0})
        wal.commit()
        wal.close()
        path = os.path.join(tmp_path, wal_segments(tmp_path)[-1])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)  # tear the last record mid-payload

        with pytest.warns(RuntimeWarning, match="torn record"):
            scan = read_journal(tmp_path, repair=True)
        assert [e.seq for e in scan.entries] == [1]
        assert scan.torn_tail and scan.dropped_bytes > 0
        # Repair truncated the file: a fresh read is clean.
        clean = read_journal(tmp_path)
        assert not clean.torn_tail
        # And the journal reopens for appends at the right sequence.
        reopened = FileJournal(tmp_path)
        assert reopened.append("advance", {"now": 3.0}).seq == 2
        reopened.close()

    def test_corrupt_crc_in_tail_dropped(self, tmp_path):
        wal = FileJournal(tmp_path)
        wal.append("advance", {"now": 1.0})
        wal.append("advance", {"now": 2.0})
        wal.commit()
        wal.close()
        path = os.path.join(tmp_path, wal_segments(tmp_path)[-1])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 1)  # flip bits inside the last payload
            handle.write(b"\xff")
        with pytest.warns(RuntimeWarning, match="checksum"):
            scan = read_journal(tmp_path)
        assert [e.seq for e in scan.entries] == [1]

    def test_mid_stream_corruption_raises(self, tmp_path):
        """Damage in a *rotated* segment (complete records follow in a
        later one) is real data loss, not a torn tail — it must raise,
        never silently drop acknowledged operations."""
        wal = FileJournal(tmp_path, segment_bytes=64)
        for index in range(10):
            wal.append("advance", {"now": float(index)})
            wal.commit()
        wal.close()
        segments = wal_segments(tmp_path)
        assert len(segments) >= 2
        first = os.path.join(tmp_path, segments[0])
        with open(first, "r+b") as handle:
            handle.seek(os.path.getsize(first) - 1)
            handle.write(b"\xff")
        with pytest.raises(StateError, match="corrupt mid-stream"):
            read_journal(tmp_path)

    def test_group_commit_coalesces_fsyncs(self, tmp_path):
        """Concurrent committers must share flushes: with T threads
        each appending+committing, the journal issues strictly fewer
        fsyncs than commits (the group-commit amortization)."""
        wal = FileJournal(tmp_path)
        threads = []
        per_thread = 25

        def hammer(base: int) -> None:
            for index in range(per_thread):
                wal.append("advance", {"now": float(base + index)})
                wal.commit()

        for base in range(0, 800, 100):
            threads.append(threading.Thread(target=hammer, args=(base,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = len(threads) * per_thread
        assert wal.position == total
        assert wal.durable_position == total
        assert wal.fsyncs < total  # at least one flush covered >1 entry
        assert wal.max_group >= 2
        assert len(wal.entries_after(0)) == total
        wal.close()

    def test_closed_journal_rejects_appends(self, tmp_path):
        wal = FileJournal(tmp_path)
        wal.close()
        with pytest.raises(StateError):
            wal.append("advance", {"now": 1.0})

    def test_fsync_failure_stops_the_journal(self, tmp_path,
                                             monkeypatch):
        """Fail-stop: after one ``fsync`` error no later commit reports
        success, even once ``fsync`` works again — a retried ``fsync``
        may succeed for pages the kernel already dropped."""
        import repro.service.durability as durability

        wal = FileJournal(tmp_path)
        wal.append("advance", {"now": 1.0})
        assert wal.commit() == 1
        wal.append("advance", {"now": 2.0})
        with monkeypatch.context() as patch:
            patch.setattr(durability.os, "fsync", broken_fsync)
            with pytest.raises(StateError, match="injected EIO") as info:
                wal.commit()
        assert isinstance(info.value.__cause__, OSError)
        assert wal.failure is not None
        for retry in (wal.commit, lambda: wal.commit(upto=1),
                      lambda: wal.append("advance", {"now": 3.0})):
            with pytest.raises(StateError, match="journal failed"):
                retry()
        assert wal.durable_position == 1
        with pytest.raises(StateError, match="journal failed"):
            wal.close()
        # The file is closed all the same; reopening reads what the
        # disk holds.
        reopened = FileJournal(tmp_path)
        assert reopened.failure is None
        assert [e.seq for e in reopened.entries_after(0)] == [1, 2]
        reopened.close()

    def test_a_waiter_on_a_failed_fsync_does_not_retry_it(
            self, tmp_path, monkeypatch):
        """A committer that waited on the failing leader raises too,
        instead of becoming the next leader and re-issuing the
        ``fsync``."""
        import repro.service.durability as durability

        entered, release = threading.Event(), threading.Event()
        calls = []

        def failing_fsync(fd: int) -> None:
            calls.append(fd)
            entered.set()
            release.wait(5.0)
            broken_fsync(fd)

        wal = FileJournal(tmp_path)
        monkeypatch.setattr(durability.os, "fsync", failing_fsync)
        wal.append("advance", {"now": 1.0})
        outcomes = []

        def commit() -> None:
            try:
                wal.commit()
                outcomes.append("ok")
            except StateError:
                outcomes.append("failed")

        leader = threading.Thread(target=commit)
        leader.start()
        assert entered.wait(5.0)
        wal.append("advance", {"now": 2.0})
        waiter = threading.Thread(target=commit)
        waiter.start()
        release.set()
        leader.join(5.0)
        waiter.join(5.0)
        assert outcomes == ["failed", "failed"]
        assert len(calls) == 1
        with pytest.raises(StateError, match="journal failed"):
            wal.close()


#: One record payload per journal kind: floats, a non-ASCII flow id,
#: nested lists and the edge lease field.
_LEASE = {"agent": "edge-\u00e9", "duration": 30.0}
KIND_PAYLOADS = {
    "request": request_payload(
        "fl\u00f6w-\u2603", SPEC, 2.44, "I1", "E1",
        path_nodes=["I1", "S1", "E1"], now=0.1 + 0.2, lease=_LEASE),
    "terminate": {"flow_id": "fl\u00f6w-\u2603", "now": 1e-7,
                  "lease": _LEASE},
    "advance": {"now": 12345.678901234567},
    "feedback": {"macroflow_key": "I1->E1/gold", "now": 2.5},
    "resize": {"macroflow_key": "I1->E1/gold", "rate": 1.0 / 3.0,
               "mode": "shrink", "now": 3.0},
    "lease": {"event": "expire", "flow_id": "f1", "agent": "edge-1",
              "duration": 30.0, "now": 4.0},
    "cprepare": {"txid": "tx-1", "flow_id": "f1",
                 "links": [["a", "b"], ["b", "c"]],
                 "spec": SPEC.to_dict(), "delay_requirement": 2.44,
                 "mode": "fixed", "rate": 50000.0, "delay": 0.0,
                 "now": 5.0, "epoch": 0, "shards": 2},
    "ccommit": {"txid": "tx-1", "flow_id": "f1", "now": 6.0},
    "cabort": {"txid": "tx-2", "now": 6.5},
    "crelease": {"flow_id": "f1"},
    "cbegin": {"txid": "tx-3", "flow_id": "f3",
               "shards": ["s0", "s1"], "path_nodes": ["a", "b", "c"],
               "segments": [[["a", "b"]], [["b", "c"]]], "now": 7.0},
    "cdecide": {"txid": "tx-3", "outcome": "commit"},
    "cdone": {"txid": "tx-3"},
    "clocal": {"flow_id": "f4", "shard": "s1"},
    "cteardown": {"flow_id": "f4"},
}


class TestRecordEncoder:
    def test_one_payload_for_every_kind(self):
        assert set(KIND_PAYLOADS) == set(KINDS)

    @pytest.mark.parametrize("c_encoder", [True, False],
                             ids=["prebuilt", "fallback"])
    def test_bytes_equal_json_dumps(self, c_encoder, monkeypatch):
        """The prebuilt C encoder (and the pure-Python one an
        interpreter without the accelerator falls back to) write the
        same bytes as ``json.dumps`` with compact separators."""
        from repro.service import durability

        if not c_encoder:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        encode = durability._record_encoder()
        for seq, (kind, payload) in enumerate(KIND_PAYLOADS.items()):
            record = JournalEntry(seq, kind, payload).to_dict()
            assert encode(record) == \
                json.dumps(record, separators=(",", ":")), kind


class _GatedFsync:
    """An ``os.fsync`` stand-in: the first call blocks until
    :attr:`release` is set (at most 5 s), and every call records the
    ``(inode, size)`` of what it was asked to make durable."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self.synced = []
        self._real = os.fsync

    def __call__(self, fd: int) -> None:
        stat = os.fstat(fd)
        self.entered.set()
        self.release.wait(5.0)
        self._real(fd)
        self.synced.append((stat.st_ino, stat.st_size))

    def covers(self, path) -> bool:
        """Was *path*, as it is now, wholly inside one fsync?"""
        stat = os.stat(path)
        return any(ino == stat.st_ino and size >= stat.st_size
                   for ino, size in self.synced)


class TestGroupCommit:
    """The commit leader's fsync runs without the append lock."""

    def _gate(self, monkeypatch) -> _GatedFsync:
        import repro.service.durability as durability

        gate = _GatedFsync()
        monkeypatch.setattr(durability.os, "fsync", gate)
        return gate

    def test_append_completes_during_the_leaders_fsync(self, tmp_path,
                                                       monkeypatch):
        wal = FileJournal(tmp_path)
        gate = self._gate(monkeypatch)
        wal.append("advance", {"now": 1.0})
        leader = threading.Thread(target=wal.commit)
        leader.start()
        try:
            assert gate.entered.wait(5.0)
            appended = []
            writer = threading.Thread(target=lambda: appended.append(
                wal.append("advance", {"now": 2.0})
            ))
            writer.start()
            writer.join(2.0)
            assert not writer.is_alive(), "append waited for the fsync"
            assert appended[0].seq == 2
            assert wal.durable_position == 0
        finally:
            gate.release.set()
            leader.join(5.0)
        assert wal.durable_position == 1  # seq 2 is the next group's
        assert wal.commit() == 2
        wal.close()
        assert [e.seq for e in read_journal(tmp_path).entries] == [1, 2]

    def test_appends_during_a_rotating_fsync_stay_durable(
            self, tmp_path, monkeypatch):
        """An entry that lands in the old segment while the leader's
        fsync runs is fsynced before rotation closes that segment, so
        its own commit's return means what it says."""
        wal = FileJournal(tmp_path, segment_bytes=1)  # every commit rotates
        first_segment = wal_segments(tmp_path)[0]
        gate = self._gate(monkeypatch)
        wal.append("advance", {"now": 1.0})
        leader = threading.Thread(target=wal.commit)
        leader.start()
        try:
            assert gate.entered.wait(5.0)
            late = wal.append("advance", {"now": 2.0})
        finally:
            gate.release.set()
            leader.join(5.0)
        assert wal.commit() >= late.seq
        assert [e.seq for e in read_journal(tmp_path).entries] == [1, 2]
        # Both entries live in the first segment, and an fsync covered
        # all of it before the next segment took over.
        assert len(wal_segments(tmp_path)) == 2
        assert gate.covers(os.path.join(tmp_path, first_segment))
        wal.close()
        reopened = FileJournal(tmp_path)
        assert [e.seq for e in reopened.entries_after(0)] == [1, 2]
        reopened.close()

    def test_close_waits_for_a_running_leader(self, tmp_path,
                                              monkeypatch):
        wal = FileJournal(tmp_path)
        gate = self._gate(monkeypatch)
        wal.append("advance", {"now": 1.0})
        leader = threading.Thread(target=wal.commit)
        leader.start()
        closer = threading.Thread(target=wal.close)
        try:
            assert gate.entered.wait(5.0)
            closer.start()
            closer.join(0.2)
            assert closer.is_alive(), "close did not wait for the fsync"
        finally:
            gate.release.set()
            leader.join(5.0)
            closer.join(5.0)
        assert not closer.is_alive()
        assert wal.durable_position == 1
        with pytest.raises(StateError):
            wal.append("advance", {"now": 2.0})


class TestDirectoryDurability:
    """POSIX durability of the directory *entries* themselves.

    fsyncing a new file's bytes is not enough: until the containing
    directory is fsynced, a crash can forget the file's very name —
    a freshly created segment, a rotated segment, or a just-renamed
    checkpoint would vanish with its acknowledged contents.  These
    tests inject a recorder for the directory-fsync hook and assert
    it fires at each of the three creation points.
    """

    def _record(self, monkeypatch):
        import repro.service.durability as durability

        calls = []
        real = durability._fsync_dir

        def recorder(directory):
            calls.append(os.fspath(directory))
            real(directory)

        monkeypatch.setattr(durability, "_fsync_dir", recorder)
        return calls

    def test_fresh_segment_fsyncs_directory(self, tmp_path, monkeypatch):
        calls = self._record(monkeypatch)
        wal = FileJournal(tmp_path)  # creates wal-...0001.log
        assert calls.count(os.fspath(tmp_path)) == 1
        wal.close()
        # Reopening an existing segment creates nothing: no new fsync.
        reopened = FileJournal(tmp_path)
        assert calls.count(os.fspath(tmp_path)) == 1
        reopened.close()

    def test_rotation_fsyncs_directory(self, tmp_path, monkeypatch):
        calls = self._record(monkeypatch)
        wal = FileJournal(tmp_path, segment_bytes=128)
        before = len(calls)
        for index in range(12):
            wal.append("advance", {"now": float(index)})
            wal.commit()
        rotations = len(wal_segments(tmp_path)) - 1
        assert rotations >= 1
        # One directory fsync per new segment file.
        assert len(calls) - before == rotations
        wal.close()

    def test_checkpoint_rename_fsyncs_directory(self, tmp_path,
                                                monkeypatch):
        calls = self._record(monkeypatch)
        broker = fig8_broker()
        before = len(calls)
        path = write_checkpoint(tmp_path, broker)
        assert os.path.exists(path)
        assert len(calls) == before + 1
        assert calls[-1] == os.fspath(tmp_path)

    def test_no_directory_fsync_when_disabled(self, tmp_path,
                                              monkeypatch):
        """``fsync=False`` (tests/benchmarks) skips the physical
        directory fsync along with the file ones."""
        calls = self._record(monkeypatch)
        wal = FileJournal(tmp_path, fsync=False, segment_bytes=128)
        for index in range(12):
            wal.append("advance", {"now": float(index)})
            wal.commit()
        assert calls == []
        wal.close()


class TestCheckpointing:
    def test_checkpoint_embeds_journal_seq_and_prunes(self, tmp_path):
        broker = fig8_broker()
        wal = FileJournal(tmp_path, segment_bytes=128)
        service = BrokerService(broker, workers=1, shards=2, wal=wal)
        with service:
            for index in range(8):
                reply = service.request(
                    f"f{index}", SPEC, 2.44, "I1", "E1",
                    now=float(index),
                )
                assert reply.status == "ok"
        rotated_before = len(wal_segments(tmp_path))
        assert rotated_before > 1
        path = write_checkpoint(tmp_path, broker, wal)
        data = json.loads(open(path).read())
        assert data["journal_seq"] == wal.position
        assert os.path.basename(path) == (
            f"checkpoint-{wal.position:016d}.json"
        )
        # Rotated segments wholly covered by the checkpoint are gone.
        assert len(wal_segments(tmp_path)) < rotated_before
        wal.close()

    def test_checkpoint_write_is_atomic(self, tmp_path):
        broker = fig8_broker()
        path = write_checkpoint(tmp_path, broker)
        assert not os.path.exists(path + ".tmp")
        assert json.loads(open(path).read())["version"] >= 2


class TestJournalEpochs:
    """A WAL an older build promoted carries epoch >= 1 in every record
    and checkpoint; it still opens, appends in the same format and
    recovers."""

    def test_epoch_survives_reopen(self, tmp_path):
        segment = os.path.join(tmp_path, f"wal-{1:016d}.log")
        with open(segment, "wb") as handle:
            handle.write(epoch_records(2, 1.0))
        wal = FileJournal(tmp_path, fsync=False)
        assert wal.epoch == 2
        wal.append("advance", {"now": 2.0})
        wal.close()
        reopened = FileJournal(tmp_path, fsync=False)
        assert reopened.epoch == 2
        assert [e.epoch for e in reopened.entries_after(0)] == [2, 2]
        reopened.close()
        # Byte for byte the record format the promoting build wrote.
        with open(segment, "rb") as handle:
            assert handle.read() == epoch_records(2, 1.0, 2.0)

    def test_checkpoint_v3_embeds_epoch(self, tmp_path):
        with open(os.path.join(tmp_path, f"wal-{1:016d}.log"),
                  "wb") as handle:
            handle.write(epoch_records(5, 1.0))
        broker = fig8_broker()
        wal = FileJournal(tmp_path, fsync=False)
        path = write_checkpoint(tmp_path, broker, wal)
        with open(path) as handle:
            data = json.load(handle)
        assert data["version"] == CHECKPOINT_VERSION
        assert data["epoch"] == 5
        wal.close()
        report = recover_broker(tmp_path)
        assert report.epoch == 5


class TestRecovery:
    def drive(self, service, count, *, start=0, cls_every=4):
        """Sequential acknowledged operations through the service."""
        admitted = []
        for offset in range(count):
            index = start + offset
            use_class = cls_every and index % cls_every == 0
            reply = service.request(
                f"f{index}", SPEC,
                0.0 if use_class else 2.44,
                "I1", "E1",
                service_class="gold" if use_class else "",
                now=float(index) * 10.0,
            )
            assert reply.status == "ok"
            if reply.admitted:
                admitted.append(f"f{index}")
            if len(admitted) > 4:
                down = service.teardown(
                    admitted.pop(0), now=float(index) * 10.0 + 5.0
                )
                assert down.status == "ok"
        return admitted

    def test_recover_replays_suffix_after_checkpoint(self, tmp_path):
        broker = fig8_broker()
        wal = FileJournal(tmp_path)
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            self.drive(svc, 10)
        write_checkpoint(tmp_path, broker, wal)
        marker = wal.position
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            self.drive(svc, 10, start=10)
        wal.close()

        report = recover_broker(tmp_path)
        assert report.checkpoint_seq == marker
        assert report.applied == wal.position - marker
        assert report.skipped == 0
        assert not report.torn_tail
        assert canonical(report.broker) == canonical(broker)

    def test_kill_mid_write_recovers_bit_identical(self, tmp_path):
        """The acceptance-criterion fault injection: truncate the
        journal mid-record (a crash tearing the write of an operation
        that was never acknowledged) and recover.  The recovered
        broker's checkpoint must be byte-identical to a survivor that
        executed exactly the durably-acknowledged prefix, and its next
        decisions must match."""
        broker = fig8_broker()
        wal = FileJournal(tmp_path)
        write_checkpoint(tmp_path, broker, wal)  # seq-0 topology anchor
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            self.drive(svc, 16)
        wal.close()

        # Survivor: a twin that executes only the acknowledged prefix —
        # all entries minus the final one, which the "crash" tears.
        entries = read_journal(tmp_path).entries
        survivor_report = recover_broker(
            tmp_path, broker_factory=fig8_broker
        )
        assert canonical(survivor_report.broker) == canonical(broker)

        path = os.path.join(tmp_path, wal_segments(tmp_path)[-1])
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)  # tear the final record

        with pytest.warns(RuntimeWarning):
            report = recover_broker(tmp_path)
        assert report.torn_tail
        assert report.last_seq == entries[-1].seq - 1

        # Bit-identity for the durably-acknowledged prefix: rebuild the
        # same prefix on a fresh twin and compare canonical bytes.
        twin = fig8_broker()
        from repro.core.journal import replay
        replay(twin, entries[:-1])
        assert canonical(report.broker) == canonical(twin)

        # And the recovered broker's *subsequent* decisions are
        # bit-identical to the twin's.
        d1 = report.broker.request_service(
            "probe", SPEC, 2.44, "I1", "E1", now=1000.0
        )
        d2 = twin.request_service(
            "probe", SPEC, 2.44, "I1", "E1", now=1000.0
        )
        assert (d1.admitted, d1.rate, d1.delay) == (
            d2.admitted, d2.rate, d2.delay
        )

    def test_recover_skips_corrupt_checkpoint(self, tmp_path):
        broker = fig8_broker()
        wal = FileJournal(tmp_path)
        write_checkpoint(tmp_path, broker, wal)
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            self.drive(svc, 6)
        good_seq = wal.position
        write_checkpoint(tmp_path, broker, wal)
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            self.drive(svc, 4, start=6)
        wal.close()
        # A newer checkpoint arrives torn (crash mid-rename window is
        # impossible, but disk corruption afterwards is not).
        bogus = os.path.join(
            tmp_path, f"checkpoint-{wal.position:016d}.json"
        )
        with open(bogus, "w") as handle:
            handle.write('{"version": 2, "journal_seq": ')

        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            report = recover_broker(tmp_path)
        assert report.checkpoint_seq == good_seq
        assert canonical(report.broker) == canonical(broker)

    def test_recover_falls_back_past_mangled_json_checkpoint(
        self, tmp_path
    ):
        """The newest checkpoint can be *valid JSON* yet structurally
        garbage (bit rot inside a string, a half-written value that
        still parses).  Recovery must fall back to the older good
        checkpoint — never crash on the shape mismatch."""
        broker = fig8_broker()
        wal = FileJournal(tmp_path)
        write_checkpoint(tmp_path, broker, wal)
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            self.drive(svc, 6)
        good_seq = wal.position
        write_checkpoint(tmp_path, broker, wal)
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            self.drive(svc, 4, start=6)
        wal.close()
        # Parses fine, restores not at all: links must be a list of
        # dicts, flows must be dicts — these raise TypeError/KeyError
        # inside restore_broker, not json.JSONDecodeError.
        bogus = os.path.join(
            tmp_path, f"checkpoint-{wal.position:016d}.json"
        )
        with open(bogus, "w") as handle:
            json.dump({
                "version": 3,
                "journal_seq": wal.position,
                "epoch": 0,
                "contingency_method": "bounding",
                "links": "notalist",
                "paths": [],
                "classes": [],
                "flows": [None],
                "macroflows": [],
            }, handle)

        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            report = recover_broker(tmp_path)
        assert report.checkpoint_seq == good_seq
        assert canonical(report.broker) == canonical(broker)

    def test_recover_without_checkpoint_needs_factory(self, tmp_path):
        wal = FileJournal(tmp_path)
        wal.append("advance", {"now": 1.0})
        wal.commit()
        wal.close()
        with pytest.raises(StateError, match="no usable checkpoint"):
            recover_broker(tmp_path)
        report = recover_broker(tmp_path, broker_factory=fig8_broker)
        assert report.applied == 1 and report.checkpoint_path is None

    def test_recover_reports_skipped_entries(self, tmp_path):
        """Recovery surfaces replayed-but-raising entries (the failed
        terminate the write-ahead discipline records) instead of
        silently counting them applied."""
        broker = fig8_broker()
        wal = FileJournal(tmp_path)
        write_checkpoint(tmp_path, broker, wal)
        with BrokerService(broker, workers=1, shards=2, wal=wal) as svc:
            reply = svc.request("f0", SPEC, 2.44, "I1", "E1", now=1.0)
            assert reply.admitted
        # A terminate that raises *inside the broker*, after the
        # write-ahead append: inject directly, as the service's
        # pre-check would answer ERROR without journaling.
        wal.append("terminate", {"flow_id": "ghost", "now": 2.0})
        wal.commit()
        wal.close()
        report = recover_broker(tmp_path)
        assert (report.applied, report.skipped) == (1, 1)
        assert canonical(report.broker) == canonical(broker)


class TestConcurrentDurability:
    def test_concurrent_service_recovers_identically(self, tmp_path):
        """Multi-worker, multi-client run over disjoint paths with the
        WAL attached: every acknowledged reply is durable, and
        recovery replays the journal to the same aggregate state the
        primary reached (canonical comparison — MIB insertion order
        may differ between a concurrent primary and its replay)."""
        broker = BandwidthBroker()
        pinned = provision_parallel_paths(broker, paths=4)
        wal = FileJournal(tmp_path)

        def factory() -> BandwidthBroker:
            twin = BandwidthBroker()
            provision_parallel_paths(twin, paths=4)
            return twin

        write_checkpoint(tmp_path, broker, wal)
        errors = []

        def client(index: int) -> None:
            nodes = pinned[index % len(pinned)]
            for iteration in range(12):
                flow_id = f"c{index}-r{iteration}"
                reply = service.request(
                    flow_id, SPEC, 2.44, nodes[0], nodes[-1],
                    path_nodes=nodes, now=float(iteration),
                )
                if reply.status != "ok":
                    errors.append(reply)
                    continue
                if reply.admitted and iteration % 2 == 0:
                    down = service.teardown(
                        flow_id, now=float(iteration) + 0.5
                    )
                    if down.status != "ok":
                        errors.append(down)

        with BrokerService(broker, workers=4, shards=4, wal=wal) as service:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wal.close()
        assert not errors

        report = recover_broker(tmp_path, broker_factory=factory)
        assert report.skipped == 0
        assert canonical(report.broker) == canonical(broker)
        stats_a = broker.stats()
        stats_b = report.broker.stats()
        assert stats_a.active_flows == stats_b.active_flows
        assert stats_a.qos_state_entries == stats_b.qos_state_entries

    def test_every_acknowledged_reply_is_durable(self, tmp_path):
        """The write-ahead contract under concurrency: at any moment,
        every flow whose admit was acknowledged `ok` has its journal
        entry already durable (replay reaches it)."""
        broker = BandwidthBroker()
        pinned = provision_parallel_paths(broker, paths=2)
        wal = FileJournal(tmp_path)
        acknowledged = []
        with BrokerService(broker, workers=2, shards=2, wal=wal) as svc:
            for index in range(10):
                nodes = pinned[index % 2]
                reply = svc.request(
                    f"f{index}", SPEC, 2.44, nodes[0], nodes[-1],
                    path_nodes=nodes, now=float(index),
                )
                if reply.status == "ok":
                    acknowledged.append(f"f{index}")
                    # Submissions are sequential here, so by the time
                    # the Nth reply resolves, at least N entries must
                    # already be durable — replies never outrun fsync.
                    assert wal.durable_position >= len(acknowledged), (
                        "reply resolved before its entry was committed"
                    )
        wal.close()
        journaled = {
            entry.payload["flow_id"]
            for entry in read_journal(tmp_path).entries
            if entry.kind == "request"
        }
        assert set(acknowledged) <= journaled
