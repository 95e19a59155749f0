"""Durable write-ahead journaling and crash recovery for the broker.

The paper's footnote 2 names broker reliability as the price of
centralizing a domain's QoS state.  :mod:`repro.core.journal` gives
the *logical* half of the answer — the record table and the one
:class:`~repro.core.journal.Replay` every reader folds records
through; every control operation is a deterministic function of
broker state and request inputs, so a log of inputs replays to
identical decisions.  This module is the *physical* half:

* :class:`FileJournal` — an append-only, file-backed journal of
  length-prefixed, CRC-checksummed JSON records with **segment
  rotation** and **group commit**: any number of worker threads append
  entries concurrently into one buffer, and one flush plus one
  ``fsync`` (issued by whichever caller of :meth:`FileJournal.commit`
  becomes the flush leader) cover every entry appended since the
  previous flush — durability cost is amortized across concurrent
  requests exactly like admission batching amortizes the
  schedulability scan;
* :func:`write_checkpoint` — atomically persists a broker checkpoint
  (:func:`~repro.core.persistence.checkpoint_broker`) that **embeds
  the journal sequence number** it is consistent with, then prunes
  journal segments wholly covered by it;
* :func:`recover_broker` — restores the newest *valid* checkpoint in
  a directory, replays the journal suffix recorded after it, and
  tolerates a torn tail record (the partial write of a crash mid-
  append): the tail is truncated with a warning, never a crash.  Its
  report *is* the replayed :class:`~repro.core.journal.Replay` that
  cluster shard recovery resumes from.

Record format (one record per journal entry)::

    +----------------+----------------+------------------------+
    | length: u32 BE | crc32:  u32 BE | payload: length bytes  |
    +----------------+----------------+------------------------+

where the payload is the UTF-8 JSON of
:meth:`~repro.core.journal.JournalEntry.to_dict`.  Segments are named
``wal-<first-seq>.log``; a segment's name is the sequence number of
its first record, so the segment covering any sequence number is
found without reading file contents.

Crash-consistency contract: a request's reply future is resolved only
*after* the group commit covering its journal entry returns, so every
**acknowledged** operation survives a crash; an operation whose entry
was torn by the crash was, by construction, never acknowledged.  A
journal whose ``fsync`` failed once refuses all further work (see
:class:`FileJournal`), so no later commit can acknowledge a record
the kernel may already have dropped.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import warnings
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple

from repro.core.broker import BandwidthBroker
from repro.core.journal import JournalEntry, Replay
from repro.core.persistence import checkpoint_broker, restore_broker
from repro.core.policy import PolicyModule
from repro.errors import StateError

__all__ = [
    "FileJournal",
    "JournalScan",
    "RecoveryReport",
    "read_journal",
    "recover_broker",
    "write_checkpoint",
]

#: ``(length, crc32)`` header prepended to every record.
_HEADER = struct.Struct(">II")


def _record_encoder() -> Callable[[Dict[str, Any]], str]:
    """``json.dumps(obj, separators=(",", ":"))`` with the C encoder
    built once (``JSONEncoder.encode`` builds one per call).  Records
    are plain JSON trees, so the circular-reference walk is skipped.
    Without the C accelerator the pure-Python encoder serves."""
    encoder = json.JSONEncoder(separators=(",", ":"), check_circular=False)
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    chunks = make(
        None, encoder.default, json.encoder.encode_basestring_ascii,
        None, encoder.key_separator, encoder.item_separator,
        encoder.sort_keys, encoder.skipkeys, encoder.allow_nan,
    )
    return lambda record: "".join(chunks(record, 0))


_encode = _record_encoder()

#: Default segment-rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".json"


def _fsync_dir(directory: str) -> None:
    """Flush a directory's entries (file creations/renames) to disk.

    An ``fsync`` on a file makes its *contents* durable but not the
    directory entry pointing at it — a crash right after segment
    rotation or a checkpoint rename could otherwise lose the new
    name.  Directory file descriptors are a POSIX notion; on other
    platforms this is a no-op.
    """
    if os.name != "posix":  # pragma: no cover - platform dependent
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:016d}{_SEGMENT_SUFFIX}"


def _checkpoint_name(journal_seq: int) -> str:
    return f"{_CHECKPOINT_PREFIX}{journal_seq:016d}{_CHECKPOINT_SUFFIX}"


def _list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(first_seq, path)`` of every journal segment, oldest first."""
    found = []
    for name in os.listdir(directory):
        if not (name.startswith(_SEGMENT_PREFIX)
                and name.endswith(_SEGMENT_SUFFIX)):
            continue
        stem = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            first_seq = int(stem)
        except ValueError:
            continue
        found.append((first_seq, os.path.join(directory, name)))
    return sorted(found)


def _list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """``(journal_seq, path)`` of every checkpoint, oldest first."""
    found = []
    for name in os.listdir(directory):
        if not (name.startswith(_CHECKPOINT_PREFIX)
                and name.endswith(_CHECKPOINT_SUFFIX)):
            continue
        stem = name[len(_CHECKPOINT_PREFIX):-len(_CHECKPOINT_SUFFIX)]
        try:
            seq = int(stem)
        except ValueError:
            continue
        found.append((seq, os.path.join(directory, name)))
    return sorted(found)


def _scan_segment(path: str) -> Tuple[List[JournalEntry], int, str]:
    """Parse one segment file.

    Returns ``(entries, valid_bytes, defect)`` where *valid_bytes* is
    the offset of the first byte that could not be parsed into a
    complete, checksummed record and *defect* describes why parsing
    stopped ("" when the whole file parsed cleanly).
    """
    entries: List[JournalEntry] = []
    offset = 0
    with open(path, "rb") as handle:
        data = handle.read()
    size = len(data)
    while offset < size:
        if size - offset < _HEADER.size:
            return entries, offset, "torn record header"
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if size - start < length:
            return entries, offset, "torn record payload"
        blob = data[start:start + length]
        if zlib.crc32(blob) != crc:
            return entries, offset, "record checksum mismatch"
        try:
            entry = JournalEntry.from_dict(json.loads(blob.decode("utf-8")))
        except (ValueError, KeyError, UnicodeDecodeError):
            return entries, offset, "undecodable record payload"
        entries.append(entry)
        offset = start + length
    return entries, offset, ""


@dataclass
class JournalScan:
    """The result of reading a journal directory from disk.

    :param entries: every decodable entry, in sequence order.
    :param torn_tail: a partial/corrupt record terminated the final
        segment (the signature of a crash mid-append).
    :param dropped_bytes: bytes discarded after the last good record.
    """

    entries: List[JournalEntry]
    torn_tail: bool = False
    dropped_bytes: int = 0


def read_journal(directory: str, *, repair: bool = False) -> JournalScan:
    """Read every journal entry under *directory*.

    A torn or corrupt record in the **final** segment is tolerated:
    parsing stops there, a warning is emitted, and with ``repair=True``
    the segment is truncated back to its last complete record so
    subsequent appends produce a clean log.  Corruption in any
    *earlier* segment is real damage (complete records followed it in
    a later segment) and raises :class:`~repro.errors.StateError`
    rather than silently dropping acknowledged operations.
    """
    segments = _list_segments(directory)
    scan = JournalScan(entries=[])
    last_seq: Optional[int] = None
    for index, (first_seq, path) in enumerate(segments):
        entries, valid_bytes, defect = _scan_segment(path)
        if defect:
            if index != len(segments) - 1:
                raise StateError(
                    f"journal segment {os.path.basename(path)!r} is "
                    f"corrupt mid-stream ({defect} at byte "
                    f"{valid_bytes}) but later segments exist"
                )
            total = os.path.getsize(path)
            scan.torn_tail = True
            scan.dropped_bytes = total - valid_bytes
            warnings.warn(
                f"journal segment {os.path.basename(path)!r}: {defect} "
                f"at byte {valid_bytes}; dropping {scan.dropped_bytes} "
                f"trailing byte(s) "
                f"({'truncating' if repair else 'left on disk'})",
                RuntimeWarning,
                stacklevel=2,
            )
            if repair:
                with open(path, "r+b") as handle:
                    handle.truncate(valid_bytes)
        for entry in entries:
            if last_seq is not None and entry.seq != last_seq + 1:
                raise StateError(
                    f"journal sequence gap: entry {entry.seq} follows "
                    f"{last_seq} in {os.path.basename(path)!r}"
                )
            last_seq = entry.seq
            scan.entries.append(entry)
    return scan


class FileJournal:
    """A durable, concurrent decision journal backed by segment files.

    Append is thread-safe and cheap: one encode and one buffered
    write under a lock.  Durability happens in :meth:`commit`, which
    implements **group commit**: the first committer becomes the
    flush leader, hands the buffered group to the OS with one flush
    and issues one ``fsync`` covering every entry
    appended before it ran — concurrent committers whose entries are
    covered simply wait for the leader instead of issuing their own
    ``fsync``.  The fsync runs without the append lock, so appends
    keep landing *during* it, growing the next group.

    Opening a directory with existing segments resumes the sequence
    from the last record on disk, repairing (truncating) a torn tail
    left by a crash.

    **Fail-stop.**  Once a flush or ``fsync`` raises, every later
    :meth:`append` and :meth:`commit` raises
    :class:`~repro.errors.StateError`.  A retried ``fsync`` may report
    success for dirty pages the kernel already dropped after the
    first error, so retrying would acknowledge records that are not on
    disk; the only way on is to reopen the directory and recover from
    what it holds.

    :param directory: journal directory (created if missing).
    :param segment_bytes: rotate to a fresh segment file once the
        active one reaches this size (checked at commit time, so a
        segment may overshoot by the last group).
    :param fsync: set ``False`` to skip the physical ``fsync`` calls
        (for tests and benchmarks of the non-durable configuration);
        all sequencing and group accounting still runs.
    """

    def __init__(self, directory, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync: bool = True) -> None:
        if segment_bytes < 1:
            raise StateError(
                f"segment size must be >= 1 byte, got {segment_bytes}"
            )
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.use_fsync = bool(fsync)
        # _io guards the active file handle and its buffer, sequence
        # assignment and the written-seq watermark; _sync guards the
        # group-commit watermark and leader election.  They are never
        # nested.  Only the leader swaps or closes the file (close()
        # waits for it), so its fsync may run without _io.
        self._io = threading.Lock()
        self._sync = threading.Condition()
        self._sync_running = False
        #: Entries appended, ever (includes pre-existing on-disk ones).
        self.appends = 0
        #: Physical flushes issued (leader fsyncs + rotation fsyncs).
        self.fsyncs = 0
        #: Largest number of entries one commit group covered.
        self.max_group = 0
        #: Why the journal stopped (the first flush/fsync error), or
        #: ``None`` while it works.
        self.failure: Optional[str] = None

        scan = read_journal(self.directory, repair=True)
        last = scan.entries[-1].seq if scan.entries else 0
        self._next_seq = last + 1
        self._written_seq = last
        self._synced_seq = last
        # Resume the highest epoch any record on disk carries: a WAL
        # an older build promoted keeps stamping its epoch, so the
        # record and checkpoint formats stay byte-identical.
        self._epoch = max(
            (entry.epoch for entry in scan.entries), default=0
        )
        segments = _list_segments(self.directory)
        if segments:
            path = segments[-1][1]
            fresh = False
        else:
            path = os.path.join(self.directory, _segment_name(self._next_seq))
            fresh = True
        self._file = open(path, "ab")
        if fresh and self.use_fsync:
            # The first segment's directory entry must survive a crash
            # just like a rotated one's (see _flush).
            _fsync_dir(self.directory)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, kind: str, payload: Dict[str, Any]) -> JournalEntry:
        """Buffer one entry into the active segment (no fsync); the
        commit leader's flush hands it to the OS with the rest of its
        group.

        The entry is stamped with the journal's epoch.  It is durable
        only after a subsequent :meth:`commit` returns — callers must
        not acknowledge the operation before that.
        """
        with self._io:
            self._check_usable()
            entry = JournalEntry(
                seq=self._next_seq, kind=kind, payload=payload,
                epoch=self._epoch,
            )
            blob = _encode(entry.to_dict()).encode("utf-8")
            try:
                self._file.write(
                    _HEADER.pack(len(blob), zlib.crc32(blob)) + blob
                )
            except OSError as exc:
                # A full buffer spilled to the OS and failed: the file
                # may now end in a torn record, so stop here too.
                self._fail(exc)
            self._next_seq = entry.seq + 1
            self._written_seq = entry.seq
            self.appends += 1
        return entry

    def _fail(self, exc: OSError) -> NoReturn:
        """Stop the journal for good on its first I/O error."""
        self.failure = f"{type(exc).__name__}: {exc}"
        raise StateError(f"journal failed: {self.failure}") from exc

    def _check_usable(self) -> None:
        if self.failure is not None:
            raise StateError(f"journal failed: {self.failure}")
        if self._file is None:
            raise StateError("journal is closed")

    def commit(self, upto: Optional[int] = None) -> int:
        """Make every entry up to *upto* (default: all appended so
        far) durable; returns the synced sequence number.

        Group commit: if a flush covering *upto* is already running,
        wait for it (or for a successor) instead of issuing another
        ``fsync``.  Raises :class:`~repro.errors.StateError` once the
        journal has failed (this flush's error included, chained).
        """
        with self._io:
            target = self._written_seq if upto is None else min(
                upto, self._written_seq
            )
        while True:
            with self._sync:
                if self.failure is not None:
                    raise StateError(f"journal failed: {self.failure}")
                if self._synced_seq >= target:
                    return self._synced_seq
                if self._sync_running:
                    self._sync.wait()
                    continue
                self._sync_running = True
                previous = self._synced_seq
            cover = previous
            try:
                cover = self._flush()
            except OSError as exc:
                self._fail(exc)
            finally:
                with self._sync:
                    if cover > self._synced_seq:
                        group = cover - previous
                        if group > self.max_group:
                            self.max_group = group
                        self._synced_seq = cover
                    self._sync_running = False
                    self._sync.notify_all()

    def _flush(self) -> int:
        """Leader body: one flush of the buffered group, one fsync of
        the active segment, then rotate it if it outgrew the
        threshold.  Returns the covered seq."""
        with self._io:
            if self._file is None:
                raise StateError("journal is closed")
            cover = self._written_seq
            self._file.flush()
            fd = self._file.fileno()
        # Outside _io: appends landing meanwhile only fill the buffer
        # for the next group.
        if self.use_fsync:
            os.fsync(fd)
        with self._io:
            self.fsyncs += 1
            if self._file.tell() >= self.segment_bytes:
                cover = self._rotate(cover)
        return cover

    def _rotate(self, cover: int) -> int:
        """Close the full active segment and open the next (leader,
        under ``_io``); returns the seq now durable.

        Entries appended during the leader's fsync sit in the old
        segment, and the next leader fsyncs only the new one, so they
        are made durable here, before their segment closes.
        """
        if self._written_seq > cover:
            self._file.flush()
            if self.use_fsync:
                os.fsync(self._file.fileno())
            self.fsyncs += 1
            cover = self._written_seq
        self._file.close()
        self._file = open(
            os.path.join(self.directory, _segment_name(self._next_seq)),
            "ab",
        )
        if self.use_fsync:
            # Make the new segment's directory entry durable: a crash
            # right after rotation must not lose the name the next
            # records land under.
            _fsync_dir(self.directory)
        return cover

    # ------------------------------------------------------------------
    # positions and reading
    # ------------------------------------------------------------------

    @property
    def position(self) -> int:
        """Sequence number of the latest appended entry (0 if none)."""
        with self._io:
            return self._written_seq

    @property
    def durable_position(self) -> int:
        """Sequence number covered by the latest completed flush."""
        with self._sync:
            return self._synced_seq

    @property
    def epoch(self) -> int:
        """The epoch stamped into newly appended entries (the highest
        on disk at open; 0 unless an older build promoted the WAL)."""
        return self._epoch

    def entries_after(self, seq: int) -> List[JournalEntry]:
        """All entries recorded after sequence number *seq*, including
        appended ones no commit covered yet (their buffer is handed to
        the OS first)."""
        with self._io:
            if self._file is not None:
                self._file.flush()
        return [
            entry
            for entry in read_journal(self.directory).entries
            if entry.seq > seq
        ]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def prune(self, upto_seq: int) -> List[str]:
        """Delete rotated segments wholly covered by *upto_seq*.

        A segment may go once every entry in it has sequence number
        ``<= upto_seq`` — i.e. the *next* segment starts at or before
        ``upto_seq + 1``.  The active segment is never deleted.
        Returns the removed paths.
        """
        removed: List[str] = []
        with self._io:
            active = self._file.name if self._file is not None else None
            segments = _list_segments(self.directory)
            for (first_seq, path), (next_first, _next_path) in zip(
                segments, segments[1:]
            ):
                if path == active:
                    continue
                if next_first <= upto_seq + 1:
                    os.remove(path)
                    removed.append(path)
        return removed

    def close(self) -> None:
        """Commit pending entries and close the active segment.

        Closing waits for a running commit leader (whose fsync uses
        the file without ``_io``) and holds off new ones meanwhile.  A
        failed journal still closes its file, then raises.
        """
        try:
            self.commit()
        finally:
            self._close_file()

    def _close_file(self) -> None:
        with self._sync:
            while self._sync_running:
                self._sync.wait()
            self._sync_running = True
        try:
            with self._io:
                handle, self._file = self._file, None
                if handle is not None:
                    handle.close()
        finally:
            with self._sync:
                self._sync_running = False
                self._sync.notify_all()


# ----------------------------------------------------------------------
# checkpointing and recovery
# ----------------------------------------------------------------------


def write_checkpoint(directory, broker: BandwidthBroker,
                     journal: Optional[FileJournal] = None) -> str:
    """Atomically persist a checkpoint of *broker* into *directory*.

    The checkpoint embeds the journal position it is consistent with
    (``journal.position`` after a final group commit; 0 without a
    journal) and the journal's epoch, is written via temp-file +
    rename + a directory fsync so a crash mid-write can never leave a
    half checkpoint under a valid name — nor lose the renamed entry
    itself — and finally prunes journal segments the checkpoint makes
    redundant.  Returns the checkpoint path.

    The caller must quiesce the broker (e.g. stop the service, or
    call between requests) so the serialized state actually reflects
    every journal entry up to the embedded position.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    seq = 0
    if journal is not None:
        seq = journal.commit()
    epoch = journal.epoch if journal is not None else 0
    data = checkpoint_broker(broker, journal_seq=seq, epoch=epoch)
    path = os.path.join(directory, _checkpoint_name(seq))
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_dir(directory)
    if journal is not None:
        journal.prune(seq)
    return path


class RecoveryReport(Replay):
    """The :class:`~repro.core.journal.Replay` :func:`recover_broker`
    rebuilt, and from where.

    The replayed state carries the recovered ``broker``, ready to
    serve, the 2PC and coordinator tables, and ``applied``/``skipped``
    counts (skipped entries raised the live service's deterministic
    failure — reported, not silently applied).  Recovery adds:

    :ivar checkpoint_path: the checkpoint restored (``None`` when
        recovery started from a caller-provided factory broker).
    :ivar checkpoint_seq: journal position embedded in it.
    :ivar torn_tail: the journal ended in a partial record that was
        dropped (the crash signature; the torn operation was never
        acknowledged).
    :ivar last_seq: sequence number of the last replayed entry
        (``checkpoint_seq`` when the suffix was empty).
    :ivar epoch: the highest epoch in the restored checkpoint or any
        record (0 unless an older build promoted the directory).
    """

    checkpoint_path: Optional[str] = None
    checkpoint_seq = 0
    torn_tail = False
    last_seq = 0
    epoch = 0


def recover_broker(
    directory,
    *,
    policy: Optional[PolicyModule] = None,
    broker_factory: Optional[Callable[[], BandwidthBroker]] = None,
    repair: bool = True,
) -> RecoveryReport:
    """Rebuild a broker from *directory* after a crash.

    Restores the newest checkpoint that parses and restores cleanly
    (corrupt ones are warned about and skipped in favor of older
    ones), then replays the journal suffix recorded after its embedded
    position.  A torn tail record is truncated with a warning when
    ``repair`` is true — never a crash: the torn operation was never
    acknowledged, so dropping it preserves the durability contract.

    Without any usable checkpoint the journal alone cannot seed a
    broker (topology provisioning is not journaled), so a
    *broker_factory* producing the provisioned-but-empty broker must
    be supplied for cold recovery; otherwise :class:`StateError`.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise StateError(f"no such recovery directory: {directory!r}")
    report: Optional[RecoveryReport] = None
    for seq, path in reversed(_list_checkpoints(directory)):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            broker = restore_broker(data, policy=policy)
        # TypeError/AttributeError cover structurally mangled
        # checkpoints that *parse* as JSON (wrong shapes, nulls where
        # dicts belong): the newest checkpoint being garbage must mean
        # falling back to an older one, never a failed recovery.
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError, StateError) as exc:
            warnings.warn(
                f"skipping unusable checkpoint "
                f"{os.path.basename(path)!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        report = RecoveryReport(broker)
        report.checkpoint_path = path
        report.checkpoint_seq = int(data.get("journal_seq", seq))
        report.epoch = int(data.get("epoch", 0))
        break
    if report is None:
        if broker_factory is None:
            raise StateError(
                f"no usable checkpoint in {directory!r} and no "
                "broker_factory for cold recovery"
            )
        report = RecoveryReport(broker_factory())
    scan = read_journal(directory, repair=repair)
    suffix = [e for e in scan.entries if e.seq > report.checkpoint_seq]
    report.apply(suffix)
    report.torn_tail = scan.torn_tail
    report.last_seq = suffix[-1].seq if suffix else report.checkpoint_seq
    report.epoch = max(
        [report.epoch] + [entry.epoch for entry in scan.entries]
    )
    return report
