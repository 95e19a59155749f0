"""Observability for the concurrent broker service runtime.

:class:`ServiceStats` is the immutable snapshot the operator sees —
queue depth, shed counts, batch shape and service-time percentiles —
and :class:`StatsRecorder` is the lock-guarded accumulator the worker
threads write into.  Workers record each reply exactly once, so a
snapshot's counters always reconcile:

``submitted == completed + shed + expired + queue_depth + in_flight``

where ``in_flight`` is the handful of requests a worker has dequeued
but not yet answered.  Service times are kept in a bounded reservoir
(the most recent :data:`SAMPLE_WINDOW` replies), which bounds memory
for a long-lived daemon while keeping the p50/p99 responsive to the
current load level.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Tuple

__all__ = [
    "ServiceStats",
    "StatsRecorder",
    "SAMPLE_WINDOW",
    "prometheus_exposition",
]

#: Size of the service-time reservoir (most recent replies).
SAMPLE_WINDOW = 4096


def _percentile(ordered: Tuple[float, ...], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[rank]


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of the service runtime's counters.

    :param workers: size of the worker pool.
    :param shards: number of link-state shards.
    :param queue_capacity: bound of the request queue.
    :param queue_depth: requests waiting at snapshot time.
    :param submitted: requests accepted into the queue, ever.
    :param completed: requests answered with a real decision.
    :param admitted: completed requests whose decision admitted.
    :param rejected: completed requests rejected by admission control.
    :param shed: requests answered ``TRY_AGAIN`` because the queue was
        full at submit time (backpressure, never evaluated).
    :param expired: requests answered ``TRY_AGAIN`` because their
        deadline passed while queued (graceful degradation).
    :param errors: requests that raised inside the worker (the
        exception text is returned in the reply detail).
    :param batches: admission batches executed.
    :param batched_requests: requests served through those batches
        (``batched_requests / batches`` is the mean batch size).
    :param max_batch: largest batch coalesced so far.
    :param p50_ms: median service time (submit -> reply) over the
        sample window, milliseconds.
    :param p99_ms: 99th-percentile service time, milliseconds.
    :param shard_acquisitions: per-shard lock acquisition counts.
    :param shard_contention: per-shard counts of acquisitions that
        had to wait for another worker (the contention signal that
        says whether more shards would help).
    :param wal_appends: write-ahead journal entries appended (0 when
        the service runs without a WAL).
    :param wal_fsyncs: physical journal flushes issued;
        ``wal_appends / wal_fsyncs`` is the mean group-commit size —
        the amortization the durable throughput grid measures.
    :param wal_max_group: largest number of entries one flush covered.
    :param ledger_updates: incremental (O(log M)) deadline-ledger point
        updates applied across all links — each one is a prefix-sum
        rebuild the pre-incremental engine would have paid O(M) for.
    :param ledger_compactions: lazy ledger index compactions (the
        amortized O(M) events; ``ledger_updates / ledger_compactions``
        shows how much churn each compaction absorbed).
    :param bp_delta_folds: path breakpoint refreshes served by folding
        published ledger deltas into the cached merged view.
    :param bp_full_rebuilds: path breakpoint refreshes that re-merged
        every hop (first use or subscription gap) — the rebuilds the
        delta subscription avoided is ``bp_delta_folds``.
    :param scan_tests: Figure-4 mixed-path admission scans executed.
    :param scan_intervals: deadline intervals those scans visited;
        ``scan_intervals / scan_tests`` is the mean scan length.
    :param scan_early_breaks: scans that stopped with intervals left
        unvisited: intervals are visited in ascending order of their
        lower bound on the rate, and the next bound could no longer
        beat the best verified candidate.
    :param scan_verifications: ground-truth ``DeadlineLedger.admissible``
        sweeps those scans ran, one per delay-based hop a candidate was
        checked at (O(M) each — the scan's dominant per-candidate cost).
    :param feedbacks: Section 4.2.1 edge-feedback operations served
        (``op="feedback"``) — a macroflow's edge conditioner reported
        its buffer drained.
    :param feedback_released: contingency allocations those feedbacks
        released ahead of their eq.-(17) expiry.
    :param aggregate_feedback_events: broker-side count of feedback
        signals that actually released at least one allocation
        (:attr:`AggregateAdmission.feedback_events` — distinct from
        ``feedbacks``, which counts served operations including
        no-ops under the bounding method).
    :param aggregate_feedback_releases: total allocations those events
        released (:attr:`AggregateAdmission.feedback_releases`).
    :param adapt_shrinks: committed macroflow shrinks (the adaptive
        controller's Theorem 2/3-in-reverse re-dimensioning).
    :param adapt_inflates: committed pre-inflations (EWMA trend above
        the hysteresis band).
    :param adapt_rate_reclaimed: bandwidth returned by shrinks, b/s
        summed over all commits.
    :param adapt_rate_pregranted: bandwidth pre-granted by inflations,
        b/s summed over all commits.
    :param telemetry_reports: edge utilization report frames accepted
        into the telemetry store (0 when none is attached).
    :param telemetry_samples: individual samples those reports carried.
    :param callback_errors: reply done-callbacks that raised on a
        worker; each was swallowed so the rest of its batch still
        resolved (non-zero means a front-end callback has a bug).
    """

    workers: int
    shards: int
    queue_capacity: int
    queue_depth: int
    submitted: int
    completed: int
    admitted: int
    rejected: int
    shed: int
    expired: int
    errors: int
    batches: int
    batched_requests: int
    max_batch: int
    p50_ms: float
    p99_ms: float
    shard_acquisitions: Tuple[int, ...]
    shard_contention: Tuple[int, ...]
    wal_appends: int = 0
    wal_fsyncs: int = 0
    wal_max_group: int = 0
    ledger_updates: int = 0
    ledger_compactions: int = 0
    bp_delta_folds: int = 0
    bp_full_rebuilds: int = 0
    scan_tests: int = 0
    scan_intervals: int = 0
    scan_early_breaks: int = 0
    scan_verifications: int = 0
    feedbacks: int = 0
    feedback_released: int = 0
    aggregate_feedback_events: int = 0
    aggregate_feedback_releases: int = 0
    adapt_shrinks: int = 0
    adapt_inflates: int = 0
    adapt_rate_reclaimed: float = 0.0
    adapt_rate_pregranted: float = 0.0
    telemetry_reports: int = 0
    telemetry_samples: int = 0
    callback_errors: int = 0

    @property
    def mean_batch(self) -> float:
        """Mean coalesced batch size (1.0 when nothing ever batched)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def try_again_total(self) -> int:
        """Requests answered ``TRY_AGAIN`` for any reason."""
        return self.shed + self.expired

    @property
    def wal_mean_group(self) -> float:
        """Mean entries per journal flush (0.0 without a WAL)."""
        return self.wal_appends / self.wal_fsyncs if self.wal_fsyncs else 0.0

    @property
    def mean_scan_intervals(self) -> float:
        """Mean deadline intervals visited per Figure-4 scan."""
        return self.scan_intervals / self.scan_tests if self.scan_tests else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the bench artifacts)."""
        return {
            "workers": self.workers,
            "shards": self.shards,
            "queue_capacity": self.queue_capacity,
            "queue_depth": self.queue_depth,
            "submitted": self.submitted,
            "completed": self.completed,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "expired": self.expired,
            "errors": self.errors,
            "batches": self.batches,
            "mean_batch": round(self.mean_batch, 3),
            "max_batch": self.max_batch,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "shard_acquisitions": list(self.shard_acquisitions),
            "shard_contention": list(self.shard_contention),
            "wal_appends": self.wal_appends,
            "wal_fsyncs": self.wal_fsyncs,
            "wal_mean_group": round(self.wal_mean_group, 3),
            "wal_max_group": self.wal_max_group,
            "ledger_updates": self.ledger_updates,
            "ledger_compactions": self.ledger_compactions,
            "bp_delta_folds": self.bp_delta_folds,
            "bp_full_rebuilds": self.bp_full_rebuilds,
            "scan_tests": self.scan_tests,
            "scan_intervals": self.scan_intervals,
            "mean_scan_intervals": round(self.mean_scan_intervals, 3),
            "scan_early_breaks": self.scan_early_breaks,
            "scan_verifications": self.scan_verifications,
            "feedbacks": self.feedbacks,
            "feedback_released": self.feedback_released,
            "aggregate_feedback_events": self.aggregate_feedback_events,
            "aggregate_feedback_releases":
                self.aggregate_feedback_releases,
            "adapt_shrinks": self.adapt_shrinks,
            "adapt_inflates": self.adapt_inflates,
            "adapt_rate_reclaimed": round(self.adapt_rate_reclaimed, 1),
            "adapt_rate_pregranted": round(self.adapt_rate_pregranted, 1),
            "telemetry_reports": self.telemetry_reports,
            "telemetry_samples": self.telemetry_samples,
            "callback_errors": self.callback_errors,
        }


#: Snapshot fields that are point-in-time values, not monotonic
#: counts — typed ``gauge`` in the exposition; everything else is a
#: lifetime count and typed ``counter``.
_PROM_GAUGES = frozenset((
    "workers", "shards", "queue_capacity", "queue_depth",
    "p50_ms", "p99_ms",
    "mean_batch", "max_batch", "mean_scan_intervals",
    "wal_mean_group", "wal_max_group",
))


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def prometheus_exposition(stats, *,
                          labels: Dict[str, str] = None) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    One metric per counter under the ``repro_service_`` namespace.
    Scalar fields carry the caller's *labels* verbatim (e.g.
    ``{"broker": "bb-0"}``); the per-shard lock counters additionally
    get a ``shard`` label per element — so one scrape of a sharded
    service stays a flat sample set.

    *stats* is a :class:`ServiceStats` or an ``as_dict()``-shaped
    mapping — the latter is how cross-process snapshots (a remote
    shard's ``stats`` frame) are rendered without reconstructing the
    dataclass.
    """
    labels = dict(labels or {})
    lines = []

    def emit(name: str, value, extra: Dict[str, str] = None) -> None:
        kind = "gauge" if name in _PROM_GAUGES else "counter"
        metric = f"repro_service_{name}"
        lines.append(f"# TYPE {metric} {kind}")
        merged = dict(labels)
        if extra:
            merged.update(extra)
        if isinstance(value, float):
            rendered = repr(round(value, 6))
        else:
            rendered = str(value)
        lines.append(f"{metric}{_prom_labels(merged)} {rendered}")

    data = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    for key, value in data.items():
        if key in ("shard_acquisitions", "shard_contention"):
            kind = "counter"
            metric = f"repro_service_{key}"
            lines.append(f"# TYPE {metric} {kind}")
            for index, count in enumerate(value):
                merged = dict(labels, shard=str(index))
                lines.append(
                    f"{metric}{_prom_labels(merged)} {count}"
                )
        else:
            emit(key, value)
    return "\n".join(lines) + "\n"


class StatsRecorder:
    """Lock-guarded accumulator behind :class:`ServiceStats`.

    Every method takes the internal lock, so workers and observers may
    call concurrently; none is held while admission math runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.expired = 0
        self.errors = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch = 0
        self.feedbacks = 0
        self.feedback_released = 0
        self.callback_errors = 0
        self._samples: Deque[float] = deque(maxlen=SAMPLE_WINDOW)

    def on_submit(self) -> None:
        with self._lock:
            self.submitted += 1

    def on_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def on_expired(self, service_time: float) -> None:
        with self._lock:
            self.expired += 1
            self._samples.append(service_time)

    def on_error(self, service_time: float) -> None:
        with self._lock:
            self.errors += 1
            self.completed += 1
            self._samples.append(service_time)

    def on_reply(self, outcome: str, service_time: float) -> None:
        """Record a real decision: ``admitted`` / ``rejected`` for
        admissions, ``done`` for completed teardowns."""
        with self._lock:
            self.completed += 1
            if outcome == "admitted":
                self.admitted += 1
            elif outcome == "rejected":
                self.rejected += 1
            self._samples.append(service_time)

    def on_feedback(self, released: int) -> None:
        """An edge-feedback operation released *released* allocations."""
        with self._lock:
            self.feedbacks += 1
            self.feedback_released += released

    def on_callback_error(self, count: int) -> None:
        """*count* done-callbacks of one reply raised (and were
        swallowed)."""
        with self._lock:
            self.callback_errors += count

    def retry_hint(self, queue_depth: int, workers: int) -> float:
        """A machine-readable retry-after suggestion, in seconds.

        When a submit is shed, the client's best move is to come back
        once the backlog has drained: the hint is the queued work
        (``queue_depth`` requests) divided across the worker pool at
        the recent median service time.  With no samples yet (cold
        service) a small constant keeps the first retries prompt
        without stampeding.
        """
        with self._lock:
            if self._samples:
                ordered = tuple(sorted(self._samples))
                p50 = _percentile(ordered, 0.50)
            else:
                p50 = 0.0
        if p50 <= 0.0:
            p50 = 0.005
        hint = p50 * max(1, queue_depth) / max(1, workers)
        return min(5.0, max(0.001, hint))

    def on_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            if size > self.max_batch:
                self.max_batch = size

    def snapshot(
        self,
        *,
        workers: int,
        shards: int,
        queue_capacity: int,
        queue_depth: int,
        shard_acquisitions: Tuple[int, ...],
        shard_contention: Tuple[int, ...],
        wal_appends: int = 0,
        wal_fsyncs: int = 0,
        wal_max_group: int = 0,
        ledger_updates: int = 0,
        ledger_compactions: int = 0,
        bp_delta_folds: int = 0,
        bp_full_rebuilds: int = 0,
        scan_tests: int = 0,
        scan_intervals: int = 0,
        scan_early_breaks: int = 0,
        scan_verifications: int = 0,
        aggregate_feedback_events: int = 0,
        aggregate_feedback_releases: int = 0,
        adapt_shrinks: int = 0,
        adapt_inflates: int = 0,
        adapt_rate_reclaimed: float = 0.0,
        adapt_rate_pregranted: float = 0.0,
        telemetry_reports: int = 0,
        telemetry_samples: int = 0,
    ) -> ServiceStats:
        """A consistent :class:`ServiceStats` at this instant."""
        with self._lock:
            ordered = tuple(sorted(self._samples))
            return ServiceStats(
                workers=workers,
                shards=shards,
                queue_capacity=queue_capacity,
                queue_depth=queue_depth,
                submitted=self.submitted,
                completed=self.completed,
                admitted=self.admitted,
                rejected=self.rejected,
                shed=self.shed,
                expired=self.expired,
                errors=self.errors,
                batches=self.batches,
                batched_requests=self.batched_requests,
                max_batch=self.max_batch,
                p50_ms=_percentile(ordered, 0.50) * 1000.0,
                p99_ms=_percentile(ordered, 0.99) * 1000.0,
                shard_acquisitions=shard_acquisitions,
                shard_contention=shard_contention,
                wal_appends=wal_appends,
                wal_fsyncs=wal_fsyncs,
                wal_max_group=wal_max_group,
                ledger_updates=ledger_updates,
                ledger_compactions=ledger_compactions,
                bp_delta_folds=bp_delta_folds,
                bp_full_rebuilds=bp_full_rebuilds,
                scan_tests=scan_tests,
                scan_intervals=scan_intervals,
                scan_early_breaks=scan_early_breaks,
                scan_verifications=scan_verifications,
                feedbacks=self.feedbacks,
                feedback_released=self.feedback_released,
                aggregate_feedback_events=aggregate_feedback_events,
                aggregate_feedback_releases=aggregate_feedback_releases,
                adapt_shrinks=adapt_shrinks,
                adapt_inflates=adapt_inflates,
                adapt_rate_reclaimed=adapt_rate_reclaimed,
                adapt_rate_pregranted=adapt_rate_pregranted,
                telemetry_reports=telemetry_reports,
                telemetry_samples=telemetry_samples,
                callback_errors=self.callback_errors,
            )
