"""Concurrent broker service runtime (the daemon over the library).

The paper centralizes QoS control in one bandwidth broker; this
package is the serving layer that lets that single broker sustain
heavy signaling load: a bounded-queue worker pool with per-request
deadlines and ``TRY_AGAIN`` backpressure
(:class:`~repro.service.runtime.BrokerService`), sharded link-state
locking so disjoint paths admit in parallel
(:class:`~repro.service.shards.LinkShards`), admission batching that
amortizes the schedulability scan across coalesced arrivals
(:mod:`repro.service.batching`), a durable write-ahead journal with
group commit and crash recovery
(:mod:`repro.service.durability`), the framed connections every
inter-process protocol runs over (:mod:`repro.service.transport`),
and a closed-loop load driver for throughput studies
(:mod:`repro.service.loadgen`); see ``docs/SERVICE.md`` for the
architecture sketch and knobs.
"""

from repro.service.batching import AdmissionBatcher, batch_key
from repro.service.durability import (
    FileJournal,
    JournalScan,
    RecoveryReport,
    read_journal,
    recover_broker,
    write_checkpoint,
)
from repro.service.loadgen import (
    FlowTemplate,
    LoadReport,
    provision_parallel_paths,
    run_closed_loop,
)
from repro.service.runtime import (
    ERROR,
    EXPIRED,
    OK,
    SHED,
    BrokerService,
    PendingReply,
    ServiceReply,
    ServiceRequest,
)
from repro.service.shards import LinkShards
from repro.service.stats import (
    ServiceStats,
    StatsRecorder,
    prometheus_exposition,
)
from repro.service.transport import (
    PipeConnection,
    TcpConnection,
    TcpListener,
    TransportClosed,
    connect_tcp,
    pipe_pair,
)

__all__ = [
    "AdmissionBatcher",
    "batch_key",
    "FileJournal",
    "JournalScan",
    "RecoveryReport",
    "read_journal",
    "recover_broker",
    "write_checkpoint",
    "BrokerService",
    "PendingReply",
    "ServiceReply",
    "ServiceRequest",
    "LinkShards",
    "ServiceStats",
    "StatsRecorder",
    "prometheus_exposition",
    "FlowTemplate",
    "LoadReport",
    "provision_parallel_paths",
    "run_closed_loop",
    "OK",
    "SHED",
    "EXPIRED",
    "ERROR",
    "PipeConnection",
    "TcpConnection",
    "TcpListener",
    "TransportClosed",
    "connect_tcp",
    "pipe_pair",
]
