"""Closed-loop load driver for the broker service runtime.

Models the paper's Section 5 setup-latency experiment as a load test:
each of C client threads plays an ingress edge router that signals an
admit, waits for the reply, tears an admitted flow down, and
immediately signals the next flow — a *closed loop*, so offered load
self-adjusts to the service's capacity and the interesting outputs
are throughput and the response-time distribution.

Also provides :func:`provision_parallel_paths`, the link-disjoint
fan of ingress->core->egress chains used by ``repro stats`` and the
``edge_pipelined``/``engine_deep`` workloads of
``python -m benchmarks.e2e``: with the paths disjoint, shard
parallelism is the only coupling between clients.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import clock
from repro.core.broker import BandwidthBroker
from repro.service.runtime import BrokerService, ServiceReply
from repro.service.stats import ServiceStats
from repro.traffic.spec import TSpec
from repro.units import bytes_, mbps
from repro.vtrs.timestamps import SchedulerKind

__all__ = [
    "FlowTemplate",
    "LoadReport",
    "provision_parallel_paths",
    "run_closed_loop",
]


@dataclass(frozen=True)
class FlowTemplate:
    """What one load-generator client repeatedly asks for."""

    spec: TSpec
    delay_requirement: float
    ingress: str
    egress: str
    service_class: str = ""
    path_nodes: Optional[Tuple[str, ...]] = None


@dataclass
class LoadReport:
    """Aggregate outcome of one closed-loop run."""

    clients: int
    requests: int          # admit attempts across all clients
    operations: int        # admits + teardowns actually answered
    admitted: int
    rejected: int
    shed: int              # TRY_AGAIN answers
    errors: int
    duration: float        # wall seconds, first submit -> last reply
    latencies: List[float] = field(default_factory=list)
    stats: Optional[ServiceStats] = None

    @property
    def throughput_rps(self) -> float:
        """Answered operations per wall-clock second."""
        return self.operations / self.duration if self.duration > 0 else 0.0

    def latency_ms(self, fraction: float) -> float:
        """Nearest-rank latency percentile over all replies, ms."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = math.ceil(fraction * len(ordered)) - 1
        rank = max(0, min(len(ordered) - 1, rank))
        return ordered[rank] * 1000.0

    def as_dict(self) -> Dict[str, object]:
        data = {
            "clients": self.clients,
            "requests": self.requests,
            "operations": self.operations,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "errors": self.errors,
            "duration_s": round(self.duration, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.latency_ms(0.50), 3),
            "p99_ms": round(self.latency_ms(0.99), 3),
        }
        if self.stats is not None:
            data["service"] = self.stats.as_dict()
        return data


def provision_parallel_paths(
    broker: BandwidthBroker,
    *,
    paths: int = 8,
    hops: int = 3,
    capacity: float = mbps(45),
    max_packet: float = bytes_(1500),
    delay_hops: int = 0,
) -> List[Tuple[str, ...]]:
    """Provision *paths* link-disjoint chains ``Ik -> Ck1.. -> Ek``.

    By default every link is rate-based (the hoistable fast path of
    the admission batcher), sized so the benchmark workloads are
    admission-conflict-free.  With ``delay_hops`` > 0 the last that
    many hops of each chain are delay-based instead, which routes the
    workload through the Figure-4 mixed scan and the incremental
    deadline ledgers — the configuration that exercises the
    incremental admission engine's counters.  Returns the pinned node
    sequences, one per path, for use as :class:`FlowTemplate` pins.
    """
    pinned: List[Tuple[str, ...]] = []
    for index in range(paths):
        nodes = [f"I{index}"]
        nodes += [f"C{index}_{hop}" for hop in range(1, hops)]
        nodes.append(f"E{index}")
        total = len(nodes) - 1
        for hop_index, (src, dst) in enumerate(zip(nodes, nodes[1:])):
            kind = (
                SchedulerKind.DELAY_BASED
                if hop_index >= total - delay_hops
                else SchedulerKind.RATE_BASED
            )
            broker.add_link(
                src, dst, capacity, kind, max_packet=max_packet,
            )
        broker.routing.pin_path(nodes)
        pinned.append(tuple(nodes))
    return pinned


def run_closed_loop(
    service: BrokerService,
    templates: Sequence[FlowTemplate],
    *,
    clients: int = 8,
    requests_per_client: int = 50,
) -> LoadReport:
    """Drive *service* with a closed loop of admit+teardown clients.

    Client *i* cycles template ``templates[i % len(templates)]`` —
    with one template per disjoint path and ``clients`` a multiple of
    ``len(templates)``, load spreads evenly across the shards.  Flow
    ids are unique per (client, iteration), so replaying the identical
    trace sequentially reproduces the decisions (the stress tests'
    reconciliation property).  Each admitted flow is torn down before
    the client's next admit, keeping the domain in steady state so
    every admit sees the same residual capacity.
    """
    if not templates:
        raise ValueError("need at least one flow template")
    reports: List[Tuple[List[ServiceReply], List[float]]] = [
        ([], []) for _ in range(clients)
    ]
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        template = templates[index % len(templates)]
        replies, latencies = reports[index]
        barrier.wait()
        for iteration in range(requests_per_client):
            flow_id = f"c{index}-r{iteration}"
            reply = service.request(
                flow_id,
                template.spec,
                template.delay_requirement,
                template.ingress,
                template.egress,
                service_class=template.service_class,
                path_nodes=template.path_nodes,
            )
            replies.append(reply)
            latencies.append(reply.service_time)
            if reply.admitted:
                down = service.teardown(flow_id)
                replies.append(down)
                latencies.append(down.service_time)

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = clock.now()
    for thread in threads:
        thread.join()
    duration = clock.now() - started

    report = LoadReport(
        clients=clients,
        requests=clients * requests_per_client,
        operations=0,
        admitted=0,
        rejected=0,
        shed=0,
        errors=0,
        duration=duration,
        stats=service.stats(),
    )
    for replies, latencies in reports:
        report.latencies.extend(latencies)
        for reply in replies:
            report.operations += 1
            if reply.try_again:
                report.shed += 1
            elif reply.status != "ok":
                report.errors += 1
            elif reply.request.op == "admit":
                if reply.admitted:
                    report.admitted += 1
                else:
                    report.rejected += 1
    return report
