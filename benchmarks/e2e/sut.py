"""Entry point of the system under test (SUT).

The harness starts ``python -m benchmarks.e2e.sut <kind> <run_dir>``
as a fresh process (in its own session) per set-up, so the generator
never shares an interpreter with the code it measures.  Kinds:

``rest``
    the full stack: ``ControlPlaneServer``/``ControlPlaneApp`` over
    two ``EdgeAgent`` s, one gateway worker process, the
    ``CoordinatorServer`` and two durable shard processes.
``cluster``
    the same without the REST tier (the ladder's ``edge`` boundary).
``edge``
    one process: ``EdgeGateway`` over ``BrokerService`` over a
    ``FileJournal`` (the ``edge_pipelined`` workload).

Protocol on stdin/stdout, one JSON document per line: the SUT prints
``{"ready": true, "host": ..., "port": ...}`` once it serves, then
answers ``stats`` (cumulative counters from public snapshots) and
``verify`` (flows, link loads and 2PC holds still in the brokers).
``quit`` — or end of input, which is what a killed harness looks like
— stops the stack, drains the child processes and exits.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.cluster import build_proc_cluster
from repro.controlplane import ControlPlaneApp, ControlPlaneServer
from repro.core.broker import BandwidthBroker
from repro.edge.agent import EdgeAgent, tcp_connector
from repro.edge.gateway import EdgeGateway
from repro.service.durability import FileJournal
from repro.service.loadgen import provision_parallel_paths
from repro.service.runtime import BrokerService

from benchmarks.e2e import domain

Handlers = Dict[str, Callable[[], Dict[str, Any]]]

#: ServiceStats fields that are lifetime counts (safe to sum across
#: shards and to difference across a measured phase).
_SERVICE_COUNTS = (
    "batches", "shed", "expired", "errors", "wal_appends", "wal_fsyncs",
    "scan_tests", "scan_intervals", "scan_early_breaks",
    "ledger_updates", "bp_delta_folds", "bp_full_rebuilds",
)


def service_counters(snapshots: Iterable[Dict[str, Any]]
                     ) -> Dict[str, float]:
    """Sum ``ServiceStats.as_dict()`` snapshots into ``service.*``
    counters (``batched`` is recovered from the mean batch size)."""
    totals = {f"service.{name}": 0.0 for name in _SERVICE_COUNTS}
    totals["service.batched"] = 0.0
    for snapshot in snapshots:
        for name in _SERVICE_COUNTS:
            totals[f"service.{name}"] += snapshot[name]
        totals["service.batched"] += (
            snapshot["mean_batch"] * snapshot["batches"])
    return totals


def _proc_cluster(run_dir: str, stack: contextlib.ExitStack):
    cluster = build_proc_cluster(
        domain.REST_SHARDS, run_dir=run_dir, pods=domain.REST_PODS,
        capacity=domain.REST_CAPACITY, durable=True, fsync=True,
        gateway_workers=1, gateway_lease=1e9,
    )
    stack.enter_context(cluster)
    return cluster


def _cluster_stats(cluster) -> Dict[str, float]:
    merged = cluster.merged_stats()
    coordinator = merged["coordinator"]
    stats = service_counters(
        shard["service"] for shard in merged["shards"].values())
    stats.update({
        "cluster.coordinator.local_admits": coordinator["local_admits"],
        "cluster.coordinator.spanning_commits":
            coordinator["spanning_commits"],
        "cluster.coordinator.spanning_aborts":
            coordinator["spanning_aborts"],
        "cluster.procs.reconnects": sum(merged["reconnects"].values()),
        "cluster.procs.restarts":
            merged["supervisor"]["restarts_total"],
    })
    return stats


def _cluster_verify(cluster) -> Dict[str, Any]:
    flows = set()
    for shard_flows in cluster.flows().values():
        flows.update(shard_flows)
    return {
        "flows": sorted(flows),
        "holds": [list(hold) for hold in cluster.outstanding_holds()],
        "unresolved": cluster.coordinator.unresolved(),
        "link_loads": cluster.link_loads(),
    }


def build_cluster(run_dir: str, stack: contextlib.ExitStack
                  ) -> Tuple[Dict[str, Any], Handlers]:
    cluster = _proc_cluster(run_dir, stack)
    ready = {"host": "127.0.0.1", "port": cluster.gateway_port}
    return ready, {
        "stats": lambda: _cluster_stats(cluster),
        "verify": lambda: _cluster_verify(cluster),
    }


def build_rest(run_dir: str, stack: contextlib.ExitStack
               ) -> Tuple[Dict[str, Any], Handlers]:
    cluster = _proc_cluster(run_dir, stack)
    agents = [
        EdgeAgent(f"rest-{index}",
                  tcp_connector("127.0.0.1", cluster.gateway_port))
        for index in range(2)
    ]
    for agent in agents:
        stack.callback(agent.close)
    app = ControlPlaneApp(
        agents, mib_view=lambda: {"links": cluster.link_loads()})
    server = stack.enter_context(ControlPlaneServer(app))

    def stats() -> Dict[str, float]:
        counters = app.counters()
        out = _cluster_stats(cluster)
        out.update({
            "controlplane.requests": counters["requests"],
            "controlplane.backpressured": counters["backpressured"],
            "controlplane.server_errors": counters["server_errors"],
            "edge.agent.retries": sum(a.retries for a in agents),
        })
        return out

    def verify() -> Dict[str, Any]:
        out = _cluster_verify(cluster)
        out["registry"] = sorted(app.registry)
        return out

    ready = {"host": server.host, "port": server.port}
    return ready, {"stats": stats, "verify": verify}


def build_edge(run_dir: str, stack: contextlib.ExitStack
               ) -> Tuple[Dict[str, Any], Handlers]:
    broker = BandwidthBroker()
    provision_parallel_paths(
        broker, paths=domain.EDGE_PATHS, hops=domain.EDGE_HOPS,
        capacity=domain.EDGE_CAPACITY,
    )
    wal = FileJournal(os.path.join(run_dir, "wal"), fsync=True)
    stack.callback(wal.close)
    service = stack.enter_context(BrokerService(
        broker, workers=domain.EDGE_WORKERS,
        shards=domain.EDGE_LOCK_SHARDS, batch_limit=domain.EDGE_WINDOW,
        wal=wal,
    ))
    gateway = EdgeGateway(service, lease_duration=1e9)
    host, port = gateway.listen()
    stack.enter_context(gateway)

    def stats() -> Dict[str, float]:
        counters = gateway.counters()
        out = service_counters([service.stats().as_dict()])
        out.update({
            "edge.gateway.frames_served": counters["frames_served"],
            "edge.gateway.dedup_hits": counters["dedup_hits"],
        })
        return out

    def verify() -> Dict[str, Any]:
        return {
            "flows": sorted(
                record.flow_id for record in broker.flow_mib.records()),
            "holds": [],
            "unresolved": {},
            "link_loads": {
                f"{link.link_id[0]}->{link.link_id[1]}":
                    link.reserved_rate
                for link in broker.node_mib.links()
            },
        }

    return {"host": host, "port": port}, {
        "stats": stats, "verify": verify}


BUILDERS = {"rest": build_rest, "cluster": build_cluster,
            "edge": build_edge}


def _terminate(_signum, _frame) -> None:
    raise SystemExit(0)


def main(argv) -> int:
    kind, run_dir = argv
    signal.signal(signal.SIGTERM, _terminate)
    with contextlib.ExitStack() as stack:
        ready, handlers = BUILDERS[kind](run_dir, stack)
        print(json.dumps({"ready": True, "pid": os.getpid(), **ready}),
              flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            print(json.dumps(handlers[command]()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
