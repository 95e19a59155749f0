"""Pod-per-shard cluster assembly and its closed-loop workload.

:func:`build_pod_cluster` materializes a Figure-8-style domain scaled
out sideways: ``pods`` link-disjoint ingress->core->egress chains
(the same shape as :func:`~repro.service.loadgen.
provision_parallel_paths`), joined by bridge links ``E<k> -> I<k+1>``
so consecutive pods compose into spanning paths.  Pod paths are
planned onto shards topology-aware (each pod wholly on one shard);
bridge links deliberately take the rendezvous-hash fallback, so the
assembly exercises both assignment layers.

Each shard gets its own :class:`~repro.core.broker.BandwidthBroker`
(only its links), its own optional
:class:`~repro.service.durability.FileJournal` under
``<wal_root>/<shard>/``, and a full
:class:`~repro.cluster.shard.BrokerShard` stack; a
:class:`~repro.cluster.coordinator.ClusterCoordinator` with an atlas
of the whole domain fronts them.  With ``shards=1`` the exact same
workload runs against one shard owning everything: the
single-broker baseline.

:func:`run_cluster_loop` is the closed-loop driver: per-pod client
threads admit+teardown flows through the coordinator, sending every
``spanning_every``-th request down the pod's spanning path (paying
the 2PC protocol) and the rest down the local pod path (one hop).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.broker import BandwidthBroker
from repro.errors import StateError
from repro.service.durability import FileJournal
from repro.traffic.spec import TSpec
from repro.units import bytes_, mbps
from repro.vtrs.timestamps import SchedulerKind

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import PartitionMap
from repro.cluster.shard import BrokerShard

__all__ = [
    "PodCluster",
    "PodDomainSpec",
    "ClusterLoadReport",
    "plan_pod_domain",
    "domain_atlas",
    "shard_broker",
    "shard_dirs",
    "build_pod_cluster",
    "run_cluster_loop",
]


#: Every pod link: rate-based, the domain's one packet size.
_POD_LINK_KIND = SchedulerKind.RATE_BASED.name
_MAX_PACKET = bytes_(1500)


def _pod_nodes(index: int) -> Tuple[str, ...]:
    """Pod *index*'s three-hop chain ``I -> C_1 -> C_2 -> E``."""
    return (f"I{index}", f"C{index}_1", f"C{index}_2", f"E{index}")


@dataclass(frozen=True)
class PodDomainSpec:
    """The picklable plan of a pod-per-shard domain.

    Everything needed to *materialize* the domain — the full atlas,
    or any single shard's broker — as plain data: link tuples
    ``(src, dst, capacity, scheduler-kind name, max_packet)``, the
    pinned paths, and the partition map's ``to_dict()`` form.  A
    shard child process receives this spec (pickled through the spawn
    entrypoint) and rebuilds exactly the broker the in-process
    builder would have handed it, so multi-process clusters stay
    decision-identical with single-process ones by construction.
    """

    shard_names: Tuple[str, ...]
    links: Tuple[Tuple[str, str, float, str, float], ...]
    pod_paths: Tuple[Tuple[str, ...], ...]
    spanning_paths: Tuple[Tuple[str, ...], ...]
    partition: Dict[str, Any]

    def partition_map(self) -> PartitionMap:
        return PartitionMap.from_dict(self.partition)


def plan_pod_domain(
    num_shards: int,
    *,
    pods: Optional[int] = None,
    capacity: float = mbps(45),
) -> PodDomainSpec:
    """Plan a pod-per-shard domain without building any broker."""
    total_pods = pods if pods is not None else num_shards
    if total_pods < 1:
        raise ValueError("need >= 1 pod")
    shard_names = tuple(f"shard{index}" for index in range(num_shards))
    pod_paths = tuple(_pod_nodes(k) for k in range(total_pods))

    links: List[Tuple[str, str, float, str, float]] = []
    for nodes in pod_paths:
        for src, dst in zip(nodes, nodes[1:]):
            links.append((src, dst, capacity, _POD_LINK_KIND, _MAX_PACKET))
    spanning_paths: List[Tuple[str, ...]] = []
    for k in range(total_pods - 1):
        links.append((
            f"E{k}", f"I{k + 1}", capacity, _POD_LINK_KIND, _MAX_PACKET,
        ))
        spanning_paths.append(pod_paths[k] + pod_paths[k + 1])

    partition = PartitionMap.plan(list(shard_names), list(pod_paths))
    return PodDomainSpec(
        shard_names=shard_names,
        links=tuple(links),
        pod_paths=pod_paths,
        spanning_paths=tuple(spanning_paths),
        partition=partition.to_dict(),
    )


def domain_atlas(domain: PodDomainSpec) -> BandwidthBroker:
    """The coordinator's full-domain atlas for *domain*."""
    atlas = BandwidthBroker()
    for src, dst, capacity, kind_name, max_packet in domain.links:
        atlas.add_link(
            src, dst, capacity, SchedulerKind[kind_name],
            max_packet=max_packet,
        )
    for nodes in domain.pod_paths:
        atlas.routing.pin_path(nodes)
    for nodes in domain.spanning_paths:
        atlas.routing.pin_path(nodes)
    return atlas


def shard_broker(domain: PodDomainSpec, name: str) -> BandwidthBroker:
    """Materialize shard *name*'s broker (its links + local paths).

    The single place that decides what one shard owns — the
    in-process builder and the shard child-process entrypoint both
    call it, so every deployment shape provisions identical per-shard
    state.
    """
    partition = domain.partition_map()
    broker = BandwidthBroker()
    for src, dst, capacity, kind_name, max_packet in domain.links:
        if partition.shard_of((src, dst)) != name:
            continue
        broker.add_link(
            src, dst, capacity, SchedulerKind[kind_name],
            max_packet=max_packet,
        )
    for nodes in domain.pod_paths:
        if partition.shard_of((nodes[0], nodes[1])) == name:
            broker.routing.pin_path(nodes)
    # Spanning paths that collapse onto one shard (always true at one
    # shard) are ordinary local paths there; pin them so the one-hop
    # fast path can serve them.
    for nodes in domain.spanning_paths:
        owners = partition.shards_for_path(nodes)
        if len(owners) == 1 and owners[0] == name:
            broker.routing.pin_path(nodes)
    return broker


def shard_dirs(wal_root: str) -> List[str]:
    """Names of the shard journal directories under a cluster WAL root:
    every subdirectory except the coordinator's decision log.  Raises
    :class:`~repro.errors.StateError` when there is none."""
    if not os.path.isdir(wal_root):
        raise StateError(f"no such directory: {wal_root!r}")
    names = sorted(
        entry for entry in os.listdir(wal_root)
        if os.path.isdir(os.path.join(wal_root, entry))
        and entry != "coordinator"
    )
    if not names:
        raise StateError(f"no shard subdirectories under {wal_root!r}")
    return names


@dataclass
class PodCluster:
    """A built cluster: shards, coordinator, and its workload paths."""

    partition: PartitionMap
    atlas: BandwidthBroker
    shards: Dict[str, BrokerShard]
    coordinator: ClusterCoordinator
    pod_paths: List[Tuple[str, ...]]
    spanning_paths: List[Tuple[str, ...]]
    wal_root: Optional[str] = None

    def start(self) -> "PodCluster":
        for shard in self.shards.values():
            shard.start()
        return self

    def stop(self) -> None:
        for shard in self.shards.values():
            shard.stop()
        self.coordinator.close()

    def __enter__(self) -> "PodCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def link_loads(self) -> Dict[str, float]:
        """Union of reserved rates over every shard's links."""
        loads: Dict[str, float] = {}
        for shard in self.shards.values():
            for link in shard.broker.node_mib.links():
                loads[f"{link.link_id[0]}->{link.link_id[1]}"] = (
                    link.reserved_rate
                )
        return loads

    def outstanding_holds(self) -> List[Tuple[str, str, str]]:
        """Every ``txn:`` hold still reserved: (shard, link, key)."""
        holds = []
        for name, shard in sorted(self.shards.items()):
            for link in shard.broker.node_mib.links():
                for key in link.reservation_keys():
                    if key.startswith("txn:"):
                        holds.append((
                            name,
                            f"{link.link_id[0]}->{link.link_id[1]}",
                            key,
                        ))
        return holds


def build_pod_cluster(
    num_shards: int,
    *,
    pods: Optional[int] = None,
    capacity: float = mbps(45),
    wal_root: Optional[str] = None,
    fsync: bool = True,
    workers: int = 2,
    lock_shards: int = 4,
    queue_limit: int = 256,
    edge_rtt: float = 0.0,
    hold_duration: float = 30.0,
) -> PodCluster:
    """Build (without starting) a pod-per-shard cluster.

    :param pods: number of pod chains (default: one per shard).  The
        workload shape is a function of *pods* alone, so comparing
        shard counts at fixed *pods* varies only the partitioning.
    """
    domain = plan_pod_domain(num_shards, pods=pods, capacity=capacity)
    atlas = domain_atlas(domain)
    partition = domain.partition_map()
    pod_paths = list(domain.pod_paths)
    spanning_paths = list(domain.spanning_paths)

    shards: Dict[str, BrokerShard] = {}
    for name in domain.shard_names:
        wal = None
        if wal_root is not None:
            directory = os.path.join(os.fspath(wal_root), name)
            os.makedirs(directory, exist_ok=True)
            wal = FileJournal(directory, fsync=fsync)
        shards[name] = BrokerShard(
            name, shard_broker(domain, name), partition,
            wal=wal,
            workers=workers,
            lock_shards=lock_shards,
            queue_limit=queue_limit,
            edge_rtt=edge_rtt,
            hold_duration=hold_duration,
        )
    coordinator_wal = None
    if wal_root is not None:
        directory = os.path.join(os.fspath(wal_root), "coordinator")
        os.makedirs(directory, exist_ok=True)
        coordinator_wal = FileJournal(directory, fsync=fsync)
    coordinator = ClusterCoordinator(
        partition,
        shards,
        atlas,
        wal=coordinator_wal,
    )
    return PodCluster(
        partition=partition,
        atlas=atlas,
        shards=shards,
        coordinator=coordinator,
        pod_paths=pod_paths,
        spanning_paths=spanning_paths,
        wal_root=os.fspath(wal_root) if wal_root is not None else None,
    )


@dataclass
class ClusterLoadReport:
    """Aggregate outcome of one :func:`run_cluster_loop` run."""

    clients: int
    requests: int
    operations: int
    admitted: int
    rejected: int
    shed: int
    errors: int
    spanning_requests: int
    spanning_admitted: int


def run_cluster_loop(
    cluster: PodCluster,
    spec: TSpec,
    delay_requirement: float,
    *,
    clients_per_pod: int = 4,
    requests_per_client: int = 50,
    spanning_every: int = 0,
) -> ClusterLoadReport:
    """Closed-loop admit+teardown workload through the coordinator.

    Client *j* of pod *k* pins the pod-local path; when
    ``spanning_every > 0``, every that-many-th request uses the pod's
    spanning path instead (pods without a next-door neighbour fall
    back to local).  Flow ids are unique per (pod, client, iteration),
    so traces replay deterministically.
    """
    pods = len(cluster.pod_paths)
    total_clients = pods * clients_per_pod
    barrier = threading.Barrier(total_clients + 1)
    results: List[Dict[str, Any]] = [
        {
            "operations": 0, "admitted": 0, "rejected": 0,
            "shed": 0, "errors": 0, "spanning": 0,
            "spanning_admitted": 0,
        }
        for _ in range(total_clients)
    ]

    def client(pod: int, worker: int, slot: int) -> None:
        local = cluster.pod_paths[pod]
        spanning = (
            cluster.spanning_paths[pod]
            if pod < len(cluster.spanning_paths) else None
        )
        tally = results[slot]
        coordinator = cluster.coordinator
        barrier.wait()
        for iteration in range(requests_per_client):
            use_spanning = (
                spanning is not None
                and spanning_every > 0
                and iteration % spanning_every == spanning_every - 1
            )
            nodes = spanning if use_spanning else local
            flow_id = f"p{pod}c{worker}-r{iteration}"
            decision = coordinator.admit(
                flow_id, spec, delay_requirement,
                nodes[0], nodes[-1], path_nodes=nodes,
            )
            tally["operations"] += 1
            if use_spanning:
                tally["spanning"] += 1
            if decision.status in ("shed", "expired"):
                tally["shed"] += 1
            elif decision.status not in ("ok", "rejected"):
                tally["errors"] += 1
            elif decision.admitted:
                tally["admitted"] += 1
                if use_spanning:
                    tally["spanning_admitted"] += 1
            else:
                tally["rejected"] += 1
            if decision.admitted:
                down = coordinator.teardown(flow_id)
                tally["operations"] += 1
                if down.status not in ("ok", "released"):
                    tally["errors"] += 1

    threads = []
    slot = 0
    for pod in range(pods):
        for worker in range(clients_per_pod):
            threads.append(threading.Thread(
                target=client, args=(pod, worker, slot), daemon=True,
            ))
            slot += 1
    for thread in threads:
        thread.start()
    barrier.wait()
    for thread in threads:
        thread.join()

    report = ClusterLoadReport(
        clients=total_clients,
        requests=total_clients * requests_per_client,
        operations=0, admitted=0, rejected=0, shed=0, errors=0,
        spanning_requests=0, spanning_admitted=0,
    )
    for tally in results:
        report.operations += tally["operations"]
        report.admitted += tally["admitted"]
        report.rejected += tally["rejected"]
        report.shed += tally["shed"]
        report.errors += tally["errors"]
        report.spanning_requests += tally["spanning"]
        report.spanning_admitted += tally["spanning_admitted"]
    return report
