"""Shared-nothing domain partitioning: a sharded broker cluster.

One logical bandwidth-broker domain split across N independent
shards, each a full service stack (broker + WAL) owning a disjoint
slice of the links.  A deterministic,
epoch-fenced :class:`~repro.cluster.partition.PartitionMap` routes
links to shards; the
:class:`~repro.cluster.coordinator.ClusterCoordinator` admits
single-shard paths in one hop and spanning paths via a presumed-abort
two-phase commit whose holds are WAL-journaled, idempotent by txid,
and lease-reaped so a crashed coordinator never strands capacity.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterDecision,
    CoordinatorRecovery,
)
from repro.cluster.partition import PartitionMap, link_id_str
from repro.cluster.procs import (
    ClusterServiceClient,
    CoordinatorServer,
    ProcCluster,
    ProcessSupervisor,
    build_proc_cluster,
)
from repro.cluster.remote import FrameServer, OpClient, ShardServer
from repro.cluster.shard import BrokerShard, ShardRecovery, recover_shard
from repro.cluster.topology import (
    ClusterLoadReport,
    PodCluster,
    PodDomainSpec,
    build_pod_cluster,
    domain_atlas,
    plan_pod_domain,
    run_cluster_loop,
    shard_broker,
    shard_dirs,
)

__all__ = [
    "BrokerShard",
    "ClusterCoordinator",
    "ClusterDecision",
    "ClusterLoadReport",
    "ClusterServiceClient",
    "CoordinatorRecovery",
    "CoordinatorServer",
    "FrameServer",
    "OpClient",
    "PartitionMap",
    "PodCluster",
    "PodDomainSpec",
    "ProcCluster",
    "ProcessSupervisor",
    "ShardRecovery",
    "ShardServer",
    "build_pod_cluster",
    "build_proc_cluster",
    "domain_atlas",
    "link_id_str",
    "plan_pod_domain",
    "recover_shard",
    "run_cluster_loop",
    "shard_broker",
    "shard_dirs",
]
