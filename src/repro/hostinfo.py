"""Host and process-topology facts for benchmark results.

Every ``repro shard-bench`` / ``edge-bench`` / ``soak`` result
embeds :func:`host_info`, because a throughput
number without the CPU count behind it is unfalsifiable: an 8-shard
"speedup" measured on a 1-CPU runner says nothing about multi-core
scaling.  :func:`process_topology` records *how* the run was laid out
across processes (threads in one process vs. N shard processes plus M
gateway workers), which is the other half of interpreting the number.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict, Optional

__all__ = ["cpu_count", "host_info", "process_topology"]


def cpu_count() -> int:
    """Usable CPU count: the scheduler affinity mask when the platform
    exposes one (a container quota is the honest bound, not the host's
    core count), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def host_info() -> Dict[str, Any]:
    """JSON-compatible facts about the machine running a benchmark."""
    return {
        "cpus": cpu_count(),
        "cpus_logical": os.cpu_count() or 1,
        "platform": sys.platform,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def process_topology(
    mode: str,
    *,
    shard_processes: int = 0,
    gateway_workers: int = 0,
    workers_per_shard: Optional[int] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Describe a run's process layout for a bench result.

    :param mode: ``"threads"`` (everything in one process, one GIL) or
        ``"procs"`` (shards and/or gateway workers are separate OS
        processes).
    :param shard_processes: shard child processes (0 in thread mode).
    :param gateway_workers: gateway worker child processes.
    :param workers_per_shard: service worker threads inside each shard.
    """
    topology: Dict[str, Any] = {
        "mode": mode,
        "shard_processes": int(shard_processes),
        "gateway_workers": int(gateway_workers),
    }
    if workers_per_shard is not None:
        topology["workers_per_shard"] = int(workers_per_shard)
    topology.update(extra)
    return topology
