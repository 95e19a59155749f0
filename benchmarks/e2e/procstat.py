"""CPU time and peak memory of a process tree, read from ``/proc``.

The generator's own cost must not pollute ``cpu_ms_per_op`` and
``rss_mb``, so both are summed over the SUT's process tree only: the
root pid the harness spawned plus every descendant (shard processes,
gateway workers, the multiprocessing resource tracker).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

__all__ = ["process_tree", "children", "group_members", "cpu_seconds",
           "peak_rss_mb"]

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` *after* the command name (which
    may itself contain spaces and parentheses): index 0 is the state,
    1 the parent pid, 2 the process group, 11/12 utime/stime in clock
    ticks."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def _all_stats() -> Dict[int, List[str]]:
    stats: Dict[int, List[str]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                stats[int(name)] = _stat_fields(int(name))
            except (OSError, ValueError):
                continue  # exited between listdir and open
    return stats


def process_tree(root: int) -> List[int]:
    """*root* and all its live descendants, root first."""
    parents = {pid: int(fields[1])
               for pid, fields in _all_stats().items()}
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items()
                    if parent == pid)
    return tree


def children(parent: int) -> List[int]:
    """Direct children of *parent*, exited-but-unreaped ones included."""
    return [pid for pid, fields in _all_stats().items()
            if int(fields[1]) == parent]


def group_members(pgid: int) -> Dict[int, Tuple[str, int]]:
    """``pid -> (state, parent pid)`` of every process in process
    group *pgid*; state ``"Z"`` is one that has exited and waits to be
    reaped by its parent."""
    return {pid: (fields[0], int(fields[1]))
            for pid, fields in _all_stats().items()
            if int(fields[2]) == pgid}


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far, summed over *pids*
    (all threads of each; children's reaped time is not included)."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
