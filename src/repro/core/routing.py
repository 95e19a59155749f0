"""The broker's routing module.

The routing module peers with the domain's routers to learn the
topology (here: it is told the topology) and selects/pins paths for
new flows. Selection implements *widest-shortest* routing: among all
minimum-hop paths from ingress to egress, pick the one with the
largest bottleneck residual bandwidth — a standard QoS-routing rule
that keeps the experiments deterministic while exercising genuine
path choice on meshier topologies.

Paths are registered in the :class:`~repro.core.mibs.PathMIB` so the
admission module can run its path-oriented tests against cached
aggregates.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.errors import TopologyError
from repro.core.mibs import NodeMIB, PathMIB, PathRecord

__all__ = ["RoutingModule"]


class RoutingModule:
    """Path selection and set-up over the broker's link-state database.

    :param node_mib: the link QoS states (doubles as the adjacency map).
    :param path_mib: where selected paths are registered.
    """

    def __init__(self, node_mib: NodeMIB, path_mib: PathMIB) -> None:
        self.node_mib = node_mib
        self.path_mib = path_mib

    def _adjacency(self) -> Dict[str, List[str]]:
        adjacency: Dict[str, List[str]] = {}
        for link in self.node_mib.links():
            src, dst = link.link_id
            adjacency.setdefault(src, []).append(dst)
            adjacency.setdefault(dst, [])
        for neighbours in adjacency.values():
            neighbours.sort()  # determinism
        return adjacency

    def shortest_paths(self, ingress: str, egress: str) -> List[List[str]]:
        """All minimum-hop node sequences from *ingress* to *egress*."""
        adjacency = self._adjacency()
        if ingress not in adjacency:
            raise TopologyError(f"unknown ingress node {ingress!r}")
        if egress not in adjacency:
            raise TopologyError(f"unknown egress node {egress!r}")
        # BFS layering, then backtrack to enumerate all shortest paths.
        distance = {ingress: 0}
        parents: Dict[str, List[str]] = {ingress: []}
        queue = deque([ingress])
        while queue:
            node = queue.popleft()
            if node == egress:
                continue
            for neighbour in adjacency[node]:
                if neighbour not in distance:
                    distance[neighbour] = distance[node] + 1
                    parents[neighbour] = [node]
                    queue.append(neighbour)
                elif distance[neighbour] == distance[node] + 1:
                    parents[neighbour].append(node)
        if egress not in distance:
            return []
        paths: List[List[str]] = []

        def backtrack(node: str, suffix: List[str]) -> None:
            if node == ingress:
                paths.append([ingress] + suffix)
                return
            for parent in parents[node]:
                backtrack(parent, [node] + suffix)

        backtrack(egress, [])
        paths.sort()  # determinism
        return paths

    def bottleneck(self, nodes: Sequence[str]) -> float:
        """Minimal residual bandwidth along the node sequence."""
        return min(
            self.node_mib.link(src, dst).residual_rate
            for src, dst in zip(nodes, nodes[1:])
        )

    def select_path(self, ingress: str, egress: str) -> Optional[PathRecord]:
        """Widest-shortest path selection; registers and returns the path.

        Returns ``None`` when *egress* is unreachable from *ingress*.
        """
        candidates = self.candidate_paths(ingress, egress)
        return candidates[0] if candidates else None

    def candidate_paths(self, ingress: str, egress: str
                        ) -> List[PathRecord]:
        """All minimum-hop paths, widest (most residual) first.

        The broker walks this list when the best path cannot admit a
        flow — an equal-length alternative may still have room (or a
        schedulable VT-EDF mix).
        """
        candidates = self.shortest_paths(ingress, egress)
        ordered = sorted(
            candidates,
            key=lambda nodes: (-self.bottleneck(nodes), nodes),
        )
        return [self.pin_path(nodes) for nodes in ordered]

    def pin_path(self, nodes: Sequence[str]) -> PathRecord:
        """Register an explicit node sequence as a path (MPLS-style pin).

        An already pinned path is returned as is, without building a
        throw-away record for :meth:`PathMIB.register` to discard.
        """
        path_id = "->".join(nodes)
        if path_id in self.path_mib:
            existing = self.path_mib.get(path_id)
            if existing.nodes == tuple(nodes):
                return existing
        links = [
            self.node_mib.link(src, dst) for src, dst in zip(nodes, nodes[1:])
        ]
        return self.path_mib.register(PathRecord(path_id, nodes, links))
