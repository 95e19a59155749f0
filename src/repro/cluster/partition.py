"""Deterministic link -> shard partition map for a sharded domain.

A :class:`PartitionMap` decides, for every unidirectional link of the
logical domain, which broker shard owns its QoS state.  Ownership is
the shared-nothing invariant: a link's reservations live on exactly
one shard, so single-shard paths admit with one hop and only spanning
paths pay the cross-shard prepare/commit protocol
(:mod:`repro.cluster.coordinator`).

Two assignment layers:

* **topology-aware plan** (:meth:`PartitionMap.plan`) — pinned paths
  are round-robined over the shards in sorted path-id order and every
  link of a path is co-located on the path's shard (first assignment
  wins for shared links).  This mirrors the lock-shard planner
  (:meth:`repro.service.shards.LinkShards.plan_paths`) one level up:
  it maximizes the single-shard fast path and guarantees that a
  path's delay-based hops land on one shard, which the cross-shard
  Figure-4 scan requires.
* **rendezvous fallback** — links no plan ever mentioned (bridge
  links between pods, late-provisioned links) hash to a shard by
  highest-random-weight over ``crc32(shard + "|" + link_id)``.
  Rendezvous hashing keeps the fallback consistent: adding a shard
  moves only the links that rendezvous onto it, and ``crc32`` is
  stable across processes regardless of ``PYTHONHASHSEED``.

The map is **versioned and epoch-fenced**: every coordinator frame
carries ``(map_version, map_epoch)`` and a shard rejects frames whose
stamp does not match its own map — a coordinator still routing by a
superseded map (a rebalance it slept through, a demoted generation)
is fenced off instead of silently splitting ownership.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["PartitionMap", "link_id_str"]

LinkId = Tuple[str, str]


def link_id_str(link_id: Sequence[str]) -> str:
    """Canonical string form of a ``(src, dst)`` link id."""
    src, dst = link_id
    return f"{src}->{dst}"


class PartitionMap:
    """Versioned, epoch-fenced link -> shard assignment.

    :param shards: shard names; deduplicated and sorted so any two
        processes given the same names agree on the rendezvous order.
    :param version: bumped on every rebalance (new assignment layout).
    :param epoch: fencing term of the coordinator generation the map
        was issued under; shards reject frames from older epochs.
    :param assigned: explicit ``link_id -> shard`` overrides (the
        topology-aware layer); anything absent falls back to
        rendezvous hashing.
    """

    def __init__(
        self,
        shards: Iterable[str],
        *,
        version: int = 1,
        epoch: int = 0,
        assigned: Optional[Mapping[LinkId, str]] = None,
    ) -> None:
        names = sorted(set(shards))
        if not names:
            raise ConfigurationError("a partition map needs >= 1 shard")
        self.shards: Tuple[str, ...] = tuple(names)
        self.version = int(version)
        self.epoch = int(epoch)
        self._assigned: Dict[LinkId, str] = {}
        if assigned:
            for link_id, shard in assigned.items():
                self.assign(link_id, shard)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def plan(
        cls,
        shards: Iterable[str],
        paths: Iterable[Sequence[str]],
        *,
        version: int = 1,
        epoch: int = 0,
    ) -> "PartitionMap":
        """Topology-aware map: co-locate each pinned path on one shard.

        *paths* are node sequences.  Paths are visited in sorted
        path-id order and round-robined over the (sorted) shards, so
        the layout is a pure function of the inputs; a link shared by
        two paths keeps its first assignment (both paths then span at
        most one extra shard instead of splitting the link).
        """
        pmap = cls(shards, version=version, epoch=epoch)
        ordered = sorted(
            (tuple(nodes) for nodes in paths),
            key=lambda nodes: "->".join(nodes),
        )
        for index, nodes in enumerate(ordered):
            shard = pmap.shards[index % len(pmap.shards)]
            for src, dst in zip(nodes, nodes[1:]):
                pmap._assigned.setdefault((src, dst), shard)
        return pmap

    def assign(self, link_id: Sequence[str], shard: str) -> None:
        """Pin *link_id* to *shard* (overrides rendezvous fallback)."""
        if shard not in self.shards:
            raise ConfigurationError(
                f"unknown shard {shard!r} (have {list(self.shards)})"
            )
        src, dst = link_id
        self._assigned[(src, dst)] = shard

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def shard_of(self, link_id: Sequence[str]) -> str:
        """Owning shard of *link_id* (assigned, else rendezvous)."""
        src, dst = link_id
        shard = self._assigned.get((src, dst))
        if shard is not None:
            return shard
        label = link_id_str((src, dst))
        return max(
            self.shards,
            key=lambda name: (
                zlib.crc32(f"{name}|{label}".encode("utf-8")), name
            ),
        )

    def shards_for_path(self, nodes: Sequence[str]) -> Tuple[str, ...]:
        """Sorted unique owners of every link along *nodes*."""
        return tuple(sorted({
            self.shard_of((src, dst))
            for src, dst in zip(nodes, nodes[1:])
        }))

    def segments(
        self, nodes: Sequence[str]
    ) -> List[Tuple[str, List[LinkId]]]:
        """Per-shard link lists along *nodes*, in path order.

        One entry per owning shard (first-touch order); each shard's
        list keeps the links in path order, which is what its prepare
        frame carries.
        """
        grouped: Dict[str, List[LinkId]] = {}
        order: List[str] = []
        for src, dst in zip(nodes, nodes[1:]):
            shard = self.shard_of((src, dst))
            if shard not in grouped:
                grouped[shard] = []
                order.append(shard)
            grouped[shard].append((src, dst))
        return [(shard, grouped[shard]) for shard in order]

    # ------------------------------------------------------------------
    # fencing
    # ------------------------------------------------------------------

    def stamp(self) -> Dict[str, int]:
        """The fencing stamp every coordinator frame carries."""
        return {"map_version": self.version, "map_epoch": self.epoch}

    def accepts(self, frame: Mapping[str, object]) -> bool:
        """Whether *frame*'s stamp matches this map exactly.

        Strict equality on both fields: an older stamp is a fenced-off
        coordinator, a newer one means this shard missed a rebalance —
        either way the safe answer is to bounce the frame and let the
        operator reconcile.
        """
        return (
            frame.get("map_version") == self.version
            and frame.get("map_epoch") == self.epoch
        )

    def advanced(self, *, version: Optional[int] = None,
                 epoch: Optional[int] = None) -> "PartitionMap":
        """A copy with a bumped version and/or epoch (same assignment)."""
        return PartitionMap(
            self.shards,
            version=self.version if version is None else version,
            epoch=self.epoch if epoch is None else epoch,
            assigned=dict(self._assigned),
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation."""
        return {
            "shards": list(self.shards),
            "version": self.version,
            "epoch": self.epoch,
            "assigned": [
                [src, dst, shard]
                for (src, dst), shard in sorted(self._assigned.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PartitionMap":
        """Inverse of :meth:`to_dict`."""
        return cls(
            data["shards"],  # type: ignore[arg-type]
            version=int(data.get("version", 1)),  # type: ignore[arg-type]
            epoch=int(data.get("epoch", 0)),  # type: ignore[arg-type]
            assigned={
                (src, dst): shard
                for src, dst, shard in data.get("assigned", ())
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionMap(shards={len(self.shards)}, "
            f"v{self.version} e{self.epoch}, "
            f"assigned={len(self._assigned)})"
        )
