"""Random mesh domains for property-based testing and demos.

The paper evaluates on the small fixed Figure 8 topology; the broker
architecture itself has no such limit. This module generates seeded
random meshes — a connected backbone chain plus random shortcut and
cross links, mixed scheduler kinds, heterogeneous capacities — so that
routing (genuine path choice) and path-oriented admission can be
exercised on topologies they were not tuned for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.mibs import FlowMIB, LinkQoSState, NodeMIB, PathMIB
from repro.errors import ConfigurationError
from repro.vtrs.timestamps import SchedulerKind

__all__ = ["RandomDomain", "random_domain"]


@dataclass
class RandomDomain:
    """A generated mesh: MIBs plus the node roles."""

    node_mib: NodeMIB
    ingresses: List[str]
    egresses: List[str]
    core: List[str]
    seed: int

    def fresh_mibs(self) -> Tuple[NodeMIB, FlowMIB, PathMIB]:
        """(node, flow, path) MIBs for driving an admission module."""
        return self.node_mib, FlowMIB(), PathMIB()


def random_domain(
    seed: int,
    *,
    core_nodes: int = 6,
    extra_links: int = 5,
    ingresses: int = 2,
    egresses: int = 2,
    capacity_range: Tuple[float, float] = (1e6, 10e6),
    delay_based_fraction: float = 0.3,
    max_packet: float = 12000.0,
) -> RandomDomain:
    """Generate a connected random domain.

    Structure: ``ingresses`` ingress routers feed a shuffled core
    backbone chain (guaranteeing every egress is reachable from every
    ingress), ``extra_links`` random forward shortcuts densify the
    mesh, and the last core node fans out to the egresses. Link
    capacities, scheduler kinds and everything else draw from the
    seeded RNG, so a domain is reproducible from its parameters.
    """
    if core_nodes < 2:
        raise ConfigurationError(f"need >= 2 core nodes, got {core_nodes}")
    rng = random.Random(seed)
    node_mib = NodeMIB()
    core = [f"C{i}" for i in range(core_nodes)]
    rng.shuffle(core)
    ingress_names = [f"I{i}" for i in range(ingresses)]
    egress_names = [f"E{i}" for i in range(egresses)]

    def add(src: str, dst: str) -> None:
        if (src, dst) in node_mib:
            return
        kind = (
            SchedulerKind.DELAY_BASED
            if rng.random() < delay_based_fraction
            else SchedulerKind.RATE_BASED
        )
        node_mib.register_link(LinkQoSState(
            (src, dst),
            rng.uniform(*capacity_range),
            kind,
            max_packet=max_packet,
        ))

    # Backbone chain through the shuffled core.
    for src, dst in zip(core, core[1:]):
        add(src, dst)
    # Ingresses feed the head of the chain (and maybe a random core).
    for ingress in ingress_names:
        add(ingress, core[0])
        if rng.random() < 0.5:
            add(ingress, rng.choice(core))
    # The chain tail fans out to the egresses.
    for egress in egress_names:
        add(core[-1], egress)
        if rng.random() < 0.5:
            add(rng.choice(core), egress)
    # Forward shortcuts (respecting chain order keeps the mesh acyclic,
    # which keeps widest-shortest routing deterministic and loop-free).
    positions = {name: index for index, name in enumerate(core)}
    for _ in range(extra_links):
        a, b = rng.sample(core, 2)
        if positions[a] > positions[b]:
            a, b = b, a
        add(a, b)
    return RandomDomain(
        node_mib=node_mib,
        ingresses=ingress_names,
        egresses=egress_names,
        core=core,
        seed=seed,
    )
