"""Edge agents signaling a broker gateway over real TCP.

The paper's deployment shape end to end: a bandwidth broker runs
behind an :class:`EdgeGateway` on a loopback TCP port, and a fleet of
:class:`EdgeAgent` clients — the edge routers, each owning its own
per-flow state — dial in, admit flows on link-disjoint paths and keep
their soft-state leases alive with heartbeats.  Two failures are then
staged deliberately:

1. **A crash** — one agent is killed mid-run (its connection dropped,
   its heartbeat silenced) while it holds admitted flows.  Nobody
   tears them down; the gateway's lease reaper does, once the leases
   expire, so the broker ends with *zero orphaned reservations*.
2. **A lossy wire** — another agent speaks through a transport that
   drops and duplicates frames.  Its retries reuse the same
   idempotency key per operation, so the gateway deduplicates and the
   broker admits each flow exactly once, however many times the admit
   frame arrived.

Run: ``python examples/edge_agents.py``
"""

import random
import threading
import time
from typing import Optional

from repro.core.broker import BandwidthBroker
from repro.edge import EdgeAgent, EdgeGateway, tcp_connector
from repro.service import BrokerService, provision_parallel_paths
from repro.workloads.profiles import flow_type

SPEC = flow_type(0).spec
AGENTS = 4
FLOWS_PER_AGENT = 6
LEASE = 2.0  # seconds of silence an edge survives (shortened for demo;
#              long enough that a lossy wire's retry backoffs cannot
#              starve a live agent's own heartbeat past expiry)


class LossyConnection:
    """Drops 25% and duplicates 25% of frames (seeded, reproducible)."""

    def __init__(self, inner, rng) -> None:
        self.inner = inner
        self.rng = rng

    def send(self, frame) -> None:
        if self.rng.random() < 0.25:
            return
        self.inner.send(frame)
        if self.rng.random() < 0.25:
            self.inner.send(frame)

    def recv(self, timeout: Optional[float] = None):
        frame = self.inner.recv(timeout)
        if frame is not None and self.rng.random() < 0.25:
            return None
        return frame

    def close(self) -> None:
        self.inner.close()


def main() -> None:
    broker = BandwidthBroker()
    pinned = provision_parallel_paths(broker, paths=AGENTS)

    with BrokerService(broker, workers=2, shards=4) as service:
        gateway = EdgeGateway(service, lease_duration=LEASE,
                              reap_interval=0.05)
        host, port = gateway.listen()
        gateway.start()
        print(f"gateway listening on {host}:{port} "
              f"(lease {LEASE:.1f}s, reaper on)")

        # --- the fleet admits its flows -------------------------------
        # Leases live in the repo's *domain* clock (the `now` field on
        # frames); this deployment simply feeds it wall-clock seconds.
        epoch = time.monotonic()

        def clock() -> float:
            return time.monotonic() - epoch

        rng = random.Random(7)
        agents = []
        for rank in range(AGENTS):
            dial = tcp_connector(host, port)
            if rank == 1:
                # Agent 1 talks through a faulty wire the whole run.
                def lossy_dial(dial=dial):
                    return LossyConnection(dial(), rng)
                connect = lossy_dial
            else:
                connect = dial
            agent = EdgeAgent(f"edge-{rank}", connect, seed=rank,
                              op_budget=10.0)
            agent.attempt_timeout = 0.05
            agent.max_backoff = 0.1
            agents.append(agent)

        def admit_all(agent: EdgeAgent, rank: int) -> None:
            nodes = pinned[rank]
            for index in range(FLOWS_PER_AGENT):
                reply = agent.admit(
                    f"a{rank}-f{index}", SPEC, 2.44,
                    nodes[0], nodes[-1], path_nodes=nodes,
                    now=clock(),
                )
                assert reply["decision"]["admitted"], reply

        # Live agents heartbeat on a thread from the start (admitting
        # takes real wall time — the lossy wire retries — and leases
        # age meanwhile); a ticker keeps their domain clocks marching
        # with the wall so those leases age for real.
        crashed = set()
        stop_ticker = threading.Event()

        def drive_clocks() -> None:
            while not stop_ticker.wait(LEASE / 10):
                tick = clock()
                for agent in agents:
                    if agent.name not in crashed:
                        agent.advance_clock(tick)

        ticker = threading.Thread(target=drive_clocks, daemon=True)
        ticker.start()
        for agent in agents:
            agent.start_heartbeat(interval=LEASE / 4)

        threads = [
            threading.Thread(target=admit_all, args=(agent, rank))
            for rank, agent in enumerate(agents)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = AGENTS * FLOWS_PER_AGENT
        print(f"{AGENTS} agents admitted {total} flows; "
              f"broker holds {broker.stats().active_flows}")
        lossy = agents[1].counters()
        print(f"the lossy agent retried {lossy['retries']} time(s), "
              f"reconnected {lossy['reconnects']}; its "
              f"{lossy['flows']} flows were each admitted exactly once "
              f"(dedup hits at the gateway: "
              f"{gateway.counters()['dedup_hits']})")

        # --- kill one agent mid-run -----------------------------------
        victim = agents[2]
        crashed.add(victim.name)
        victim.stop_heartbeat()
        victim.close()  # crash: no teardowns, just silence
        print(f"\nkilled {victim.name} holding "
              f"{len(victim.flows)} admitted flows "
              "(no teardown sent) ...")
        deadline = time.monotonic() + 10 * LEASE
        while broker.stats().active_flows > total - FLOWS_PER_AGENT:
            if time.monotonic() > deadline:
                raise RuntimeError("reaper never collected the leases")
            time.sleep(0.05)
        counters = gateway.counters()
        print(f"lease reaper collected the orphans: broker now holds "
              f"{broker.stats().active_flows} flows "
              f"(leases expired: {counters['leases']['expired']})")

        # The survivors' heartbeats kept their leases alive throughout.
        assert broker.stats().active_flows == total - FLOWS_PER_AGENT

        # --- clean shutdown -------------------------------------------
        stop_ticker.set()
        ticker.join()
        for rank, agent in enumerate(agents):
            if agent is victim:
                continue
            agent.stop_heartbeat()
            for flow_id in list(agent.flows):
                agent.teardown(flow_id, now=clock())
            agent.close()
        print(f"\nsurvivors tore down cleanly; broker holds "
              f"{broker.stats().active_flows} flows")
        assert broker.stats().active_flows == 0
        gateway.stop()

    print("\nno orphaned reservations, no double admissions: "
          "exactly-once signaling over an at-least-once network.")


if __name__ == "__main__":
    main()
