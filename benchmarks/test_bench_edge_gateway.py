"""Extension bench: the edge signaling plane over real TCP.

The paper's Section 5 prototype times flow setup through a broker
reached from the edge over the network; this bench reproduces that
shape end to end through the new stack — N concurrent
:class:`EdgeAgent` clients dial an :class:`EdgeGateway` over loopback
TCP, admit flows on link-disjoint paths, heartbeat their leases and
tear everything down.  Two scenarios:

* **closed loop** (``run_fleet``): one admit + heartbeat + teardown
  per round trip, v1 JSON codec — the historical baseline shape.
  Reported: per-admit setup latency (p50/p99, the COPS-leg analogue)
  and sustained throughput.
* **pipelined** (``run_pipelined``): the v2 binary codec with
  windows of admits in flight per connection — frames coalesce into
  single writes, the service batches same-path admissions under one
  edge RTT, and the gateway's reply outbox coalesces the answers
  back.  This is the configuration that closes the gap to the
  in-process engine (ROADMAP "raw wire speed").

Headline assertions: every admit lands exactly once (idempotency
under concurrency — leases granted equals admits, all released), the
8-agent fleet clears >= 1.5x one agent, and the pipelined binary fleet
clears >= 5x the JSON closed-loop fleet.  Every floor is a ratio
between scenarios of the same run; none is an absolute admits/s.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to shrink the
workload to a correctness pass (only the pipelined-beats-closed-loop
floor holds there).
"""

import json
import os
import statistics
import threading
import time

import pytest

from repro.core.broker import BandwidthBroker
from repro.edge import AdmitOp, EdgeAgent, EdgeGateway, tcp_connector
from repro.experiments.reporting import render_table
from repro.service import BrokerService, provision_parallel_paths
from repro.workloads.profiles import flow_type

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SPEC = flow_type(0).spec
AGENTS = 8
REQUESTS = 5 if SMOKE else 40
PATHS = 8
WORKERS = 4
SHARDS = 8
#: Simulated edge-programming round trip (the COPS leg the paper's
#: Section 5 setup experiments time).  This is the wait concurrent
#: agents overlap — without it the workload is pure interpreter time
#: and no client-side concurrency can beat one agent.
EDGE_RTT = 0.002
#: Pipelined scenario shape: admits in flight per window, windows per
#: agent.  One window shares a ``now`` and a path, so the service can
#: fold it into batched admissions under a single edge RTT.
PIPELINE_WINDOW = 16 if SMOKE else 64
PIPELINE_WINDOWS = 2 if SMOKE else 6

pytestmark = pytest.mark.network


def run_fleet(agents: int, requests: int) -> dict:
    """Closed loop: *agents* TCP clients admit/teardown *requests*
    flows each against one gateway; returns latency + throughput."""
    broker = BandwidthBroker()
    pinned = provision_parallel_paths(broker, paths=PATHS)
    with BrokerService(broker, workers=WORKERS, shards=SHARDS,
                       edge_rtt=EDGE_RTT) as service:
        gateway = EdgeGateway(service, lease_duration=60.0)
        host, port = gateway.listen()
        gateway.start()
        try:
            barrier = threading.Barrier(agents + 1)
            latencies = [[] for _ in range(agents)]
            errors = []

            def client(rank: int) -> None:
                nodes = pinned[rank % len(pinned)]
                agent = EdgeAgent(
                    f"edge-{rank}", tcp_connector(host, port),
                    seed=rank, op_budget=30.0,
                    codecs=("json",),   # the v1 baseline wire format
                )
                try:
                    barrier.wait()
                    for index in range(requests):
                        flow_id = f"a{rank}-f{index}"
                        begin = time.perf_counter()
                        reply = agent.admit(
                            flow_id, SPEC, 2.44, nodes[0], nodes[-1],
                            path_nodes=nodes, now=float(index),
                        )
                        latencies[rank].append(
                            time.perf_counter() - begin
                        )
                        assert reply["status"] == "ok", reply
                        assert reply["decision"]["admitted"], reply
                        agent.heartbeat(now=float(index))
                        agent.teardown(flow_id, now=float(index))
                except Exception as exc:  # surfaced after the join
                    errors.append((rank, repr(exc)))
                finally:
                    agent.close()

            threads = [
                threading.Thread(target=client, args=(rank,))
                for rank in range(agents)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            begin = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - begin
            counters = gateway.counters()
        finally:
            gateway.stop()
        stats = service.stats()

    assert errors == [], errors
    flat = sorted(lat for per in latencies for lat in per)
    total = agents * requests
    # Exactly-once: every admit was torn down, nothing double-admitted
    # and nothing orphaned.
    assert broker.stats().active_flows == 0
    assert counters["leases"]["granted"] == total
    assert counters["leases"]["released"] == total
    return {
        "scenario": "closed-loop json",
        "agents": agents,
        "requests": total,
        "admits_per_s": total / elapsed,
        "setup_p50_ms": 1e3 * flat[len(flat) // 2],
        "setup_p99_ms": 1e3 * flat[min(len(flat) - 1,
                                       int(len(flat) * 0.99))],
        "setup_mean_ms": 1e3 * statistics.fmean(flat),
        "dedup_hits": counters["dedup_hits"],
        "shed": stats.shed,
    }


def run_pipelined(agents: int, windows: int, window: int) -> dict:
    """Pipelined: each agent keeps *window* admits in flight per
    round, binary codec, coalesced writes both directions.

    Only the admit phase is timed (teardowns pay a per-flow edge RTT
    at the service by design — they are unbatchable — and the paper's
    setup-time experiments time admission, not teardown).
    """
    broker = BandwidthBroker()
    pinned = provision_parallel_paths(broker, paths=PATHS)
    # queue_limit must absorb agents*window admits in flight at once;
    # batch_limit lets the service fold a whole window into few
    # batched admissions (one edge RTT per batch).
    with BrokerService(broker, workers=WORKERS, shards=SHARDS,
                       edge_rtt=EDGE_RTT, batch_limit=window,
                       queue_limit=max(4096, 2 * agents * window),
                       ) as service:
        gateway = EdgeGateway(service, lease_duration=300.0)
        host, port = gateway.listen()
        gateway.start()
        try:
            # start barrier, admit-phase-done barrier
            barrier = threading.Barrier(agents + 1)
            admitted_counts = [0] * agents
            window_times = [[] for _ in range(agents)]
            codecs_seen = [""] * agents
            errors = []

            def client(rank: int) -> None:
                nodes = pinned[rank % len(pinned)]
                agent = EdgeAgent(
                    f"edge-{rank}", tcp_connector(host, port),
                    seed=rank, op_budget=30.0, attempt_timeout=1.0,
                    codecs=("binary", "json"),
                )
                try:
                    agent.ping()   # handshake before the clock starts
                    codecs_seen[rank] = agent.negotiated_codec
                    barrier.wait()
                    admitted = []
                    for round_no in range(windows):
                        ops = [
                            AdmitOp(
                                f"a{rank}-w{round_no}-f{k}", SPEC,
                                2.44, nodes[0], nodes[-1],
                                path_nodes=nodes,
                            )
                            for k in range(window)
                        ]
                        begin = time.perf_counter()
                        replies = agent.admit_many(
                            ops, now=float(round_no),
                        )
                        window_times[rank].append(
                            time.perf_counter() - begin
                        )
                        assert len(replies) == window
                        for flow_id, reply in replies.items():
                            assert reply["status"] == "ok", reply
                            assert reply["decision"]["admitted"], reply
                            admitted.append(flow_id)
                    admitted_counts[rank] = len(admitted)
                    barrier.wait()   # stop the admit clock fleet-wide
                    for start in range(0, len(admitted), window):
                        agent.teardown_many(
                            admitted[start:start + window],
                            now=float(windows),
                        )
                except Exception as exc:
                    errors.append((rank, repr(exc)))
                    try:
                        barrier.abort()
                    except Exception:
                        pass
                finally:
                    agent.close()

            threads = [
                threading.Thread(target=client, args=(rank,))
                for rank in range(agents)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            begin = time.perf_counter()
            barrier.wait()
            elapsed = time.perf_counter() - begin
            for thread in threads:
                thread.join()
            counters = gateway.counters()
        finally:
            gateway.stop()
        stats = service.stats()

    assert errors == [], errors
    total = agents * windows * window
    assert sum(admitted_counts) == total
    # Exactly-once under pipelining: every admitted flow got exactly
    # one lease and every teardown released it.
    assert broker.stats().active_flows == 0
    assert counters["leases"]["granted"] == total
    assert counters["leases"]["released"] == total
    # The whole fleet actually negotiated the binary codec.
    assert set(codecs_seen) == {"binary"}, codecs_seen
    per_op = sorted(t / window
                    for per in window_times for t in per)
    return {
        "scenario": f"pipelined binary x{window}",
        "agents": agents,
        "requests": total,
        "admits_per_s": total / elapsed,
        "setup_p50_ms": 1e3 * per_op[len(per_op) // 2],
        "setup_p99_ms": 1e3 * per_op[min(len(per_op) - 1,
                                         int(len(per_op) * 0.99))],
        "setup_mean_ms": 1e3 * statistics.fmean(per_op),
        "dedup_hits": counters["dedup_hits"],
        "shed": stats.shed,
    }


def test_bench_edge_gateway_fleet(benchmark, tmp_path):
    results = benchmark.pedantic(
        lambda: [
            run_fleet(1, REQUESTS),
            run_fleet(AGENTS, REQUESTS),
            run_pipelined(AGENTS, PIPELINE_WINDOWS, PIPELINE_WINDOW),
        ],
        rounds=1, warmup_rounds=0,
    )
    artifact = tmp_path / "edge_gateway.json"
    artifact.write_text(json.dumps(results, indent=2))

    solo, fleet, pipelined = results
    print()
    print(f"Edge signaling over loopback TCP ({WORKERS} workers, "
          f"{PATHS} disjoint paths):")
    print(render_table(
        ["scenario", "agents", "admits", "admits/s", "setup p50(ms)",
         "setup p99(ms)", "shed"],
        [[entry["scenario"], entry["agents"], entry["requests"],
          f"{entry['admits_per_s']:.0f}",
          f"{entry['setup_p50_ms']:.2f}",
          f"{entry['setup_p99_ms']:.2f}", entry["shed"]]
         for entry in results],
    ))
    print(f"artifact: {artifact}")

    assert fleet["agents"] >= 8
    # Pipelining must help under any load: even the smoke shape has
    # windows of admits amortizing round trips and edge RTTs.
    assert pipelined["admits_per_s"] > fleet["admits_per_s"], (
        f"pipelined binary ({pipelined['admits_per_s']:.0f}/s) "
        f"should beat the closed loop ({fleet['admits_per_s']:.0f}/s)"
    )
    if not SMOKE:
        # Concurrent edges must pipeline, not serialize: the fleet
        # clears more admissions per second than a single agent.
        assert fleet["admits_per_s"] >= 1.5 * solo["admits_per_s"], (
            f"8 agents ({fleet['admits_per_s']:.0f}/s) should beat "
            f"one agent ({solo['admits_per_s']:.0f}/s) by >= 1.5x"
        )
        # Binary + pipelining must beat the JSON closed-loop fleet by
        # >= 5x.  A ratio, not an absolute admits/s floor: the same
        # code spreads by more than 25 % between hosts and days.
        assert pipelined["admits_per_s"] >= 5 * fleet["admits_per_s"], (
            f"pipelined ({pipelined['admits_per_s']:.0f}/s) should "
            f"be >= 5x the JSON fleet "
            f"({fleet['admits_per_s']:.0f}/s)"
        )
