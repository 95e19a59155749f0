"""Multi-process cluster: supervision, crash recovery, forked edge.

The acceptance property mirrors the in-process recovery suite but
with real OS processes and real kill -9: murder a shard process
mid-batch and mid-2PC-prepare, let the :class:`ProcessSupervisor`
restart it, and the recovered domain must converge to the same state
a single fused broker reaches admitting exactly the surviving flows —
zero double-admits, zero stranded ``txn:`` holds.  The forked edge
tier gets the same treatment: kill a gateway worker, prove agents
reconnect through the shared ``SO_REUSEPORT`` port and that replayed
idempotency keys do not double-admit.

Everything here spawns children via the ``spawn`` context (the test
runner has live threads), so each test budgets a few hundred ms of
process startup; keep workloads small.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.cluster import (
    build_proc_cluster,
    run_cluster_loop,
)
from repro.cluster.procs import ProcessSupervisor, reserve_port
from repro.edge import EdgeAgent, tcp_connector
from repro.errors import SignalingError
from repro.soak.audit import audit_proc_cluster
from repro.workloads.profiles import flow_type

pytestmark = [pytest.mark.network, pytest.mark.procs]

SPEC = flow_type(0).spec
D_REQ = 2.44


def wait_until(predicate, *, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_for_shard(cluster, name, *, timeout=20.0):
    """Block until the (re)started shard answers a status op."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return cluster.handles[name].status()
        except (SignalingError, OSError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def assert_matches_oracle(cluster, surviving):
    """Differential check against a fused single-broker oracle.

    Thin wrapper over :func:`repro.soak.audit.audit_proc_cluster` —
    the same invariant suite the million-event soak runs (oracle link
    loads/keys, zero ``txn:`` holds, zero double admits, registry ==
    survivors), asserted here for pytest reporting.
    """
    report = audit_proc_cluster(cluster, dict(surviving), SPEC, D_REQ)
    assert report.ok, report.summary() + "".join(
        f"\n  {f.kind}: {f.subject}: {f.detail}"
        for f in report.findings
    )


class TestProcClusterBasics:
    def test_shards_run_in_separate_processes(self, tmp_path):
        with build_proc_cluster(2, run_dir=str(tmp_path)) as cluster:
            stats = cluster.merged_stats()
            pids = {frame["pid"] for frame in stats["shards"].values()}
            assert len(pids) == 2
            assert os.getpid() not in pids
            for frame in stats["shards"].values():
                assert frame["service"]["completed"] == 0

    def test_workload_admits_and_commits_spanning(self, tmp_path):
        with build_proc_cluster(2, run_dir=str(tmp_path)) as cluster:
            report = run_cluster_loop(
                cluster, SPEC, D_REQ, clients_per_pod=2,
                requests_per_client=5, spanning_every=3,
            )
            assert report.errors == 0
            assert report.admitted == report.requests
            assert report.spanning_admitted == report.spanning_requests
            assert cluster.outstanding_holds() == []
            stats = cluster.merged_stats()
            assert stats["coordinator"]["spanning_commits"] == \
                report.spanning_admitted
            completed = sum(
                frame["service"]["completed"]
                for frame in stats["shards"].values()
            )
            assert completed > 0

    def test_graceful_sigterm_drains_and_recovers_wal(self, tmp_path):
        """SIGTERM mid-lifetime must fsync the WAL so a restart
        recovers every admitted flow — the graceful-drain contract."""
        cluster = build_proc_cluster(
            2, run_dir=str(tmp_path), durable=True, fsync=True,
        )
        surviving = {}
        with cluster:
            for pod, nodes in enumerate(cluster.pod_paths):
                flow_id = f"keep-p{pod}"
                decision = cluster.coordinator.admit(
                    flow_id, SPEC, D_REQ, nodes[0], nodes[-1],
                    path_nodes=tuple(nodes), now=1.0,
                )
                assert decision.admitted, decision
                surviving[flow_id] = nodes
            # Graceful single-shard bounce: SIGTERM (drain + fsync),
            # wait for the supervisor to bring it back, re-check.
            pid = cluster.supervisor.pids()["shard0"]
            os.kill(pid, signal.SIGTERM)
            assert wait_until(
                lambda: cluster.supervisor.pids()["shard0"] != pid
                and cluster.supervisor.alive()["shard0"]
            )
            status = wait_for_shard(cluster, "shard0")
            assert status["flows"] == 1
            assert_matches_oracle(cluster, surviving)


class TestSupervisorFaults:
    def test_kill9_mid_batch_recovers_to_oracle(self, tmp_path):
        """kill -9 a shard process between batches of local admits;
        after restart + journal replay the domain equals the oracle."""
        cluster = build_proc_cluster(
            2, run_dir=str(tmp_path), durable=True, fsync=True,
        )
        surviving = {}
        with cluster:
            nodes0 = cluster.pod_paths[0]
            nodes1 = cluster.pod_paths[1]
            for index in range(3):
                flow_id = f"pre-{index}"
                decision = cluster.coordinator.admit(
                    flow_id, SPEC, D_REQ, nodes0[0], nodes0[-1],
                    path_nodes=tuple(nodes0), now=1.0,
                )
                assert decision.admitted
                surviving[flow_id] = nodes0
            assert cluster.coordinator.teardown("pre-1").status == "ok"
            del surviving["pre-1"]
            cluster.supervisor.kill("shard0")
            # Ops keep flowing: the other shard is untouched, and the
            # killed one comes back through the supervisor + redial.
            decision = cluster.coordinator.admit(
                "during", SPEC, D_REQ, nodes1[0], nodes1[-1],
                path_nodes=tuple(nodes1), now=2.0,
            )
            assert decision.admitted
            surviving["during"] = nodes1
            status = wait_for_shard(cluster, "shard0")
            assert status["flows"] == 2  # pre-0, pre-2 recovered
            decision = cluster.coordinator.admit(
                "post", SPEC, D_REQ, nodes0[0], nodes0[-1],
                path_nodes=tuple(nodes0), now=3.0,
            )
            assert decision.admitted
            surviving["post"] = nodes0
            assert cluster.supervisor.counters()["restarts"]["shard0"] \
                >= 1
            assert_matches_oracle(cluster, surviving)

    def test_live_audit_waits_out_a_shard_restart(self, tmp_path):
        """kill -9 a shard and audit at once: the pooled connection
        is dead and the endpoint file still names the killed
        process's port, so the audit must wait for the restarted
        process to answer before it dumps."""
        cluster = build_proc_cluster(
            2, run_dir=str(tmp_path), durable=True, fsync=True,
        )
        surviving = {}
        with cluster:
            for pod, nodes in enumerate(cluster.pod_paths):
                flow_id = f"keep-p{pod}"
                decision = cluster.coordinator.admit(
                    flow_id, SPEC, D_REQ, nodes[0], nodes[-1],
                    path_nodes=tuple(nodes), now=1.0,
                )
                assert decision.admitted, decision
                surviving[flow_id] = nodes
            cluster.dumps()  # every pooled connection is warm
            cluster.supervisor.kill("shard0")
            assert_matches_oracle(cluster, surviving)
            assert cluster.supervisor.counters()["restarts"]["shard0"] \
                >= 1

    def test_kill9_mid_prepare_leaves_no_stranded_holds(self, tmp_path):
        """The hardest window: the participant journals its prepared
        hold, dies before acking (``crash_after`` fault injection =
        kill -9 after the fsync).  The coordinator aborts, the
        supervisor restarts the shard (WAL resurrects the hold), and
        the re-driven abort must release it — converging to the
        oracle with zero double-admits and zero stranded holds."""
        cluster = build_proc_cluster(
            2, run_dir=str(tmp_path), durable=True, fsync=True,
            crash_ops={"shard0": ("prepare", 2)},
        )
        surviving = {}
        with cluster:
            span = cluster.spanning_paths[0]
            decision = cluster.coordinator.admit(
                "span-ok", SPEC, D_REQ, span[0], span[-1],
                path_nodes=tuple(span), now=1.0,
            )
            assert decision.admitted, decision
            surviving["span-ok"] = span
            # Prepare #2 applies on shard0 then the process dies
            # before replying; the admission must fail closed.
            decision = cluster.coordinator.admit(
                "span-crash", SPEC, D_REQ, span[0], span[-1],
                path_nodes=tuple(span), now=2.0,
            )
            assert not decision.admitted
            status = wait_for_shard(cluster, "shard0")
            assert status["holds"]["active"] == 0, status
            # The restarted shard admits spanning flows again.
            decision = cluster.coordinator.admit(
                "span-after", SPEC, D_REQ, span[0], span[-1],
                path_nodes=tuple(span), now=3.0,
            )
            assert decision.admitted, decision
            surviving["span-after"] = span
            assert cluster.supervisor.counters()["restarts"]["shard0"] \
                >= 1
            assert_matches_oracle(cluster, surviving)

    def test_reconcile_redrives_unresolved_release(self, tmp_path):
        """A teardown whose per-shard release hits a dead process is
        parked as unresolved and re-driven on reconnect — capacity is
        freed without waiting out any lease."""
        cluster = build_proc_cluster(
            2, run_dir=str(tmp_path), durable=True, fsync=True,
        )
        with cluster:
            span = cluster.spanning_paths[0]
            decision = cluster.coordinator.admit(
                "span-ok", SPEC, D_REQ, span[0], span[-1],
                path_nodes=tuple(span), now=1.0,
            )
            assert decision.admitted, decision
            # Take shard0 down *hard* and keep it down long enough
            # for the release to exhaust its redial window.
            cluster.handles["shard0"].dial_timeout = 0.3
            child = cluster.supervisor._children["shard0"]
            child.stopping = True  # park the supervisor's restarts
            child.process.kill()
            child.process.join(timeout=5.0)
            decision = cluster.coordinator.teardown("span-ok", now=2.0)
            assert decision.status == "ok"
            unresolved = cluster.coordinator.unresolved()
            assert unresolved.get("shard0"), unresolved
            # Bring it back; the next op's redial fires the
            # reconcile hook which re-drives the parked release.
            cluster.handles["shard0"].dial_timeout = 10.0
            child.stopping = False
            child.process = cluster.supervisor._spawn(
                child.target, child.restart_spec,
            )
            wait_for_shard(cluster, "shard0")
            assert wait_until(
                lambda: not cluster.coordinator.unresolved()
            ), cluster.coordinator.unresolved()
            assert cluster.coordinator.reconciled >= 1
            assert cluster.outstanding_holds() == []
            assert_matches_oracle(cluster, {})


class TestGatewayWorkers:
    def test_agents_balance_over_reuseport_group(self, tmp_path):
        with build_proc_cluster(
            2, run_dir=str(tmp_path), gateway_workers=2,
        ) as cluster:
            nodes = cluster.pod_paths[0]
            agent = EdgeAgent(
                "agent-a",
                tcp_connector("127.0.0.1", cluster.gateway_port),
                seed=7,
            )
            with agent:
                reply = agent.admit(
                    "f1", SPEC, D_REQ, nodes[0], nodes[-1],
                    path_nodes=tuple(nodes), now=1.0,
                )
                assert reply["status"] == "ok"
                assert reply["decision"]["admitted"]
                reply = agent.teardown("f1", now=2.0)
                assert reply["status"] == "ok"
            assert cluster.flows() == {"shard0": [], "shard1": []}

    def test_worker_crash_reconnect_and_idempotent_replay(
            self, tmp_path):
        """Kill every gateway worker while an agent holds a session.

        The agent's next op sees the dead connection, redials the
        shared port (landing on a supervisor-restarted worker), and
        the replayed admit for the already-admitted flow is refused
        as a duplicate — one reservation, not two."""
        with build_proc_cluster(
            2, run_dir=str(tmp_path), gateway_workers=2,
        ) as cluster:
            nodes = cluster.pod_paths[0]
            agent = EdgeAgent(
                "agent-a",
                tcp_connector("127.0.0.1", cluster.gateway_port),
                seed=11, op_budget=30.0,
            )
            with agent:
                reply = agent.admit(
                    "f1", SPEC, D_REQ, nodes[0], nodes[-1],
                    path_nodes=tuple(nodes), now=1.0,
                )
                assert reply["decision"]["admitted"]
                rate_before = cluster.link_loads()
                pids_before = cluster.supervisor.pids()
                for name in ("gw-0", "gw-1"):
                    cluster.supervisor.kill(name)
                assert wait_until(lambda: all(
                    cluster.supervisor.alive()[name]
                    and cluster.supervisor.pids()[name]
                    != pids_before[name]
                    for name in ("gw-0", "gw-1")
                ))
                import socket as _socket

                def can_connect():
                    try:
                        probe = _socket.create_connection(
                            ("127.0.0.1", cluster.gateway_port), 0.3,
                        )
                        probe.close()
                        return True
                    except OSError:
                        return False

                assert wait_until(can_connect)
                # Replay the same logical admit through the restarted
                # tier: the worker's dedup window died with it, so
                # the refusal must come from the broker tier, not the
                # cache — and the reservation must not double.
                reply = agent.admit(
                    "f1", SPEC, D_REQ, nodes[0], nodes[-1],
                    path_nodes=tuple(nodes), now=3.0,
                )
                assert reply["status"] == "ok"
                assert not reply["decision"]["admitted"]
                assert "already admitted" in \
                    reply["decision"]["detail"]
                assert cluster.link_loads() == rate_before
                assert cluster.flows()["shard0"] == ["f1"]

    def test_sigterm_drain_flushes_before_exit(self, tmp_path):
        """A SIGTERMed worker answers its in-flight replies before
        exiting (stop accepting -> drain outbox -> exit 0)."""
        with build_proc_cluster(
            2, run_dir=str(tmp_path), gateway_workers=1,
        ) as cluster:
            nodes = cluster.pod_paths[0]
            agent = EdgeAgent(
                "agent-a",
                tcp_connector("127.0.0.1", cluster.gateway_port),
                seed=3,
            )
            with agent:
                reply = agent.admit(
                    "f1", SPEC, D_REQ, nodes[0], nodes[-1],
                    path_nodes=tuple(nodes), now=1.0,
                )
                assert reply["decision"]["admitted"]
            child = cluster.supervisor._children["gw-0"]
            child.stopping = True
            child.process.terminate()
            child.process.join(timeout=10.0)
            assert child.process.exitcode == 0
            # The flow it admitted is still owned by the broker tier.
            assert cluster.flows()["shard0"] == ["f1"]


class TestSupervisorUnit:
    def test_restart_backoff_gives_up_after_max(self, tmp_path):
        supervisor = ProcessSupervisor(
            max_restarts=2, backoff=0.01, backoff_max=0.05,
            monitor_interval=0.01,
        )
        supervisor.launch("boom", _exit_now, 0)
        supervisor.start_monitor()
        try:
            assert wait_until(
                lambda: supervisor.counters()["failed"] == ["boom"],
                timeout=10.0,
            ), supervisor.counters()
            assert supervisor.counters()["restarts"]["boom"] == 2
        finally:
            supervisor.stop()

    def test_liveness_kill_requires_readiness(self, monkeypatch):
        """A child that has never answered a ping is still starting
        up (e.g. replaying a long WAL before it binds) — the monitor
        must not treat it as hung, or a slow recovery crash-loops.
        Once it has been responsive, going deaf IS a hang."""
        from repro.cluster.procs import _Child

        supervisor = ProcessSupervisor(ping_grace=3)
        child = _Child(
            name="s", target=None, spec=None, restart_spec=None,
            endpoint=lambda: ("127.0.0.1", 1),
        )
        child.process = _StubProcess()
        monkeypatch.setattr(supervisor, "_ping_once", lambda c: False)
        for _ in range(10):
            supervisor._check_ping(child)
        assert not child.process.killed  # never ready: spared
        child.responsive = True
        for _ in range(3):
            supervisor._check_ping(child)
        assert child.process.killed  # ready then deaf: hung

    def test_reserve_port_never_accepts(self):
        sock, port = reserve_port()
        try:
            import socket as _socket

            probe = _socket.socket()
            probe.settimeout(0.5)
            with pytest.raises(OSError):
                probe.connect(("127.0.0.1", port))
            probe.close()
        finally:
            sock.close()


def _exit_now(spec):  # module-level: must be picklable for spawn
    os._exit(3)


class _StubProcess:
    def __init__(self):
        self.killed = False

    def kill(self):
        self.killed = True
