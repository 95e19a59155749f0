"""The ``python -m repro`` command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        # The throughput benches live in ``python -m benchmarks.e2e``;
        # log-shipping replication (replicate, promote) is gone.
        for command in ("frobnicate", "serve-bench", "shard-bench",
                        "edge-bench", "replicate", "promote"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_figure10_options(self):
        args = build_parser().parse_args(["figure10", "--runs", "2",
                                          "--fast"])
        assert args.runs == 2
        assert args.fast


class TestCommands:
    def test_table1_passes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "recomputed(s)" in out
        assert "2.4400" in out

    def test_table2_exact_match(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "exact match" in out
        assert "30 (30)" in out

    def test_figure7_demonstrates_violation(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATES" in out

    def test_figure9_shape(self, capsys):
        assert main(["figure9"]) == 0
        assert "Aggr BB/VTRS" in capsys.readouterr().out

    def test_figure10_fast(self, capsys):
        assert main(["figure10", "--fast"]) == 0
        assert "offered load" in capsys.readouterr().out


class TestExtensionCommands:
    def test_plan(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "statistical" in out
        assert "type 3" in out

    def test_plan_tight(self, capsys):
        assert main(["plan", "--tight", "--epsilon", "0.01"]) == 0
        assert "eps=0.01" in capsys.readouterr().out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "RSVP refresh msg/s" in out
        assert "class-based BB" in out


class TestClusterCommands:
    @staticmethod
    def _crashed_cluster_root(tmp_path):
        from repro.cluster import build_pod_cluster
        from repro.workloads.profiles import flow_type

        root = tmp_path / "cluster-wal"
        spec = flow_type(0).spec
        cluster = build_pod_cluster(
            2, wal_root=str(root), fsync=False,
        )
        with cluster:
            for pod, nodes in enumerate(cluster.pod_paths):
                decision = cluster.coordinator.admit(
                    f"pod{pod}-f0", spec, 2.44, nodes[0], nodes[-1],
                    path_nodes=nodes,
                )
                assert decision.admitted
            span = cluster.spanning_paths[0]
            spanning = cluster.coordinator.admit(
                "span-f0", spec, 2.44, span[0], span[-1],
                path_nodes=span,
            )
            assert spanning.admitted
            for shard in cluster.shards.values():
                shard.checkpoint()
        return root

    def test_recover_shard_dir(self, capsys, tmp_path):
        root = self._crashed_cluster_root(tmp_path)
        assert main(["recover", str(root), "--shard-dir"]) == 0
        out = capsys.readouterr().out
        assert "shard0" in out
        assert "shard1" in out
        assert "prepared holds" in out
        # Every spanning admit finished before the crash.
        assert "coordinator decision log: 0 open, 0 decided but not " \
            "done" in out

    def test_recover_single_shard_directory(self, capsys, tmp_path):
        # A shard journal carrying 2PC records after its checkpoint
        # recovers through the plain ``recover`` command.
        from repro.cluster import PartitionMap
        from repro.cluster.shard import BrokerShard
        from repro.core.broker import BandwidthBroker
        from repro.service import FileJournal
        from repro.vtrs.timestamps import SchedulerKind
        from repro.workloads.profiles import flow_type

        spec = flow_type(0).spec
        broker = BandwidthBroker()
        broker.add_link("a", "b", 10e6, SchedulerKind.RATE_BASED)
        pmap = PartitionMap(["s0"])
        shard = BrokerShard("s0", broker, pmap,
                            wal=FileJournal(tmp_path, fsync=False))
        shard.checkpoint()
        shard.prepare({
            "txid": "tx-1", "flow_id": "f1", "links": [["a", "b"]],
            "spec": spec.to_dict(), "delay_requirement": 2.44,
            "mode": "fixed", "rate": spec.rho, "delay": 0.0,
            "now": 0.0, **pmap.stamp(),
        })
        shard.commit({"txid": "tx-1", "flow_id": "f1", "now": 1.0,
                      **pmap.stamp()})
        shard.wal.close()
        assert main(["recover", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"entries replayed\s+2\b", out)
        assert re.search(r"active flows\s+1\b", out)

    def test_recover_shard_dir_rejects_empty_root(self, capsys,
                                                  tmp_path):
        assert main(["recover", str(tmp_path), "--shard-dir"]) == 1
        err = capsys.readouterr().err
        assert "no shard subdirectories" in err
