"""Every example script must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "ADMITTED" in out
    assert "REJECTED" in out
    assert "macroflow" in out


def test_paper_evaluation_fast():
    out = run_example("paper_evaluation.py", "--fast")
    assert "exact match with the published table: True" in out
    assert "VIOLATES new bound" in out
    assert "Figure 10" in out


def test_dynamic_aggregation():
    out = run_example("dynamic_aggregation.py")
    assert "contingency expired" in out
    assert "within eq.(13)" in out
    assert "eq. (12) bound" in out


def test_scheduler_zoo():
    out = run_example("scheduler_zoo.py")
    assert "PREMIUM BOUND VIOLATED" in out  # FIFO
    assert out.count("within bounds") == 6  # the guaranteed disciplines


def test_blocking_study():
    out = run_example(
        "blocking_study.py", "--rates", "0.1", "0.2", "--runs", "1",
        "--horizon", "1500",
    )
    assert "per-flow BB/VTRS" in out
    assert "Per-type blocking" in out


def test_capacity_planning():
    out = run_example("capacity_planning.py")
    assert "Erlang-B prediction" in out
    assert "per-flow BB" in out


def test_broker_failover():
    out = run_example("broker_failover.py")
    assert "failover check" in out
    assert "buffer requirements" in out.lower()


def test_interdomain_sla():
    out = run_example("interdomain_sla.py")
    assert "budget split" in out
    assert "rollback verified" in out


def test_concurrent_broker():
    out = run_example("concurrent_broker.py")
    assert "reconciles: True" in out
    assert "TRY_AGAIN" in out
    assert "shard acquisitions" in out
    assert "concurrent service runtime OK" in out


@pytest.mark.network
def test_edge_agents():
    out = run_example("edge_agents.py")
    assert "admitted exactly once" in out
    assert "lease reaper collected the orphans" in out
    assert "broker holds 0 flows" in out
    assert "exactly-once signaling over an at-least-once network" in out
