"""All four workloads and one traced run at their shortest
(``--seconds 1``): every answer correct, every metric present, nothing
left behind — in under thirty seconds."""

import json
import os
import subprocess
import sys
import time

from benchmarks.e2e import ROOT, procstat
from benchmarks.e2e.harness import OUT_DIR, adopt_orphans
from benchmarks.e2e.layers import PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS

_END_TO_END = {"setup_s", "goodput_rps", "admit_p50_ms", "admit_p90_ms",
               "cpu_ms_per_op", "rss_mb"}


def _start(workload: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "run",
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def _sut_processes() -> list:
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as handle:
                if b"benchmarks.e2e.sut" in handle.read():
                    found.append(int(name))
        except OSError:
            continue
    return found


def test_smoke_all_workloads_and_a_traced_run():
    began = time.monotonic()
    # Side by side: the smoke checks answers and plumbing, not speed.
    runs = {(name, 0): _start(name, 0) for name in WORKLOADS}
    runs[("rest_closed", 1)] = _start("rest_closed", 1)
    for (name, trace), run in runs.items():
        output, _ = run.communicate(timeout=120)
        assert run.returncode == 0, output
        result = json.loads(output.strip().splitlines()[-1])
        assert result["correct"] is True, output
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = set(PER_LAYER) if trace else _END_TO_END
        assert set(result["metrics"]) == expected
        for metric, entry in result["metrics"].items():
            assert isinstance(entry["value"], (int, float)), metric
        if not trace:
            assert all(result["metrics"][m]["value"] > 0
                       for m in _END_TO_END)
    elapsed = time.monotonic() - began
    assert elapsed < 30.0, f"smoke took {elapsed:.1f}s"

    # Hygiene: no SUT process and no run directory outlives its run.
    assert _sut_processes() == []
    assert [entry for entry in os.listdir(OUT_DIR)
            if entry.startswith("run-")] == []
    with open(os.path.join(OUT_DIR, "spans.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    assert {"name", "op", "start", "end", "parent"} == set(spans[0])
    names = {span["name"] for span in spans}
    assert {"rest.lifecycle", "rest.admit", "ladder.core.admit",
            "ladder.rest.admit"} <= names
    parents = {span["name"]: span["parent"] for span in spans}
    assert parents["ladder.core.admit"] == "ladder.service.admit"
    assert parents["ladder.rest.admit"] is None


def test_a_run_hands_no_process_to_its_caller():
    """Whatever a run starts it also waits for: with this process as
    the reaper of orphans, a finished run leaves it no child at all —
    not a live one and not an exited one waiting to be collected (the
    SUT's resource tracker used to outlive the SUT root that way)."""
    assert adopt_orphans()
    mine = set(procstat.children(os.getpid()))
    for trace in (0, 1):
        run = _start("rest_closed", trace)
        output, _ = run.communicate(timeout=120)
        assert run.returncode == 0, output
        assert set(procstat.children(os.getpid())) == mine, output


def test_refuses_to_run_without_the_package_under_test(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: exit non-zero, no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run",
         "--workload", "engine_deep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
