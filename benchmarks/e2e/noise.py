"""``python -m benchmarks.e2e noise``: is the benchmark steady enough
for its own bounds?

Runs every workload ``--runs`` times per set (a fresh harness process
and a fresh seed each time, the way the driver runs it), for
``--sets`` sets of the *same* code.  Per metric and workload it
reports each set's median and single-run spread — the distance between
the first and third quartile as a share of the median — and the gap
between the first and the last set's medians, in whichever direction
reads worse.  Identical code should not look like a regression
whichever set ran first: the command fails if any gap exceeds half
the metric's bound, and flags spreads above a third of it.  The table
is written to ``NOISE.md``; bounds in ``BENCHMARK.json`` are kept or
widened from it, never guessed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchmarks.e2e import ROOT
from benchmarks.e2e.stats import iqr_share, median

NOISE_MD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "NOISE.md")
_RUN_TIMEOUT = 180.0


def load_contract() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _one_run(workload: str, seed: int, seconds: float
             ) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run",
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=_RUN_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def gap_between(first: float, last: float, better: str) -> float:
    """The regression a comparison of two sets of the same code would
    report if the worse one had run second: their distance as a share
    of the better median."""
    best = min(first, last) if better == "lower" else max(first, last)
    return abs(first - last) / abs(best) if best else 0.0


def run_noise(sets: int, runs: int, seconds: float,
              only: Optional[str] = None) -> int:
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]
                 if only in (None, w["name"])]
    metrics = contract["end_to_end"]
    began = time.time()
    #: samples[workload][set][metric] -> values
    samples: Dict[str, List[Dict[str, List[float]]]] = {
        name: [{m["name"]: [] for m in metrics} for _ in range(sets)]
        for name in workloads
    }
    seed = 100
    for set_index in range(sets):
        for name in workloads:
            for _ in range(runs):
                seed += 1
                values = _one_run(name, seed, seconds)
                for metric, value in values.items():
                    samples[name][set_index][metric].append(value)
                print(f"set {set_index + 1} {name} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}"
                                 for k, v in values.items()),
                      flush=True)

    text, failed = render(
        samples, metrics,
        f"`python -m benchmarks.e2e noise --sets {sets} --runs {runs}"
        f" --seconds {seconds:g}` on {os.cpu_count()} CPUs "
        f"({time.strftime('%Y-%m-%d', time.gmtime(began))}, "
        f"{(time.time() - began) / 60:.0f} min).")
    print(text)
    if only is None:
        with open(NOISE_MD, "w") as handle:
            handle.write(text)
        print(f"written to {os.path.relpath(NOISE_MD)}")
    return 1 if failed else 0


def render(samples: Dict[str, List[Dict[str, List[float]]]],
           metrics: List[Dict], provenance: str):
    """The NOISE.md table for *samples* (workload -> per set -> metric
    -> values) and whether any gap exceeds half its bound."""
    sets = len(next(iter(samples.values())))
    lines = [
        "# Run-to-run noise of the benchmark",
        "",
        provenance,
        "",
        "Same code in every set.  *spread* is the distance between the "
        "first and third quartile of one set's runs as a share of its "
        "median; *gap* is how much worse the worse of the first and "
        "last set's medians is than the better one, whichever ran "
        "first.  A gap above half the bound fails the command; a "
        "spread above a third of the bound is flagged `wide`.",
        "",
        "| workload | metric | bound | "
        + " | ".join(f"median {i + 1} | spread {i + 1}"
                     for i in range(sets))
        + " | gap | verdict |",
        "|---|---|---|" + "---|---|" * sets + "---|---|",
    ]
    failed = False
    for name, per_set in samples.items():
        for metric in metrics:
            key, bound = metric["name"], metric["bound"]
            medians = [median(s[key]) for s in per_set]
            spreads = [iqr_share(s[key]) if len(s[key]) > 1 else 0.0
                       for s in per_set]
            gap = gap_between(medians[0], medians[-1], metric["better"])
            verdict = "ok"
            if max(spreads) > bound / 3:
                verdict = "wide"
            if gap > bound / 2:
                verdict = "FAIL"
                failed = True
            cells = " | ".join(
                f"{m:.4g} | {s * 100:.1f} %"
                for m, s in zip(medians, spreads))
            lines.append(
                f"| {name} | {key} | {bound * 100:.0f} % | {cells} | "
                f"{gap * 100:.1f} % | {verdict} |")
    return "\n".join(lines) + "\n", failed
