"""Command line of the benchmark (``python -m benchmarks.e2e``)."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, List, Tuple

from benchmarks.e2e import SRC

#: Default ``--seconds``; equals ``run_seconds`` in ``BENCHMARK.json``.
DEFAULT_SECONDS = 15


def _emit(correct: bool, attempted: int, failed: int,
          metrics: Dict[str, Tuple[float, str]]) -> None:
    """The driver's result line: one JSON object, last on stdout."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def _run_one(name: str, seed: int, seconds: float) -> bool:
    from benchmarks.e2e.workloads import run_workload

    result = run_workload(name, seed, seconds)
    phase = result.measured
    metrics = result.end_to_end()
    print(f"[{name}] answers sha256 {result.answers[:16]}; "
          f"{len(phase.admit_latencies)} admit samples; "
          f"measured {phase.wall:.2f}s")
    whole = result.whole_phase()
    for metric, (value, unit) in metrics.items():
        over = f"   (whole phase {whole[metric][0]:.4f})" \
            if metric in whole else ""
        print(f"[{name}] {metric:<16}{value:>14.4f} {unit}{over}")
    print(f"[{name}] attempted {phase.attempted} failed {phase.failed} "
          f"(warm-up: {result.warmup.attempted} attempted, "
          f"{result.warmup.failed} failed)")
    for problem in result.problems:
        print(f"[{name}] PROBLEM: {problem}")
    _emit(result.correct, phase.attempted,
          phase.failed + result.warmup.failed, metrics)
    return result.correct


def _run_traced(names: List[str], seed: int, seconds: float) -> bool:
    from benchmarks.e2e import layers
    from benchmarks.e2e.harness import OUT_DIR

    shared = layers.run_shared(seed, seconds)
    rows = list(shared.rows)
    outcomes = []
    for name in names:
        outcome, mine = layers.run_traced(name, seed, seconds, shared)
        outcomes.append(outcome)
        rows.extend(mine)
    path = os.path.join(OUT_DIR, "spans.jsonl")
    layers.write_spans(rows, path)
    print(f"{len(rows)} spans -> {os.path.relpath(path)}")
    # Last, so that the result line ends the output.
    for outcome in outcomes:
        _emit(*outcome)
    return all(outcome[0] for outcome in outcomes)


def _cmd_run(args) -> int:
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    print("host: loopback TCP, WAL fsync on the sandbox's disk; one "
          f"generator process on CPU {sorted(harness.GENERATOR_CPUS)}, "
          f"SUT on CPU {sorted(harness.SUT_CPUS)}")
    harness.pin_generator()
    if args.trace:
        ok = _run_traced(names, args.seed, args.seconds)
    else:
        ok = all([_run_one(name, args.seed, args.seconds)
                  for name in names])
    return 0 if ok else 1


def _cmd_noise(args) -> int:
    from benchmarks.e2e.noise import run_noise

    return run_noise(args.sets, args.runs, args.seconds, args.workload)


def _seconds(text: str) -> float:
    seconds = float(text)
    if seconds < 1.0:
        # Below this a measured phase has too few admits to rank.
        raise argparse.ArgumentTypeError("must be at least 1")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end and per-layer benchmark of the broker "
                    "stack.")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub) -> None:
        sub.add_argument("--workload", default=None,
                         help="one workload (default: all four)")
        sub.add_argument("--seconds", type=_seconds,
                         default=DEFAULT_SECONDS,
                         help="sizes the fixed op counts: each "
                              "workload's per-second constant times "
                              "this (at least 1)")

    run = commands.add_parser("run", help="measure workloads")
    common(run)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced run, per-layer metrics "
                          "instead of end-to-end ones")
    run.set_defaults(handler=_cmd_run)

    noise = commands.add_parser(
        "noise", help="measure run-to-run spread, write NOISE.md")
    common(noise)
    noise.add_argument("--sets", type=int, default=2)
    noise.add_argument("--runs", type=int, default=5)
    noise.set_defaults(handler=_cmd_noise)
    return parser


def _terminate(_signum, _frame) -> None:
    # Unwind through the context managers that reap the SUT tree.
    raise SystemExit(143)


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmarks.e2e: no package under test at {SRC}",
              file=sys.stderr)
        return 2
    if args.workload is not None:
        from benchmarks.e2e.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
    from benchmarks.e2e import harness

    signal.signal(signal.SIGTERM, _terminate)
    harness.adopt_orphans()
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # The context managers have already reaped the SUT tree.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        harness.reap_children()
