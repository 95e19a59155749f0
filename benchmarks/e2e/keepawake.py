"""Keeps one CPU out of the idle state (``python -m
benchmarks.e2e.keepawake <cpu>``).

On this kind of host — a few vCPUs of a shared machine — a vCPU that
has halted comes back slow: for milliseconds after each idle exit the
same code runs 1.35x or 1.7x slower, and how often that happens
follows the neighbours' load, not the program's.  A stack that passes
one request through five processes goes idle between every two steps,
so its latency and even its CPU time wandered by a third from run to
run (README, "Host caveats").  One of these per CPU, started by
:class:`benchmarks.e2e.harness.KeepAwake`, takes the idle state away:
it runs at ``SCHED_IDLE``, below everything else, and gives the CPU
up at every turn of its loop, so it costs the measured processes one
context switch where they would have paid an idle exit.

The loop must enter the kernel: this kernel lets a waking task take
the CPU from a lower-priority one only when that one next leaves the
kernel or at the 4 ms tick, so a pure user-space spin would add up to
a tick to every wake-up.  It ends when its parent does.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    parent = os.getppid()
    os.sched_setaffinity(0, {int(argv[0])})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        # At normal priority it would compete with what is measured.
        return 1
    give_up, alive = os.sched_yield, os.getppid
    while alive() == parent:
        for _ in range(256):
            give_up()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
