"""The /proc reader: CPU seconds, peak RSS and the process tree."""

import os
import subprocess
import sys
import time

from benchmarks.e2e import procstat

_BURN = """
import sys, time
block = bytearray(48 * 1024 * 1024)
for i in range(0, len(block), 4096):
    block[i] = 1
print("ready", flush=True)
sys.stdin.readline()
end = time.process_time() + 0.4
while time.process_time() < end:
    pass
print("done", flush=True)
sys.stdin.readline()
"""


def test_reads_own_process():
    assert procstat.process_tree(os.getpid())[0] == os.getpid()
    assert procstat.cpu_seconds([os.getpid()]) > 0.0
    assert procstat.peak_rss_mb([os.getpid()]) > 5.0


def test_child_cpu_and_peak_rss_are_attributed_to_the_child():
    child = subprocess.Popen(
        [sys.executable, "-c", _BURN], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "ready"
        assert child.pid in procstat.process_tree(os.getpid())
        assert procstat.process_tree(child.pid) == [child.pid]
        before = procstat.cpu_seconds([child.pid])
        mine = procstat.cpu_seconds([os.getpid()])
        child.stdin.write("go\n")
        child.stdin.flush()
        assert child.stdout.readline().strip() == "done"
        burned = procstat.cpu_seconds([child.pid]) - before
        # 0.4 s of process time, read at 10 ms tick resolution.
        assert 0.35 <= burned <= 0.6
        # ... none of which shows up on the waiting parent.
        assert procstat.cpu_seconds([os.getpid()]) - mine < 0.1
        assert procstat.peak_rss_mb([child.pid]) >= 48.0
    finally:
        child.stdin.close()
        child.wait(timeout=10)


def test_tree_follows_grandchildren():
    script = (
        "import subprocess, sys\n"
        "p = subprocess.Popen([sys.executable, '-c', "
        "'import sys; print(0, flush=True); sys.stdin.readline()'], "
        "stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)\n"
        "p.stdout.readline()\n"
        "print(p.pid, flush=True)\n"
        "sys.stdin.readline()\n"
        "p.stdin.close(); p.wait()\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", script], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    try:
        grandchild = int(child.stdout.readline())
        assert procstat.process_tree(child.pid) == [child.pid, grandchild]
    finally:
        child.stdin.close()
        child.wait(timeout=10)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and \
            grandchild in procstat.process_tree(os.getpid()):
        time.sleep(0.02)
    assert grandchild not in procstat.process_tree(os.getpid())
