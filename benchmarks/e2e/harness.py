"""Process hygiene and placement: run directories, the SUT process
tree, and who runs on which CPU.

Everything the benchmark writes lives under ``benchmarks/e2e/out/``
inside the checkout (the WAL must be on a real disk for its fsyncs to
mean anything, and the driver forbids writing elsewhere).  A run
directory is deleted, and the SUT's whole process group reaped, on
success, on failure and on Ctrl-C alike.

"Reaped" means waited for, not only killed.  A process whose parent
has gone is handed to pid 1, which on this host collects it seconds
later; until then it is a process the run left behind.  So the harness
makes itself the reaper of its orphaned descendants
(:func:`adopt_orphans`), each :meth:`Sut.close` waits for the members
of the SUT's group that were handed to it, and the command line ends
with :func:`reap_children`.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from benchmarks.e2e import ROOT, procstat

__all__ = ["OUT_DIR", "ALL_CPUS", "GENERATOR_CPUS", "SUT_CPUS",
           "KeepAwake", "RunDir", "Sut", "SutError", "adopt_orphans",
           "on_sut_cpus", "pin_generator", "reap_children"]

#: Scratch space inside the checkout (listed in ``.gitignore``).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_READY_TIMEOUT = 60.0
_REPLY_TIMEOUT = 30.0
_STOP_GRACE = 20.0
_REAP_GRACE = 5.0

# Placement.  The generator is the measuring instrument: it gets the
# first CPU to itself and the system under test gets all the others
# (on the 2-CPU reference host: one), so that what the SUT's
# processes do to each other is measured and what they would do to
# the generator's clock readings is not.
_CPUS = sorted(os.sched_getaffinity(0))
ALL_CPUS = frozenset(_CPUS)
GENERATOR_CPUS = frozenset(_CPUS[:1])
SUT_CPUS = frozenset(_CPUS[1:] or _CPUS)


def pin_generator() -> None:
    """Confine this thread, and the threads it starts from now on,
    to the generator's CPU."""
    os.sched_setaffinity(0, GENERATOR_CPUS)


@contextlib.contextmanager
def on_sut_cpus():
    """Processes started inside the block are part of the system
    under test: they inherit its CPUs, not the generator's."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, SUT_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)


class KeepAwake:
    """Runs one :mod:`benchmarks.e2e.keepawake` spinner on each of
    *cpus* for the length of the block (see there for why)."""

    def __init__(self, cpus) -> None:
        self._cpus = sorted(cpus)
        self._spinners: List[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        for cpu in self._cpus:
            self._spinners.append(subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.keepawake",
                 str(cpu)],
                cwd=ROOT, stdin=subprocess.DEVNULL))
        return self

    def __exit__(self, *exc_info) -> None:
        for spinner in self._spinners:
            spinner.kill()
        for spinner in self._spinners:
            spinner.wait()
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the parent of every descendant whose own
    parent exits (``PR_SET_CHILD_SUBREAPER``), so that it can wait for
    them instead of leaving them to pid 1.  False where the kernel or
    libc does not offer it; the harness then does what it can."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap(pid: int, block: bool = False) -> None:
    try:
        os.waitpid(pid, 0 if block else os.WNOHANG)
    except ChildProcessError:
        pass  # not ours, or collected already


def reap_children() -> None:
    """Leave no child behind, running or exited: called once every
    context manager has unwound, so whatever is still a child of this
    process (the multiprocessing resource tracker that the in-process
    ``rpc`` ladder stage starts, an adopted straggler) has no work
    left.  Killing one may hand us its children; repeat until none."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except Exception:
        pass  # private API gone or tracker never started: kill below
    while True:
        pids = procstat.children(os.getpid())
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            _reap(pid, block=True)


class SutError(RuntimeError):
    """The SUT died, hung or answered garbage."""


class RunDir:
    """A fresh directory under ``out/`` that is removed on exit."""

    def __init__(self) -> None:
        self.path: Optional[str] = None

    def __enter__(self) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        return self.path

    def __exit__(self, *exc_info) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


class Sut:
    """One running system under test, started from
    :mod:`benchmarks.e2e.sut` in its own session so that the whole
    tree — shard processes, gateway workers — can be signalled as one
    process group whatever state its root is in."""

    def __init__(self, kind: str, run_dir: str) -> None:
        self.kind = kind
        with on_sut_cpus():
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.sut", kind,
                 run_dir],
                cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, start_new_session=True,
            )
        self.pid = self._proc.pid
        try:
            ready = self._read_line(_READY_TIMEOUT)
        except BaseException:
            self.close()
            raise
        self.host: str = ready["host"]
        self.port: int = ready["port"]

    def __enter__(self) -> "Sut":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read_line(self, timeout: float) -> Dict[str, Any]:
        stdout = self._proc.stdout
        ready, _, _ = select.select([stdout], [], [], timeout)
        if not ready:
            raise SutError(f"{self.kind} SUT silent for {timeout:g}s")
        line = stdout.readline()
        if not line:
            raise SutError(
                f"{self.kind} SUT exited with code {self._proc.poll()}")
        return json.loads(line)

    def call(self, command: str) -> Dict[str, Any]:
        """Send one control command and return its JSON answer."""
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return self._read_line(_REPLY_TIMEOUT)

    def tree(self) -> List[int]:
        """Pids of the SUT root and every descendant."""
        return procstat.process_tree(self.pid)

    def close(self) -> None:
        """Ask the SUT to stop, then make sure nothing of it is left:
        the graceful path drains the children itself; whatever
        survives it (a hung child, a SUT killed mid-run) is killed by
        process group and waited for."""
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.write("quit\n")
                proc.stdin.close()
            except (OSError, ValueError):
                pass
            try:
                proc.wait(timeout=_STOP_GRACE)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        # The root's children (resource tracker, a shard that outlived
        # its drain) were killed with the group; those handed to us
        # must be waited for, the rest only watched until they go.
        me = os.getpid()
        deadline = time.monotonic() + _REAP_GRACE
        while time.monotonic() < deadline:
            pending = False
            for pid, (state, parent) in \
                    procstat.group_members(self.pid).items():
                if parent == me:
                    _reap(pid)
                    pending = True
                elif state != "Z":
                    pending = True
            if not pending:
                break
            time.sleep(0.005)
