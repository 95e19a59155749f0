"""The repo benchmark: four fixed-work workloads, six end-to-end
metrics and a per-layer budget (see ``README.md`` in this directory).

Run it from the repo root::

    python -m benchmarks.e2e run --workload rest_closed --seed 1
    python -m benchmarks.e2e run --workload rest_closed --trace 1
    python -m benchmarks.e2e noise --sets 2 --runs 5

The harness composes the system under test only from the public
constructors of ``repro`` and edits nothing under ``src/``.
"""

import os
import sys

#: Repo root (the directory holding ``BENCHMARK.json``).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: Where the package under test lives in a checkout.
SRC = os.path.join(ROOT, "src")

# The benchmark runs from a bare checkout with no PYTHONPATH set, and
# the SUT child processes are started by module name from the same
# root, so the source tree is put on the path here, once.
if os.path.isdir(os.path.join(SRC, "repro")) and SRC not in sys.path:
    sys.path.insert(0, SRC)
