"""The fixed shapes every workload runs on: topology, flow specs,
standing populations and per-second op counts.

One place, imported by the SUT entry point, the op generators and the
oracle, so the system under test and the sequential broker it is
checked against are provisioned identically.
"""

from __future__ import annotations

from repro.traffic.spec import TSpec
from repro.units import mbps

# -- the REST stack (rest_closed, rest_open, the boundary ladder) -------

REST_SHARDS = 2
#: Pods alternate between the two shards (pod k lives on shard k % 2),
#: so every spanning path ``pod k -> pod k+1`` crosses shards.
REST_PODS = 4
REST_CAPACITY = mbps(45)
#: One 1.5 Mb/s flow: 30 of them fill a 45 Mb/s pod.
REST_SPEC = TSpec(sigma=64000.0, rho=1_500_000.0, peak=3_000_000.0,
                  max_packet=12000.0)
REST_DELAY = 2.44
#: Pods that serve the 70 % pod-local admits.
REST_LOCAL_PODS = (0, 1, 2)
#: Spanning path ``pod 0 -> pod 1`` serves the 20 % two-phase admits.
REST_SPAN_INDEX = 0
#: The set-up fills this pod, so the 10 % of admits aimed at it are
#: refused by admission control.
REST_FULL_POD = 3
#: Standing flows on each local pod (leaves room for 20 more, far
#: above the two the generators ever hold at once).
REST_STANDING_PER_LOCAL_POD = 10
REST_MIX = (("local", 0.70), ("span", 0.20), ("full", 0.10))
#: Lifecycles per second of ``--seconds`` for the closed loop.
REST_CLOSED_LIFECYCLES_PER_S = 200
#: Offered requests per second per generator thread (two threads).
REST_OPEN_RATE_PER_THREAD = 150.0
REST_OPEN_THREADS = 2
#: Rates the traced run sweeps for ``loadgen.knee_rps`` (total ops/s).
KNEE_RATES = (150.0, 300.0, 450.0, 600.0)
KNEE_P90_LIMIT_MS = 10.0
#: Admit/teardown pairs per second of ``--seconds`` at each ladder
#: boundary.
LADDER_PAIRS_PER_S = 40

# -- the edge stack (edge_pipelined) -----------------------------------

EDGE_PATHS = 4
EDGE_HOPS = 3
#: Sized so 2 000 standing flows plus a 64-admit window never exhaust
#: a path: nothing is refused on this workload.
EDGE_CAPACITY = mbps(400)
EDGE_SPEC = TSpec(sigma=60000.0, rho=50000.0, peak=100000.0,
                  max_packet=12000.0)
EDGE_DELAY = 2.44
EDGE_STANDING = 2000
EDGE_WINDOW = 64
EDGE_ROUNDS_PER_S = 24
EDGE_WORKERS = 2
EDGE_LOCK_SHARDS = 4

# -- the engine (engine_deep) ------------------------------------------

ENGINE_PATHS = 2
ENGINE_HOPS = 4
ENGINE_DELAY_HOPS = 2
ENGINE_CAPACITY = mbps(45)
ENGINE_SPEC = TSpec(sigma=8000.0, rho=32000.0, peak=64000.0,
                    max_packet=4000.0)
#: Delay requirements are drawn uniformly from this range, so nearly
#: every flow has its own deadline on the delay-based hops.
ENGINE_DELAY_RANGE = (0.5, 3.0)
#: 350 distinct deadlines per delay-based link.  (ISSUE.md sketched
#: 400 flows; 700 is what gives its ~4.7 ms per admit and a set-up
#: above one second with this flow spec.)
ENGINE_STANDING = 700
ENGINE_OPS_PER_S = 400

#: Share of every op list that warms the stack up and is discarded.
WARMUP_SHARE = 0.10
