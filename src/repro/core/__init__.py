"""The bandwidth broker — the paper's primary contribution.

All QoS reservation state of the network domain lives here, *not* in
the routers. The package mirrors Figure 1 of the paper:

* :mod:`repro.core.mibs` — the three QoS state information bases
  (flow, node/link, path);
* :mod:`repro.core.schedulability` — the VT-EDF/EDF schedulability
  ledger (eq. (5)) the broker evaluates on the routers' behalf;
* :mod:`repro.core.admission` — path-oriented per-flow admission
  control (Section 3: the O(1) rate-based test and the O(M) mixed
  rate/delay algorithm of Figure 4);
* :mod:`repro.core.aggregate` — class-based guaranteed services with
  dynamic flow aggregation (Section 4), including contingency
  bandwidth (Theorems 2/3) with the *bounding* and *feedback* release
  methods;
* :mod:`repro.core.routing` / :mod:`repro.core.policy` — the routing
  and policy-control service modules;
* :mod:`repro.core.signaling` — the ingress<->broker message protocol
  (the COPS role in the paper);
* :mod:`repro.core.broker` — the :class:`BandwidthBroker` facade that
  ties the service modules together;
* :mod:`repro.core.journal` — the journal record table and the one
  replay that reads the broker's state back after a crash.
"""

from repro.core.admission import (
    AdmissionDecision,
    AdmissionRequest,
    PerFlowAdmission,
    RejectionReason,
)
from repro.core.aggregate import (
    AggregateAdmission,
    ContingencyMethod,
    Macroflow,
    ServiceClass,
)
from repro.core.broker import BandwidthBroker
from repro.core.dimensioning import buffer_requirements
from repro.core.journal import KINDS, JournalEntry, Replay, replay
from repro.core.mibs import FlowMIB, LinkQoSState, NodeMIB, PathMIB, PathRecord
from repro.core.persistence import checkpoint_broker, restore_broker
from repro.core.policy import PolicyModule, PolicyRule
from repro.core.routing import RoutingModule
from repro.core.schedulability import DeadlineLedger
from repro.core.statistical import HoeffdingAdmission

__all__ = [
    "AdmissionDecision",
    "AdmissionRequest",
    "PerFlowAdmission",
    "RejectionReason",
    "AggregateAdmission",
    "ContingencyMethod",
    "Macroflow",
    "ServiceClass",
    "BandwidthBroker",
    "FlowMIB",
    "NodeMIB",
    "PathMIB",
    "PathRecord",
    "LinkQoSState",
    "PolicyModule",
    "PolicyRule",
    "RoutingModule",
    "DeadlineLedger",
    "HoeffdingAdmission",
    "checkpoint_broker",
    "restore_broker",
    "JournalEntry",
    "KINDS",
    "Replay",
    "replay",
    "buffer_requirements",
]
