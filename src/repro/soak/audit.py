"""End-of-run invariant audit: the soak harness's proof obligation.

One reusable home for the differential checks that were scattered
across ``tests/test_cluster_recovery.py`` and
``tests/test_cluster_procs.py``: a recovered (or live) cluster's
per-link state must equal a pristine single fused broker admitting
exactly the surviving flows — zero double-admits, zero stranded
``txn:`` holds, zero orphaned flows — and a shard's WAL must replay
to the same state the live process serves.

Every check returns :class:`Finding` objects instead of raising, so
the same code audits a million-event soak run (collect everything,
then fail with the full list), a pytest scenario (``assert
report.ok, report.summary()``), and a standalone data directory
(``repro verify-state --shard-dir``).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.broker import BandwidthBroker
from repro.core.journal import Replay
from repro.errors import StateError
from repro.traffic.spec import TSpec

__all__ = [
    "Finding",
    "AuditReport",
    "LinkView",
    "fused_from_atlas",
    "link_view_of_broker",
    "link_view_of_dumps",
    "diff_link_views",
    "find_stranded_holds",
    "find_double_admits",
    "scan_orphans",
    "audit_cluster_state",
    "audit_proc_cluster",
    "audit_recovered_shards",
    "audit_shard_dirs",
    "save_domain_spec",
    "load_domain_spec",
]

#: Absolute tolerance for reserved-rate equality (matches the
#: recovery suite's historical ``pytest.approx(abs=1e-6)``).
RATE_TOLERANCE = 1e-6

#: Name of the domain-spec sidecar a soak run drops into its run
#: directory so ``repro verify-state`` can cold-recover shards whose
#: WAL has no checkpoint (topology provisioning is not journaled).
DOMAIN_SPEC_FILE = "domain.json"


@dataclass(frozen=True)
class Finding:
    """One invariant violation: what kind, where, and the evidence."""

    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass
class AuditReport:
    """The audit's verdict: every violation plus coverage counters.

    ``ok`` is True only when *zero* findings survived; ``checked``
    says how much state the audit actually looked at (an audit that
    checked nothing and found nothing proves nothing).
    """

    findings: List[Finding] = field(default_factory=list)
    checked: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def count(self, key: str, amount: int = 1) -> None:
        self.checked[key] = self.checked.get(key, 0) + amount

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "AuditReport") -> "AuditReport":
        self.findings.extend(other.findings)
        for key, amount in other.checked.items():
            self.count(key, amount)
        return self

    def summary(self) -> str:
        lines = [
            f"audit: {len(self.findings)} finding(s), "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
        ]
        lines += [str(finding) for finding in self.findings]
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "checked": dict(self.checked),
            "findings": [
                {"kind": f.kind, "subject": f.subject, "detail": f.detail}
                for f in self.findings
            ],
        }


@dataclass(frozen=True)
class LinkView:
    """One link's audited state: reserved rate + reservation keys."""

    reserved_rate: float
    keys: Tuple[str, ...]


# ----------------------------------------------------------------------
# building the fused oracle and the recovered views
# ----------------------------------------------------------------------


def fused_from_atlas(atlas: BandwidthBroker) -> BandwidthBroker:
    """A pristine fused single broker with *atlas*'s links and paths.

    The oracle every cluster state is measured against: never mutate a
    live atlas — copy it, then admit the survivors into the copy.
    """
    fused = BandwidthBroker()
    for link in atlas.node_mib.links():
        fused.add_link(
            link.link_id[0], link.link_id[1], link.capacity, link.kind,
            propagation=link.propagation, max_packet=link.max_packet,
        )
    for record in atlas.path_mib.records():
        fused.routing.pin_path(record.nodes)
    return fused


def oracle_admit_survivors(
    fused: BandwidthBroker,
    surviving: Dict[str, Any],
    spec: TSpec,
    delay_requirement: float,
) -> List[Finding]:
    """Admit every survivor into the fused oracle, flagging rejects.

    *surviving* maps flow id -> path nodes.  A reject here means the
    cluster is holding capacity for a flow a single broker could not
    have admitted — an over-admission, not an oracle quirk.
    """
    findings: List[Finding] = []
    for flow_id in sorted(surviving):
        nodes = surviving[flow_id]
        verdict = fused.request_service(
            flow_id, spec, delay_requirement, nodes[0], nodes[-1],
            path_nodes=tuple(nodes),
        )
        if not verdict.admitted:
            findings.append(Finding(
                "oracle-reject", flow_id,
                f"fused oracle rejected survivor: {verdict.reason}",
            ))
    return findings


def link_view_of_broker(broker: BandwidthBroker) -> Dict[str, LinkView]:
    """Per-link view of a (recovered or oracle) broker's MIB."""
    view: Dict[str, LinkView] = {}
    for link in broker.node_mib.links():
        label = f"{link.link_id[0]}->{link.link_id[1]}"
        view[label] = LinkView(
            reserved_rate=link.reserved_rate,
            keys=tuple(sorted(link.reservation_keys())),
        )
    return view


def link_view_of_dumps(
    dumps: Dict[str, Dict[str, Any]],
) -> Tuple[Dict[str, LinkView], List[Finding]]:
    """Union per-link view over shard ``dump`` frames.

    Returns the merged view plus findings for shards that answered
    the dump op with anything but ``status == "ok"``.
    """
    view: Dict[str, LinkView] = {}
    findings: List[Finding] = []
    for name, dump in sorted(dumps.items()):
        if dump.get("status") != "ok":
            findings.append(Finding(
                "shard-unreachable", name,
                f"dump answered {dump.get('status')!r}: "
                f"{dump.get('detail', '')}",
            ))
            continue
        for label, state in dump.get("links", {}).items():
            view[label] = LinkView(
                reserved_rate=float(state.get("reserved_rate", 0.0)),
                keys=tuple(sorted(state.get("keys", ()))),
            )
    return view, findings


def _base_keys(keys: Iterable[str]) -> List[str]:
    """Reservation keys reduced to their flow ids (``txn:`` excluded).

    Edge-admitted reservations key as ``<flow>#<suffix>``; oracle
    admissions key as the bare flow id — comparing bases makes the
    two comparable.
    """
    return sorted(
        key.split("#")[0] for key in keys if not key.startswith("txn:")
    )


# ----------------------------------------------------------------------
# the individual detectors
# ----------------------------------------------------------------------


def diff_link_views(
    oracle: Dict[str, LinkView],
    recovered: Dict[str, LinkView],
    *,
    exact_keys: bool = False,
) -> List[Finding]:
    """Per-link differential: recovered state must equal the oracle.

    With ``exact_keys`` the reservation keys must match verbatim
    (WAL-replay vs live comparisons, where both sides carry the same
    suffixes); otherwise keys are compared by flow-id base (oracle
    comparisons, where the fused broker keys flows bare).
    """
    findings: List[Finding] = []
    for label in sorted(oracle):
        want = oracle[label]
        got = recovered.get(label)
        if got is None:
            findings.append(Finding(
                "missing-link", label, "link absent from recovered state",
            ))
            continue
        if not math.isclose(got.reserved_rate, want.reserved_rate,
                            abs_tol=RATE_TOLERANCE):
            findings.append(Finding(
                "load-divergence", label,
                f"reserved {got.reserved_rate!r}, "
                f"oracle {want.reserved_rate!r}",
            ))
        if exact_keys:
            want_keys: List[str] = list(want.keys)
            got_keys: List[str] = list(got.keys)
        else:
            want_keys = _base_keys(want.keys)
            got_keys = _base_keys(got.keys)
        if got_keys != want_keys:
            findings.append(Finding(
                "reservation-divergence", label,
                f"keys {got_keys}, oracle {want_keys}",
            ))
    return findings


def find_stranded_holds(view: Dict[str, LinkView]) -> List[Finding]:
    """Every ``txn:`` reservation still held — 2PC leaked capacity."""
    findings: List[Finding] = []
    for label in sorted(view):
        for key in view[label].keys:
            if key.startswith("txn:"):
                findings.append(Finding(
                    "stranded-hold", label, f"live 2PC hold {key!r}",
                ))
    return findings


def find_double_admits(view: Dict[str, LinkView]) -> List[Finding]:
    """A flow reserved more than once on one link — the cardinal sin
    the idempotency machinery exists to prevent."""
    findings: List[Finding] = []
    for label in sorted(view):
        bases = _base_keys(view[label].keys)
        seen = set()
        for base in bases:
            if base in seen:
                findings.append(Finding(
                    "double-admit", label,
                    f"flow {base!r} reserved twice",
                ))
            seen.add(base)
    return findings


def scan_orphans(
    registry: Iterable[str],
    owned: Iterable[str],
) -> List[Finding]:
    """Orphaned-lease scan: broker truth vs edge ownership.

    *registry* is every flow the broker tier holds capacity for;
    *owned* is every flow some live edge claims.  A registry flow no
    edge owns is an **orphan** (capacity stranded until a reaper gets
    it); an owned flow the registry lost is a **lost flow** (the edge
    believes in state the broker dropped).
    """
    registry_set = set(registry)
    owned_set = set(owned)
    findings: List[Finding] = []
    for flow_id in sorted(registry_set - owned_set):
        findings.append(Finding(
            "orphaned-flow", flow_id,
            "broker holds capacity but no edge owns the flow",
        ))
    for flow_id in sorted(owned_set - registry_set):
        findings.append(Finding(
            "lost-flow", flow_id,
            "an edge owns the flow but the broker dropped it",
        ))
    return findings


# ----------------------------------------------------------------------
# composed audits (what the tests and the soak engine call)
# ----------------------------------------------------------------------


def audit_cluster_state(
    atlas: BandwidthBroker,
    surviving: Dict[str, Any],
    spec: TSpec,
    delay_requirement: float,
    recovered: Dict[str, LinkView],
    *,
    registry: Optional[Iterable[str]] = None,
) -> AuditReport:
    """The full differential: oracle diff + holds + double admits.

    *atlas* is the domain's full topology (copied, never mutated);
    *surviving* maps flow id -> path nodes for every flow that should
    still hold capacity; *recovered* is the cluster state under test;
    *registry* (optional) is the coordinator's flow registry, checked
    against the surviving set both ways.
    """
    report = AuditReport()
    fused = fused_from_atlas(atlas)
    report.extend(oracle_admit_survivors(
        fused, surviving, spec, delay_requirement))
    oracle_view = link_view_of_broker(fused)
    report.extend(diff_link_views(oracle_view, recovered))
    report.extend(find_stranded_holds(recovered))
    report.extend(find_double_admits(recovered))
    if registry is not None:
        report.extend(scan_orphans(registry, surviving))
        report.count("registry_flows", len(set(registry)))
    report.count("links", len(oracle_view))
    report.count("survivors", len(surviving))
    return report


def audit_proc_cluster(
    cluster: Any,
    surviving: Dict[str, Any],
    spec: TSpec,
    delay_requirement: float,
) -> AuditReport:
    """Audit a live :class:`~repro.cluster.procs.ProcCluster`.

    Waits until every supervised process is up (a chaos restart may
    still be in progress), dumps every shard process over the wire
    and runs the full differential against a fused oracle of the
    cluster's own domain.
    """
    from repro.cluster.topology import domain_atlas

    cluster.wait_ready()
    view, findings = link_view_of_dumps(cluster.dumps())
    report = audit_cluster_state(
        domain_atlas(cluster.domain), surviving, spec,
        delay_requirement, view,
        registry=(
            cluster.coordinator.flows()
            if cluster.coordinator is not None else None
        ),
    )
    report.extend(findings)
    return report


def audit_recovered_shards(
    shards: Dict[str, Any],
    coordinator: Any,
    surviving: Dict[str, Any],
    spec: TSpec,
    delay_requirement: float,
    atlas: BandwidthBroker,
) -> AuditReport:
    """Audit in-process recovered shards (the recovery suite's shape).

    *shards* maps name -> recovery record exposing ``.shard.broker``
    (or a :class:`BandwidthBroker` directly).
    """
    view: Dict[str, LinkView] = {}
    for record in shards.values():
        broker = record
        if hasattr(record, "shard"):
            broker = record.shard.broker
        elif hasattr(record, "broker"):
            broker = record.broker
        view.update(link_view_of_broker(broker))
    return audit_cluster_state(
        atlas, surviving, spec, delay_requirement, view,
        registry=coordinator.flows() if coordinator is not None else None,
    )


# ----------------------------------------------------------------------
# WAL replay vs live state, and the standalone directory audit
# ----------------------------------------------------------------------


def save_domain_spec(run_dir: str, domain: Any) -> str:
    """Persist a :class:`~repro.cluster.topology.PodDomainSpec` next
    to the WAL root so a later ``verify-state`` can cold-recover
    shards whose journals have no checkpoint."""
    path = os.path.join(run_dir, DOMAIN_SPEC_FILE)
    payload = {
        "shard_names": list(domain.shard_names),
        "links": [list(link) for link in domain.links],
        "pod_paths": [list(nodes) for nodes in domain.pod_paths],
        "spanning_paths": [list(nodes) for nodes in domain.spanning_paths],
        "partition": domain.partition,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    return path


def load_domain_spec(run_dir: str) -> Optional[Any]:
    """Inverse of :func:`save_domain_spec`; None when absent."""
    from repro.cluster.topology import PodDomainSpec

    path = os.path.join(run_dir, DOMAIN_SPEC_FILE)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return PodDomainSpec(
        shard_names=tuple(payload["shard_names"]),
        links=tuple(
            (str(src), str(dst), float(capacity), str(kind), float(mtu))
            for src, dst, capacity, kind, mtu in payload["links"]
        ),
        pod_paths=tuple(tuple(nodes) for nodes in payload["pod_paths"]),
        spanning_paths=tuple(
            tuple(nodes) for nodes in payload["spanning_paths"]
        ),
        partition=payload["partition"],
    )


def _wal_root(root: str) -> str:
    """A soak run dir holds its journals under ``wal/``; a bare WAL
    root holds the shard subdirectories directly."""
    candidate = os.path.join(root, "wal")
    return candidate if os.path.isdir(candidate) else root


def replay_shard_dirs(
    root: str,
    *,
    domain: Any = None,
) -> Tuple[Dict[str, Dict[str, LinkView]], AuditReport]:
    """Replay every shard journal under *root* into fresh brokers.

    Returns per-shard link views plus an :class:`AuditReport` holding
    replay-level findings: unreadable journals, torn tails, 2PC
    transactions still ``prepared`` after the full suffix replayed.
    Never mutates the directories (``repair=False``).
    """
    from repro.cluster.topology import shard_broker, shard_dirs
    from repro.service.durability import recover_broker

    report = AuditReport()
    views: Dict[str, Dict[str, LinkView]] = {}
    wal_root = _wal_root(root)
    if domain is None:
        domain = load_domain_spec(root)
    try:
        shard_names = shard_dirs(wal_root)
    except StateError as exc:
        report.extend([Finding("unreadable", wal_root, str(exc))])
        return views, report
    for name in shard_names:
        factory: Optional[Callable[[], BandwidthBroker]] = None
        if domain is not None and name in domain.shard_names:
            factory = (lambda n=name: shard_broker(domain, n))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                recovery = recover_broker(
                    os.path.join(wal_root, name),
                    broker_factory=factory, repair=False,
                )
        except Exception as exc:
            report.extend([Finding("unreadable", name, str(exc))])
            continue
        if recovery.torn_tail:
            report.extend([Finding(
                "torn-tail", name,
                "journal ends in a partial record (unacknowledged op "
                "dropped)",
            )])
        for txid in recovery.prepared():
            report.extend([Finding(
                "prepared-hold", name,
                f"txn {txid!r} still prepared after replay",
            )])
        views[name] = link_view_of_broker(recovery.broker)
        report.count("replayed_entries", recovery.applied)
        report.count("shards")
    return views, report


def _scan_coordinator_log(root: str) -> AuditReport:
    """In-doubt scan of the coordinator decision log, if present.

    A committed decision (``cdecide outcome=commit``) with no
    matching ``cdone`` means a spanning admission never finished — a
    quiesced cluster must not hold any.
    """
    from repro.service.durability import read_journal

    report = AuditReport()
    directory = os.path.join(_wal_root(root), "coordinator")
    if not os.path.isdir(directory) or not os.listdir(directory):
        return report
    log = Replay()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            log.apply(read_journal(directory, repair=False).entries)
    except Exception as exc:
        report.extend([Finding("unreadable", "coordinator", str(exc))])
        return report
    for txid in log.decisions_in("decided-commit"):
        report.extend([Finding(
            "in-doubt", txid,
            "commit decided but never driven to completion",
        )])
    report.count("decisions", len(log.decisions) - len(
        log.decisions_in("open")))
    return report


def diff_replay_vs_live(
    replayed: Dict[str, Dict[str, LinkView]],
    live_dumps: Dict[str, Dict[str, Any]],
) -> List[Finding]:
    """WAL replay == live MIB state, shard by shard, key-exact."""
    findings: List[Finding] = []
    live_view, dump_findings = link_view_of_dumps(live_dumps)
    findings.extend(dump_findings)
    merged: Dict[str, LinkView] = {}
    for view in replayed.values():
        merged.update(view)
    findings.extend(
        Finding("replay-divergence", f.subject, f.detail)
        for f in diff_link_views(merged, live_view, exact_keys=True)
    )
    return findings


def audit_shard_dirs(
    root: str,
    *,
    domain: Any = None,
    live_dumps: Optional[Dict[str, Dict[str, Any]]] = None,
) -> AuditReport:
    """Standalone data-directory audit (``repro verify-state``).

    Replays every shard WAL under *root* (a soak run dir or a bare
    cluster WAL root), then checks: journals readable with no torn
    tail, zero transactions left ``prepared``, zero stranded ``txn:``
    holds, zero double-admits, and no in-doubt committed decision in
    the coordinator log.  With *live_dumps* (shard name -> ``dump``
    frame) it additionally proves WAL replay == live MIB state.
    """
    views, report = replay_shard_dirs(root, domain=domain)
    merged: Dict[str, LinkView] = {}
    for view in views.values():
        merged.update(view)
    report.extend(find_stranded_holds(merged))
    report.extend(find_double_admits(merged))
    report.merge(_scan_coordinator_log(root))
    if live_dumps is not None:
        report.extend(diff_replay_vs_live(views, live_dumps))
    report.count("links", len(merged))
    return report
