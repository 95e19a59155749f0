"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's evaluation artifacts from a terminal:

* ``table1``  — traffic profiles with the delay-bound column verified;
* ``table2``  — maximum calls admitted per scheme (ours vs published);
* ``figure7`` — the dynamic-aggregation delay violation experiment;
* ``figure9`` — mean reserved bandwidth per admitted flow;
* ``figure10``— blocking rate versus offered load;
* ``plan``    — the capacity-planning table (extension);
* ``scaling`` — control-plane state vs flow count (extension);
* ``stats`` — run a short closed loop and dump the live service
  counters as Prometheus text exposition (extension);
* ``adapt-bench`` — admitted-calls differential with the adaptive
  re-dimensioning controller on vs off (extension, see
  ``docs/TELEMETRY.md``);
* ``recover`` — rebuild a broker from a durability directory
  (checkpoint + journal suffix) and report what was replayed; with
  ``--shard-dir`` the directory is a cluster WAL root and every
  shard subdirectory is recovered (cluster 2PC entries replayed);
* ``all``     — the paper artifacts in paper order.

Each command exits non-zero when the reproduction check fails (e.g. a
Table 2 cell deviates from the published value), so the CLI doubles
as a smoke test in CI pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro._version import __version__
from repro.experiments import (
    run_figure7,
    run_figure9,
    run_figure10,
    run_table2,
)
from repro.experiments.reporting import (
    render_figure7,
    render_figure9,
    render_figure10,
    render_table,
    render_table2,
)
from repro.workloads.profiles import TABLE1_PROFILES, verify_table1_bounds

__all__ = ["main", "build_parser"]


def _cmd_table1(_args: argparse.Namespace) -> int:
    rows = []
    ok = True
    for type_id, (published, recomputed) in sorted(
        verify_table1_bounds().items()
    ):
        spec = TABLE1_PROFILES[type_id].spec
        rows.append([
            type_id, f"{spec.sigma:.0f}", f"{spec.rho:.0f}",
            f"{spec.peak:.0f}", f"{published:.2f}", f"{recomputed:.4f}",
        ])
        ok &= abs(published - recomputed) < 1e-3
    print(render_table(
        ["type", "burst(b)", "mean(b/s)", "peak(b/s)", "published(s)",
         "recomputed(s)"], rows,
    ))
    return 0 if ok else 1


def _cmd_table2(_args: argparse.Namespace) -> int:
    result = run_table2()
    print(render_table2(result))
    if result.matches_paper():
        print("\nexact match with the published Table 2")
        return 0
    print("\nMISMATCHES:", result.mismatches())
    return 1


def _cmd_figure7(_args: argparse.Namespace) -> int:
    result = run_figure7()
    print(render_figure7(result))
    return 0 if (result.naive_violates and result.contingency_holds) else 1


def _cmd_figure9(_args: argparse.Namespace) -> int:
    result = run_figure9()
    print(render_figure9(result))
    perflow = result.series["Per-flow BB/VTRS"]
    aggregate = result.series["Aggr BB/VTRS"]
    ok = perflow[-1] > perflow[0] and aggregate[-1] < perflow[-1]
    return 0 if ok else 1


def _cmd_figure10(args: argparse.Namespace) -> int:
    if args.fast:
        result = run_figure10(
            arrival_rates=(0.10, 0.20, 0.30), runs=2,
            horizon=2000.0, warmup=400.0,
        )
    else:
        result = run_figure10(runs=args.runs)
    print(render_figure10(result))
    bounding = result.curve("Aggr BB/VTRS (bounding)")
    perflow = result.curve("per-flow BB/VTRS")
    ok = all(b >= p - 1e-9 for b, p in zip(bounding, perflow))
    return 0 if ok else 1


def _cmd_all(args: argparse.Namespace) -> int:
    status = 0
    for title, command in (
        ("Table 1", _cmd_table1),
        ("Table 2", _cmd_table2),
        ("Figure 9", _cmd_figure9),
        ("Figure 10", _cmd_figure10),
        ("Figure 7", _cmd_figure7),
    ):
        print()
        print("=" * 72)
        print(title)
        print("=" * 72)
        status |= command(args)
    return status


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.capacity import plan_capacity
    from repro.workloads.profiles import flow_type
    from repro.workloads.topologies import SchedulerSetting, fig8_domain

    rows = []
    for type_id in range(4):
        profile = flow_type(type_id)
        plan = plan_capacity(
            fig8_domain(SchedulerSetting.RATE_ONLY),
            profile.spec,
            delay_bound=profile.delay_bound(tight=args.tight),
            epsilon=args.epsilon,
        )
        c = plan.capacities
        rows.append([
            f"type {type_id}", c["peak"], c["per-flow"], c["aggregate"],
            c["statistical"], c["mean"],
        ])
    print(render_table(
        ["profile", "peak", "per-flow BB", "aggregate BB",
         f"statistical (eps={args.epsilon:g})", "mean"],
        rows,
    ))
    return 0


def _cmd_scaling(_args: argparse.Namespace) -> int:
    from repro.experiments.state_scaling import (
        render_state_scaling,
        run_state_scaling,
    )

    print(render_state_scaling(run_state_scaling()))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.broker import BandwidthBroker
    from repro.service import (
        BrokerService,
        FlowTemplate,
        prometheus_exposition,
        provision_parallel_paths,
        run_closed_loop,
    )
    from repro.workloads.profiles import flow_type

    labels = {}
    for item in args.label:
        key, sep, value = item.partition("=")
        if not key or not sep:
            print(f"bad --label {item!r} (want key=value)",
                  file=sys.stderr)
            return 2
        labels[key] = value
    if args.procs > 0:
        return _stats_procs(args, labels)
    spec = flow_type(0).spec
    broker = BandwidthBroker()
    pinned = provision_parallel_paths(broker, paths=args.paths)
    templates = [
        FlowTemplate(spec, 2.44, nodes[0], nodes[-1], path_nodes=nodes)
        for nodes in pinned
    ]
    with BrokerService(
        broker, workers=args.workers, shards=args.shards
    ) as service:
        run_closed_loop(
            service,
            templates,
            clients=args.clients,
            requests_per_client=args.requests,
        )
        stats = service.stats()
    sys.stdout.write(
        prometheus_exposition(stats, labels=labels or None)
    )
    return 0


def _stats_procs(args: argparse.Namespace, labels: dict) -> int:
    """``repro stats --procs N``: drive a multi-process cluster and
    merge every process's ServiceStats into one scrape, each series
    labelled with the process name and pid it came from."""
    import tempfile

    from repro.cluster import build_proc_cluster, run_cluster_loop
    from repro.service import prometheus_exposition
    from repro.workloads.profiles import flow_type

    spec = flow_type(0).spec
    with tempfile.TemporaryDirectory(prefix="repro-procs-") as root:
        with build_proc_cluster(args.procs, run_dir=root) as cluster:
            run_cluster_loop(
                cluster, spec, 2.44,
                clients_per_pod=args.clients,
                requests_per_client=args.requests,
                spanning_every=4,
            )
            merged = cluster.merged_stats()
    for name in sorted(merged["shards"]):
        frame = merged["shards"][name]
        service = frame.get("service")
        if not service:
            print(f"# process {name}: {frame.get('detail', 'no stats')}",
                  file=sys.stderr)
            continue
        sys.stdout.write(prometheus_exposition(service, labels={
            **labels, "process": name, "pid": str(frame.get("pid", "")),
        }))
    coordinator = merged.get("coordinator", {})
    coord_labels = {**labels, "process": "coordinator",
                    "pid": str(coordinator.get("pid", ""))}
    sys.stdout.write(prometheus_exposition(
        {key: value for key, value in coordinator.items()
         if isinstance(value, (int, float)) and key != "pid"},
        labels=coord_labels,
    ))
    return 0


def _cmd_adapt_bench(args: argparse.Namespace) -> int:
    import json

    from repro.adapt.bench import run_adapt_comparison, run_adapt_pass

    results = []
    failures = []
    if args.adapt == "both":
        comparison = run_adapt_comparison(loads=args.loads)
        rows = []
        for row in comparison:
            off, on = row["off"], row["on"]
            rows.append([
                row["load"], off["admitted_total"],
                on["admitted_total"], f"{row['gain']:+d}",
                f"{off['violations']}/{on['violations']}",
                on["adapt_shrinks"], on["adapt_inflates"],
                on["leases_reclaimed"],
            ])
            if row["gain"] < 0:
                failures.append(
                    f"load {row['load']}: adaptation admitted fewer "
                    f"calls ({row['gain']:+d})"
                )
            if off["violations"] != on["violations"]:
                failures.append(
                    f"load {row['load']}: violation rates differ "
                    f"({off['violations']} vs {on['violations']})"
                )
        print("Admitted calls vs offered load, adaptation off vs on "
              "(Figure-10 style):")
        print(render_table(
            ["load", "off", "on", "gain", "viol off/on",
             "shrinks", "inflates", "reclaimed"],
            rows,
        ))
        if all(row["gain"] <= 0 for row in comparison):
            failures.append(
                "no load showed an admitted-calls gain with "
                "adaptation on"
            )
        results = comparison
    else:
        adapt = args.adapt == "on"
        rows = []
        for load in args.loads:
            result = run_adapt_pass(adapt=adapt, load=load)
            results.append(result)
            rows.append([
                load, result["admitted_total"], result["violations"],
                result["adapt_shrinks"], result["adapt_inflates"],
                result["leases_reclaimed"],
            ])
            if result["violations"]:
                failures.append(
                    f"load {load}: {result['violations']} macroflows "
                    "violate their eq.-(19) bound"
                )
        print(f"Admitted calls vs offered load (adaptation "
              f"{args.adapt}):")
        print(render_table(
            ["load", "admitted", "violations", "shrinks", "inflates",
             "reclaimed"],
            rows,
        ))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"\nwrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def _cmd_recover_shard_dir(args: argparse.Namespace) -> int:
    import os as _os

    from repro.cluster import shard_dirs
    from repro.core.journal import Replay
    from repro.service import read_journal, recover_broker

    root = args.directory
    coordinator_dir = _os.path.join(root, "coordinator")
    log = Replay()
    try:
        names = shard_dirs(root)
        if _os.path.isdir(coordinator_dir):
            log.apply(read_journal(coordinator_dir).entries)
    except Exception as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    rows = []
    for name in names:
        try:
            report = recover_broker(_os.path.join(root, name))
        except Exception as exc:
            print(f"recovery of shard {name!r} failed: {exc}",
                  file=sys.stderr)
            return 1
        rows.append([
            name, report.checkpoint_seq, report.applied,
            "yes" if report.torn_tail else "no", report.last_seq,
            report.broker.stats().active_flows,
            len(report.prepared()),
        ])
    decided = (log.decisions_in("decided-commit")
               + log.decisions_in("decided-abort"))
    print(f"coordinator decision log: {len(log.decisions_in('open'))} "
          f"open, {len(decided)} decided but not done transaction(s)")
    print(render_table(
        ["shard", "checkpoint seq", "replayed", "torn tail",
         "recovered to seq", "active flows", "prepared holds"],
        rows,
    ))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import warnings as _warnings

    from repro.service import recover_broker

    if args.shard_dir:
        return _cmd_recover_shard_dir(args)
    try:
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            report = recover_broker(args.directory)
    except Exception as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    for warning in caught:
        print(f"warning: {warning.message}")
    stats = report.broker.stats()
    checkpoint = (
        report.checkpoint_path if report.checkpoint_path else "(none)"
    )
    print(render_table(
        ["field", "value"],
        [
            ["checkpoint", checkpoint],
            ["checkpoint seq", report.checkpoint_seq],
            ["entries replayed", report.applied],
            ["entries skipped", report.skipped],
            ["torn tail", "yes (truncated)" if report.torn_tail
             else "no"],
            ["recovered to seq", report.last_seq],
            ["active flows", stats.active_flows],
            ["macroflows", stats.macroflows],
            ["QoS state entries", stats.qos_state_entries],
        ],
    ))
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro import clock
    from repro.core.broker import BandwidthBroker
    from repro.edge import EdgeGateway
    from repro.service import BrokerService, provision_parallel_paths

    broker = BandwidthBroker()
    pinned = provision_parallel_paths(broker, paths=args.paths)
    with BrokerService(
        broker, workers=args.workers, shards=args.shards,
    ) as service:
        gateway = EdgeGateway(
            service, name=args.name, lease_duration=args.lease,
        )
        host, port = gateway.listen(args.host, args.port)
        with gateway:
            print(f"edge gateway {args.name!r} listening on "
                  f"{host}:{port} (lease {args.lease:g}s, "
                  f"{args.paths} provisioned paths "
                  f"{pinned[0][0]}->{pinned[0][-1]} .. "
                  f"{pinned[-1][0]}->{pinned[-1][-1]})")
            try:
                if args.duration > 0:
                    clock.sleep(args.duration)
                else:  # pragma: no cover - interactive mode
                    while True:
                        clock.sleep(3600)
            except KeyboardInterrupt:  # pragma: no cover
                pass
        counters = gateway.counters()
    print(render_table(
        ["counter", "value"],
        [[key, str(value)] for key, value in counters.items()],
    ))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.hostinfo import host_info, process_topology
    from repro.soak import ScenarioConfig, SoakConfig, run_soak

    scenario = ScenarioConfig(
        seed=args.seed,
        target_events=args.events,
        refresh_interval=args.refresh_interval,
    )
    config = SoakConfig(
        scenario=scenario,
        shards=args.shards,
        gateway_workers=args.gateway_workers,
        drivers=args.drivers,
        chaos_injections=args.chaos,
        fsync=args.fsync,
    )
    report = run_soak(config, run_dir=args.run_dir, log=print)
    payload = report.as_dict()
    payload["host"] = host_info()
    payload["topology"] = process_topology(
        "procs", shard_processes=args.shards,
        gateway_workers=args.gateway_workers,
        workers_per_shard=config.service_workers,
        drivers=args.drivers,
    )
    print(render_table(
        ["events", "events/s", "survivors", "chaos kinds",
         "live findings", "replay findings", "audit"],
        [[report.events, f"{report.events_per_second:.0f}",
          report.survivors, ",".join(report.chaos_kinds),
          len(report.live_audit.findings),
          len(report.replay_audit.findings),
          "CLEAN" if report.ok else "DIRTY"]],
    ))
    if not report.ok:
        for finding in (report.live_audit.findings
                        + report.replay_audit.findings):
            print(f"  {finding.kind}: {finding.subject}: "
                  f"{finding.detail}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0 if report.ok else 1


def _cmd_verify_state(args: argparse.Namespace) -> int:
    from repro.soak.audit import audit_shard_dirs

    report = audit_shard_dirs(args.shard_dir)
    print(report.summary())
    print(f"state: {'CLEAN' if report.ok else 'DIRTY'}")
    for finding in report.findings:
        print(f"  {finding.kind}: {finding.subject}: {finding.detail}",
              file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bandwidth broker (SIGCOMM 2000) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table 1 profile/bound verification"
                   ).set_defaults(func=_cmd_table1)
    sub.add_parser("table2", help="Table 2 admitted-call counts"
                   ).set_defaults(func=_cmd_table2)
    sub.add_parser("figure7", help="Figure 7 aggregation-delay experiment"
                   ).set_defaults(func=_cmd_figure7)
    sub.add_parser("figure9", help="Figure 9 reserved-bandwidth curves"
                   ).set_defaults(func=_cmd_figure9)
    fig10 = sub.add_parser("figure10", help="Figure 10 blocking curves")
    fig10.add_argument("--runs", type=int, default=5,
                       help="seeded runs per point (default 5)")
    fig10.add_argument("--fast", action="store_true",
                       help="coarse sweep for quick checks")
    fig10.set_defaults(func=_cmd_figure10)
    plan = sub.add_parser("plan", help="capacity-planning table (extension)")
    plan.add_argument("--epsilon", type=float, default=0.05,
                      help="statistical overflow target (default 0.05)")
    plan.add_argument("--tight", action="store_true",
                      help="use the tight Table 1 delay bounds")
    plan.set_defaults(func=_cmd_plan)
    sub.add_parser(
        "scaling", help="control-plane state vs flow count (extension)"
    ).set_defaults(func=_cmd_scaling)
    stats = sub.add_parser(
        "stats",
        help="run a short closed loop and dump the live service "
             "counters as Prometheus text exposition (extension)",
    )
    stats.add_argument("--workers", type=int, default=2,
                       help="service worker threads (default 2)")
    stats.add_argument("--shards", type=int, default=4,
                       help="link-state shards (default 4)")
    stats.add_argument("--clients", type=int, default=4,
                       help="closed-loop client threads (default 4)")
    stats.add_argument("--requests", type=int, default=25,
                       help="admit requests per client (default 25)")
    stats.add_argument("--paths", type=int, default=4,
                       help="link-disjoint paths in the domain "
                            "(default 4)")
    stats.add_argument("--label", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="attach a label to every exported metric "
                            "(repeatable, e.g. --label broker=bb0)")
    stats.add_argument("--procs", type=int, default=0,
                       help="run N shard processes instead of one "
                            "in-process service and merge every "
                            "process's stats into one scrape with "
                            "process/pid labels (default 0 = off)")
    stats.set_defaults(func=_cmd_stats)
    adapt_bench = sub.add_parser(
        "adapt-bench",
        help="closed-loop adaptation on/off admitted-calls "
             "differential (extension, see docs/TELEMETRY.md)",
    )
    adapt_bench.add_argument(
        "--adapt", choices=("on", "off", "both"), default="both",
        help="run with the controller on, off, or both and compare "
             "(default both)")
    adapt_bench.add_argument(
        "--loads", type=int, nargs="+", default=[24, 48, 72],
        help="second-wave offered loads to sweep (default 24 48 72)")
    adapt_bench.add_argument(
        "--json", default="",
        help="also write the per-load reports to this JSON file")
    adapt_bench.set_defaults(func=_cmd_adapt_bench)
    recover = sub.add_parser(
        "recover",
        help="rebuild a broker from a durability directory "
             "(checkpoint + journal replay)",
    )
    recover.add_argument("directory",
                         help="directory holding checkpoint-*.json and "
                              "wal-*.log files")
    recover.add_argument("--shard-dir", action="store_true",
                         help="treat the directory as a cluster WAL "
                              "root and recover every shard "
                              "subdirectory (2PC entries replayed)")
    recover.set_defaults(func=_cmd_recover)
    gateway = sub.add_parser(
        "gateway",
        help="serve the edge signaling plane over TCP in front of a "
             "provisioned broker (extension)",
    )
    gateway.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    gateway.add_argument("--port", type=int, default=0,
                         help="bind port (default 0 = ephemeral)")
    gateway.add_argument("--name", default="gateway",
                         help="gateway name announced to agents")
    gateway.add_argument("--paths", type=int, default=8,
                         help="link-disjoint paths to provision "
                              "(default 8)")
    gateway.add_argument("--workers", type=int, default=4,
                         help="broker service workers (default 4)")
    gateway.add_argument("--shards", type=int, default=8,
                         help="link-state shards (default 8)")
    gateway.add_argument("--lease", type=float, default=30.0,
                         help="soft-state lease duration in domain "
                              "seconds (default 30)")
    gateway.add_argument("--duration", type=float, default=0.0,
                         help="serve for this many wall seconds then "
                              "exit (default 0 = until Ctrl-C)")
    gateway.set_defaults(func=_cmd_gateway)
    soak = sub.add_parser(
        "soak",
        help="open-loop soak/chaos run: REST control plane over a "
             "multi-process cluster, ending in the invariant audit "
             "(extension)",
    )
    soak.add_argument("--run-dir", required=True,
                      help="cluster run directory (keeps the WAL for "
                           "a later verify-state)")
    soak.add_argument("--events", type=int, default=1_000_000,
                      help="flow-lifecycle events to replay "
                           "(default 1000000)")
    soak.add_argument("--seed", type=int, default=0,
                      help="scenario + chaos seed (default 0)")
    soak.add_argument("--shards", type=int, default=2,
                      help="shard processes (default 2)")
    soak.add_argument("--gateway-workers", type=int, default=2,
                      help="SO_REUSEPORT gateway workers (default 2)")
    soak.add_argument("--drivers", type=int, default=4,
                      help="driver threads == REST agent pool "
                           "(default 4)")
    soak.add_argument("--chaos", type=int, default=3,
                      help="chaos injections (default 3; cycles "
                           "kill_shard/kill_gateway/partition)")
    soak.add_argument("--refresh-interval", type=float, default=8.0,
                      help="per-flow refresh cadence in domain "
                           "seconds (default 8; 0 disables)")
    soak.add_argument("--fsync", action="store_true",
                      help="fsync shard WAL appends (slower, "
                           "crash-stronger)")
    soak.add_argument("--json", default="",
                      help="also write the report to this JSON file")
    soak.set_defaults(func=_cmd_soak)
    verify_state = sub.add_parser(
        "verify-state",
        help="standalone invariant audit of a cluster data directory "
             "(WAL replay, stranded holds, double admits, in-doubt "
             "2PC)",
    )
    verify_state.add_argument("--shard-dir", required=True,
                              help="soak run dir or bare WAL root "
                                   "holding per-shard journal "
                                   "subdirectories")
    verify_state.set_defaults(func=_cmd_verify_state)
    everything = sub.add_parser("all", help="regenerate the whole evaluation")
    everything.add_argument("--runs", type=int, default=5)
    everything.add_argument("--fast", action="store_true")
    everything.set_defaults(func=_cmd_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
