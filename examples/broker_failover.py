#!/usr/bin/env python3
"""Broker reliability: checkpoint, journal, failover, dimensioning.

The paper centralizes all QoS state in the broker and flags
reliability as the price (footnote 2). This example operates the
machinery that pays it:

1. a **primary** broker serves a mixed request stream through a
   :class:`~repro.service.runtime.BrokerService` that write-aheads
   every decision to an on-disk WAL (:mod:`repro.service.durability`);
2. a **checkpoint** is taken mid-stream; more requests follow;
3. the primary "crashes"; a **standby** recovers from the directory
   (newest checkpoint + journal suffix) — then both answer the next
   request identically (verified);
4. the "crash" then tears the journal's tail record, and
   `recover_broker` rebuilds the acknowledged state anyway;
5. finally the broker's state is used for **buffer dimensioning**:
   the worst-case queue each router needs, computed centrally.

Run:  python examples/broker_failover.py
"""

import os
import random
import tempfile
import warnings

from repro.core import BandwidthBroker, ServiceClass, buffer_requirements
from repro.experiments.reporting import render_table
from repro.service import (
    BrokerService,
    FileJournal,
    recover_broker,
    write_checkpoint,
)
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain


def fresh_primary() -> BandwidthBroker:
    broker = BandwidthBroker()
    fig8_domain(SchedulerSetting.MIXED).provision_broker(broker)
    broker.register_class(ServiceClass("gold", 2.44, 0.24))
    return broker


def drive(service: BrokerService, count: int, rng: random.Random,
          start_index: int, now: float) -> float:
    active = []
    for offset in range(count):
        index = start_index + offset
        now += rng.uniform(20.0, 300.0)
        if rng.random() < 0.6 or not active:
            profile = flow_type(rng.randrange(4))
            use_class = rng.random() < 0.35
            reply = service.request(
                f"f{index}", profile.spec,
                0.0 if use_class else profile.loose_delay,
                "I1", "E1",
                service_class="gold" if use_class else "",
                now=now,
            )
            if reply.admitted:
                active.append(f"f{index}")
        else:
            service.teardown(active.pop(0), now=now)
    return now


def main() -> None:
    rng = random.Random(2026)
    primary = fresh_primary()
    with tempfile.TemporaryDirectory(prefix="repro-failover-") as state:
        wal = FileJournal(state)
        write_checkpoint(state, primary, wal)  # topology anchor
        with BrokerService(primary, workers=1, wal=wal) as service:
            now = drive(service, 30, rng, 0, 0.0)
            print(f"primary after 30 operations: "
                  f"{primary.stats().active_flows} active flows, "
                  f"journal at seq {wal.position}")

            path = write_checkpoint(state, primary, wal)
            marker = wal.position
            print(f"checkpoint taken at journal seq {marker} "
                  f"({os.path.basename(path)})")

            now = drive(service, 30, rng, 100, now)
            print(f"primary handled {wal.position - marker} more "
                  f"operations after the checkpoint\n")
        wal.close()

        # ---- the primary "crashes"; bring up the standby -------------
        report = recover_broker(state)
        standby = report.broker
        print(f"standby restored the checkpoint and replayed "
              f"{report.applied} entries ({report.skipped} skipped as "
              f"deterministic failures)")
        a, b = primary.stats(), standby.stats()
        print("failover check           primary  standby")
        print(f"  active flows          {a.active_flows:7d}  "
              f"{b.active_flows:7d}")
        print(f"  macroflows            {a.macroflows:7d}  {b.macroflows:7d}")
        print(f"  link-state entries    {a.qos_state_entries:7d}  "
              f"{b.qos_state_entries:7d}")
        assert (a.active_flows, a.macroflows, a.qos_state_entries) == (
            b.active_flows, b.macroflows, b.qos_state_entries
        )

        spec = flow_type(0).spec
        now += 50.0
        d1 = primary.request_service("probe", spec, 2.19, "I1", "E1",
                                     now=now)
        d2 = standby.request_service("probe", spec, 2.19, "I1", "E1",
                                     now=now)
        assert d1.admitted == d2.admitted and abs(d1.rate - d2.rate) < 1e-6
        print(f"  next decision         "
              f"{'ADMIT' if d1.admitted else 'reject':>7}"
              f"  {'ADMIT' if d2.admitted else 'reject':>7}  "
              f"(r = {d1.rate:.1f} b/s on both)")

        # ---- the crash tears the last record mid-write ---------------
        print("\nTorn-tail crash:")
        segment = max(
            os.path.join(state, name) for name in os.listdir(state)
            if name.startswith("wal-")
        )
        with open(segment, "r+b") as handle:
            handle.truncate(os.path.getsize(segment) - 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            torn = recover_broker(state)
        print(f"  recovered {torn.applied} entries "
              f"(torn tail: {torn.torn_tail}; "
              f"{len(caught)} warning(s))")
        print(f"  active flows after recovery: "
              f"{torn.broker.stats().active_flows} "
              f"(the torn operation was never acknowledged)")
        assert torn.torn_tail and torn.last_seq == report.last_seq - 1

    # ---- buffer dimensioning from the same state ----------------------
    print("\nWorst-case buffer requirements (from broker state alone):")
    rows = [
        [f"{link_id[0]}->{link_id[1]}", bound.flows,
         f"{bound.bits / 8 / 1024:.1f}", f"{bound.packets_of:.0f}"]
        for link_id, bound in sorted(
            buffer_requirements(standby).items()
        )
    ]
    print(render_table(
        ["link", "reservations", "buffer (KiB)", "(1500B packets)"],
        rows,
    ))


if __name__ == "__main__":
    main()
