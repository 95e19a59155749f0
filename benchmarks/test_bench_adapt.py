"""Extension bench: the closed-loop adaptation differential.

The paper's Figure 10 plots admitted calls against offered load for
the static schemes; this bench replays that comparison for the new
telemetry + re-dimensioning loop (``docs/TELEMETRY.md``).  Each load
runs the full pipeline twice — sampler → report frames → telemetry
store → controller ticks — once with the controller disabled and
once enabled, then a second wave of calls competes for the
bottleneck path.

Headline assertions: with adaptation ON the domain admits **strictly
more** calls past the saturation knee, never fewer at any load, at
the **same (zero) delay-violation rate** — every committed resize is
re-verified against the eq.-(19) oracle — and the differential
genuinely comes from the controller (shrinks, pre-inflates and idle
lease reclaims all engaged, not just one leg).

The sweep's rows land in a JSON artifact under pytest's ``tmp_path``;
nothing in the checkout is written.
"""

import json

from repro.adapt.bench import run_adapt_comparison
from repro.experiments.reporting import render_table

LOADS = (24, 48, 72)


def test_bench_adapt_differential(benchmark, tmp_path):
    rows = benchmark.pedantic(
        lambda: run_adapt_comparison(loads=LOADS),
        rounds=1, warmup_rounds=0,
    )
    artifact = tmp_path / "adapt.json"
    artifact.write_text(json.dumps(rows, indent=2))

    print()
    print("Admitted calls vs offered load, adaptation off vs on:")
    print(render_table(
        ["load", "off", "on", "gain", "viol off/on", "shrinks",
         "inflates", "reclaimed"],
        [[row["load"], row["off"]["admitted_total"],
          row["on"]["admitted_total"], f"{row['gain']:+d}",
          f"{row['off']['violations']}/{row['on']['violations']}",
          row["on"]["adapt_shrinks"], row["on"]["adapt_inflates"],
          row["on"]["leases_reclaimed"]]
         for row in rows],
    ))
    print(f"artifact: {artifact}")

    for row in rows:
        off, on = row["off"], row["on"]
        # Safety first: adaptation must never trade violations for
        # admissions.  The eq.-(19) oracle is re-run over every live
        # macroflow after both passes.
        assert off["violations"] == 0, (
            f"load {row['load']}: static run violates its own "
            "bounds — the harness is miscalibrated"
        )
        assert on["violations"] == 0, (
            f"load {row['load']}: adaptation broke "
            f"{on['violations']} macroflow delay bounds"
        )
        assert on["errors"] == 0
        # Never fewer admitted calls at any load.
        assert row["gain"] >= 0, (
            f"load {row['load']}: adaptation admitted "
            f"{-row['gain']} fewer calls"
        )
        # Every leg of the loop engaged, not just lease reclaim.
        assert on["adapt_shrinks"] >= 1
        assert on["adapt_inflates"] >= 1
        assert on["leases_reclaimed"] >= 1
        assert on["telemetry_reports"] > 0
    # The acceptance floor: strictly more admitted calls past the
    # knee (under-saturated loads legitimately tie).
    assert max(row["gain"] for row in rows) > 0, (
        "no load showed an admitted-calls gain with adaptation on"
    )
