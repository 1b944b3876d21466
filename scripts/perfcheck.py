#!/usr/bin/env python3
"""Gate events/sec, allocs/event and bytes/event against the committed BENCH_<id>.json baselines.

Usage:
    perfcheck.py --baseline bench --fresh /tmp/bench [--tolerance 0.25] id...

For each experiment id, loads bench/BENCH_<id>.json (the committed baseline)
and /tmp/bench/BENCH_<id>.json (just produced by `qsmbench -parallel 1
-json`) and fails if the fresh events_per_sec falls more than --tolerance
below the baseline. The sim_events counts must match exactly: a drifting
event count means the simulation changed, which is a correctness problem the
perf gate must not paper over.

Allocations and bytes allocated per simulated event (allocs / sim_events,
alloc_bytes / sim_events) are gated the other way round, 5% above the
baseline (ALLOC_TOLERANCE): unlike events/sec the ratios barely depend
on the machine, so a rise is a code change, not CI noise. Each ceiling adds
a small absolute slack (0.01 allocs/event, 1 B/event) so records that hardly
allocate, fig7 and runner, are not gated on rounding. Record and check at
-parallel 1, as the baselines were recorded, so the worker pool's own
allocations stay out of the ratios. A ratio more than 10% (STALE_DROP) plus
the same slack below its baseline prints a "baseline stale" note, not a
failure: re-record the baseline, so the gain is held by the +5% ceiling and
cannot creep back up under the old one unnoticed.

The events/s tolerance is generous (default 25%) because the baseline is
refreshed on a developer machine while the gate runs on CI hardware;
regenerate the baselines (see EXPERIMENTS.md) whenever an intentional engine
change moves throughput or allocation.

Records may carry an "extra" map of named values. Keys starting with
"model_" are machine-independent (deterministic schedule-model outputs of
the runner driver) and are gated exactly: a fresh value must match the
baseline to 6 significant digits, and every key starting "model_speedup"
must also clear --min-speedup (default 1.3) — the committed proof that
claiming jobs in descending-cost (LPT) order beats submission order on
skewed shapes. Keys starting "measured_" are wall-clock observations and
are reported but never gated.
"""

import argparse
import json
import pathlib
import sys

# Allowed fractional rise in allocs/event and bytes/event over the baseline.
ALLOC_TOLERANCE = 0.05
# Fractional fall in allocs/event or bytes/event below the baseline that
# marks the baseline stale.
STALE_DROP = 0.10


def load(path):
    with open(path) as f:
        rec = json.load(f)
    # A combined `-json file.json` array also works; take the first record.
    return rec[0] if isinstance(rec, list) else rec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True, help="directory of committed BENCH_<id>.json files")
    ap.add_argument("--fresh", required=True, help="directory of freshly produced BENCH_<id>.json files")
    ap.add_argument("--tolerance", type=float, default=0.25, help="allowed fractional slowdown vs baseline")
    ap.add_argument("--min-speedup", type=float, default=1.3,
                    help="floor for extra keys starting 'model_speedup'")
    ap.add_argument("ids", nargs="+")
    args = ap.parse_args()

    failed = False
    for eid in args.ids:
        base = load(pathlib.Path(args.baseline) / f"BENCH_{eid}.json")
        fresh = load(pathlib.Path(args.fresh) / f"BENCH_{eid}.json")
        b, f = base["events_per_sec"], fresh["events_per_sec"]
        floor = b * (1.0 - args.tolerance)
        ratio = f / b if b else float("inf")
        line = f"{eid}: baseline {b:,.0f} ev/s, fresh {f:,.0f} ev/s ({ratio:.2f}x, floor {floor:,.0f})"
        if base["sim_events"] != fresh["sim_events"]:
            print(f"FAIL {line} — sim_events {base['sim_events']} -> {fresh['sim_events']}: "
                  "the simulation itself changed; fix determinism before regenerating baselines")
            failed = True
        elif f < floor:
            print(f"FAIL {line}")
            failed = True
        else:
            print(f"ok   {line}")
        failed |= check_allocs(eid, base, fresh)
        failed |= check_extra(eid, base.get("extra") or {}, fresh.get("extra") or {},
                              args.min_speedup)
    return 1 if failed else 0


def check_allocs(eid, base, fresh):
    """Gate allocations and bytes allocated per simulated event against the baseline's."""
    if not base.get("sim_events") or not fresh.get("sim_events"):
        return False
    failed = False
    for field, unit, slack, fmt in (("allocs", "allocs/event", 0.01, ".4f"),
                                    ("alloc_bytes", "B/event", 1.0, ".2f")):
        b = base[field] / base["sim_events"]
        f = fresh[field] / fresh["sim_events"]
        ceiling = b * (1.0 + ALLOC_TOLERANCE) + slack
        line = f"{eid}: baseline {b:{fmt}} {unit}, fresh {f:{fmt}} (ceiling {ceiling:{fmt}})"
        if f > ceiling:
            print(f"FAIL {line}")
            failed = True
        else:
            print(f"ok   {line}")
        if f < b * (1.0 - STALE_DROP) - slack:
            print(f"note {eid}: baseline stale: {unit} {f:{fmt}} is {1 - f / b:.0%} below the "
                  f"record's {b:{fmt}}; re-record BENCH_{eid}.json")
    return failed


def check_extra(eid, base, fresh, min_speedup):
    """Gate the model_* extra values; report the measured_* ones."""
    failed = False
    for key in sorted(set(base) | set(fresh)):
        bv, fv = base.get(key), fresh.get(key)
        if key.startswith("model_"):
            if bv is None or fv is None:
                print(f"FAIL {eid}.{key}: present only in "
                      f"{'fresh' if bv is None else 'baseline'} record")
                failed = True
                continue
            if f"{bv:.6g}" != f"{fv:.6g}":
                print(f"FAIL {eid}.{key}: baseline {bv:.6g} -> fresh {fv:.6g}: "
                      "deterministic model value drifted; fix or regenerate baselines")
                failed = True
            elif key.startswith("model_speedup") and fv < min_speedup:
                print(f"FAIL {eid}.{key}: {fv:.3f} below required speedup {min_speedup}")
                failed = True
            else:
                print(f"ok   {eid}.{key}: {fv:.4g}")
        elif key.startswith("measured_") and fv is not None:
            print(f"info {eid}.{key}: {fv:.4g} (not gated)")
    return failed


if __name__ == "__main__":
    sys.exit(main())
