#!/usr/bin/env python3
"""Schema-check a tme-status-v1 live-introspection snapshot (stdlib only).

Usage:
    check_status.py STATUS.json [--require-fleet] [--require-chaos]
                    [--min-step N]

The snapshot is what chaos_drill writes on SIGUSR1 or every N
steps (--status-out / TME_STATUS_OUT).  Checks:
  - top level: schema == "tme-status-v1", numeric step/pid/written_unix_ms
  - metrics section with counters/gauges objects and histogram summaries
    carrying count/p50/p95/p99 with ordered percentiles
  - --require-fleet: a "fleet" section with workers/alive counts and a
    per_worker array where every row has rank, alive, outstanding and the
    clock fields (clock_synced / clock_offset_us / clock_rtt_us)
  - --require-chaos: a "chaos" section with step and oracle counters

Exit code 0 = valid.
"""

import argparse
import json
import numbers
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def is_num(v):
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("status", help="status JSON file")
    parser.add_argument("--require-fleet", action="store_true",
                        help="fail unless a fleet section is present")
    parser.add_argument("--require-chaos", action="store_true",
                        help="fail unless a chaos section is present")
    parser.add_argument("--min-step", type=int, default=0, metavar="N",
                        help="fail if the snapshot's step is below N")
    args = parser.parse_args()

    with open(args.status) as f:
        snap = json.load(f)

    if not isinstance(snap, dict):
        return fail("top level is not an object")
    if snap.get("schema") != "tme-status-v1":
        return fail(f"schema is {snap.get('schema')!r}, want tme-status-v1")
    for field in ("step", "pid", "written_unix_ms"):
        if not is_num(snap.get(field)):
            return fail(f"missing or non-numeric {field}")
    if snap["step"] < args.min_step:
        return fail(f"step {snap['step']} below required minimum {args.min_step}")

    metrics = snap.get("metrics")
    if not isinstance(metrics, dict):
        return fail("missing metrics section")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            return fail(f"metrics.{section} missing or not an object")
    for name, values in metrics["counters"].items():
        if not is_num(values):
            return fail(f"counter {name} non-numeric")
    for name, values in metrics["gauges"].items():
        if not is_num(values):
            return fail(f"gauge {name} non-numeric")
    for name, hist in metrics["histograms"].items():
        for field in ("count", "p50", "p95", "p99"):
            if not is_num(hist.get(field)):
                return fail(f"histogram {name} missing {field}")
        if not hist["p50"] <= hist["p95"] <= hist["p99"]:
            return fail(f"histogram {name} percentiles out of order")

    n_workers = None
    if args.require_fleet:
        fleet = snap.get("fleet")
        if not isinstance(fleet, dict):
            return fail("missing fleet section")
        for field in ("workers", "alive"):
            if not is_num(fleet.get(field)):
                return fail(f"fleet.{field} missing or non-numeric")
        per_worker = fleet.get("per_worker")
        if not isinstance(per_worker, list) or len(per_worker) != fleet["workers"]:
            return fail("fleet.per_worker missing or wrong length")
        for i, row in enumerate(per_worker):
            for field in ("rank", "pid", "outstanding", "clock_offset_us",
                          "clock_rtt_us"):
                if not is_num(row.get(field)):
                    return fail(f"per_worker[{i}].{field} missing or non-numeric")
            for field in ("alive", "clock_synced"):
                if not isinstance(row.get(field), bool):
                    return fail(f"per_worker[{i}].{field} missing or non-bool")
        n_workers = int(fleet["workers"])

    if args.require_chaos:
        chaos = snap.get("chaos")
        if not isinstance(chaos, dict):
            return fail("missing chaos section")
        for field in ("steps_total", "steps_completed", "events_fired"):
            if not is_num(chaos.get(field)):
                return fail(f"chaos.{field} missing or non-numeric")

    extra = f", {n_workers} workers" if n_workers is not None else ""
    print(
        f"OK: step {snap['step']}, pid {snap['pid']}, "
        f"{len(metrics['counters'])} counters, {len(metrics['gauges'])} gauges, "
        f"{len(metrics['histograms'])} histograms{extra}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
