#!/usr/bin/env python3
"""Validate a Chrome trace-event / Perfetto JSON file (stdlib only).

Usage:
    validate_trace.py TRACE_fig9.json [--require-hardware] [--require-counters]
                      [--require-workers N] [--require-flow]

Checks, against the trace-event format Chrome and Perfetto accept:
  - the top level is an object with a "traceEvents" array
  - every event has ph/pid/tid, and ts except metadata ("M") records
  - "X" (complete) events carry a numeric non-negative dur
  - "i" (instant) events carry a valid scope s in {"t", "p", "g"} when present
  - "C" (counter) events carry numeric args values
  - "M" records are process_name / thread_name with args.name
  - per-(pid, tid) track timestamps of sorted export are monotone
  - dropped-event accounting in otherData is consistent

--require-hardware additionally fails unless at least one process besides
"software" has span events (the simulated-machine tracks), and
--require-counters unless at least one counter series exists (per-link
telemetry).

For merged fleet timelines (the chaos_drill --trace-out output):
--require-workers N fails unless at least N distinct "worker <rank> (pid ..)"
process tracks carry span events, --require-flow unless dispatch -> task flow
arrows ("s"/"f" pairs sharing a flow id) are present; both also validate the
otherData clock-offset table and the span-conservation ledger
(telemetry_emitted == telemetry_events_merged + telemetry_dropped).
Exit code 0 = valid.
"""

import argparse
import collections
import json
import sys

VALID_PH = {"X", "i", "C", "M", "B", "E", "b", "e", "n", "s", "t", "f"}
VALID_INSTANT_SCOPES = {"t", "p", "g"}


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace JSON file")
    parser.add_argument("--require-hardware", action="store_true",
                        help="fail unless simulated-hardware tracks are present")
    parser.add_argument("--require-counters", action="store_true",
                        help="fail unless counter series are present")
    parser.add_argument("--require-workers", type=int, default=0, metavar="N",
                        help="fail unless >= N worker process tracks have spans")
    parser.add_argument("--require-flow", action="store_true",
                        help="fail unless paired flow arrows (s/f) are present")
    args = parser.parse_args()

    with open(args.trace) as f:
        root = json.load(f)

    if not isinstance(root, dict) or "traceEvents" not in root:
        return fail("top level must be an object with a traceEvents array")
    events = root["traceEvents"]
    if not isinstance(events, list):
        return fail("traceEvents is not an array")

    process_names = {}
    spans_by_process = collections.Counter()
    counter_events = 0
    flow_starts = set()
    flow_finishes = set()
    instant_names = collections.Counter()
    last_ts = {}
    for i, e in enumerate(events):
        where = f"event #{i}"
        if not isinstance(e, dict):
            return fail(f"{where}: not an object")
        ph = e.get("ph")
        if ph not in VALID_PH:
            return fail(f"{where}: invalid ph {ph!r}")
        if "pid" not in e or "tid" not in e:
            return fail(f"{where}: missing pid/tid")
        if ph == "M":
            if e.get("name") in ("process_name", "thread_name"):
                if "name" not in e.get("args", {}):
                    return fail(f"{where}: metadata record without args.name")
                if e["name"] == "process_name":
                    process_names[e["pid"]] = e["args"]["name"]
            continue
        if "ts" not in e or not isinstance(e["ts"], (int, float)):
            return fail(f"{where}: missing or non-numeric ts")
        if "name" not in e or not isinstance(e["name"], str):
            return fail(f"{where}: missing name")
        key = (e["pid"], e["tid"])
        if e["ts"] < last_ts.get(key, float("-inf")):
            return fail(
                f"{where}: ts {e['ts']} not monotone on track pid={e['pid']} "
                f"tid={e['tid']} (prev {last_ts[key]})"
            )
        last_ts[key] = e["ts"]
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                return fail(f"{where}: complete event with invalid dur {dur!r}")
            spans_by_process[e["pid"]] += 1
        elif ph == "i":
            if "s" in e and e["s"] not in VALID_INSTANT_SCOPES:
                return fail(f"{where}: instant event with invalid scope {e['s']!r}")
            instant_names[e["name"]] += 1
        elif ph in ("s", "f"):
            if "id" not in e:
                return fail(f"{where}: flow event without an id")
            if ph == "s":
                flow_starts.add(e["id"])
            else:
                if e.get("bp") != "e":
                    return fail(f"{where}: flow finish without bp=e binding")
                flow_finishes.add(e["id"])
        elif ph == "C":
            trace_args = e.get("args")
            if not isinstance(trace_args, dict) or not trace_args:
                return fail(f"{where}: counter event without args")
            for k, v in trace_args.items():
                if not isinstance(v, (int, float)):
                    return fail(f"{where}: counter series {k} non-numeric: {v!r}")
            counter_events += 1

    other = root.get("otherData", {})
    dropped = other.get("trace_dropped")
    if dropped is not None and dropped > 0:
        print(f"note: {dropped} events were dropped (ring buffers full)")

    # Span-conservation ledger of a merged fleet timeline: every span a
    # worker emitted is either merged into this file or accounted as dropped.
    if "telemetry_emitted" in other:
        emitted = other["telemetry_emitted"]
        merged = other.get("telemetry_events_merged", 0)
        tdropped = other.get("telemetry_dropped", 0)
        if emitted != merged + tdropped:
            return fail(
                f"span conservation violated: emitted {emitted} != "
                f"merged {merged} + dropped {tdropped}"
            )
    if "clock_offsets" in other:
        for i, row in enumerate(other["clock_offsets"]):
            for field in ("rank", "pid", "offset_us", "rtt_us", "has_offset"):
                if field not in row:
                    return fail(f"clock_offsets[{i}]: missing {field}")
            if row["has_offset"] and abs(row["offset_us"]) > 0 and row["rtt_us"] < 0:
                return fail(f"clock_offsets[{i}]: negative RTT with an offset")

    hardware_procs = sorted(
        process_names[pid]
        for pid in spans_by_process
        if process_names.get(pid, "") != "software"
    )
    if args.require_hardware and not hardware_procs:
        return fail("no simulated-hardware span tracks found")
    if args.require_counters and counter_events == 0:
        return fail("no counter series found")

    worker_procs = sorted(
        process_names[pid]
        for pid in spans_by_process
        if process_names.get(pid, "").startswith("worker ")
    )
    if args.require_workers and len(worker_procs) < args.require_workers:
        return fail(
            f"only {len(worker_procs)} worker process track(s) with spans "
            f"(need {args.require_workers}): {', '.join(worker_procs) or 'none'}"
        )
    if args.require_flow:
        if not flow_starts:
            return fail("no flow-start (ph=s) events found")
        if not flow_finishes:
            return fail("no flow-finish (ph=f) events found")
        unmatched = flow_finishes - flow_starts
        if unmatched:
            # A dropped flow start (ring overflow) legitimately orphans its
            # finish; only a drop-free trace must pair every arrow.
            any_drops = (dropped or 0) + other.get("telemetry_dropped", 0)
            msg = (
                f"{len(unmatched)} flow finish(es) without a matching start "
                f"(e.g. id {sorted(unmatched)[0]})"
            )
            if any_drops:
                print(f"note: {msg} — tolerated, {any_drops} drops reported")
            else:
                return fail(msg)

    n_spans = sum(spans_by_process.values())
    print(
        f"OK: {len(events)} events ({n_spans} spans, {counter_events} counter "
        f"samples, {len(flow_starts)}/{len(flow_finishes)} flow s/f) across "
        f"{len(process_names)} processes"
        + (f"; hardware tracks: {', '.join(hardware_procs)}" if hardware_procs else "")
        + (f"; worker tracks: {', '.join(worker_procs)}" if worker_procs else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
