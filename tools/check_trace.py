#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON file emitted by `rt3 --trace`.

Checks the structural contract that Perfetto / chrome://tracing rely
on, plus the rt3-specific invariants the trace exporter promises:

  * top level is an object with a "traceEvents" array (JSON-object
    format, so displayTimeUnit is allowed);
  * every event carries string "name"/"ph", numeric "ts", and integer
    "pid"/"tid";
  * phases are limited to the ones rt3 emits: 'X' (complete span,
    requires numeric non-negative "dur"), 'i' (instant, requires scope
    "s"), 'C' (counter, requires a numeric args value and no "dur"),
    and 'M' (metadata);
  * timestamps are non-negative (the virtual clock starts at 0);
  * every tid used by a real event has a thread_name metadata record
    (the exporter names every lane);
  * request-lifecycle events ("request" spans, "miss"/"shed"/"reject"
    instants) carry an integer request id in args;
  * every "enqueue" follows an "arrive" of the same request id on the
    same lane and is not stamped before it (the loop stamps enqueue at
    admission, which is never earlier than the arrival);
  * SLO events ("slo.breach"/"slo.recover") carry a string args.rule.

With --require-counter-events the trace must contain at least one 'C'
counter event (telemetry export) or it fails — CI uses this to assert
`--telemetry` sessions actually sampled.

Prints a one-line summary with event counts on success.

Usage: check_trace.py [--require-counter-events] TRACE.json [TRACE2.json ...]
Exit codes: 0 valid, 1 invalid, 2 usage/IO error.
"""

import json
import sys

ALLOWED_PHASES = {"X", "i", "C", "M"}
REQUEST_SCOPED = {"request", "miss", "shed", "reject", "arrive", "enqueue"}
SLO_EVENTS = {"slo.breach", "slo.recover"}


def check_events(path, doc, errors, phases):
    """Appends per-event problem strings to `errors`; returns counts.

    `phases` accumulates a per-phase event tally for the caller.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append("top level has no 'traceEvents' array")
        return {}
    if not events:
        errors.append("'traceEvents' is empty")
        return {}
    named_tids = set()
    used_tids = set()
    counts = {}
    arrivals = {}  # (tid, request id) -> arrive ts
    enqueues = []  # (where, tid, request id, ts)
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            errors.append(f"{where}: not an object")
            continue
        name = e.get("name")
        ph = e.get("ph")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing or empty 'name'")
            continue
        if ph not in ALLOWED_PHASES:
            errors.append(f"{where} ({name}): unexpected phase {ph!r}")
            continue
        phases[ph] = phases.get(ph, 0) + 1
        if not isinstance(e.get("pid"), int):
            errors.append(f"{where} ({name}): missing integer 'pid'")
        if not isinstance(e.get("tid"), int):
            errors.append(f"{where} ({name}): missing integer 'tid'")
            continue
        if ph == "M":
            if name == "thread_name":
                label = (e.get("args") or {}).get("name")
                if not isinstance(label, str) or not label:
                    errors.append(f"{where}: thread_name without a label")
                named_tids.add(e["tid"])
            continue
        counts[name] = counts.get(name, 0) + 1
        used_tids.add(e["tid"])
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where} ({name}): missing numeric 'ts'")
        elif ts < 0:
            errors.append(f"{where} ({name}): negative ts {ts}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)):
                errors.append(f"{where} ({name}): span without numeric "
                              f"'dur'")
            elif dur < 0:
                errors.append(f"{where} ({name}): negative dur {dur}")
        if ph == "i" and not isinstance(e.get("s"), str):
            errors.append(f"{where} ({name}): instant without scope 's'")
        if ph == "C":
            args = e.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where} ({name}): counter without args")
            elif not all(isinstance(v, (int, float)) and
                         not isinstance(v, bool) for v in args.values()):
                errors.append(f"{where} ({name}): counter with non-numeric "
                              f"args value")
            if "dur" in e:
                errors.append(f"{where} ({name}): counter must not carry "
                              f"'dur'")
        if name in SLO_EVENTS:
            rule = (e.get("args") or {}).get("rule")
            if not isinstance(rule, str) or not rule:
                errors.append(f"{where} ({name}): slo event without string "
                              f"args.rule")
        if name in REQUEST_SCOPED:
            rid = (e.get("args") or {}).get("id")
            if not isinstance(rid, int):
                errors.append(f"{where} ({name}): request event without "
                              f"integer args.id")
            elif isinstance(ts, (int, float)) and name == "arrive":
                arrivals[(e["tid"], rid)] = ts
            elif isinstance(ts, (int, float)) and name == "enqueue":
                enqueues.append((where, e["tid"], rid, ts))
    for where, tid, rid, ts in enqueues:
        arrived = arrivals.get((tid, rid))
        if arrived is None:
            errors.append(f"{where} (enqueue): request {rid} has no arrive "
                          f"on tid {tid}")
        elif ts < arrived:
            errors.append(f"{where} (enqueue): request {rid} enqueued at "
                          f"{ts} before its arrive at {arrived}")
    unnamed = sorted(used_tids - named_tids)
    if unnamed:
        errors.append(f"tids {unnamed} have events but no thread_name "
                      f"metadata")
    return counts


def check_file(path, require_counters=False):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"check_trace: {path}: top level is not an object",
              file=sys.stderr)
        return False
    errors = []
    phases = {}
    counts = check_events(path, doc, errors, phases)
    if require_counters and not phases.get("C"):
        errors.append("no counter ('C') events — telemetry export missing")
    for e in errors[:50]:
        print(f"check_trace: {path}: {e}", file=sys.stderr)
    if len(errors) > 50:
        print(f"check_trace: {path}: ... and {len(errors) - 50} more",
              file=sys.stderr)
    if errors:
        return False
    total = sum(counts.values())
    top = ", ".join(f"{name} x{n}" for name, n in
                    sorted(counts.items(), key=lambda kv: -kv[1])[:6])
    print(f"check_trace: {path}: ok — {total} events ({top})")
    return True


def main():
    args = sys.argv[1:]
    require_counters = "--require-counter-events" in args
    paths = [a for a in args if a != "--require-counter-events"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    ok = all([check_file(path, require_counters) for path in paths])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
