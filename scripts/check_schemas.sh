#!/usr/bin/env bash
# Validate the versioned schema markers of etap's machine-readable
# outputs. Every JSON document the toolchain writes carries a "schema"
# field; this script is the CI gate that keeps those markers (and the
# documents' basic shape) from drifting silently.
#
#   check_schemas.sh report FILE    # etap-report/1 (etap --json)
#   check_schemas.sh matrix FILE    # etap-report/1 from `etap matrix --json`
#                                   # (typed cell statuses + cache meta)
#   check_schemas.sh trace FILE     # etap-trace/1  (--trace)
#   check_schemas.sh metrics FILE   # etap-metrics/1 (--metrics, JSONL)
#   check_schemas.sh cache FILE     # etap-cache/1  (one _etap_cache/ entry)
#   check_schemas.sh cache DIR      # every *.json entry under the store
#   check_schemas.sh serve FILE     # etap-serve/1  (JSONL of daemon
#                                   # responses; embedded reports are
#                                   # validated as etap-report/1 and
#                                   # embedded stats docs as etap-stats/1)
#   check_schemas.sh stats FILE     # etap-stats/1  (one stats document,
#                                   # e.g. extracted from a response)
#   check_schemas.sh access FILE    # etap-access/1 (JSONL access log)
#
# Uses python3's json module (present on CI runners); no jq dependency.
set -euo pipefail

usage="usage: check_schemas.sh report|matrix|trace|metrics|cache|serve|stats|access FILE"
kind="${1:?$usage}"
file="${2:?$usage}"

python3 - "$kind" "$file" <<'EOF'
import json, sys

kind, path = sys.argv[1], sys.argv[2]

def fail(msg):
    print(f"schema check FAILED for {path}: {msg}", file=sys.stderr)
    sys.exit(1)

def expect(cond, msg):
    if not cond:
        fail(msg)

if kind == "metrics":
    # JSONL: first line is the header, every later line a typed record.
    with open(path) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    expect(lines, "empty metrics stream")
    head = lines[0]
    expect(head.get("schema") == "etap-metrics/1",
           f"bad schema marker {head.get('schema')!r}")
    expect("command" in head and "meta" in head, "header missing command/meta")
    for rec in lines[1:]:
        t = rec.get("type")
        expect(t in ("counter", "histogram", "fault_site"),
               f"unknown record type {t!r}")
        if t == "counter":
            expect(isinstance(rec.get("value"), int), "non-integer counter")
        if t == "fault_site":
            expect(rec["total"] == rec["crash"] + rec["infinite"] + rec["completed"],
                   "fault_site total != class sum")
elif kind == "trace":
    doc = json.load(open(path))
    expect(doc.get("schema") == "etap-trace/1",
           f"bad schema marker {doc.get('schema')!r}")
    evs = doc.get("traceEvents")
    expect(isinstance(evs, list) and evs, "missing/empty traceEvents")
    for e in evs:
        expect(e.get("ph") in ("X", "M"), f"unexpected phase {e.get('ph')!r}")
        if e["ph"] == "X":
            expect(isinstance(e.get("ts"), (int, float)) and e["ts"] >= 0,
                   "complete event without non-negative ts")
            expect(isinstance(e.get("dur"), (int, float)) and e["dur"] >= 0,
                   "complete event without non-negative dur")
elif kind == "cache":
    # One entry file, or a store root — then every *.json below it.
    import os
    if os.path.isdir(path):
        files = sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path) for f in fs if f.endswith(".json"))
        expect(files, "no cache entries under store root")
    else:
        files = [path]
    hexfloat = {"nan", "-nan", "infinity", "-infinity"}
    for fp in files:
        doc = json.load(open(fp))
        expect(doc.get("schema") == "etap-cache/1",
               f"{fp}: bad schema marker {doc.get('schema')!r}")
        expect(isinstance(doc.get("key"), str) and len(doc["key"]) == 32,
               f"{fp}: key is not a 32-hex-char digest")
        sec = doc.get("section")
        expect(isinstance(sec, dict) and isinstance(sec.get("name"), str)
               and isinstance(sec.get("hash"), str),
               f"{fp}: missing section name/hash")
        trials = doc.get("trials")
        expect(isinstance(trials, list) and trials, f"{fp}: missing/empty trials")
        indices = []
        for t in trials:
            for k in ("index", "dyn", "planned", "landed"):
                expect(isinstance(t.get(k), int), f"{fp}: trial {k} not an int")
            expect(t["landed"] <= t["planned"], f"{fp}: landed > planned")
            fid = t.get("fidelity")
            expect(fid is None or isinstance(fid, str)
                   and (fid.startswith(("0x", "-0x")) or fid.lower() in hexfloat),
                   f"{fp}: fidelity {fid!r} is not null or a hexfloat string")
            indices.append(t["index"])
        expect(indices == sorted(indices), f"{fp}: trial indices not ascending")
    print(f"checked {len(files)} cache entr{'y' if len(files) == 1 else 'ies'}")
elif kind == "access":
    # JSONL access log: one typed line per request the daemon served.
    with open(path) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    expect(lines, "empty access log")
    for i, rec in enumerate(lines):
        where = f"line {i + 1}: "
        expect(rec.get("schema") == "etap-access/1",
               f"{where}bad schema marker {rec.get('schema')!r}")
        expect("id" in rec, f"{where}line without a request id")
        expect(isinstance(rec.get("kind"), str) and rec["kind"],
               f"{where}kind is not a string")
        expect(rec.get("status") in ("ok", "failed"),
               f"{where}status {rec.get('status')!r} is not typed")
        expect(isinstance(rec.get("coalesced"), bool),
               f"{where}coalesced is not a boolean")
        for k in ("ts_us", "wall_us", "warm_hits", "warm_misses",
                  "cache_hits", "cache_misses", "trials_run", "trials_reused"):
            expect(isinstance(rec.get(k), int) and rec[k] >= 0,
                   f"{where}{k} is not a non-negative int")
        if rec["coalesced"]:
            expect(rec["trials_run"] == 0,
                   f"{where}coalesced waiter claims executed trials")
    print(f"checked {len(lines)} access line(s)")
elif kind in ("report", "matrix", "serve", "stats"):
    def check_report(doc, where=""):
        expect(doc.get("schema") == "etap-report/1",
               f"{where}bad schema marker {doc.get('schema')!r}")
        expect(isinstance(doc.get("tables"), list) and doc["tables"],
               f"{where}missing/empty tables")
        for t in doc["tables"]:
            keys = [c["key"] for c in t["columns"]]
            for row in t["rows"]:
                expect(list(row.keys()) == keys,
                       f"{where}table {t['id']}: row keys diverge from columns")

    def check_stats(doc, where=""):
        expect(doc.get("schema") == "etap-stats/1",
               f"{where}bad stats schema marker {doc.get('schema')!r}")
        for k in ("uptime_us", "window_us"):
            expect(isinstance(doc.get(k), int) and doc[k] >= 0,
                   f"{where}stats {k} is not a non-negative int")
        sections = {
            "requests": ("served", "failed", "coalesced", "malformed"),
            "warm": ("hits", "misses", "apps"),
            "store": ("entries", "bytes", "gc_runs", "gc_evicted"),
            "executor": ("workers", "busy", "queued_jobs", "queued_batches"),
        }
        for sec, keys in sections.items():
            obj = doc.get(sec)
            expect(isinstance(obj, dict), f"{where}stats missing {sec}")
            for k in keys:
                expect(isinstance(obj.get(k), int) and obj[k] >= 0,
                       f"{where}stats {sec}.{k} is not a non-negative int")
        for sec in ("totals", "interval"):
            obj = doc.get(sec)
            expect(isinstance(obj, dict), f"{where}stats missing {sec}")
            counters = obj.get("counters")
            expect(isinstance(counters, dict)
                   and all(isinstance(v, int) for v in counters.values()),
                   f"{where}stats {sec}.counters is not a str->int object")
            latency = obj.get("latency")
            expect(isinstance(latency, dict), f"{where}stats {sec}.latency missing")
            for kind_name, dig in latency.items():
                expect(isinstance(dig.get("count"), int) and dig["count"] >= 0,
                       f"{where}stats {sec}.latency.{kind_name}.count bad")
                for q in ("p50_us", "p90_us", "p99_us"):
                    v = dig.get(q)
                    expect(v is None or isinstance(v, (int, float)),
                           f"{where}stats {sec}.latency.{kind_name}.{q} bad")

    if kind == "stats":
        check_stats(json.load(open(path)))
        print(f"{path}: {kind} schema OK")
        sys.exit(0)

    if kind == "serve":
        # JSONL of daemon responses: every line typed, every embedded
        # report a full etap-report/1 document, every embedded stats
        # document a full etap-stats/1 document.
        with open(path) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        expect(lines, "empty serve response stream")
        for i, rec in enumerate(lines):
            where = f"line {i + 1}: "
            expect(rec.get("schema") == "etap-serve/1",
                   f"{where}bad schema marker {rec.get('schema')!r}")
            expect("id" in rec, f"{where}response without an id")
            status = rec.get("status")
            expect(status in ("ok", "failed"),
                   f"{where}status {status!r} is not typed")
            if status == "failed":
                expect(isinstance(rec.get("error"), str) and rec["error"],
                       f"{where}failed response without an error string")
            if "report" in rec:
                check_report(rec["report"], where)
            if "stats" in rec:
                check_stats(rec["stats"], where)
        print(f"checked {len(lines)} serve response(s)")
        print(f"{path}: {kind} schema OK")
        sys.exit(0)

    doc = json.load(open(path))
    check_report(doc)
    if kind == "matrix":
        # A matrix report additionally carries typed per-cell statuses
        # and cache accounting in its meta — the fail-fast contract of
        # `etap matrix`.
        ids = {t["id"] for t in doc["tables"]}
        expect({"matrix", "matrix_anomalies"} <= ids,
               f"matrix report missing tables (got {sorted(ids)})")
        cells = next(t for t in doc["tables"] if t["id"] == "matrix")["rows"]
        expect(cells, "matrix table has no cells")
        for row in cells:
            expect(row.get("status") in ("ok", "skipped", "failed"),
                   f"bad cell status {row.get('status')!r}")
        meta = doc.get("meta", {})
        for k in ("cells_requested", "cells_ok", "cells_skipped",
                  "cells_failed", "cells_hit", "cells_miss",
                  "trials_reused", "trials_run"):
            expect(isinstance(meta.get(k), int), f"meta {k} not an int")
        expect(meta["cells_requested"] == len(cells),
               "meta cells_requested != matrix row count")
        expect(meta["cells_requested"]
               == meta["cells_ok"] + meta["cells_skipped"] + meta["cells_failed"],
               "cell status counts do not sum to cells_requested")
else:
    fail(f"unknown kind {kind!r}")

print(f"{path}: {kind} schema OK")
EOF
