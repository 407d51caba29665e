#!/usr/bin/env python3
"""Wire-level benchmark of the OSD serving stack.

Run one measurement (the benchmark contract):

    python3 perfbench/run.py --workload stream_uniform --seed 1 \
        --seconds 30 --trace 0

builds perfbench/ (and the library under src/) into .bench_build/, runs
the harness, and prints as its last stdout line one JSON object with
"correct", "attempted", "failed" and "metrics". --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the traced
requests to .bench_out/traces/). Every run also leaves a record, stamped
with commit, machine, compiler and options, in .bench_out/records/.

Other modes:

    python3 perfbench/run.py selftest
        tiny runs of every workload: every named metric is emitted, answers
        are correct, and a deliberately corrupted reference is caught.
    python3 perfbench/run.py compare BASE_DIR NEW_DIR
        one row per workload x end-to-end metric over two sets of records.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "osd_perfbench"
OUT_DIR = ROOT / ".bench_out"
HARNESS_TIMEOUT_S = 170
WORKLOADS = ("stream_uniform", "overlap_psd", "hot_rw")

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "cpu_ms_per_query": ("ms", "lower"),
    "rss_peak_mb": ("MB", "lower"),
}

# Span kinds of the program's per-query trace, by the layer that owns them.
SPAN_METRICS = {
    "core.traversal": "traversal",
    "core.cleanup": "cleanup",
    "core.dominance_check": "dominance_check",
    "core.stat_filter": "stat_filter",
    "core.cover_filter": "cover_filter",
    "core.level_filter": "level_filter",
    "core.geometric_filter": "geometric_filter",
    "core.exact_check": "exact_check",
    "flow.flow_run": "flow_run",
    "index.local_tree_build": "local_tree_build",
}

# Exact work counts per traced query: metric -> trace summary key.
COUNT_METRICS = {
    "core.dominance_checks": "dominance_checks",
    "core.instance_comparisons": "instance_comparisons",
    "geom.dist_evals": "dist_evals",
    "core.flow_runs": "flow_runs",
    "core.exact_checks": "exact_checks",
    "core.objects_examined": "objects_examined",
    "core.entries_pruned": "entries_pruned",
}

PER_LAYER = {
    "error_frac": ("ratio", "lower"),
    "qps": ("1/s", "higher"),
    "query_tail_ms": ("ms", "lower"),
    "ttfc_p50_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_tail_ms": ("ms", "lower"),
    "net.overhead_p50_ms": ("ms", "lower"),
    "net.overhead_tail_ms": ("ms", "lower"),
    "net.frames_per_query": ("count", "lower"),
    "net.bytes_per_query": ("B", "lower"),
    "net.coalesced": ("count", "lower"),
    "net.evictions": ("count", "lower"),
    "engine.queue_wait_p50_ms": ("ms", "lower"),
    "engine.queue_wait_tail_ms": ("ms", "lower"),
    "engine.busy_frac": ("ratio", "lower"),
    "engine.rejected": ("count", "lower"),
    "engine.retries": ("count", "lower"),
    "core.run_p50_ms": ("ms", "lower"),
    "core.run_tail_ms": ("ms", "lower"),
}
for _name in SPAN_METRICS:
    PER_LAYER[_name] = ("share", "lower")
    PER_LAYER[_name + "_ms"] = ("ms", "lower")
for _name in COUNT_METRICS:
    PER_LAYER[_name] = ("count", "lower")
PER_LAYER.update({
    "core.decided_before_exact": ("ratio", "higher"),
    "core.candidates_per_examined": ("ratio", "higher"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "cache.stale_evictions": ("count", "lower"),
    "store.epochs": ("count", "higher"),
    "store.folds": ("count", "higher"),
    "store.mutations": ("count", "higher"),
    "wal.appends": ("count", "higher"),
    "wal.bytes_per_write": ("B", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics ------------------------------------------------------------

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SUBWINDOWS = 4


def nearest_rank_index(n, pct):
    """1-based nearest rank of percentile pct over n samples, computed in
    integers (tenths of a percent) so no float rounding moves the rank."""
    return max(1, -(-round(pct * 10) * n // 1000))


def nearest_rank(sorted_values, pct):
    return sorted_values[nearest_rank_index(len(sorted_values), pct) - 1]


def tail_of(sorted_values):
    """(value, percentile): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    n = len(sorted_values)
    for pct in TAIL_LADDER:
        k = nearest_rank_index(n, pct)
        if n - k >= 10:
            return sorted_values[k - 1], pct
    return sorted_values[-1], 100.0


def timing(samples, span_ms):
    """Median and tail of one timing; samples are (start_ms, value).

    The median is over all samples. The tail is the median, over up to
    SUBWINDOWS equal slices of the span (by start time, at least 100
    samples a slice), of each slice's tail: one order statistic with ten
    samples beyond it swings with a single stall, the median of four does
    not."""
    values = sorted(v for _, v in samples)
    if not values:
        return {"n": 0, "p50": None, "tail": None, "tail_pct": None,
                "slice_n": []}
    k = max(1, min(SUBWINDOWS, len(values) // 100))
    slices = [[] for _ in range(k)]
    for start, v in samples:
        i = int(start * k / span_ms) if span_ms > 0 else 0
        slices[min(max(i, 0), k - 1)].append(v)
    tails = [tail_of(sorted(s)) for s in slices if s]
    return {"n": len(values), "p50": nearest_rank(values, 50.0),
            "tail": statistics.median(t[0] for t in tails),
            "tail_pct": min(t[1] for t in tails),
            "slice_n": [len(s) for s in slices]}


def mean(values):
    return sum(values) / len(values) if values else 0.0


# --- build and stamp -------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources next to perfbench/ (src/ missing)")
        return False
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def cmake_cache(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.splitlines()[0].strip() if out.stdout else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """Content hash of the library and benchmark sources: identifies the
    code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def stamp(seed, harness):
    # Only a repository whose top level is this checkout names its commit;
    # a checkout without .git may still sit inside some other repository.
    commit = dirty = None
    top = first_line(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    if top is not None and Path(top).resolve() == ROOT:
        commit = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True)
        dirty = bool(status.stdout.strip())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler_path = cmake_cache("CMAKE_CXX_COMPILER")
    return {
        "commit": commit or "unknown",
        "dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": first_line([compiler_path, "--version"])
        if compiler_path else None,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "seed": seed,
        "options": harness.get("options"),
        "dataset": harness.get("dataset"),
        "readers": harness.get("readers"),
        "stream": harness.get("stream"),
        "write_rate": harness.get("write_rate"),
        "writes_in_window": harness.get("writes_in_window"),
        "unix_time": time.time(),
    }


# --- metrics ---------------------------------------------------------------

def rows(phase):
    """The phase's requests and writes as dicts keyed by field name."""
    fields = phase["request_fields"]
    requests = [dict(zip(fields, r)) for r in phase["requests"]]
    writes = [dict(zip(("due_ms", "send_ms", "ack_ms", "ok"), w))
              for w in phase["writes"]]
    return requests, writes


def delta(phase, key):
    return phase["after"][key] - phase["before"][key]


def accounting(harness):
    attempted = failed = 0
    for phase in harness["phases"]:
        requests, writes = rows(phase)
        attempted += len(requests) + len(writes)
        failed += sum(1 for r in requests if r["ok"] != 1 or r["wrong"])
        failed += sum(1 for w in writes if w["ok"] != 1)
    return attempted, failed


def query_timings(phase):
    """Client-side timings of the phase's answered queries and writes."""
    requests, writes = rows(phase)
    ok = [r for r in requests if r["ok"] == 1]
    span = phase["window_s"] * 1e3
    write_span = phase["write_window_s"] * 1e3
    return ok, {
        "query": timing([(r["send_ms"], r["end_ms"] - r["send_ms"])
                         for r in ok], span),
        "ttfc": timing([(r["send_ms"], r["first_ms"] - r["send_ms"])
                        for r in ok], span),
        "write": timing([(w["due_ms"], w["ack_ms"] - w["due_ms"])
                         for w in writes if w["ok"] == 1], write_span),
        # How late the open-loop writer sent, against its schedule.
        "write_lateness_max_ms": max(
            (w["send_ms"] - w["due_ms"] for w in writes), default=0.0),
        "net_overhead": timing([(r["send_ms"], r["end_ms"] - r["send_ms"]
                                 - r["latency_ms"]) for r in ok], span),
        "queue_wait": timing([(r["send_ms"], r["latency_ms"] - r["run_ms"])
                              for r in ok], span),
        "run": timing([(r["send_ms"], r["run_ms"]) for r in ok], span),
    }


def qps(phase, ok):
    """Completions per second over the span they actually covered."""
    done = [r["end_ms"] for r in ok if r["end_ms"] <= phase["window_s"] * 1e3]
    return len(done) / (max(done) / 1e3) if done else 0.0


def end_to_end(harness, details):
    phase = harness["phases"][0]
    ok, t = query_timings(phase)
    details.update(t)
    details["qps"] = qps(phase, ok)
    return {
        "setup_s": statistics.median(harness["setup_s"]),
        "query_p50_ms": t["query"]["p50"],
        # Process CPU time over the window (engine, server and the
        # in-process clients) per answered query.
        "cpu_ms_per_query": phase["cpu_s"] * 1e3 / len(ok) if ok else None,
        "rss_peak_mb": harness["rss_peak_mb"],
    }


def span_tree_self_times(trace):
    """Self time per span kind: each span's duration minus the part its
    recorded children cover."""
    spans = trace["spans"]
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ms[s["parent"]] += s["ms"]
    out = {}
    for s, c in zip(spans, child_ms):
        out[s["kind"]] = out.get(s["kind"], 0.0) + max(0.0, s["ms"] - c)
    return out


def traced_metrics(trace_path, details):
    """Span shares, work counts and self times of the traced requests,
    read one line at a time (a span tree can be large)."""
    n = complete = 0
    run_ms = complete_run_ms = 0.0
    span_ms = {kind: 0.0 for kind in SPAN_METRICS.values()}
    counts = {key: 0 for key in COUNT_METRICS.values()}
    decided = candidates = 0
    self_ms = {}
    with open(trace_path) as f:
        for line in f:
            result = json.loads(line)["result"]
            if result.get("status") != "OK" or "trace" not in result:
                continue
            trace, summary = result["trace"], result["trace"]["summary"]
            n += 1
            run_ms += result["run_ms"]
            for kind in span_ms:
                span_ms[kind] += trace["aggregates"].get(kind, {}).get("ms", 0)
            for key in counts:
                counts[key] += summary[key]
            decided += (summary["mbr_validations"] + summary["stat_prunes"]
                        + summary["cover_prunes"] + summary["level_decisions"])
            candidates += summary["candidates"]
            if trace["dropped_spans"] == 0:
                complete += 1
                complete_run_ms += result["run_ms"]
                for kind, ms in span_tree_self_times(trace).items():
                    self_ms[kind] = self_ms.get(kind, 0.0) + ms
    out = {}
    for name, kind in SPAN_METRICS.items():
        out[name] = span_ms[kind] / run_ms if run_ms else 0.0
        out[name + "_ms"] = span_ms[kind] / n if n else 0.0
    for name, key in COUNT_METRICS.items():
        out[name] = counts[key] / n if n else 0.0
    checks, examined = counts["dominance_checks"], counts["objects_examined"]
    out["core.decided_before_exact"] = decided / checks if checks else 0.0
    out["core.candidates_per_examined"] = (
        candidates / examined if examined else 0.0)
    details["traced_queries"] = n
    details["self_time"] = {
        "queries": complete, "of_traced": n,
        "share_of_run_ms": {k: v / complete_run_ms for k, v in
                            sorted(self_ms.items())} if complete_run_ms else {}}
    return out


def per_layer(harness, trace_path, details):
    plain, traced = harness["phases"]
    ok, t = query_timings(plain)
    run_traced = query_timings(traced)[1]["run"]
    details.update(t)
    details["run_traced"] = run_traced
    hits, misses = delta(plain, "cache_hits"), delta(plain, "cache_misses")
    wal = sorted(plain["wal_bytes_per_append"])
    attempted, failed = accounting(harness)
    out = {
        "error_frac": failed / attempted if attempted else 0.0,
        "qps": qps(plain, ok),
        "query_tail_ms": t["query"]["tail"],
        "ttfc_p50_ms": t["ttfc"]["p50"],
        "write_p50_ms": t["write"]["p50"],
        "write_tail_ms": t["write"]["tail"],
        "net.overhead_p50_ms": t["net_overhead"]["p50"],
        "net.overhead_tail_ms": t["net_overhead"]["tail"],
        "net.frames_per_query": mean([r["frames"] for r in ok]),
        "net.bytes_per_query": mean([r["bytes"] for r in ok]),
        "net.coalesced": delta(plain, "net_coalesced"),
        "net.evictions": delta(plain, "net_evictions"),
        "engine.queue_wait_p50_ms": t["queue_wait"]["p50"],
        "engine.queue_wait_tail_ms": t["queue_wait"]["tail"],
        "engine.busy_frac": sum(r["run_ms"] for r in ok) / 1e3
        / (plain["window_s"] * plain["threads"]),
        "engine.rejected": delta(plain, "rejected"),
        "engine.retries": delta(plain, "retries"),
        "core.run_p50_ms": t["run"]["p50"],
        "core.run_tail_ms": t["run"]["tail"],
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": delta(plain, "cache_evictions"),
        "cache.stale_evictions": delta(plain, "cache_stale_evictions"),
        "store.epochs": delta(plain, "epoch"),
        "store.folds": delta(plain, "folds"),
        "store.mutations": delta(plain, "mutations"),
        "wal.appends": delta(plain, "wal_appends"),
        "wal.bytes_per_write": nearest_rank(wal, 50.0) if wal else 0.0,
        "obs.trace_overhead": run_traced["p50"] / t["run"]["p50"] - 1.0
        if t["run"]["p50"] and run_traced["p50"] else 0.0,
    }
    out.update(traced_metrics(trace_path, details))
    return out


# --- one run ---------------------------------------------------------------

def run_harness(workload, seed, seconds, trace, work, extra=()):
    """Runs the harness; returns its parsed JSON, or None on failure."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--work-dir", str(work)]
    if trace:
        cmd += ["--trace-out", str(work / "trace.jsonl")]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: harness failed with code %d" % proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, extra=()):
    """One benchmark run: returns (result line dict, record) or None."""
    work = OUT_DIR / "work" / ("%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        harness = run_harness(workload, seed, seconds, trace, work, extra)
        if harness is None:
            return None
        details = {}
        if trace:
            metrics = per_layer(harness, work / "trace.jsonl", details)
            table = PER_LAYER
            traces = OUT_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            dest = traces / ("%s_seed%d_%d.jsonl.gz"
                             % (workload, seed, time.time_ns()))
            with open(work / "trace.jsonl", "rb") as src, \
                    gzip.open(dest, "wb") as out:
                shutil.copyfileobj(src, out)
            details["trace_file"] = str(dest.relative_to(ROOT))
        else:
            metrics = end_to_end(harness, details)
            table = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = accounting(harness)
    correct = failed == 0 and all(v is not None for v in metrics.values())
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }
    failures = {}
    for phase in harness["phases"]:
        for k, v in phase["failures"].items():
            failures[k] = failures.get(k, 0) + v
    record = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "stamp": stamp(seed, harness),
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_frac": failed / attempted if attempted else 0.0,
        "metrics": line["metrics"],
        "details": details,
        "reference": harness["reference"],
        "failures": failures,
        "setup_samples_s": harness["setup_s"],
        "counters": [{"before": p["before"], "after": p["after"],
                      "traced": p["traced"], "window_s": p["window_s"]}
                     for p in harness["phases"]],
    }
    return line, record


def print_human(record):
    d = record["details"]
    log("perfbench: %s seed %s trace %d: correct=%s attempted=%d failed=%d"
        % (record["workload"], record["stamp"]["seed"], record["trace"],
           record["correct"], record["attempted"], record["failed"]))
    samples = {"query_p50_ms": "query", "query_tail_ms": "query",
               "ttfc_p50_ms": "ttfc", "write_p50_ms": "write",
               "write_tail_ms": "write",
               "net.overhead_p50_ms": "net_overhead",
               "net.overhead_tail_ms": "net_overhead",
               "engine.queue_wait_p50_ms": "queue_wait",
               "engine.queue_wait_tail_ms": "queue_wait",
               "core.run_p50_ms": "run", "core.run_tail_ms": "run"}
    for name, m in record["metrics"].items():
        note = ""
        if name in samples and samples[name] in d:
            t = d[samples[name]]
            tail = ", p%s per slice of n=%s" % (t["tail_pct"], t["slice_n"])
            note = "  (n=%d%s)" % (t["n"],
                                   tail if name.endswith("tail_ms") else "")
        value = "%14.6g" % m["value"] if m["value"] is not None else "None"
        log("  %-32s %14s %-6s%s" % (name, value, m["unit"], note))
    if "self_time" in d:
        st = d["self_time"]
        log("  self time share of run_ms over %d of %d traced queries "
            "(complete span trees):" % (st["queries"], st["of_traced"]))
        for kind, share in st["share_of_run_ms"].items():
            log("    %-20s %.4f" % (kind, share))


def save_record(record):
    dest = OUT_DIR / "records" / record["workload"]
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / ("seed%d_trace%d_%d.json" % (record["stamp"]["seed"],
                                               record["trace"],
                                               time.time_ns()))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def cmd_run(args):
    if not build():
        return 1
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    line, record = result
    save_record(record)
    print_human(record)
    print(json.dumps(line), flush=True)
    return 0


# --- self-test -------------------------------------------------------------

def cmd_selftest(_args):
    if not build():
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if listed != {k: v[0] for k, v in END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if listed != {k: v[0] for k, v in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            result = measure(workload, 1, 1.0, trace, ["--tiny"])
            tag = "%s trace %d" % (workload, trace)
            if result is None:
                problems.append(tag + ": run failed")
                continue
            line, _ = result
            missing = [k for k in table if k not in line["metrics"]
                       or line["metrics"][k]["value"] is None]
            if missing:
                problems.append(tag + ": missing " + ", ".join(missing))
            if not line["correct"] or line["failed"]:
                problems.append(tag + ": answers wrong or failed")
            log("selftest: %s: %d attempted, %d metrics" %
                (tag, line["attempted"], len(line["metrics"])))
        result = measure(workload, 1, 1.0, 0, ["--tiny", "--corrupt-reference"])
        if result is None or result[0]["correct"] or not result[0]["failed"]:
            problems.append(workload + ": corrupted reference not caught")
        else:
            log("selftest: %s: corrupted reference caught (%d failed)"
                % (workload, result[0]["failed"]))
    for p in problems:
        log("selftest: FAIL: " + p)
    log("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


# --- compare ---------------------------------------------------------------

def load_records(directory):
    records = []
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(rec, dict) and rec.get("trace") == 0 and "metrics" in rec:
            records.append(rec)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cmd_compare(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    base_all, new_all = load_records(args.base), load_records(args.new)
    if not base_all or not new_all:
        log("compare: need trace-0 records in both directories")
        return 2
    print("%-15s %-15s %11s %11s %11s %11s %9s %7s  %s" % (
        "workload", "metric", "base_med", "base_iqr", "new_med", "new_iqr",
        "change", "wins", "verdict"))
    flagged = False
    for workload in WORKLOADS:
        base = [r for r in base_all if r["workload"] == workload]
        new = [r for r in new_all if r["workload"] == workload]
        if not base or not new:
            continue
        base_by_seed = {r["stamp"]["seed"]: r for r in base}
        pairs = [(base_by_seed[r["stamp"]["seed"]], r) for r in new
                 if r["stamp"]["seed"] in base_by_seed]
        for name, (_, better) in END_TO_END.items():
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            sign = 1.0 if better == "lower" else -1.0
            bmed, nmed = statistics.median(b), statistics.median(n)
            bq1, bq3 = quartiles(b)
            nq1, nq3 = quartiles(n)
            wins = sum(1 for pb, pn in pairs
                       if sign * (pn["metrics"][name]["value"]
                                  - pb["metrics"][name]["value"]) < 0)
            worse = sign * (nmed - bmed) / bmed if bmed else 0.0
            bound = bounds.get(name, 0.0)
            if (pairs and wins >= 0.9 * len(pairs) and worse < 0
                    and abs(nmed - bmed) > bq3 - bq1):
                verdict = "gain"
            elif worse > bound:
                verdict = "REGRESSION"
                flagged = True
            elif bmed and (bq3 - bq1) / abs(bmed) > bound and not (
                    max(sign * v for v in n) < min(sign * v for v in b)):
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "unresolved"  # better, but short of a gain
            else:
                verdict = "no change"
            print("%-15s %-15s %11.5g %11.5g %11.5g %11.5g %+8.1f%% %3d/%-3d"
                  "  %s" % (workload, name, bmed, bq3 - bq1, nmed, nq3 - nq1,
                     100.0 * (nmed - bmed) / bmed if bmed else 0.0, wins,
                     len(pairs), verdict))
        berr = max(r["error_frac"] for r in base)
        nerr = max(r["error_frac"] for r in new)
        if nerr > berr:
            flagged = True
        print("%-15s %-15s %11.5g %11s %11.5g %11s %9s %7s  %s" % (
            workload, "error_frac(max)", berr, "", nerr, "", "", "",
            "ERROR RISE" if nerr > berr else "ok"))
    return 1 if flagged else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        return cmd_selftest(None)
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="directory of the parent's records")
        p.add_argument("new", help="directory of the change's records")
        return cmd_compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return cmd_run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
