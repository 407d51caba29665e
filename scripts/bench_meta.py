#!/usr/bin/env python3
"""Stamps a checked-in BENCH_*.json file with machine and commit metadata.

Usage: scripts/bench_meta.py FILE [KEY=VALUE ...]

Rewrites FILE with a leading "meta" block: the generator, the UTC date,
the commit, whether the source tree had uncommitted changes (the BENCH_*
outputs themselves do not count), and the machine (uname, cpus, CPU
model, compiler). Each KEY=VALUE is added to the block; VALUE is parsed
as JSON when it can be (numbers, booleans), else kept as a string.
"""
import json
import subprocess
import sys


def sh(cmd):
    return subprocess.run(cmd, shell=True, capture_output=True,
                          text=True).stdout.strip()


def parse_value(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    path = sys.argv[1]
    meta = {
        "generated_by": "scripts/run_benches.sh",
        "date_utc": sh("date -u +%Y-%m-%dT%H:%M:%SZ"),
        "commit": sh("git rev-parse --short HEAD"),
        "git_dirty": bool(sh("git status --porcelain -- . ':!BENCH_*.json'")),
        "machine": {
            "uname": sh("uname -srm"),
            "cpus": int(sh("nproc") or 0),
            "cpu_model": sh(
                "grep -m1 'model name' /proc/cpuinfo | cut -d: -f2"),
            "compiler": sh("c++ --version | head -1"),
        },
        "build_type": "Release",
    }
    for pair in sys.argv[2:]:
        key, _, value = pair.partition("=")
        meta[key] = parse_value(value)
    with open(path) as f:
        doc = json.load(f)
    doc.pop("meta", None)
    with open(path, "w") as f:
        json.dump({"meta": meta, **doc}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
