#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run from the repository root. Builds the library and the perfbench driver
from source into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench),
runs one workload, and prints the driver's report. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits non-zero, without that line, when the build or the
run fails or a metric named in BENCHMARK.json is missing.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("svc-pipelined", "svc-interactive", "lib-ingest", "lib-read")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    if not (ROOT / "src" / "server" / "service.h").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def commit_id():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return []
    doc = json.loads(spec.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (seconds-long runs)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    build(out)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", str(trace_file)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write(p.stdout)
        fail(f"driver exited with code {p.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    missing = [m for m in expected_metrics(args.trace)
               if m not in result["metrics"]]
    if missing:
        fail(f"metrics not reported: {', '.join(missing)}")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        print(f"trace {trace_file}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
