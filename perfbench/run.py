#!/usr/bin/env python3
"""Benchmark of record for the AIQL engine (see perfbench/NOTES.md).

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
engine from src/) into .bench_build/perfbench, runs one workload, and relays
its report. The last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload history_hunt --seed 42 --seconds 50 --trace 0
  python3 perfbench/run.py --workload rebind --seed 7 --bind-seed 9 --seconds 50 --trace 1
  python3 perfbench/run.py --selftest

With --trace 1 the spans of the traced loop are written to
.bench_build/traces/<workload>.csv (replaced by the next traced run).
"""
import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("case_study", "history_hunt", "rebind")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout kills the whole group.

    Returns (returncode, stdout text or None); returncode is None on timeout.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: timed out after {timeout} s: {' '.join(cmd)}")
        return None, None


def build():
    if not (ROOT / "src" / "core" / "engine.h").is_file():
        log(f"perfbench: engine sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42, help="dataset seed (TraceConfig::seed)")
    parser.add_argument("--bind-seed", type=int, help="rebind sequence seed (default: --seed)")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own test instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    if args.selftest:
        code, _ = run([str(BUILD / "perfbench_counters_test")], RUN_TIMEOUT_S)
        return 0 if code == 0 else 1

    cmd = [str(BUILD / "aiql_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.bind_seed is not None:
        cmd += ["--bind-seed", str(args.bind_seed)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(traces / f"{args.workload}.csv")]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = (out or "").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if code != 0 or not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out or "")
        log(f"perfbench: benchmark failed (exit {code})")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
