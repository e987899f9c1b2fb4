#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The build goes to .bench_build/ (CMake, Release). The binary's report lines
are passed through; the last line printed is the JSON result, checked
against the metric lists in BENCHMARK.json. Exit status: 0 when every
output check passed, 1 when one failed, 2 when the build or the arguments
failed, 3 when the binary crashed or printed a malformed result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    """The caller's environment minus every KESTREL_* variable, with
    temporary files kept inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KESTREL_")}
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"kestrel sources not found under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    env = clean_env()
    log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", jobs])
        with open(log, "a") as out:
            for cmd in steps:
                if subprocess.run(cmd, cwd=ROOT, env=env, stdout=out,
                                  stderr=subprocess.STDOUT).returncode != 0:
                    tail = log.read_text(errors="replace").splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(2, f"build failed: {' '.join(cmd)} (log: {log})")


def metric_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Checks the binary's JSON line against BENCHMARK.json; returns a list
    of problems."""
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or result[k] < 0:
            problems.append(f"{k} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = metric_spec(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def run_binary(argv, timeout=RUN_TIMEOUT_S):
    return subprocess.run([str(BINARY), *argv], cwd=ROOT, env=clean_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


def run_workload(args):
    build()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        argv += ["--trace-out", str(traces / f"{args.workload}.json")]
    try:
        proc = run_binary(argv)
    except subprocess.TimeoutExpired:
        fail(3, f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(3, f"perfbench exited {proc.returncode} without a result")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    problems = validate(result, args.trace == 1)
    if problems:
        fail(3, "malformed result: " + "; ".join(problems))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


def self_test():
    """The binary's unit self-tests, then a smoke run of every workload in
    both modes, each checked like a real run."""
    build()
    proc = run_binary(["--self-test"])
    print(proc.stdout, end="")
    ok = proc.returncode == 0
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for name in workloads:
        for trace in (0, 1):
            t0 = time.monotonic()
            p = run_binary(["--workload", name, "--seed", "5", "--seconds", "1",
                            "--trace", str(trace), "--smoke"])
            last = p.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last)
                problems = validate(result, trace == 1)
                if not result.get("correct"):
                    problems.append("an output check failed")
            except json.JSONDecodeError:
                problems = [f"no JSON result (exit {p.returncode}): {p.stderr.strip()}"]
            if p.returncode != 0:
                problems.append(f"exit {p.returncode}")
            status = "PASS" if not problems else "FAIL " + "; ".join(problems)
            print(f"{status} smoke {name} trace={trace} ({time.monotonic() - t0:.1f} s)")
            ok = ok and not problems
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
