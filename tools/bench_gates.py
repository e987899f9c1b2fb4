#!/usr/bin/env python3
"""Pass/fail gates for the bench and profiler JSON exports.

scripts/check.sh and CI both validate the exported documents through this
one module, by gate name:

    python3 tools/bench_gates.py trace  kestrel_trace.json kestrel_metrics.json
    python3 tools/bench_gates.py spmv    BENCH_spmv.json
    python3 tools/bench_gates.py hwc     BENCH_hwc.json
    python3 tools/bench_gates.py threads BENCH_threads.json
    python3 tools/bench_gates.py slim    BENCH_slim.json
    python3 tools/bench_gates.py serve   BENCH_serve.json

Each gate prints a one-line summary and exits 0, or prints why it failed
and exits 1 (a missing file or metric key fails with a traceback). No
dependencies outside the Python 3 standard library.
"""

from __future__ import annotations

import json
import sys

SCHEMA = "kestrel-scope-metrics-v2"
FORMATS = ("csr", "csrperm", "sell", "bcsr", "talon")


class GateError(Exception):
    pass


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise GateError(msg)


def load_metrics_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    check(doc.get("schema") == SCHEMA,
          f"{path}: unknown schema {doc.get('schema')!r}")
    return doc


def gate_trace(trace_path: str, metrics_path: str) -> str:
    """-log_trace / -log_json exports of a sample run."""
    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    check(any(e.get("ph") == "X" for e in trace["traceEvents"]),
          "trace holds no complete (ph=X) spans")
    metrics = load_metrics_doc(metrics_path)
    return (f"sample trace ok: {len(trace['traceEvents'])} trace events, "
            f"{len(metrics['events'])} metric rows")


def gate_spmv(path: str) -> str:
    """bench_fig08_formats: every format reports a positive Gflop/s."""
    m = load_metrics_doc(path)["metrics"]
    for fmt in ("csr", "sell", "bcsr", "talon"):
        key = f"spmv_gflops/{fmt}"
        check(m.get(key, 0.0) > 0.0, f"missing or zero {key}")
    return f"bench metrics ok: { {k: round(v, 2) for k, v in m.items()} }"


def gate_hwc(path: str) -> str:
    """bench_hwc: the v2 capability block says measured or skipped."""
    hwc = load_metrics_doc(path).get("hwc")
    check(hwc is not None, "v2 document must carry the hwc capability block")
    if hwc["available"]:
        return f"hwc ok: counters measured, source {hwc['source']}"
    return f"hwc skipped: no PMU access ({hwc['detail']}) — modeled bytes only"


def gate_threads(path: str) -> str:
    """bench_threads: best 4-thread speedup >= 2x on a >= 4-core host."""
    m = load_metrics_doc(path)["metrics"]
    for fmt in FORMATS:
        for t in (1, 2, 4, 8):
            key = f"{fmt}_t{t}_gflops"
            check(m.get(key, 0.0) > 0.0, f"missing or zero {key}")
    cores = int(m["threads_hw_cores"])
    if m["threads_gate_eligible"] != 1.0:
        return (f"flock gate skipped: host has only {cores} cores (< 4); "
                f"metrics exported")
    check(m["threads_gate_speedup"] >= 2.0,
          f"best 4-thread speedup only {m['threads_gate_speedup']:.2f}x "
          f"on a {cores}-core host (gate: >= 2x)")
    return (f"flock bench ok: {m['threads_gate_speedup']:.2f}x at 4 threads "
            f"({cores} cores)")


def gate_slim(path: str) -> str:
    """bench_slim: the fp32 value stream is >= 1.3x the double multiply on
    at least two formats of a bandwidth-bound matrix (AVX-512 hosts)."""
    m = load_metrics_doc(path)["metrics"]
    for fmt in FORMATS:
        for cfg in ("fat", "fp32"):
            key = f"slim/{fmt}/{cfg}_gflops"
            check(m.get(key, 0.0) > 0.0, f"missing or zero {key}")
    if m["slim_gate_eligible"] != 1.0:
        return "slim gate skipped: host lacks the AVX-512 tier; metrics exported"
    count = int(m["slim_gate_count"])
    check(count >= 2,
          f"only {count} format(s) reached 1.3x fp32 speedup on a "
          f"bandwidth-bound matrix (gate: >= 2)")
    speedups = {fmt: round(m[f"slim/{fmt}/speedup"], 2) for fmt in FORMATS}
    return f"slim bench ok: {count} formats >= 1.3x with fp32 ({speedups})"


def gate_serve(path: str) -> str:
    """bench_serve: overload is shed only through structured RejectedErrors,
    and the shed rate grows monotonically with offered load."""
    m = load_metrics_doc(path)["metrics"]
    check(m["serve/capacity_rps"] > 0.0, "capacity never calibrated")
    loads = ("half", "1x", "2x")
    for load in loads:
        for field in ("offered_rps", "submitted", "accepted", "shed_rate",
                      "p50_s", "p99_s"):
            key = f"serve/{load}/{field}"
            check(key in m, f"missing {key}")
    check(m["serve/unstructured_errors"] == 0.0,
          f"{int(m['serve/unstructured_errors'])} submit failures were not "
          f"structured RejectedErrors")
    rates = [m[f"serve/{load}/shed_rate"] for load in loads]
    check(rates == sorted(rates),
          f"shed rate not monotonic in offered load: {rates}")
    check(m["serve/shed_rate_monotonic"] == 1.0,
          "bench disagrees on monotonicity")
    return (f"serve bench ok: capacity {m['serve/capacity_rps']:.0f} req/s, "
            f"shed rates {[round(r, 3) for r in rates]}, "
            f"p99(2x)/p99(0.5x) = {m['serve/p99_ratio_2x_over_half']:.2f}")


GATES = {
    "trace": gate_trace,
    "spmv": gate_spmv,
    "hwc": gate_hwc,
    "threads": gate_threads,
    "slim": gate_slim,
    "serve": gate_serve,
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in GATES:
        print(f"usage: bench_gates.py {{{'|'.join(GATES)}}} FILE...",
              file=sys.stderr)
        return 2
    name, paths = argv[0], argv[1:]
    try:
        print(GATES[name](*paths))
    except GateError as ex:
        print(f"bench_gates {name}: FAIL: {ex}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
