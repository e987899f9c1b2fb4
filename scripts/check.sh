#!/usr/bin/env bash
# Kestrel Sentry: the full local gate. Mirrors what CI runs — a normal
# build + test pass, the kernel-contract lint (with its self-test), the
# perfbench self-test, the bench gates (tools/bench_gates.py) and the
# ASan/UBSan sanitizer suites, with the `stress` gate (repeated, shuffled
# concurrency suites) under ASan. The TSan suite, stress gate included, is
# optional (slow) and runs with --tsan.
#
# Usage:  scripts/check.sh [--tsan] [-j N]

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=2
run_tsan=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --tsan) run_tsan=1 ;;
    -j) jobs="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

banner() { printf '\n=== %s ===\n' "$*"; }

banner "lint (kernel contracts)"
python3 tools/kestrel_lint.py --self-test
python3 tools/kestrel_lint.py --repo .

banner "lint (header self-sufficiency)"
python3 tools/check_headers.py --repo . -j "$jobs"

banner "argus (kernel memory-safety / tail / traffic proofs)"
python3 tools/argus/argus.py --repo . --self-test
python3 tools/argus/argus.py --repo .

banner "perfbench self-test (the benchmark still builds and runs)"
python3 perfbench/run.py --self-test

banner "build + full test suite"
cmake -B build -S . -DKESTREL_WERROR=ON >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure

banner "profiler suite (ctest -L prof) + sample trace"
ctest --test-dir build -L prof --output-on-failure
./build/examples/parallel_spmv -ranks 4 -n 64 \
  -log_view -log_trace build/kestrel_trace.json \
  -log_json build/kestrel_metrics.json
python3 tools/bench_gates.py trace build/kestrel_trace.json \
  build/kestrel_metrics.json

banner "bench smoke (ctest -L bench-smoke) + BENCH_spmv.json"
ctest --test-dir build -L bench-smoke --output-on-failure
./build/bench/bench_fig08_formats --smoke --json build/BENCH_spmv.json
python3 tools/bench_gates.py spmv build/BENCH_spmv.json

banner "hwc counter suite (ctest -L hwc) + BENCH_hwc.json"
# Kestrel Pulse: on hosts without perf-event access the tests GTEST_SKIP
# and bench_hwc prints "hwc: skipped: no PMU access (...)" — both count as
# passing, but the reason stays visible in the log.
ctest --test-dir build -L hwc --output-on-failure
./build/bench/bench_hwc --smoke --json build/BENCH_hwc.json
python3 tools/bench_gates.py hwc build/BENCH_hwc.json

banner "flock thread-scaling bench + BENCH_threads.json (speedup gate)"
./build/bench/bench_threads --smoke --json build/BENCH_threads.json
python3 tools/bench_gates.py threads build/BENCH_threads.json

banner "slim fp32 suite (ctest -L slim) + BENCH_slim.json (speedup gate)"
ctest --test-dir build -L slim --output-on-failure
./build/bench/bench_slim --smoke --json build/BENCH_slim.json
python3 tools/bench_gates.py slim build/BENCH_slim.json

banner "bastion solve-service suite (ctest -L svc) + BENCH_serve.json"
ctest --test-dir build -L svc --output-on-failure
./build/bench/bench_serve --smoke --json build/BENCH_serve.json
python3 tools/bench_gates.py serve build/BENCH_serve.json

banner "aegis fault-tolerance suite (ctest -L aegis) + fault-injected solve"
ctest --test-dir build -L aegis --output-on-failure
# Deterministic end-to-end fault sweep; the spec is printed by the example,
# so any failure replays with the same -aegis_faults.
./build/examples/parallel_spmv -ranks 8 -n 32 \
  -aegis_faults "seed=7,drop=0.1,delay=0.1,dup=0.1,reorder=0.1,bitflip=0.05" \
  -aegis_abft -ksp_breakdown_recovery

sanitizer_suite() {
  local name="$1" label="$2"
  banner "sanitizer: $name (ctest -L $label)"
  cmake -B "build-$label" -S . -DKESTREL_SANITIZE="$name" \
    -DKESTREL_BUILD_BENCH=OFF -DKESTREL_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "build-$label" -j "$jobs"
  ctest --test-dir "build-$label" -L "$label" --output-on-failure
  # The fp32 differential sweep runs under every sanitizer: it drives every
  # format's fp32 kernels through their masked and scalar tails.
  ctest --test-dir "build-$label" -L slim --output-on-failure
  # The bastion service battery too: worker pools + shared queues + cancel
  # flags are exactly the code sanitizers exist for.
  ctest --test-dir "build-$label" -L svc --output-on-failure
  # The stress gate: the concurrency suites 50 times over, shuffled, so a
  # 1-in-N race fails here (registered in sanitizer builds only).
  if [[ "$label" != ubsan ]]; then
    ctest --test-dir "build-$label" -L stress --output-on-failure
  fi
}

sanitizer_suite address asan
sanitizer_suite undefined ubsan
if [[ "$run_tsan" == 1 ]]; then
  sanitizer_suite thread tsan
fi

banner "all checks passed"
