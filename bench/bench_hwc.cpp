// Kestrel Pulse bench: MEASURED DRAM bytes and IPC per SpMV, swept over the
// format table (bench::kFormats) on a bandwidth-bound Gray-Scott
// Jacobian, against the section-6 traffic model (spmv_traffic_bytes()).
// This is the model-vs-machine loop the counters exist for: the modeled
// bytes/row the roofline figures trust are checked against what the memory
// system actually moved.
//
// Tolerance gate (full runs on perf-capable hosts, hardware sources only):
// measured/model must land in [0.25, 4.0]. The window is deliberately wide
// and asymmetric — the LLC-miss x 64 fallback UNDERcounts when hardware
// prefetchers satisfy streams without recording misses, while write-
// allocate traffic on y and cold TLB/page walks OVERcount vs the model;
// the gate catches broken wiring (10-100x off), not calibration drift.
// Smoke runs skip the gate: a tiny matrix is cache-resident, so measured
// DRAM traffic is legitimately near zero.
//
// On hosts without perf access this prints an explicit
//   "hwc: skipped: no PMU access (<reason>)"
// line, still writes BENCH_hwc.json (hwc.available=false) and exits 0 —
// CI records the skip as an artifact line rather than silently passing.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "perf/machine.hpp"
#include "prof/hwc.hpp"

namespace {

using namespace kestrel;

struct FormatResult {
  std::string name;
  double model_bytes = 0.0;
  double measured_bytes = 0.0;
  double ratio = 0.0;
  double ipc = 0.0;
  double cycles_per_mult = 0.0;
};

/// Measures one format: counter delta around a timed multiply loop.
FormatResult measure(const std::string& name, const mat::Matrix& a) {
  FormatResult out;
  out.name = name;
  out.model_bytes = static_cast<double>(a.spmv_traffic_bytes());

  const Vector x = bench::input_vector(a.cols());
  Vector y(a.rows());
  a.spmv(x.data(), y.data());  // warm up: page the matrix in

  // Pick reps for ~0.2 s of measurement so the counter deltas dwarf the
  // read_thread() syscall overhead at the endpoints.
  int reps = 2;
  if (!bench::smoke_mode()) {
    const double t1 = bench::time_spmv(a, 3, 0.02).median;
    reps = static_cast<int>(0.2 / t1) + 1;
    if (reps < 5) reps = 5;
  }
  const prof::hwc::Reading r0 = prof::hwc::read_thread();
  for (int r = 0; r < reps; ++r) {
    a.spmv(x.data(), y.data());
  }
  const prof::hwc::Reading r1 = prof::hwc::read_thread();
  volatile double sink = y[0];
  (void)sink;

  const prof::hwc::Reading d = prof::hwc::delta(r0, r1);
  if (!d.valid) return out;
  out.measured_bytes = static_cast<double>(d.dram_bytes) / reps;
  out.ratio = out.model_bytes > 0.0 ? out.measured_bytes / out.model_bytes
                                    : 0.0;
  out.ipc = d.cycles > 0 ? static_cast<double>(d.instructions) /
                               static_cast<double>(d.cycles)
                         : 0.0;
  out.cycles_per_mult = static_cast<double>(d.cycles) / reps;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::header(
      "Kestrel Pulse: measured bytes & IPC vs the traffic model, by format");

  const bool available = prof::hwc::enable_if_capable();
  const prof::hwc::Capability& cap = prof::hwc::capability();
  const prof::hwc::Source source = prof::hwc::source();
  std::printf("cpu: %s\n", perf::host_cpu_model().c_str());
  std::printf("perf_event_paranoid: %d\n", cap.paranoid);
  if (available) {
    std::printf("hwc: source %s\n", prof::hwc::source_name(source));
  } else {
    // The explicit skip line CI greps for — never a silent pass.
    std::printf("hwc: skipped: no PMU access (%s)\n", cap.detail.c_str());
  }

  const mat::Csr csr = bench::gray_scott_matrix(bench::scaled(512, 48));
  std::printf("matrix: %d rows, %lld nnz (Gray-Scott, 10 per row)\n\n",
              csr.rows(), static_cast<long long>(csr.nnz()));

  std::vector<FormatResult> results;
  if (available) {
    for (const char* name : bench::kFormats) {
      results.push_back(measure(
          name, *bench::format(name, csr, simd::detect_best_tier())));
    }

    std::printf("%-8s %14s %14s %8s %8s %14s\n", "format", "model B/mult",
                "meas B/mult", "ratio", "IPC", "cycles/mult");
    for (const FormatResult& r : results) {
      std::printf("%-8s %14.0f %14.0f %8.3f %8.2f %14.0f\n", r.name.c_str(),
                  r.model_bytes, r.measured_bytes, r.ratio, r.ipc,
                  r.cycles_per_mult);
    }
  }

  // Tolerance gate: hardware sources, full size only (see header comment).
  bool gate_failed = false;
  const bool hardware_source = source == prof::hwc::Source::kLlcFallback ||
                               source == prof::hwc::Source::kUncoreImc;
  if (available && hardware_source && !bench::smoke_mode()) {
    for (const FormatResult& r : results) {
      if (r.ratio < 0.25 || r.ratio > 4.0) {
        std::printf("GATE FAILED: %s measured/model = %.3f outside "
                    "[0.25, 4.0]\n",
                    r.name.c_str(), r.ratio);
        gate_failed = true;
      }
    }
    if (!gate_failed) {
      std::printf("\ngate ok: every format's measured bytes within "
                  "[0.25, 4.0] of spmv_traffic_bytes()\n");
    }
  }

  // The metrics document carries the hwc capability block itself, so
  // "available": false documents a skip.
  prof::Profiler log;
  log.set_metric("matrix_rows", static_cast<double>(csr.rows()));
  log.set_metric("matrix_nnz", static_cast<double>(csr.nnz()));
  log.set_metric("hwc/available", available ? 1.0 : 0.0);
  log.set_metric("hwc/paranoid", static_cast<double>(cap.paranoid));
  for (const FormatResult& r : results) {
    log.set_metric("bytes_model/" + r.name, r.model_bytes);
    log.set_metric("bytes_measured/" + r.name, r.measured_bytes);
    log.set_metric("bytes_ratio/" + r.name, r.ratio);
    log.set_metric("ipc/" + r.name, r.ipc);
    log.set_metric("cycles_per_mult/" + r.name, r.cycles_per_mult);
  }
  return bench::write_metrics(log) && !gate_failed ? 0 : 1;
}
