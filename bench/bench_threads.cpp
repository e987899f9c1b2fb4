// Kestrel Flock — intra-rank thread scaling: SpMV throughput of every
// format at 1..8 pool threads with nnz-balanced partitions.
//
// Two Gray–Scott sizes bracket the roofline: a cache-resident "small"
// matrix where the kernels are compute-bound and threads should scale
// (this is the size the CI speedup gate watches), and a memory-resident
// "large" one where shared bandwidth caps the gain — the measured contrast
// is the efficiency input of the perf::ThreadModel term (spmv_model.hpp).
//
//   ./bench_threads [--smoke] [--json BENCH_threads.json]
//
// Exported metrics: <fmt>_t<N>_gflops / <fmt>_t<N>_speedup per small-size
// config, threads_hw_cores, and threads_gate_speedup — the best speedup at
// 4 threads across formats, gated >= 2x in scripts/check.sh and CI when
// the host has at least 4 cores (threads_gate_eligible).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "base/options.hpp"
#include "bench_common.hpp"
#include "prof/profiler.hpp"

int main(int argc, char** argv) {
  using namespace kestrel;
  bench::parse_args(argc, argv);
  Options::global().parse(argc, argv);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> counts = {1, 2, 4, 8};
  // The small matrix is fast; keep real repetitions even under --smoke so
  // the gate metric is a measurement, not a wiring check.
  const int reps = bench::scaled_reps(30, 5);
  const double secs = bench::smoke_mode() ? 0.02 : 0.2;

  const std::string saved_threads =
      Options::global().get_string("threads", "");
  prof::Profiler log;
  log.set_metric("threads_hw_cores", static_cast<double>(hw));

  // One row per format, Gflop/s at every thread count, exported as
  // <prefix><fmt>_t<N>_gflops (and _speedup when `speedups`). Returns the
  // best speedup at 4 threads across formats.
  const auto sweep = [&](const mat::Csr& csr, const std::string& prefix,
                         bool speedups) {
    std::printf("%-10s", "format");
    for (int t : counts) std::printf("   t=%d [Gflop/s]    IQR", t);
    std::printf(speedups ? "   speedup@4\n" : "\n");
    double best_sp4 = 0.0;
    for (const char* name : bench::kFormats) {
      const auto m = bench::format(name, csr, simd::default_tier());
      std::printf("%-10s", name);
      double t1 = 0.0, sp4 = 0.0;
      for (int t : counts) {
        Options::global().set("threads", std::to_string(t));
        m->repartition(t);
        const bench::Sample dt = bench::time_spmv(*m, reps, secs);
        if (t == 1) t1 = dt.median;
        const double gf = bench::gflops(*m, dt.median);
        std::printf("   %13.2f %s", gf, bench::spread(dt).c_str());
        const std::string key = prefix + name + "_t" + std::to_string(t);
        log.set_metric(key + "_gflops", gf);
        if (speedups) log.set_metric(key + "_speedup", t1 / dt.median);
        if (t == 4) sp4 = t1 / dt.median;
      }
      best_sp4 = std::max(best_sp4, sp4);
      if (speedups) std::printf("   %8.2fx", sp4);
      std::printf("\n");
    }
    return best_sp4;
  };

  // The small size is fixed (not --smoke scaled): the >= 2x gate needs a
  // matrix big enough that the pool barrier is noise, yet small enough to
  // stay cache-resident (~180k nnz, ~2.6 MB of values+indices).
  const mat::Csr small = bench::gray_scott_matrix(96);
  bench::header("Kestrel Flock: thread scaling, cache-resident Gray-Scott " +
                std::to_string(small.rows()) + " rows");
  std::printf("host: %d hardware threads\n\n", hw);
  const double gate_speedup = sweep(small, "", true);
  log.set_metric("threads_gate_speedup", gate_speedup);
  log.set_metric("threads_gate_eligible", hw >= 4 ? 1.0 : 0.0);
  std::printf("\nbest speedup at 4 threads: %.2fx (gate %s: host has %d "
              "cores)\n",
              gate_speedup, hw >= 4 ? "ELIGIBLE, needs >= 2x" : "SKIPPED",
              hw);

  // Memory-resident contrast (skipped under --smoke): shared bandwidth
  // caps scaling here — this is the regime the ThreadModel keeps t_mem
  // constant in.
  if (!bench::smoke_mode()) {
    const mat::Csr large = bench::gray_scott_matrix(384);
    bench::header("Kestrel Flock: thread scaling, memory-resident Gray-"
                  "Scott " + std::to_string(large.rows()) + " rows");
    sweep(large, "large_", false);
  }

  // Restore the caller's -threads so the option state is as we found it.
  Options::global().set("threads",
                        saved_threads.empty() ? "1" : saved_threads);
  return bench::write_metrics(log) ? 0 : 1;
}
