#pragma once
// Shared vocabulary of the perfbench binary: command-line arguments, the
// metric sink each workload fills, and the order statistics every timing
// is reduced with.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured phase length
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  bool smoke = false;     ///< tiny inputs, short phases (self-test)
  std::string trace_out;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// What one workload run produced. Workloads add every metric they measure;
/// main() selects the BENCHMARK.json set (end-to-end or per-layer) for the final
/// JSON line and prints the rest as report lines.
struct Result {
  std::vector<Metric> e2e;    ///< gated end-to-end metrics
  std::vector<Metric> named;  ///< per-workload headline metrics (report)
  std::vector<Metric> layer;  ///< per-layer metrics (traced run)
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few check failures

  /// Counts one checked operation; `ok == false` counts it failed and
  /// records `what`.
  void check(bool ok, const std::string& what);
};

/// Median of `v` (linear interpolation between the middle pair).
double median(std::vector<double> v);

/// Percentile `p` in [0, 100] by linear interpolation (Python's
/// statistics.quantiles "inclusive" method). A tail percentile p > 50 needs
/// at least 10 samples beyond it — p90 needs 100 — and throws
/// std::invalid_argument otherwise.
double percentile(std::vector<double> v, double p);

/// Whether percentile() accepts p for a sample of size n.
bool percentile_supported(std::size_t n, double p);

double mean(const std::vector<double>& v);

/// Seconds on the steady clock, for timing inside workloads.
double now_s();

}  // namespace perfbench
