#pragma once
// Host-side measurements made by the benchmark's own code: the canary loop
// that tells a host speed phase from a code change, a STREAM-style triad
// sized like the workload under test, and getrusage counters.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Runs a fixed reference loop (dependent floating-point chain plus a sweep
/// over a 4 MB array) `reps` times and returns the median milliseconds.
/// Its work never changes, so its time moves only with the host.
double host_calibration_ms(int reps = 5);

/// Triad a = b + s*c over three arrays of `n` doubles. Owns its arrays so
/// it can be interleaved with other work; each call is one timed pass.
class Triad {
 public:
  explicit Triad(std::size_t n) : a_(n, 0.0), b_(n, 1.0), c_(n, 2.0) {}
  /// One pass; returns its seconds.
  double run();
  /// Bytes one pass moves (3 arrays, no write-allocate).
  double bytes() const { return 24.0 * static_cast<double>(a_.size()); }

 private:
  std::vector<double> a_, b_, c_;
};

struct Rusage {
  double max_rss_mb = 0.0;
  std::int64_t minor_faults = 0;
};
Rusage rusage_self();

}  // namespace perfbench
