#pragma once
// Per-message communication cost model (Kestrel Slipstream).
//
// The classic postal model: sending one b-byte message costs
//     t(b) = alpha + beta * b
// with alpha the per-message latency (rendezvous, wakeup, bookkeeping) and
// beta the inverse effective bandwidth. The defaults reproduce the fixed
// 250 us-per-level halo term the multinode model (perf/spmv_model.cpp)
// previously hardcoded (4 neighbor messages x 62.5 us); calibrated
// constants come from measure_fabric() — a persistent-channel ping-pong
// over a ladder of message sizes, least-squares fitted — which
// bench_fig10_multinode runs and EXPERIMENTS.md records.

#include <vector>

namespace kestrel::perf {

/// One calibration observation: a b-byte message took `seconds` one-way.
struct CommSample {
  double bytes = 0.0;
  double seconds = 0.0;
};

struct CommModel {
  double alpha_s = 62.5e-6;        ///< per-message latency (seconds)
  double beta_s_per_byte = 5e-11;  ///< inverse bandwidth (~20 GB/s)

  /// Modeled one-way time of a single b-byte message.
  double message_seconds(double bytes) const {
    return alpha_s + beta_s_per_byte * bytes;
  }

  /// Ordinary least squares over (bytes, seconds) samples; alpha and beta
  /// are clamped to be non-negative (a tiny negative intercept just means
  /// latency is below measurement resolution).
  static CommModel fit(const std::vector<CommSample>& samples);

  /// Calibrates against the in-process fabric: a 2-rank persistent-channel
  /// ping-pong over a ladder of message sizes, `reps` round trips each,
  /// best-of-3 trials, fitted with fit(). This is the fabric's own
  /// alpha/beta — on one shared-memory node they are orders of magnitude
  /// below a real interconnect's, which is the point: the model curve in
  /// bench_fig10_multinode can use either measured or textbook constants.
  static CommModel measure_fabric(int reps = 50);
};

}  // namespace kestrel::perf
