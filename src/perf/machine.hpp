#pragma once
// Machine profiles for the processors in the paper's Table 1.
//
// SUBSTITUTION NOTE (see DESIGN.md): this build runs on a single-core VM,
// so the many-core scaling and MCDRAM behavior of the paper's figures are
// regenerated from these profiles through an analytic performance model
// (bwmodel.hpp + spmv_model.hpp) calibrated to the paper's own published
// curves (Figure 4 STREAM, Figure 9 roofline ceilings, Table 1 specs).
// The vectorization story itself — the relative speed of the scalar, AVX,
// AVX2 and AVX-512 kernels — is additionally measured natively, since the
// host CPU supports AVX-512.

#include <string>
#include <vector>

#include "base/types.hpp"
#include "simd/isa.hpp"

namespace kestrel::perf {

enum class MemoryMode {
  kFlatMcdram,  ///< flat mode, allocations bound to MCDRAM (numactl)
  kFlatDram,    ///< flat mode, DRAM only
  kCache,       ///< MCDRAM as direct-mapped last-level cache
};

struct MachineProfile {
  std::string name;
  int cores = 1;
  double freq_ghz = 1.0;        ///< sustained under heavy AVX load
  simd::IsaTier max_tier = simd::IsaTier::kAvx2;
  double l3_mb = 0.0;           ///< 0 for KNL (no shared L3)
  double dram_peak_gbs = 0.0;   ///< achievable DDR stream bandwidth
  double hbm_peak_gbs = 0.0;    ///< achievable MCDRAM bandwidth (0 = none)
  /// Process count at which the stream curve is ~95% saturated
  /// (paper Figure 4: 58 in flat mode, 40 in cache mode on KNL).
  double bw_saturation_procs = 8.0;
  /// Fraction of peak bandwidth reachable WITHOUT vector loads in flat
  /// mode (Figure 4: "dramatically higher achieved memory bandwidth"
  /// with vectorization in flat mode).
  double novec_bw_fraction_flat = 1.0;
  /// Same in cache mode ("only slightly lowers").
  double novec_bw_fraction_cache = 1.0;
  /// Per-core instruction-throughput scale relative to a KNL core
  /// (< 1 = faster core). Captures the big out-of-order Xeon cores vs the
  /// simpler KNL cores.
  double core_cycle_scale = 1.0;

  bool has_mcdram() const { return hbm_peak_gbs > 0.0; }
  /// Peak double-precision Gflop/s (2 FMA pipes * SIMD width).
  double peak_gflops() const;
};

/// KNL 7230 (Theta's chip) — the paper's main platform.
MachineProfile knl7230();
/// Haswell E5-2699v3, Broadwell E5-2699v4, Skylake 8180M (Table 1).
MachineProfile haswell();
MachineProfile broadwell();
MachineProfile skylake();

/// All Table 1 machines in the figure's order.
std::vector<MachineProfile> table1_machines();

/// Best-effort host CPU model string from /proc/cpuinfo ("" when unknown).
/// Recorded in the metrics-JSON hwc block (Kestrel Pulse) so measured
/// counter artifacts carry the machine they were measured on.
std::string host_cpu_model();

}  // namespace kestrel::perf
