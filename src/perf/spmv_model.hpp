#pragma once
// Analytic SpMV performance model.
//
// Each kernel variant is characterized by two KNL-core constants — cycles
// per stored element and cycles per row (loop/reduction/remainder
// overhead) — calibrated against the paper's Figure 8 (kernel ranking and
// speedups on KNL at 64 ranks). Execution time is the smooth maximum of
//   t_mem = traffic_bytes / BW(procs, mode)   (section 6 traffic model)
//   t_cpu = cycles / (procs * freq)
// which reproduces the paper's qualitative findings: on KNL with MCDRAM the
// kernels are on the cusp of compute-bound so vectorization pays 2x; on
// DRAM or standard Xeons t_mem dominates and format barely matters
// (Figures 10 and 11).

#include <cstdint>

#include "perf/bwmodel.hpp"
#include "perf/commmodel.hpp"

namespace kestrel::perf {

enum class ModelFormat {
  kCsrBaseline,  ///< compiler-autovectorized CSR (PETSc default AIJ)
  kMklCsr,       ///< Intel MKL's CSR SpMV (10-20% behind the baseline)
  kCsrPerm,      ///< AIJPERM
  kCsr,          ///< hand-vectorized CSR (Algorithm 1), tier applies
  kSell,         ///< sliced ELLPACK (Algorithm 2), tier applies
  kTalon,        ///< SPC5-style beta(r,c) masked blocks, tier applies
};

const char* model_format_name(ModelFormat fmt);

/// Per-process (or global — the model is linear) SpMV workload.
struct SpmvWorkload {
  std::int64_t rows = 0;
  std::int64_t nnz = 0;
  std::int64_t stored = 0;  ///< incl. SELL padding; == nnz for CSR
  /// Talon block geometry (used only by ModelFormat::kTalon). 0 means
  /// "estimate": ~6 nonzeros per beta block and 2-row panels, the typical
  /// geometry of a 2-dof stencil operator like Gray-Scott.
  std::int64_t talon_blocks = 0;
  std::int64_t talon_panels = 0;

  /// The paper's Gray–Scott matrix on an n x n grid: 2 dof per node,
  /// exactly 10 stored elements per row, negligible SELL padding.
  static SpmvWorkload gray_scott(Index n);
  /// Workload divided over `parts` equal pieces.
  SpmvWorkload split(int parts) const;

  /// Section 6 minimum-traffic byte counts.
  std::size_t traffic_bytes(ModelFormat fmt) const;
};

struct KernelCost {
  double cycles_per_element;
  double cycles_per_row;
};

/// Kestrel Flock intra-rank threading term. The pool splits a rank's kernel
/// cycles across `threads` workers at a measured `efficiency`
/// (t1 / (threads * tN); 1.0 = perfect scaling), so t_cpu divides by
/// threads * efficiency while t_mem is untouched: with one rank per core
/// the node's memory bandwidth is already fully subscribed, and in-rank
/// threads only help on the compute side of the roofline. Calibrate
/// `efficiency` from a measured 1-vs-N-thread SpMV (bench_fig10 does this
/// with the same matrices it times, bench_threads sweeps it per format).
struct ThreadModel {
  int threads = 1;
  double efficiency = 1.0;
};

/// Calibrated KNL-core costs (see implementation for the calibration
/// table and its provenance). `tier` is ignored for the baseline/MKL/perm
/// formats except that perm only has scalar and AVX-512 variants.
KernelCost kernel_cost(ModelFormat fmt, simd::IsaTier tier);

/// Modeled wall seconds of ONE SpMV over `workload` using `procs` ranks,
/// each running `flock` pool threads (null = serial ranks).
double modeled_spmv_seconds(const MachineProfile& machine, MemoryMode mode,
                            int procs, ModelFormat fmt, simd::IsaTier tier,
                            const SpmvWorkload& workload,
                            const ThreadModel* flock = nullptr);

/// Convenience: flop rate 2*nnz / t in Gflop/s.
double modeled_spmv_gflops(const MachineProfile& machine, MemoryMode mode,
                           int procs, ModelFormat fmt, simd::IsaTier tier,
                           const SpmvWorkload& workload);

/// Figure 10 model: the full Gray–Scott run (5 time steps, 6-level
/// multigrid-preconditioned GMRES, Jacobi smoothing) on `nodes` KNL nodes
/// with 64 ranks per node over a 16384^2 grid.
struct MultinodeEstimate {
  double total_seconds;
  double matmult_seconds;  ///< the hatched "MatMult kernel" share
  double comm_seconds = 0.0;  ///< halo-exchange share (alpha + beta*bytes)
};

/// `comm` (optional) supplies the per-message alpha/beta constants for the
/// halo-exchange term: 4 neighbor messages per linear iteration per
/// multigrid level, message size tracking the per-rank subdomain edge and
/// halving per level. The CommModel defaults reproduce the fixed
/// 250 us-per-level latency term this model used before calibration
/// existed; pass CommModel::measure_fabric() (what bench_fig10_multinode
/// does) or interconnect constants to re-anchor the curve.
/// `flock` (optional) applies the intra-rank threading term to the MatMult
/// share only — the non-SpMV work does not run on the pool.
MultinodeEstimate modeled_multinode(const MachineProfile& machine,
                                    MemoryMode mode, int nodes,
                                    ModelFormat fmt, simd::IsaTier tier,
                                    Index grid_n = 16384, int time_steps = 5,
                                    int mg_levels = 6,
                                    const CommModel* comm = nullptr,
                                    const ThreadModel* flock = nullptr);

}  // namespace kestrel::perf
