#pragma once
// The four workloads. Each builds its inputs from args.seed, times its
// set-up several times, measures for args.seconds, verifies every output,
// and fills `out`. With args.trace it records spans and reports per-layer
// metrics instead.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

void run_gray_scott(const Args& args, Result& out);
void run_spmv(const Args& args, Result& out);
void run_dist_cg(const Args& args, Result& out);
void run_serve(const Args& args, Result& out);

/// Seeded open-loop arrival schedule (exposed for the self-test): `count`
/// Poisson arrivals at `rate_per_s`, as offsets in seconds, plus the
/// tenant of each request (true = the large handle, with probability
/// large_share).
struct Schedule {
  std::vector<double> at_s;
  std::vector<char> large;
  std::vector<std::uint64_t> rhs_seed;
};
Schedule make_schedule(std::uint64_t seed, double rate_per_s, int count,
                       double large_share);

/// Seeded right-hand side of length n in [-1, 1) (exposed for the
/// self-test).
std::vector<double> make_rhs(std::uint64_t seed, std::int64_t n);

/// Runs `solves` distributed CG solves of the dist_cg problem at grid edge
/// `nx` with seeded right-hand sides, returning their iteration counts
/// (exposed for the self-test).
std::vector<int> dist_cg_iterations(std::uint64_t seed, int nx, int solves);

/// Closes a traced run: checks the accounting invariant over `spans`
/// (children plus unattributed equal the parent within 2%; a violation is a
/// failed check), reports trace.accounting_err_pct and writes the spans to
/// args.trace_out.
void finish_trace(const Args& args, const std::vector<Span>& spans,
                  Result& out);

}  // namespace perfbench
