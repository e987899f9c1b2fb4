// Kestrel Flock acceptance battery: the in-rank thread pool must never
// change a single bit of any SpMV result.
//
// Four layers, mirroring the feature's structure:
//   1. nnz_balance partitioner units — monotone boundaries covering
//      [0, nunits), the documented max-partition bound
//      weight(part) < ceil(T/P) + w_max on pathological distributions,
//      and the even-split fallback for zero total weight.
//   2. ThreadPool units — every part runs exactly once, on the
//      deterministic part % nthreads thread; serial and nested calls
//      degrade to inline execution instead of deadlocking.
//   3. Differential battery — every registered format x the sparsity zoo
//      (plus adversarial shapes: empty rows, one dense row, power-law,
//      rows << threads) x every supported ISA tier x threads in
//      {2, 3, 4, 8}: the threaded result is bitwise memcmp-identical to
//      the same matrix repartitioned to one thread.
//   4. Distributed stress — ranks x pool threads hammering the
//      persistent-exchange and ABFT paths (the TSan target, label
//      `flock`), and the Aegis fault sweep re-run with the pool active.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "aegis/abft.hpp"
#include "aegis/fault.hpp"
#include "app/laplacian.hpp"
#include "base/options.hpp"
#include "ksp/context.hpp"
#include "ksp/ksp.hpp"
#include "mat/bcsr.hpp"
#include "mat/csr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/partition.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "par/parmat.hpp"
#include "par/pool.hpp"
#include "test_matrices.hpp"

namespace kestrel {
namespace {

/// Sets -threads for the scope and restores the previous value on exit, so
/// no test leaks a thread count into the rest of the suite.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(int t)
      : saved_(Options::global().get_string("threads", "")) {
    Options::global().set("threads", std::to_string(t));
  }
  ~ThreadsGuard() {
    Options::global().set("threads", saved_.empty() ? "1" : saved_);
  }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  std::string saved_;
};

/// Sets KESTREL_THREADS for one scope, then restores the previous value.
class ThreadsEnvGuard {
 public:
  explicit ThreadsEnvGuard(const char* value) {
    if (const char* old = std::getenv("KESTREL_THREADS")) saved_ = old;
    ::setenv("KESTREL_THREADS", value, 1);
  }
  ~ThreadsEnvGuard() {
    if (saved_) {
      ::setenv("KESTREL_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("KESTREL_THREADS");
    }
  }
  ThreadsEnvGuard(const ThreadsEnvGuard&) = delete;
  ThreadsEnvGuard& operator=(const ThreadsEnvGuard&) = delete;

 private:
  std::optional<std::string> saved_;
};

// --------------------------------------------------------------------------
// 1. nnz_balance partitioner
// --------------------------------------------------------------------------

std::int64_t part_weight(const std::vector<std::int64_t>& prefix,
                         const mat::FlockPartition& part, int k) {
  return prefix[static_cast<std::size_t>(part.end(k))] -
         prefix[static_cast<std::size_t>(part.begin(k))];
}

void expect_valid_cover(const mat::FlockPartition& part, Index nunits,
                        int nparts) {
  ASSERT_EQ(part.nparts(), nparts);
  EXPECT_EQ(part.begin(0), 0);
  EXPECT_EQ(part.end(nparts - 1), nunits);
  for (int k = 0; k < nparts; ++k) {
    EXPECT_LE(part.begin(k), part.end(k)) << "part " << k;
    if (k > 0) {
      EXPECT_EQ(part.begin(k), part.end(k - 1)) << "part " << k;
    }
  }
}

/// The header's proven guarantee: every part's weight stays below
/// ceil(T/P) + w_max, where w_max is the heaviest single unit.
void expect_balance_bound(const std::vector<std::int64_t>& weights,
                          int nparts) {
  std::vector<std::int64_t> prefix(weights.size() + 1, 0);
  std::int64_t wmax = 0;
  for (std::size_t u = 0; u < weights.size(); ++u) {
    prefix[u + 1] = prefix[u] + weights[u];
    wmax = std::max(wmax, weights[u]);
  }
  const std::int64_t total = prefix.back();
  const auto part = mat::nnz_balance_weights(weights, nparts);
  expect_valid_cover(part, static_cast<Index>(weights.size()), nparts);
  const std::int64_t bound =
      (total + nparts - 1) / nparts + wmax;  // ceil(T/P) + w_max
  for (int k = 0; k < nparts; ++k) {
    EXPECT_LE(part_weight(prefix, part, k), bound)
        << "part " << k << " of " << nparts;
  }
}

TEST(FlockPartitioner, UniformWeightsSplitEvenly) {
  const std::vector<std::int64_t> weights(64, 5);
  for (int p : {1, 2, 4, 8, 64}) {  // p | 64: every part is exactly T/P
    const auto part = mat::nnz_balance_weights(weights, p);
    expect_valid_cover(part, 64, p);
    std::vector<std::int64_t> prefix(65, 0);
    for (int u = 0; u < 64; ++u) prefix[u + 1] = prefix[u] + 5;
    for (int k = 0; k < p; ++k) {
      EXPECT_EQ(part_weight(prefix, part, k), 64 * 5 / p) << "parts=" << p;
    }
  }
  // non-divisible counts still satisfy the documented bound
  for (int p : {3, 5, 7}) expect_balance_bound(weights, p);
}

TEST(FlockPartitioner, AllWeightInOneUnitKeepsOthersLight) {
  // One unit holds every nonzero: the heavy unit is unsplittable (format
  // granularity), but the partitioner must not drag neighbours into its
  // part — the split lands immediately around it.
  for (int heavy_at : {0, 17, 49}) {
    std::vector<std::int64_t> weights(50, 0);
    weights[static_cast<std::size_t>(heavy_at)] = 1000;
    for (int p : {2, 4, 8}) {
      expect_balance_bound(weights, p);
      const auto part = mat::nnz_balance_weights(weights, p);
      std::vector<std::int64_t> prefix(51, 0);
      for (int u = 0; u < 50; ++u) prefix[u + 1] = prefix[u] + weights[u];
      int heavy_parts = 0;
      for (int k = 0; k < p; ++k) {
        if (part_weight(prefix, part, k) > 0) ++heavy_parts;
      }
      EXPECT_EQ(heavy_parts, 1) << "heavy_at=" << heavy_at << " p=" << p;
    }
  }
}

TEST(FlockPartitioner, AllEmptyButLastStaysWithinBound) {
  std::vector<std::int64_t> weights(97, 0);
  weights.back() = 12345;
  for (int p : {2, 3, 4, 8}) expect_balance_bound(weights, p);
}

TEST(FlockPartitioner, PowerLawRowsStayWithinBound) {
  // Deterministic rough power law, the distribution the nnz target exists
  // for: row-balanced splits would serialize behind the long rows.
  std::vector<std::int64_t> weights(200);
  for (std::size_t u = 0; u < weights.size(); ++u) {
    weights[u] = 1 + static_cast<std::int64_t>(600.0 / (1.0 + u));
  }
  for (int p : {2, 3, 4, 8, 16}) expect_balance_bound(weights, p);
}

TEST(FlockPartitioner, ZeroTotalWeightFallsBackToEvenSplit) {
  const std::vector<std::int64_t> weights(24, 0);
  const auto part = mat::nnz_balance_weights(weights, 4);
  expect_valid_cover(part, 24, 4);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(part.end(k) - part.begin(k), 6) << "part " << k;
  }
}

TEST(FlockPartitioner, MorePartsThanUnitsYieldsEmptyTailParts) {
  const std::vector<std::int64_t> weights = {3, 7, 1};
  const auto part = mat::nnz_balance_weights(weights, 8);
  expect_valid_cover(part, 3, 8);  // empty parts allowed, cover exact
}

TEST(FlockPartitioner, IndexPrefixOverloadMatchesInt64) {
  const std::vector<Index> rowptr = {0, 4, 4, 10, 11, 30, 31};
  std::vector<std::int64_t> wide(rowptr.begin(), rowptr.end());
  const auto a = mat::nnz_balance(rowptr.data(), 6, 3);
  const auto b = mat::nnz_balance(wide.data(), 6, 3);
  ASSERT_EQ(a.bounds.size(), b.bounds.size());
  for (std::size_t i = 0; i < a.bounds.size(); ++i) {
    EXPECT_EQ(a.bounds[i], b.bounds[i]) << "bound " << i;
  }
}

TEST(FlockPartitioner, FormatUnitsMatchEachGranularity) {
  // repartition() must plan over each format's own vector-safe units:
  // rows (CSR), slices (SELL), block rows (BCSR), panels (Talon). The
  // partition's final bound exposes which unit space was used.
  const mat::Csr csr = testing::banded(97, {-5, -1, 1, 5});
  mat::Csr c(csr);
  c.repartition(4);
  EXPECT_EQ(c.partition().bounds.back(), c.rows());

  mat::Sell s(csr);
  s.repartition(4);
  EXPECT_EQ(s.partition().bounds.back(), s.num_slices());

  mat::Talon t(csr);
  t.repartition(4);
  EXPECT_EQ(t.partition().bounds.back(), t.num_panels());

  const mat::Csr even = testing::banded(96, {-3, -1, 1, 3});
  mat::Bcsr b(even, 2);
  b.repartition(4);
  EXPECT_EQ(b.partition().bounds.back(), b.block_rows());
}

// --------------------------------------------------------------------------
// 2. ThreadPool
// --------------------------------------------------------------------------

TEST(FlockPool, EveryPartRunsExactlyOnceOnItsThread) {
  par::ThreadPool pool(4);
  ASSERT_EQ(pool.nthreads(), 4);
  constexpr int kParts = 23;
  std::atomic<int> runs[kParts];
  for (auto& r : runs) r.store(0);
  std::atomic<int> bad_tid{0};
  pool.run(kParts, [&](int part, int tid) {
    runs[part].fetch_add(1);
    if (tid != part % 4) bad_tid.fetch_add(1);
  });
  for (int p = 0; p < kParts; ++p) {
    EXPECT_EQ(runs[p].load(), 1) << "part " << p;
  }
  EXPECT_EQ(bad_tid.load(), 0) << "part->thread mapping not deterministic";
}

TEST(FlockPool, SerialPoolRunsInlineOnCaller) {
  par::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int runs = 0;
  pool.run(5, [&](int, int tid) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(tid, 0);
    ++runs;
  });
  EXPECT_EQ(runs, 5);
}

TEST(FlockPool, WorkersGetSerialRankPoolSoNestingCannotDeadlock) {
  par::ThreadPool pool(4);
  std::atomic<int> inner_runs{0};
  std::atomic<int> worker_pool_threads{0};
  pool.run(8, [&](int part, int tid) {
    // Library code inside a part reaching another threaded spmv goes
    // through rank_pool(); on a worker that must be a serial pool.
    par::ThreadPool& nested = par::ThreadPool::rank_pool();
    if (tid != 0 && nested.nthreads() != 1) worker_pool_threads.fetch_add(1);
    nested.run(3, [&](int, int) { inner_runs.fetch_add(1); });
    (void)part;
  });
  EXPECT_EQ(inner_runs.load(), 8 * 3);
  EXPECT_EQ(worker_pool_threads.load(), 0)
      << "a pool worker was handed a threaded rank_pool";
}

TEST(FlockPool, ConfiguredThreadsReadsOptionAndClamps) {
  // Kestrel Bastion clamps requests above hardware_concurrency() (when the
  // runtime can report it) before the [1, kMaxPoolThreads] clamp.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const auto clamped = [hw](int request) {
    int n = request;
    if (hw > 0 && n > hw) n = hw;
    if (n > par::kMaxPoolThreads) n = par::kMaxPoolThreads;
    return n;
  };
  {
    ThreadsGuard g(6);
    EXPECT_EQ(par::configured_threads(), clamped(6));
  }
  {
    ThreadsGuard g(0);  // nonsense values clamp to a serial pool
    EXPECT_EQ(par::configured_threads(), 1);
  }
  {
    ThreadsGuard g(100000);
    EXPECT_EQ(par::configured_threads(), clamped(100000));
    EXPECT_LE(par::configured_threads(), par::kMaxPoolThreads);
  }
  {
    // An explicit request at or below the core count passes untouched.
    const int modest = hw > 0 ? std::min(hw, 2) : 2;
    ThreadsGuard g(modest);
    EXPECT_EQ(par::configured_threads(), modest);
  }
}

TEST(FlockPool, KestrelThreadsMustBeWhollyAnInteger) {
  const ThreadsGuard no_option(0);  // -threads unset: the variable decides
  for (const char* bad : {"3x", "abc", "2.5", ""}) {
    const ThreadsEnvGuard env(bad);
    try {
      (void)par::configured_threads();
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("KESTREL_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  {
    const ThreadsEnvGuard env("2");
    EXPECT_EQ(par::configured_threads(), hw > 0 ? std::min(hw, 2) : 2);
  }
  // Integers <= 0 stay valid and mean a serial pool.
  for (const char* serial : {"0", "-3"}) {
    const ThreadsEnvGuard env(serial);
    EXPECT_EQ(par::configured_threads(), 1) << serial;
  }
}

// --------------------------------------------------------------------------
// 3. Differential battery: threaded == serial, bitwise, for every format
// --------------------------------------------------------------------------

struct Pattern {
  const char* name;
  mat::Csr (*make)();
};

const Pattern kPatterns[] = {
    {"banded", [] { return testing::banded(97, {-7, -3, -1, 1, 3, 7}); }},
    {"uniform", [] { return testing::uniform_random(80, 80, 4); }},
    {"power_law", [] { return testing::power_law(100); }},
    {"empty_rows", [] { return testing::with_empty_rows(60); }},
    {"dense_row", [] { return testing::with_dense_row(64); }},
    {"straddling", [] { return testing::straddling_boundaries(48); }},
    {"last_col", [] { return testing::last_row_only_column(33); }},
    // rows << threads: 3 rows split 8 ways leaves most parts empty
    {"tiny", [] { return testing::banded(3, {-1, 1}); }},
    {"single_row", [] { return testing::banded(1, {}); }},
};

struct Variant {
  const char* name;
  std::function<std::unique_ptr<mat::Matrix>(const mat::Csr&)> make;
  bool (*applies)(const mat::Csr&);
};

bool always(const mat::Csr&) { return true; }
bool blocks2(const mat::Csr& a) {
  return a.rows() % 2 == 0 && a.cols() % 2 == 0;
}

std::vector<Variant> variants() {
  using std::make_unique;
  std::vector<Variant> v;
  v.push_back({"csr",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 return make_unique<mat::Csr>(a);
               },
               always});
  v.push_back({"csrperm",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 return make_unique<mat::CsrPerm>(mat::Csr(a));
               },
               always});
  v.push_back({"sell_c8",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 return make_unique<mat::Sell>(a);
               },
               always});
  v.push_back({"sell_c4",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 mat::SellOptions o;
                 o.slice_height = 4;
                 return make_unique<mat::Sell>(a, o);
               },
               always});
  v.push_back({"sell_sigma4",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 mat::SellOptions o;
                 o.sigma = 4;  // sorted path + scatter fixup
                 return make_unique<mat::Sell>(a, o);
               },
               always});
  v.push_back({"sell_bitmask",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 mat::SellOptions o;
                 o.build_bitmask = true;
                 return make_unique<mat::Sell>(a, o);
               },
               always});
  v.push_back({"bcsr2",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 return make_unique<mat::Bcsr>(a, 2);
               },
               blocks2});
  v.push_back({"talon",
               [](const mat::Csr& a) -> std::unique_ptr<mat::Matrix> {
                 return make_unique<mat::Talon>(a);
               },
               always});
  return v;
}

std::vector<simd::IsaTier> supported_tiers() {
  std::vector<simd::IsaTier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detect_best_tier()); ++t) {
    tiers.push_back(static_cast<simd::IsaTier>(t));
  }
  return tiers;
}

/// The battery's core assertion: for every thread count the result is
/// memcmp-identical to the one-thread plan of the SAME matrix object —
/// repartitioning must be the only variable.
void expect_thread_invariant(mat::Matrix& m, const std::string& ctx) {
  const std::vector<Scalar> x = testing::random_x(m.cols(), 123);
  const std::size_t bytes =
      static_cast<std::size_t>(m.rows()) * sizeof(Scalar);
  std::vector<Scalar> y1(static_cast<std::size_t>(m.rows()), -7.0);
  {
    ThreadsGuard g(1);
    m.repartition(1);
    m.spmv(x.data(), y1.data());
  }
  for (int t : {2, 3, 4, 8}) {
    ThreadsGuard g(t);
    m.repartition(t);
    std::vector<Scalar> yt(static_cast<std::size_t>(m.rows()), -9.0);
    m.spmv(x.data(), yt.data());
    ASSERT_EQ(std::memcmp(y1.data(), yt.data(), bytes), 0)
        << ctx << " diverged at threads=" << t;
  }
}

TEST(FlockDifferential, EveryFormatPatternTierIsBitwiseThreadInvariant) {
  for (const Pattern& pat : kPatterns) {
    const mat::Csr csr = pat.make();
    for (const Variant& var : variants()) {
      if (!var.applies(csr)) continue;
      for (simd::IsaTier tier : supported_tiers()) {
        std::unique_ptr<mat::Matrix> m = var.make(csr);
        m->set_tier(tier);
        expect_thread_invariant(
            *m, std::string(pat.name) + "/" + var.name + "/" +
                    simd::tier_name(tier));
      }
    }
  }
}

TEST(FlockDifferential, ThreadedResultStillMatchesDenseReference) {
  // Bitwise identity to serial is the headline; anchor serial itself to
  // the dense reference so the pair cannot drift together.
  const mat::Csr csr = testing::banded(96, {-9, -2, 1, 4});
  const std::vector<Scalar> x = testing::random_x(96, 7);
  const std::vector<Scalar> want = testing::dense_spmv(csr, x);
  ThreadsGuard g(4);
  mat::Sell sell(csr);
  sell.repartition(4);
  std::vector<Scalar> y(96, 0.0);
  sell.spmv(x.data(), y.data());
  for (Index i = 0; i < 96; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)], 1e-12)
        << "row " << i;
  }
}

TEST(FlockDifferential, SellPrefetchRunsOnThePartitionBitwise) {
  // The prefetch variant goes through the same slice partition as spmv.
  const mat::Csr csr = testing::power_law(301);
  const std::vector<Scalar> x = testing::random_x(301, 5);
  const std::size_t bytes = 301 * sizeof(Scalar);
  for (Index sigma : {1, 24}) {
    mat::SellOptions opts;
    opts.sigma = sigma;
    mat::Sell sell(csr, opts);
    std::vector<Scalar> y1(301, -7.0), y4(301, -9.0);
    {
      ThreadsGuard g(1);
      sell.repartition(1);
      sell.spmv_prefetch(x.data(), y1.data());
    }
    ThreadsGuard g(4);
    sell.repartition(4);
    sell.spmv_prefetch(x.data(), y4.data());
    EXPECT_EQ(std::memcmp(y1.data(), y4.data(), bytes), 0)
        << "sigma=" << sigma;
  }
}

TEST(FlockDifferential, AbftMatrixOverThreadedFormatRecoversBitwise) {
  // The pooled verify reductions (fixed part order, fixed chunking) must
  // leave ABFT detection and bitwise recovery intact.
  aegis::stats().reset();
  ThreadsGuard g(4);
  auto inner = std::make_shared<mat::Sell>(testing::banded(80, {-2, -1, 1, 2}));
  inner->repartition(4);
  const aegis::AbftMatrix a(inner);
  const std::vector<Scalar> xs = testing::random_x(80, 9);
  Vector x(80);
  std::memcpy(x.data(), xs.data(), 80 * sizeof(Scalar));
  Vector y_clean;
  a.inner().spmv(x, y_clean);
  a.inject_fault_once([](Scalar* y, Index n) {
    std::uint64_t bits;
    std::memcpy(&bits, &y[n / 2], sizeof(bits));
    bits ^= 1ull << 62;
    std::memcpy(&y[n / 2], &bits, sizeof(bits));
  });
  Vector y;
  a.spmv(x, y);
  for (Index i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_clean[i]);
  EXPECT_EQ(aegis::stats().abft_failures.load(), 1u);
  EXPECT_EQ(aegis::stats().abft_retries.load(), 1u);
  aegis::stats().reset();
}

// --------------------------------------------------------------------------
// 4. Distributed stress: ranks x threads (the TSan target) + fault sweep
// --------------------------------------------------------------------------

/// parmat_persistent_test's power-method history, ABFT-verified, with a
/// thread count knob: the gathered iterates compound any divergence, even
/// one ulp.
std::vector<Vector> run_history_threaded(const mat::Csr& global, int nranks,
                                         int iters, int threads) {
  std::vector<Vector> history(static_cast<std::size_t>(iters));
  auto layout =
      std::make_shared<par::Layout>(par::Layout::even(global.rows(), nranks));
  ThreadsGuard g(threads);
  par::Fabric::run(nranks, [&](par::Comm& comm) {
    par::ParMatrixOptions opts;
    opts.abft = true;
    opts.threads = threads;
    const par::ParMatrix a =
        par::ParMatrix::from_global(global, layout, comm, opts);
    par::ParVector x(layout, comm.rank()), y(layout, comm.rank());
    for (Index i = 0; i < x.local_size(); ++i) {
      x.local()[i] = 1.0 + 1e-3 * static_cast<Scalar>(x.own_begin() + i);
    }
    for (int it = 0; it < iters; ++it) {
      a.spmv(x, y, comm);
      const Vector full = y.gather_all(comm);
      if (comm.rank() == 0) history[static_cast<std::size_t>(it)] = full;
      Scalar norm = 0.0;
      for (Index i = 0; i < full.size(); ++i) {
        norm = std::max(norm, std::abs(full[i]));
      }
      for (Index i = 0; i < x.local_size(); ++i) {
        x.local()[i] = full[x.own_begin() + i] / norm;
      }
    }
  });
  return history;
}

void expect_histories_bitwise_equal(const std::vector<Vector>& a,
                                    const std::vector<Vector>& b,
                                    const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t it = 0; it < a.size(); ++it) {
    ASSERT_EQ(a[it].size(), b[it].size()) << what << " iteration " << it;
    EXPECT_EQ(std::memcmp(a[it].data(), b[it].data(),
                          static_cast<std::size_t>(a[it].size()) *
                              sizeof(Scalar)),
              0)
        << what << " diverged at iteration " << it;
  }
}

/// The TSan headline stress: 8 ranks x 4 pool threads x 100 iterations of
/// persistent-exchange + ABFT-verified SpMV. Run under `ctest -L flock` in
/// the thread-sanitizer CI job; here the bitwise assertions double as the
/// functional check.
TEST(FlockStress, EightRanksFourThreadsHundredIterationsBitwise) {
  const mat::Csr global = testing::banded(96, {-12, -3, -1, 1, 3, 12});
  const int nranks = 8;
  const int iters = 100;
  const auto serial = run_history_threaded(global, nranks, iters, 1);
  const auto threaded = run_history_threaded(global, nranks, iters, 4);
  expect_histories_bitwise_equal(serial, threaded, "persistent+abft");
}

TEST(FlockStress, RanksTimesThreadsExceedingCoresStillBitwise) {
  // Deliberate oversubscription (8 ranks x 8 threads = 64 runnable
  // threads): scheduling jitter must not be observable in the results.
  const mat::Csr global = testing::banded(96, {-12, -3, -1, 1, 3, 12});
  const auto serial = run_history_threaded(global, 8, 10, 1);
  const auto threaded = run_history_threaded(global, 8, 10, 8);
  expect_histories_bitwise_equal(serial, threaded, "oversubscribed");
}

std::vector<std::vector<Scalar>> flock_cg(
    const mat::Csr& a, const Vector& b, int nranks, int threads,
    std::shared_ptr<const aegis::FaultPlan> plan) {
  auto layout =
      std::make_shared<par::Layout>(par::Layout::even(a.rows(), nranks));
  par::FabricOptions fopts;
  fopts.faults = std::move(plan);
  std::vector<std::vector<Scalar>> solution(
      static_cast<std::size_t>(nranks));
  ThreadsGuard g(threads);
  par::Fabric::run(nranks, fopts, [&](par::Comm& comm) {
    par::ParMatrixOptions popts;
    popts.abft = true;
    popts.threads = threads;
    const par::ParMatrix pa =
        par::ParMatrix::from_global(a, layout, comm, popts);
    par::ParVector pb(layout, comm.rank());
    pb.set_from_global(b);
    Vector x(pa.local_rows());
    ksp::Settings settings;
    settings.rtol = 1e-10;
    settings.max_iterations = 500;
    const ksp::Cg cg(settings);
    ksp::ParContext ctx(pa, comm);
    const ksp::SolveResult res = cg.solve(ctx, pb.local(), x);
    EXPECT_TRUE(res.converged) << "rank " << comm.rank();
    solution[static_cast<std::size_t>(comm.rank())].assign(
        x.data(), x.data() + x.size());
  });
  return solution;
}

TEST(FlockStress, FaultSweepStaysCleanWithPoolActive) {
  // Aegis's heal-or-fail guarantee must be unchanged by in-rank threading:
  // a faulted transport under a 4-thread pool still yields the bitwise
  // solution of the fault-free 4-thread run.
  const int nranks = 8;
  const mat::Csr a = app::laplacian_dirichlet(12, 8);
  Vector b(96);
  for (Index i = 0; i < 96; ++i) b[i] = std::sin(0.3 * (i + 1));
  const auto baseline = flock_cg(a, b, nranks, 4, nullptr);
  const char* specs[] = {
      "seed=11,drop=0.3",
      "seed=11,bitflip=0.2",
      "seed=13,drop=0.1,delay=0.1,dup=0.1,reorder=0.1,bitflip=0.05",
  };
  for (const char* spec : specs) {
    aegis::stats().reset();
    const auto faulted =
        flock_cg(a, b, nranks, 4, aegis::FaultPlan::parse(spec));
    EXPECT_GT(aegis::stats().faults_injected.load(), 0u) << spec;
    for (int r = 0; r < nranks; ++r) {
      const auto& want = baseline[static_cast<std::size_t>(r)];
      const auto& got = faulted[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), want.size()) << spec << " rank " << r;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << spec << " rank " << r << " idx " << i;
      }
    }
  }
  aegis::stats().reset();
}

}  // namespace
}  // namespace kestrel
