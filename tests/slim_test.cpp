// Kestrel Slim correctness battery: the fp32 value stream of every format,
// differentially checked against a long-double scalar CSR reference.
//
//   1. Registration — every (format, ISA) cell with a double kernel also
//      registers its fp32 twin (the same templated body).
//   2. Differential sweep — every format x every supported ISA tier over
//      the adversarial sparsity family (empty rows, boundary-straddling
//      runs, a dense row, rectangular shapes, ...) and SELL slice heights
//      4/8/16. Each row must satisfy the componentwise dot-product bound
//      |y - y_ref|_i <= gamma_k (|A_f| |x|)_i, k = row length, where A_f
//      holds the float-rounded values the fp32 stream stores and y_ref is
//      A_f x formed in long double. The bound holds for any summation order,
//      with or without FMA, so it needs no hand-picked tolerance.
//   3. Attach semantics — the traffic model shrinks with fp32 on, and
//      dropping the stream restores the double multiply bit for bit.
//   4. Flock invariance — the fp32 SpMV is bitwise identical across pool
//      thread counts (row partitions never split a row's accumulation).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/options.hpp"
#include "mat/bcsr.hpp"
#include "mat/coo.hpp"
#include "mat/csr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "mat/slim.hpp"
#include "mat/talon.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "test_matrices.hpp"
#include "vec/vector.hpp"

namespace kestrel::mat {
namespace {

using testing::random_x;

constexpr SlimOptions kFp32{.fp32 = true};
constexpr SlimOptions kFp64{.fp32 = false};

struct Pattern {
  std::string name;
  std::function<Csr()> make;
};

std::vector<Pattern> patterns() {
  return {
      {"banded5", [] { return testing::banded(97, {-3, -1, 1, 3}); }},
      {"banded_wide", [] { return testing::banded(64, {-8, -4, 4, 8}); }},
      {"uniform_rect", [] { return testing::uniform_random(50, 90, 6); }},
      {"power_law", [] { return testing::power_law(100); }},
      {"empty_rows", [] { return testing::with_empty_rows(60); }},
      {"dense_row", [] { return testing::with_dense_row(40); }},
      {"single_col", [] { return testing::single_column(40); }},
      {"last_row_col", [] { return testing::last_row_only_column(37); }},
      {"straddle", [] { return testing::straddling_boundaries(50); }},
      {"row_len_sweep",
       [] {
         // rows of every length 0..16: all remainder paths of the fp32
         // loads (masked tails, full vector multiples, scalar tails)
         Coo coo(17, 17);
         for (Index i = 0; i < 17; ++i) {
           for (Index j = 0; j < i; ++j) coo.add(i, j, 0.1 + i + j / 3.0);
         }
         return coo.to_csr();
       }},
  };
}

std::vector<simd::IsaTier> supported_tiers() {
  std::vector<simd::IsaTier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detect_best_tier()); ++t) {
    tiers.push_back(static_cast<simd::IsaTier>(t));
  }
  return tiers;
}

/// Rows i where |y_i - (A_f x)_i| > gamma_k (|A_f| |x|)_i, k = row length.
/// A_f is `a` with every value rounded to float (the fp32 stream); the
/// reference product is formed in long double, whose own k * 2^-64 error
/// a 1% widening of gamma_k covers.
std::vector<Index> bound_violations(const Csr& a,
                                    const std::vector<Scalar>& x,
                                    const Vector& y) {
  const long double u = std::numeric_limits<double>::epsilon() / 2.0;
  std::vector<Index> bad;
  for (Index i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    long double exact = 0.0L, abs_ax = 0.0L;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const long double term =
          static_cast<long double>(static_cast<float>(vals[k])) *
          static_cast<long double>(x[static_cast<std::size_t>(cols[k])]);
      exact += term;
      abs_ax += std::fabs(term);
    }
    const long double ku = static_cast<long double>(cols.size()) * u;
    const long double bound = ku / (1.0L - ku) * 1.01L * abs_ax;
    if (!(std::fabs(static_cast<long double>(y[i]) - exact) <= bound)) {
      bad.push_back(i);
    }
  }
  return bad;
}

std::vector<std::pair<std::string, std::shared_ptr<Matrix>>> format_table(
    const Csr& csr) {
  // BCSR needs dimensions divisible by the block size; drop to 1x1 blocks
  // on odd shapes so every pattern still exercises an fp32 path (bs == 2
  // takes the unrolled scalar and the AVX2 block kernels).
  const Index bs = csr.rows() % 2 == 0 && csr.cols() % 2 == 0 ? 2 : 1;
  SellOptions c4, c16;
  c4.slice_height = 4;
  c16.slice_height = 16;
  return {{"csr", std::make_shared<Csr>(csr)},
          {"csrperm", std::make_shared<CsrPerm>(Csr(csr))},
          {"sell", std::make_shared<Sell>(csr)},
          {"sell_c4", std::make_shared<Sell>(csr, c4)},
          {"sell_c16", std::make_shared<Sell>(csr, c16)},
          {"bcsr", std::make_shared<Bcsr>(csr, bs)},
          {"talon", std::make_shared<Talon>(csr)}};
}

Vector to_vector(const std::vector<Scalar>& x) {
  Vector v(static_cast<Index>(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    v[static_cast<Index>(i)] = x[i];
  }
  return v;
}

/// Sets -threads for the scope and restores the previous value on exit.
class ThreadScope {
 public:
  explicit ThreadScope(int t)
      : saved_(Options::global().get_string("threads", "")) {
    Options::global().set("threads", std::to_string(t));
  }
  ~ThreadScope() {
    Options::global().set("threads", saved_.empty() ? "1" : saved_);
  }

 private:
  std::string saved_;
};

// 1. Registration ----------------------------------------------------------

TEST(SlimKernels, EveryDoubleCellHasAnFp32Twin) {
  const std::pair<simd::Op, simd::Op> twins[] = {
      {simd::Op::kCsrSpmv, simd::Op::kCsrSpmvFp32},
      {simd::Op::kSellSpmv, simd::Op::kSellSpmvFp32},
      {simd::Op::kCsrPermSpmv, simd::Op::kCsrPermSpmvFp32},
      {simd::Op::kBcsrSpmv, simd::Op::kBcsrSpmvFp32},
      {simd::Op::kTalonSpmv, simd::Op::kTalonSpmvFp32},
  };
  for (const auto& [f64, f32] : twins) {
    for (int t = 0; t < simd::kNumTiers; ++t) {
      const auto tier = static_cast<simd::IsaTier>(t);
      EXPECT_EQ(simd::has_exact(f64, tier), simd::has_exact(f32, tier))
          << "op " << static_cast<int>(f64) << " tier "
          << simd::tier_name(tier);
    }
  }
}

// 2. Differential sweep ----------------------------------------------------

TEST(SlimSweep, EveryFormatTierMeetsTheComponentwiseBound) {
  for (const Pattern& p : patterns()) {
    const Csr csr = p.make();
    const auto x = random_x(csr.cols(), 123);
    const Vector xv = to_vector(x);
    for (auto& [fname, m] : format_table(csr)) {
      ASSERT_TRUE(m->set_slim(kFp32)) << p.name << " " << fname;
      EXPECT_TRUE(m->slim_active()) << p.name << " " << fname;
      for (simd::IsaTier tier : supported_tiers()) {
        m->set_tier(tier);
        Vector y(csr.rows(), -7.0);  // poison to catch unwritten rows
        m->spmv(xv, y);
        const std::vector<Index> bad = bound_violations(csr, x, y);
        EXPECT_TRUE(bad.empty())
            << p.name << "/" << fname << "/" << simd::tier_name(tier) << ": "
            << bad.size() << " rows past gamma_k, first row "
            << (bad.empty() ? -1 : bad.front());
      }
    }
  }
}

// 3. Attach semantics ------------------------------------------------------

TEST(SlimAttach, Fp32ShrinksTrafficAndDroppingItRestoresDouble) {
  const Csr csr = testing::banded(200, {-7, -2, 2, 7});
  const Vector xv = to_vector(random_x(csr.cols(), 77));
  for (auto& [fname, m] : format_table(csr)) {
    const std::size_t fat = m->spmv_traffic_bytes();
    Vector y_fat(csr.rows(), 0.0);
    m->spmv(xv, y_fat);
    ASSERT_TRUE(m->set_slim(kFp32)) << fname;
    EXPECT_LT(m->spmv_traffic_bytes(), fat) << fname;
    ASSERT_TRUE(m->set_slim(kFp64)) << fname;
    EXPECT_FALSE(m->slim_active()) << fname;
    EXPECT_EQ(m->spmv_traffic_bytes(), fat) << fname;
    Vector y(csr.rows(), 0.0);
    m->spmv(xv, y);
    for (Index i = 0; i < csr.rows(); ++i) {
      EXPECT_EQ(y[i], y_fat[i]) << fname << " row " << i;
    }
  }
}

// 4. Flock invariance ------------------------------------------------------

TEST(SlimFlock, ThreadCountNeverChangesFp32Results) {
  const Csr csr = testing::power_law(160);
  const Vector xv = to_vector(random_x(csr.cols(), 31));
  for (auto& [fname, m] : format_table(csr)) {
    ASSERT_TRUE(m->set_slim(kFp32)) << fname;
    Vector serial(csr.rows(), 0.0);
    {
      ThreadScope one(1);
      m->repartition(1);
      m->spmv(xv, serial);
    }
    for (int t : {2, 4, 7}) {
      ThreadScope scope(t);
      m->repartition(t);
      Vector yt(csr.rows(), -3.0);
      m->spmv(xv, yt);
      for (Index i = 0; i < csr.rows(); ++i) {
        // Bitwise: partitions split between rows, never inside one, so
        // each row's accumulation order is identical at any thread count.
        EXPECT_EQ(yt[i], serial[i]) << fname << " t=" << t << " row " << i;
      }
    }
    m->repartition(1);
  }
}

}  // namespace
}  // namespace kestrel::mat
