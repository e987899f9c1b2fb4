// The central correctness sweep: every format x every ISA tier the CPU
// supports x a family of adversarial sparsity patterns, all checked against
// a dense reference product. This is what certifies that the AVX-512
// Algorithm 1/2 kernels (and their AVX/AVX2 ports) compute exactly the
// same SpMV as the scalar baseline.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "mat/bcsr.hpp"
#include "mat/csr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "test_matrices.hpp"

namespace kestrel::mat {
namespace {

using testing::dense_spmv;
using testing::random_x;

struct Pattern {
  std::string name;
  std::function<Csr()> make;
};

std::vector<Pattern> patterns() {
  return {
      {"banded5", [] { return testing::banded(97, {-3, -1, 1, 3}); }},
      {"banded_wide", [] { return testing::banded(64, {-8, -4, 4, 8}); }},
      {"uniform4", [] { return testing::uniform_random(80, 80, 4); }},
      {"uniform_rect", [] { return testing::uniform_random(50, 90, 6); }},
      {"power_law", [] { return testing::power_law(100); }},
      {"empty_rows", [] { return testing::with_empty_rows(60); }},
      {"dense_row", [] { return testing::with_dense_row(40); }},
      {"single_col", [] { return testing::single_column(40); }},
      {"last_row_col", [] { return testing::last_row_only_column(37); }},
      {"straddle", [] { return testing::straddling_boundaries(50); }},
      {"tiny", [] { return testing::banded(3, {-1, 1}); }},
      {"single_row",
       [] {
         Coo coo(1, 13);
         for (Index j = 0; j < 13; j += 2) coo.add(0, j, j + 1.0);
         return coo.to_csr();
       }},
      {"row_len_sweep",
       [] {
         // rows of every length 0..16: exercises all remainder paths of
         // Algorithm 1 (len < 2, masked 3..7, full multiples of 8, mixed)
         Coo coo(17, 17);
         for (Index i = 0; i < 17; ++i) {
           for (Index j = 0; j < i; ++j) coo.add(i, j, 0.5 + i + j);
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

void expect_matches_reference(const Matrix& m, const Csr& csr,
                              const std::string& context) {
  const auto x = random_x(csr.cols(), 123);
  const auto expect = dense_spmv(csr, x);
  Vector xv(csr.cols());
  for (Index i = 0; i < csr.cols(); ++i) {
    xv[i] = x[static_cast<std::size_t>(i)];
  }
  Vector yv(csr.rows(), -7.0);  // poison to catch unwritten rows
  m.spmv(xv, yv);
  for (Index i = 0; i < csr.rows(); ++i) {
    EXPECT_NEAR(yv[i], expect[static_cast<std::size_t>(i)], 1e-11)
        << context << " row " << i;
  }
}

class SpmvSweep
    : public ::testing::TestWithParam<std::tuple<int, simd::IsaTier>> {};

TEST_P(SpmvSweep, CsrMatchesDense) {
  const auto [pat_idx, tier] = GetParam();
  Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  csr.set_tier(tier);
  expect_matches_reference(csr, csr, "csr");
}

TEST_P(SpmvSweep, SellC8MatchesDense) {
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  Sell sell(csr);
  sell.set_tier(tier);
  expect_matches_reference(sell, csr, "sell-c8");
}

TEST_P(SpmvSweep, SellC16MatchesDense) {
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  SellOptions opts;
  opts.slice_height = 16;
  Sell sell(csr, opts);
  sell.set_tier(tier);
  expect_matches_reference(sell, csr, "sell-c16");
}

TEST_P(SpmvSweep, SellC4MatchesDense) {
  // c = 4 cannot use the AVX-512 kernel; exercises the downgrade path.
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  SellOptions opts;
  opts.slice_height = 4;
  Sell sell(csr, opts);
  sell.set_tier(tier);
  expect_matches_reference(sell, csr, "sell-c4");
}

TEST_P(SpmvSweep, SellSigmaSortedMatchesDense) {
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  SellOptions opts;
  opts.sigma = 24;
  Sell sell(csr, opts);
  sell.set_tier(tier);
  expect_matches_reference(sell, csr, "sell-sigma");
}

TEST_P(SpmvSweep, SellBitmaskMatchesDense) {
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  SellOptions opts;
  opts.build_bitmask = true;
  Sell sell(csr, opts);
  sell.set_tier(tier);

  const auto x = random_x(csr.cols(), 123);
  const auto expect = dense_spmv(csr, x);
  Vector xv(csr.cols());
  for (Index i = 0; i < csr.cols(); ++i) {
    xv[i] = x[static_cast<std::size_t>(i)];
  }
  Vector yv(csr.rows(), -7.0);
  sell.spmv_bitmask(xv.data(), yv.data());
  for (Index i = 0; i < csr.rows(); ++i) {
    EXPECT_NEAR(yv[i], expect[static_cast<std::size_t>(i)], 1e-11);
  }
}

TEST_P(SpmvSweep, SellPrefetchMatchesDense) {
  // The unrolled + software-prefetch variant (section 5.5 ablation), both
  // unsorted and with sigma-sorted slices — previously only benches ran it.
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  for (Index sigma : {Index(1), Index(24)}) {
    SellOptions opts;
    opts.sigma = sigma;
    Sell sell(csr, opts);
    sell.set_tier(tier);
    const auto x = random_x(csr.cols(), 123);
    const auto expect = dense_spmv(csr, x);
    Vector xv(csr.cols());
    for (Index i = 0; i < csr.cols(); ++i) {
      xv[i] = x[static_cast<std::size_t>(i)];
    }
    Vector yv(csr.rows(), -7.0);
    sell.spmv_prefetch(xv.data(), yv.data());
    for (Index i = 0; i < csr.rows(); ++i) {
      EXPECT_NEAR(yv[i], expect[static_cast<std::size_t>(i)], 1e-11)
          << "sell-prefetch sigma " << sigma << " row " << i;
    }
  }
}

TEST_P(SpmvSweep, TalonMatchesDense) {
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  Talon talon(csr);
  talon.set_tier(tier);
  expect_matches_reference(talon, csr, "talon");
}

TEST_P(SpmvSweep, TalonForcedShapesMatchDense) {
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  for (Index r : {Index(1), Index(2), Index(4)}) {
    TalonOptions opts;
    opts.force_r = r;
    Talon talon(csr, opts);
    talon.set_tier(tier);
    expect_matches_reference(talon, csr,
                             "talon-r" + std::to_string(r));
  }
}

TEST_P(SpmvSweep, CsrPermMatchesDense) {
  const auto [pat_idx, tier] = GetParam();
  const Csr csr = patterns()[static_cast<std::size_t>(pat_idx)].make();
  CsrPerm perm{Csr(csr)};
  perm.set_tier(tier);
  expect_matches_reference(perm, csr, "csrperm");
}

std::vector<std::tuple<int, simd::IsaTier>> sweep_params() {
  std::vector<std::tuple<int, simd::IsaTier>> params;
  const int npat = static_cast<int>(patterns().size());
  for (int p = 0; p < npat; ++p) {
    for (simd::IsaTier t : supported_tiers()) params.emplace_back(p, t);
  }
  return params;
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<int, simd::IsaTier>>& info) {
  const auto [p, t] = info.param;
  return patterns()[static_cast<std::size_t>(p)].name + "_" +
         simd::tier_name(t);
}

INSTANTIATE_TEST_SUITE_P(AllPatternsAllTiers, SpmvSweep,
                         ::testing::ValuesIn(sweep_params()), sweep_name);

TEST(SpmvBcsr, MatchesDenseOnBlockMatrices) {
  // Build a block-structured matrix (2x2 blocks) and compare BCSR SpMV.
  for (Index nb : {3, 8, 17}) {
    Coo coo(nb * 2, nb * 2);
    Rng rng(21);
    for (Index ib = 0; ib < nb; ++ib) {
      for (Index jb : {ib, (ib + 1) % nb}) {
        for (Index r = 0; r < 2; ++r) {
          for (Index c = 0; c < 2; ++c) {
            coo.add(ib * 2 + r, jb * 2 + c, rng.uniform(-1.0, 1.0));
          }
        }
      }
    }
    const Csr csr = coo.to_csr();
    const Bcsr bcsr(csr, 2);
    EXPECT_EQ(bcsr.block_size(), 2);
    expect_matches_reference(bcsr, csr, "bcsr2");
  }
}

// ===== Differential oracle sweep over the kernel registration table =====
//
// The parameterized sweep above certifies the formats against a dense
// reference through the Matrix::spmv dispatch path. This battery goes one
// level lower: it iterates the registration table itself (every
// KESTREL_KERNEL_TABLE cell) and calls each registered ISA kernel through
// its raw function pointer, comparing against the scalar kernel of the
// same op — the differential oracle. Matrices are randomized and include
// empty rows, an all-empty matrix, a single row, and every tail-remainder
// width 1..8 so each kernel's masked/remainder path is exercised.

using simd::IsaTier;
using simd::Op;

constexpr double kOracleTol = 1e-11;

struct NamedCsr {
  std::string name;
  Csr csr;
};

std::vector<NamedCsr> oracle_csrs() {
  std::vector<NamedCsr> out;
  // Every row exactly w entries: the vector kernels' remainder handling
  // for widths below / straddling one ZMM register (Algorithm 1 masks).
  for (Index w = 1; w <= 8; ++w) {
    Coo coo(13, 32);
    Rng rng(static_cast<std::uint64_t>(100 + w));
    for (Index i = 0; i < 13; ++i) {
      for (Index k = 0; k < w; ++k) {
        coo.add(i, rng.next_index(32), rng.uniform(-2.0, 2.0));
      }
    }
    out.push_back({"tail_w" + std::to_string(w), coo.to_csr()});
  }
  out.push_back({"empty_rows", testing::with_empty_rows(48)});
  out.push_back({"uniform", testing::uniform_random(40, 40, 5)});
  out.push_back({"power_law", testing::power_law(64)});
  out.push_back({"single_col", testing::single_column(40)});
  out.push_back({"last_row_col", testing::last_row_only_column(37)});
  out.push_back({"straddle", testing::straddling_boundaries(50)});
  {
    Coo coo(1, 13);
    for (Index j = 0; j < 13; j += 2) coo.add(0, j, j + 1.0);
    out.push_back({"single_row", coo.to_csr()});
  }
  {
    Coo coo(7, 7);  // no entries at all
    out.push_back({"all_empty", coo.to_csr()});
  }
  return out;
}

/// ISA tiers above scalar that this CPU can actually execute.
std::vector<IsaTier> oracle_tiers() {
  std::vector<IsaTier> tiers;
  for (int t = static_cast<int>(IsaTier::kScalar) + 1;
       t <= static_cast<int>(simd::detect_best_tier()); ++t) {
    tiers.push_back(static_cast<IsaTier>(t));
  }
  return tiers;
}

void expect_same(const std::vector<Scalar>& ref, const std::vector<Scalar>& got,
                 const std::string& context) {
  ASSERT_EQ(ref.size(), got.size()) << context;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], kOracleTol) << context << " index " << i;
  }
}

TEST(KernelOracle, EveryOpHasAScalarCounterpart) {
  // The lint enforces this statically per table cell; this is the runtime
  // proof that registration actually happened for each op.
  for (int op = 0; op < static_cast<int>(Op::kOpCount); ++op) {
    EXPECT_TRUE(simd::has_exact(static_cast<Op>(op), IsaTier::kScalar))
        << "op " << op << " has no scalar kernel registered";
  }
}

TEST(KernelOracle, CsrSpmvMatchesScalar) {
  const auto scalar =
      simd::lookup_as<simd::CsrSpmvFn>(Op::kCsrSpmv, IsaTier::kScalar);
  for (IsaTier tier : oracle_tiers()) {
    if (!simd::has_exact(Op::kCsrSpmv, tier)) continue;
    const auto fn = simd::lookup_as<simd::CsrSpmvFn>(Op::kCsrSpmv, tier);
    for (const auto& [name, csr] : oracle_csrs()) {
      const auto x = random_x(csr.cols(), 42);
      std::vector<Scalar> ref(static_cast<std::size_t>(csr.rows()), -7.0);
      std::vector<Scalar> got(ref);
      scalar(csr.view(), x.data(), ref.data());
      fn(csr.view(), x.data(), got.data());
      expect_same(ref, got,
                  "csr_spmv/" + std::string(simd::tier_name(tier)) + "/" +
                      name);
    }
  }
}

TEST(KernelOracle, CsrSpmvAddRowsMatchesScalar) {
  // The compressed off-diagonal path: the kernel scatters row i of the
  // compressed block into y[rows[i]]. Use a stride-2 scatter so a bad
  // kernel writing contiguously fails immediately.
  const auto scalar = simd::lookup_as<simd::CsrSpmvAddRowsFn>(
      Op::kCsrSpmvAddRows, IsaTier::kScalar);
  for (IsaTier tier : oracle_tiers()) {
    if (!simd::has_exact(Op::kCsrSpmvAddRows, tier)) continue;
    const auto fn =
        simd::lookup_as<simd::CsrSpmvAddRowsFn>(Op::kCsrSpmvAddRows, tier);
    for (const auto& [name, csr] : oracle_csrs()) {
      const auto x = random_x(csr.cols(), 43);
      std::vector<Index> rows(static_cast<std::size_t>(csr.rows()));
      for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i] = static_cast<Index>(2 * i);
      }
      std::vector<Scalar> ref(2 * rows.size() + 1, 0.25);
      std::vector<Scalar> got(ref);
      scalar(csr.view(), rows.data(), x.data(), ref.data());
      fn(csr.view(), rows.data(), x.data(), got.data());
      expect_same(ref, got,
                  "csr_spmv_add_rows/" +
                      std::string(simd::tier_name(tier)) + "/" + name);
    }
  }
}

TEST(KernelOracle, SellOpsMatchScalar) {
  // All three SELL table ops, at both slice heights the vector kernels
  // accept (c = 8 fills one ZMM; c = 16 exercises the multi-vector loop).
  // The bitmask variant gets a matrix built with the ESB bit array; the
  // prefetch variant is specified for c = 8 only.
  struct SellOp {
    Op op;
    bool needs_bitmask;
    bool c8_only;
    const char* label;
  };
  const SellOp ops[] = {
      {Op::kSellSpmv, false, false, "sell_spmv"},
      {Op::kSellSpmvBitmask, true, false, "sell_spmv_bitmask"},
      {Op::kSellSpmvPrefetch, false, true, "sell_spmv_prefetch"},
  };
  for (const SellOp& sop : ops) {
    const auto scalar =
        simd::lookup_as<simd::SellSpmvFn>(sop.op, IsaTier::kScalar);
    for (IsaTier tier : oracle_tiers()) {
      if (!simd::has_exact(sop.op, tier)) continue;
      const auto fn = simd::lookup_as<simd::SellSpmvFn>(sop.op, tier);
      for (Index c : {Index(8), Index(16)}) {
        if (sop.c8_only && c != 8) continue;
        for (const auto& [name, csr] : oracle_csrs()) {
          SellOptions opts;
          opts.slice_height = c;
          opts.build_bitmask = sop.needs_bitmask;
          const Sell sell(csr, opts);
          const auto x = random_x(csr.cols(), 44);
          std::vector<Scalar> ref(static_cast<std::size_t>(csr.rows()),
                                  -7.0);
          std::vector<Scalar> got(ref);
          scalar(sell.view(), x.data(), ref.data());
          fn(sell.view(), x.data(), got.data());
          expect_same(ref, got,
                      std::string(sop.label) + "/c" + std::to_string(c) +
                          "/" + simd::tier_name(tier) + "/" + name);
        }
      }
    }
  }
}

TEST(KernelOracle, SellSigmaSortedOpsMatchScalar) {
  // sigma > 1 sorted slices at the raw-kernel level: both the scalar
  // oracle and the vector kernel operate on the SAME sorted view, so the
  // comparison is tier-differential (the class-level fixup is tested by
  // the SpmvSweep above). Previously only benches built sorted views.
  const Op ops[] = {Op::kSellSpmv, Op::kSellSpmvPrefetch};
  for (const Op op : ops) {
    const auto scalar = simd::lookup_as<simd::SellSpmvFn>(op, IsaTier::kScalar);
    for (IsaTier tier : oracle_tiers()) {
      if (!simd::has_exact(op, tier)) continue;
      const auto fn = simd::lookup_as<simd::SellSpmvFn>(op, tier);
      for (Index sigma : {Index(4), Index(32)}) {
        for (const auto& [name, csr] : oracle_csrs()) {
          SellOptions opts;
          opts.sigma = sigma;
          const Sell sell(csr, opts);
          const auto x = random_x(csr.cols(), 47);
          std::vector<Scalar> ref(static_cast<std::size_t>(csr.rows()), -7.0);
          std::vector<Scalar> got(ref);
          scalar(sell.view(), x.data(), ref.data());
          fn(sell.view(), x.data(), got.data());
          expect_same(ref, got,
                      "sell_sigma" + std::to_string(sigma) + "/" +
                          simd::tier_name(tier) + "/" + name);
        }
      }
    }
  }
}

TEST(KernelOracle, TalonOpsMatchScalar) {
  // Every vector tier, every block shape the inspector can emit (auto plus
  // forced r = 1/2/4), over the full oracle matrix family.
  const auto scalar =
      simd::lookup_as<simd::TalonSpmvFn>(Op::kTalonSpmv, IsaTier::kScalar);
  for (IsaTier tier : oracle_tiers()) {
    if (!simd::has_exact(Op::kTalonSpmv, tier)) continue;
    const auto fn = simd::lookup_as<simd::TalonSpmvFn>(Op::kTalonSpmv, tier);
    for (Index force_r : {Index(0), Index(1), Index(2), Index(4)}) {
      for (const auto& [name, csr] : oracle_csrs()) {
        TalonOptions opts;
        opts.force_r = force_r;
        const Talon talon(csr, opts);
        const auto x = random_x(csr.cols(), 48);
        std::vector<Scalar> ref(static_cast<std::size_t>(csr.rows()), -7.0);
        std::vector<Scalar> got(ref);
        scalar(talon.view(), x.data(), ref.data());
        fn(talon.view(), x.data(), got.data());
        expect_same(ref, got,
                    "talon_spmv/r" + std::to_string(force_r) + "/" +
                        simd::tier_name(tier) + "/" + name);
      }
    }
  }
}

TEST(KernelOracle, EveryFormatMatchesOracleOnAdversarialPatterns) {
  // Every registered format through its Matrix::spmv path, on the
  // adversarial generator family, against the CSR scalar oracle (the raw
  // scalar CSR kernel — not dense_spmv — so this is a true differential
  // test of format conversion + dispatch end to end).
  const auto oracle =
      simd::lookup_as<simd::CsrSpmvFn>(Op::kCsrSpmv, IsaTier::kScalar);
  const NamedCsr adversarial[] = {
      {"empty_rows", testing::with_empty_rows(60)},
      {"dense_row", testing::with_dense_row(40)},
      {"single_col", testing::single_column(40)},
      {"last_row_col", testing::last_row_only_column(37)},
      {"straddle", testing::straddling_boundaries(50)},
  };
  for (const auto& [name, csr] : adversarial) {
    const auto x = random_x(csr.cols(), 49);
    std::vector<Scalar> ref(static_cast<std::size_t>(csr.rows()), 0.0);
    oracle(csr.view(), x.data(), ref.data());

    std::vector<std::pair<std::string, std::shared_ptr<Matrix>>> formats;
    formats.emplace_back("csr", std::make_shared<Csr>(csr));
    formats.emplace_back("csrperm", std::make_shared<CsrPerm>(Csr(csr)));
    formats.emplace_back("sell_c8", std::make_shared<Sell>(csr));
    {
      SellOptions opts;
      opts.slice_height = 4;
      formats.emplace_back("sell_c4", std::make_shared<Sell>(csr, opts));
    }
    if (csr.rows() == csr.cols()) {
      formats.emplace_back("bcsr_bs1", std::make_shared<Bcsr>(csr, 1));
    }
    formats.emplace_back("talon", std::make_shared<Talon>(csr));
    for (simd::IsaTier tier : supported_tiers()) {
      for (const auto& [fmt_name, matrix] : formats) {
        matrix->set_tier(tier);
        std::vector<Scalar> got(static_cast<std::size_t>(csr.rows()), -7.0);
        matrix->spmv(x.data(), got.data());
        expect_same(ref, got,
                    fmt_name + "/" + simd::tier_name(tier) + "/" + name);
      }
    }
  }
}

TEST(KernelOracle, CsrPermSpmvMatchesScalar) {
  const auto scalar =
      simd::lookup_as<simd::CsrPermSpmvFn>(Op::kCsrPermSpmv, IsaTier::kScalar);
  for (IsaTier tier : oracle_tiers()) {
    if (!simd::has_exact(Op::kCsrPermSpmv, tier)) continue;
    const auto fn =
        simd::lookup_as<simd::CsrPermSpmvFn>(Op::kCsrPermSpmv, tier);
    for (const auto& [name, csr] : oracle_csrs()) {
      const CsrPerm perm{Csr(csr)};
      const auto x = random_x(csr.cols(), 45);
      std::vector<Scalar> ref(static_cast<std::size_t>(csr.rows()), -7.0);
      std::vector<Scalar> got(ref);
      scalar(perm.view(), x.data(), ref.data());
      fn(perm.view(), x.data(), got.data());
      expect_same(ref, got,
                  "csr_perm_spmv/" + std::string(simd::tier_name(tier)) +
                      "/" + name);
    }
  }
}

TEST(KernelOracle, BcsrSpmvMatchesScalar) {
  // Dimensions divisible by every block size tested; includes a band of
  // empty block rows.
  const auto scalar =
      simd::lookup_as<simd::BcsrSpmvFn>(Op::kBcsrSpmv, IsaTier::kScalar);
  for (IsaTier tier : oracle_tiers()) {
    if (!simd::has_exact(Op::kBcsrSpmv, tier)) continue;
    const auto fn = simd::lookup_as<simd::BcsrSpmvFn>(Op::kBcsrSpmv, tier);
    for (Index bs : {1, 2, 3, 4}) {
      const Index n = 24;
      Coo coo(n, n);
      Rng rng(static_cast<std::uint64_t>(55 + bs));
      for (Index i = 0; i < n; ++i) {
        if (i >= 8 && i < 12) continue;  // empty rows 8..11
        coo.add(i, i, 3.0 + rng.next_double());
        coo.add(i, (i + bs) % n, rng.uniform(-1.0, 1.0));
        coo.add(i, rng.next_index(n), rng.uniform(-1.0, 1.0));
      }
      const Bcsr bcsr(coo.to_csr(), bs);
      const auto x = random_x(n, 46);
      std::vector<Scalar> ref(static_cast<std::size_t>(n), -7.0);
      std::vector<Scalar> got(ref);
      scalar(bcsr.view(), x.data(), ref.data());
      fn(bcsr.view(), x.data(), got.data());
      expect_same(ref, got,
                  "bcsr_spmv/" + std::string(simd::tier_name(tier)) +
                      "/bs" + std::to_string(bs));
    }
  }
}

TEST(KernelOracle, GatherPackMatchesScalarAcrossTiers) {
  // The ghost-pack kernel (Kestrel Slipstream): out[i] = x[idx[i]]. Sweeps
  // every length that exercises the vector widths' remainder paths (AVX2
  // packs 4 lanes, AVX-512 packs 8 with a masked tail) plus duplicate and
  // boundary indices — gathers must tolerate reading the same slot twice
  // and the last element of x.
  const auto scalar =
      simd::lookup_as<simd::GatherPackFn>(Op::kGatherPack, IsaTier::kScalar);
  ASSERT_NE(scalar, nullptr);
  const Index xn = 200;
  const auto x = random_x(xn, 91);
  for (IsaTier tier : oracle_tiers()) {
    if (!simd::has_exact(Op::kGatherPack, tier)) continue;
    const auto fn =
        simd::lookup_as<simd::GatherPackFn>(Op::kGatherPack, tier);
    for (Index n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64,
                    100}) {
      Rng rng(static_cast<std::uint64_t>(400 + n));
      std::vector<Index> idx(static_cast<std::size_t>(n));
      for (Index i = 0; i < n; ++i) {
        idx[static_cast<std::size_t>(i)] =
            i % 5 == 0 ? xn - 1 : rng.next_index(xn);
      }
      if (n > 3) idx[3] = idx[0];  // duplicate gather target
      std::vector<Scalar> ref(static_cast<std::size_t>(n) + 1, -7.0);
      std::vector<Scalar> got(ref);
      scalar(x.data(), idx.data(), n, ref.data());
      fn(x.data(), idx.data(), n, got.data());
      expect_same(ref, got,
                  "gather_pack/" + std::string(simd::tier_name(tier)) +
                      "/n" + std::to_string(n));
      // the +1 sentinel slot proves the masked tail never overwrites
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(n)], -7.0);
    }
  }
}

TEST(SpmvBcsr, GeneralBlockSizes) {
  for (Index bs : {1, 3, 4}) {
    const Index n = bs * 6;
    Coo coo(n, n);
    Rng rng(31);
    for (Index i = 0; i < n; ++i) {
      coo.add(i, i, 3.0);
      coo.add(i, (i + bs) % n, rng.uniform(-1.0, 1.0));
    }
    const Csr csr = coo.to_csr();
    const Bcsr bcsr(csr, bs);
    expect_matches_reference(bcsr, csr, "bcsr-general");
  }
}

}  // namespace
}  // namespace kestrel::mat
