// ISA detection and kernel dispatch tests.

#include <gtest/gtest.h>

#include "base/error.hpp"
#include "base/options.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"

namespace kestrel::simd {
namespace {

TEST(Isa, TierNamesRoundTrip) {
  for (IsaTier t : {IsaTier::kScalar, IsaTier::kAvx, IsaTier::kAvx2,
                    IsaTier::kAvx512}) {
    EXPECT_EQ(parse_tier(tier_name(t)), t);
  }
}

TEST(Isa, ParseAcceptsAliases) {
  EXPECT_EQ(parse_tier("novec"), IsaTier::kScalar);
  EXPECT_EQ(parse_tier("AVX-512"), IsaTier::kAvx512);
  EXPECT_EQ(parse_tier("Avx2"), IsaTier::kAvx2);
  EXPECT_THROW(parse_tier("sse9"), Error);
}

TEST(Isa, SupportIsMonotoneDownward) {
  const IsaTier best = detect_best_tier();
  for (int t = 0; t <= static_cast<int>(best); ++t) {
    EXPECT_TRUE(cpu_supports(static_cast<IsaTier>(t)));
  }
}

TEST(Isa, ScalarAlwaysSupported) {
  EXPECT_TRUE(cpu_supports(IsaTier::kScalar));
}

TEST(Dispatch, ScalarKernelsAlwaysRegistered) {
  for (Op op : {Op::kCsrSpmv, Op::kCsrSpmvAddRows, Op::kSellSpmv,
                Op::kSellSpmvBitmask, Op::kCsrPermSpmv, Op::kBcsrSpmv}) {
    EXPECT_TRUE(has_exact(op, IsaTier::kScalar));
    EXPECT_NE(lookup(op, IsaTier::kScalar), nullptr);
  }
}

TEST(Dispatch, ResolveFallsBackToLowerTier) {
  // BCSR has scalar and AVX2 kernels only: an AVX-512 request resolves to
  // AVX2 (when the CPU has it), an AVX request drops to scalar.
  if (cpu_supports(IsaTier::kAvx2)) {
    EXPECT_EQ(resolve_tier(Op::kBcsrSpmv, IsaTier::kAvx512),
              IsaTier::kAvx2);
  }
  EXPECT_EQ(resolve_tier(Op::kBcsrSpmv, IsaTier::kAvx), IsaTier::kScalar);
  // CSRPerm has scalar and AVX-512 only: AVX2 request resolves to scalar.
  if (cpu_supports(IsaTier::kAvx2)) {
    EXPECT_EQ(resolve_tier(Op::kCsrPermSpmv, IsaTier::kAvx2),
              IsaTier::kScalar);
  }
}

TEST(Dispatch, ResolveNeverExceedsCpu) {
  const IsaTier best = detect_best_tier();
  const IsaTier resolved = resolve_tier(Op::kCsrSpmv, IsaTier::kAvx512);
  EXPECT_LE(static_cast<int>(resolved), static_cast<int>(best));
}

TEST(Dispatch, VectorKernelsPresentWhenCpuSupports) {
  // Full tier ladder expected for CSR and SELL mult kernels.
  for (Op op : {Op::kCsrSpmv, Op::kSellSpmv}) {
    for (int t = 0; t <= static_cast<int>(detect_best_tier()); ++t) {
      EXPECT_EQ(resolve_tier(op, static_cast<IsaTier>(t)),
                static_cast<IsaTier>(t))
          << "op=" << static_cast<int>(op) << " tier=" << t;
    }
  }
}

TEST(Dispatch, DefaultTierHonorsOption) {
  Options& opts = Options::global();
  opts.set("spmv_isa", "scalar");
  EXPECT_EQ(default_tier(), IsaTier::kScalar);
  opts.set("spmv_isa", "");
  EXPECT_EQ(default_tier(), detect_best_tier());
}

}  // namespace
}  // namespace kestrel::simd
