// Unit tests for the base utilities: error macros, aligned storage,
// options database, RNG. (Profiler tests live in prof_test.cpp.)

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "base/aligned.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "base/rng.hpp"

namespace kestrel {
namespace {

TEST(Error, CheckThrowsWithContext) {
  try {
    KESTREL_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("base_test.cpp"), std::string::npos);
    EXPECT_GT(e.line(), 0);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(KESTREL_CHECK(2 + 2 == 4, "math"));
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(KESTREL_FAIL("boom"), Error);
}

TEST(Aligned, MallocRespectsAlignment) {
  for (std::size_t align : {16u, 32u, 64u, 128u}) {
    void* p = aligned_malloc(100, align);
    EXPECT_TRUE(is_aligned(p, align));
    aligned_free(p);
  }
}

TEST(Aligned, RejectsNonPowerOfTwo) {
  EXPECT_THROW(aligned_malloc(100, 48), Error);
  EXPECT_THROW(aligned_malloc(100, 0), Error);
}

TEST(Aligned, BufferIsCacheLineAligned) {
  AlignedBuffer<double> buf(1000);
  EXPECT_TRUE(is_aligned(buf.data(), kCacheLine));
  EXPECT_EQ(buf.size(), 1000u);
}

TEST(Aligned, BufferFillAndIndex) {
  AlignedBuffer<int> buf(17, 42);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 42);
  buf.fill(-1);
  EXPECT_EQ(buf[16], -1);
}

TEST(Aligned, BufferCopyAndMove) {
  AlignedBuffer<double> a(8);
  for (std::size_t i = 0; i < 8; ++i) a[i] = static_cast<double>(i);
  AlignedBuffer<double> b = a;  // copy
  EXPECT_EQ(b.size(), 8u);
  EXPECT_DOUBLE_EQ(b[5], 5.0);
  b[5] = 99.0;
  EXPECT_DOUBLE_EQ(a[5], 5.0);  // deep copy

  AlignedBuffer<double> c = std::move(a);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_DOUBLE_EQ(c[5], 5.0);
}

TEST(Aligned, BufferResizeDiscards) {
  AlignedBuffer<double> a(4, 1.0);
  a.resize(16);
  EXPECT_EQ(a.size(), 16u);
  a.resize(0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), nullptr);
}

TEST(Aligned, RejectsSizeOverflow) {
  // n * sizeof(T), and the round-up to the alignment, would otherwise wrap
  // to a tiny allocation behind a huge size().
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(AlignedBuffer<double>(kMax / 4), Error);
  EXPECT_THROW(aligned_malloc(kMax - 8, 64), Error);
  AlignedBuffer<double> a(4, 1.0);
  EXPECT_THROW(a.resize(kMax / 4), Error);
  EXPECT_EQ(a.size(), 4u);  // a rejected resize keeps the old contents
  EXPECT_DOUBLE_EQ(a[3], 1.0);
}

TEST(Aligned, AllocatorWorksWithStdVector) {
  std::vector<double, AlignedAllocator<double>> v(100, 3.0);
  EXPECT_TRUE(is_aligned(v.data(), kCacheLine));
  EXPECT_DOUBLE_EQ(v[99], 3.0);
}

TEST(Options, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "-mat_type", "sell", "-n", "2048",
                        "-rtol", "1e-6", "-flag"};
  Options opts(8, argv);
  EXPECT_EQ(opts.get_string("mat_type", ""), "sell");
  EXPECT_EQ(opts.get_index("n", 0), 2048);
  EXPECT_DOUBLE_EQ(opts.get_scalar("rtol", 0.0), 1e-6);
  EXPECT_TRUE(opts.has("flag"));
  EXPECT_TRUE(opts.get_bool("flag", false));
}

TEST(Options, NegativeNumbersAreValuesNotKeys) {
  const char* argv[] = {"-shift", "-2.5", "-count", "-3"};
  Options opts(4, argv);
  EXPECT_DOUBLE_EQ(opts.get_scalar("shift", 0.0), -2.5);
  EXPECT_EQ(opts.get_index("count", 0), -3);
}

TEST(Options, FallbacksWhenMissing) {
  Options opts;
  EXPECT_EQ(opts.get_string("absent", "dflt"), "dflt");
  EXPECT_EQ(opts.get_index("absent", 7), 7);
  EXPECT_DOUBLE_EQ(opts.get_scalar("absent", 2.5), 2.5);
  EXPECT_FALSE(opts.get_bool("absent", false));
}

TEST(Options, TypeErrorsThrow) {
  Options opts;
  opts.set("n", "abc");
  EXPECT_THROW(opts.get_index("n", 0), Error);
  EXPECT_THROW(opts.get_scalar("n", 0.0), Error);
  opts.set("b", "maybe");
  EXPECT_THROW(opts.get_bool("b", false), Error);
}

TEST(Options, LaterSettingsOverride) {
  Options opts;
  opts.set("x", "1");
  opts.set("x", "2");
  EXPECT_EQ(opts.get_index("x", 0), 2);
  EXPECT_EQ(opts.keys().size(), 1u);
}

TEST(Options, StructuredParseErrorsCarryKeyValueExpected) {
  Options opts;
  opts.set("ksp_max_it", "ten");
  try {
    opts.get_index("ksp_max_it", 0);
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_EQ(e.key(), "ksp_max_it");
    EXPECT_EQ(e.value(), "ten");
    EXPECT_FALSE(e.expected().empty());
    EXPECT_NE(std::string(e.what()).find("ksp_max_it"), std::string::npos);
  }
  opts.set("aegis_abft_tol", "1e-x");
  try {
    opts.get_scalar("aegis_abft_tol", 0.0);
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_EQ(e.key(), "aegis_abft_tol");
    EXPECT_EQ(e.value(), "1e-x");
  }
  opts.set("aegis_abft", "maybe");
  EXPECT_THROW(opts.get_bool("aegis_abft", false), OptionsError);
}

TEST(Options, UnknownKeysFiltersByPrefixAndKnownList) {
  Options opts;
  opts.set("aegis_faults", "drop=0.1");
  opts.set("aegis_fautls", "typo");
  opts.set("mat_type", "sell");
  const auto unknown = opts.unknown_keys("aegis_", {"aegis_faults"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "aegis_fautls");
}

TEST(Options, UnknownOptionWarningsFlagTyposInAegisAndKspFamilies) {
  Options opts;
  opts.set_flag("aegis_abft");
  opts.set("ksp_rtol", "1e-8");
  EXPECT_TRUE(opts.unknown_option_warnings().empty());

  opts.set_flag("aegis_abftt");    // typo
  opts.set("ksp_rtoll", "1e-8");   // typo
  opts.set("unrelated", "fine");   // outside the warned prefixes
  const auto warnings = opts.unknown_option_warnings();
  ASSERT_EQ(warnings.size(), 2u);
  bool saw_aegis = false, saw_ksp = false;
  for (const auto& w : warnings) {
    if (w.find("aegis_abftt") != std::string::npos) saw_aegis = true;
    if (w.find("ksp_rtoll") != std::string::npos) saw_ksp = true;
  }
  EXPECT_TRUE(saw_aegis);
  EXPECT_TRUE(saw_ksp);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
    const Index k = rng.next_index(13);
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 13);
  }
}

}  // namespace
}  // namespace kestrel
