// Unit tests for the base utilities: error macros, aligned storage,
// options database, RNG. (Profiler tests live in prof_test.cpp.)

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

TEST(Options, IndexOutOfRangeThrowsInsteadOfWrapping) {
  Options opts;
  // Narrowed to Index, the first three would read as 1, INT_MIN and 2.
  for (const char* bad : {"4294967297", "2147483648", "4294967298",
                          "-2147483649", "99999999999999999999"}) {
    opts.set("threads", bad);
    try {
      (void)opts.get_index("threads", 0);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const OptionsError& e) {
      EXPECT_EQ(e.key(), "threads");
      EXPECT_EQ(e.value(), bad);
    }
  }
  opts.set("threads", "2147483647");
  EXPECT_EQ(opts.get_index("threads", 0), 2147483647);
  opts.set("threads", "-2147483648");
  EXPECT_EQ(opts.get_index("threads", 0), -2147483647 - 1);
}

/// Sets environment variable `name` for one scope.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

TEST(EnvBool, ReadsFalseAsOffAndRejectsOtherWords) {
  EXPECT_TRUE(env_bool("KESTREL_TEST_BOOL", true));  // unset: the fallback
  for (const char* off : {"0", "false", "no"}) {
    const ScopedEnv env("KESTREL_TEST_BOOL", off);
    EXPECT_FALSE(env_bool("KESTREL_TEST_BOOL", true)) << off;
  }
  for (const char* on : {"1", "true", "yes"}) {
    const ScopedEnv env("KESTREL_TEST_BOOL", on);
    EXPECT_TRUE(env_bool("KESTREL_TEST_BOOL", false)) << on;
  }
  for (const char* bad : {"maybe", "", "2", "True", "1 "}) {
    const ScopedEnv env("KESTREL_TEST_BOOL", bad);
    try {
      (void)env_bool("KESTREL_TEST_BOOL", false);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("KESTREL_TEST_BOOL"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Options, OptionsNobodyReadWarnAndReadOnesDoNot) {
  Options opts;
  opts.set("ghost_exchange", "mailbox");  // an option nothing reads now
  opts.set("ksp_rtoll", "1e-8");          // a typo
  opts.set("ksp_rtol", "1e-8");
  opts.set_flag("aegis_abft");
  opts.set("n", "16");
  EXPECT_EQ(opts.unknown_option_warnings().size(), 5u);

  EXPECT_DOUBLE_EQ(opts.get_scalar("ksp_rtol", 0.0), 1e-8);
  EXPECT_TRUE(opts.has("aegis_abft"));  // has() counts as a read
  EXPECT_EQ(opts.get_index("n", 0), 16);
  EXPECT_EQ(opts.get_string("absent", "x"), "x");  // adds no key
  const auto warnings = opts.unknown_option_warnings();
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("-ghost_exchange"), std::string::npos)
      << warnings[0];
  EXPECT_NE(warnings[1].find("-ksp_rtoll"), std::string::npos)
      << warnings[1];

  // A copy carries the read marks; reads of the copy do not mark the
  // original.
  const Options copy = opts;
  EXPECT_EQ(copy.unknown_option_warnings(), warnings);
  EXPECT_EQ(copy.get_string("ghost_exchange", ""), "mailbox");
  EXPECT_EQ(copy.unknown_option_warnings().size(), 1u);
  EXPECT_EQ(opts.unknown_option_warnings().size(), 2u);
}

TEST(Options, ConcurrentReadsFromEightThreads) {
  // Rank and pool threads read the global database at once (-threads on
  // every ghost pack), so marking a key as read must be race-free. Runs
  // under TSan (ctest -L tsan).
  Options opts;
  opts.set("threads", "2");
  opts.set("mat_type", "sell");
  opts.set_flag("log_view");
  opts.set("unread", "1");
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&opts, t] {
      for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(opts.get_index("threads", 0), 2);
        if ((i + t) % 3 == 0) {
          EXPECT_TRUE(opts.has("log_view"));
        }
        if ((i + t) % 5 == 0) {
          EXPECT_EQ(opts.get_string("mat_type", ""), "sell");
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  const auto warnings = opts.unknown_option_warnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("-unread"), std::string::npos) << warnings[0];
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
