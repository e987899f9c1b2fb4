// Round-trip and adversarial-input fuzzing for the Kestrel Scope JSON
// layer (prof/json). The parser validates every metrics/trace artifact the
// profiler emits, so it must (a) reject malformed input with kestrel::Error
// — never crash, hang, or silently mis-parse — and (b) reproduce exactly
// what escape() encoded. Randomized cases use a seeded in-test LCG so every
// run replays the identical corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "prof/json.hpp"

namespace kestrel {
namespace {

using prof::json::Value;

// ---- deterministic generator ---------------------------------------------

/// Minimal LCG (Numerical Recipes constants): deterministic across
/// platforms, unlike std::rand or distribution-templated <random> output.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state_ >> 33);
  }
  std::uint32_t below(std::uint32_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// ---- adversarial escapes --------------------------------------------------

TEST(ProfJsonFuzz, BadUnicodeEscapesThrow) {
  // Each hex digit must actually be hex; short/garbage payloads are errors.
  const char* bad[] = {
      "\"\\u\"",      "\"\\u1\"",    "\"\\u12\"",   "\"\\u123\"",
      "\"\\u12x4\"",  "\"\\uzzzz\"", "\"\\u 123\"", "\"\\u12\\\"",
  };
  for (const char* doc : bad) {
    EXPECT_THROW(prof::json::parse(doc), Error) << "doc: " << doc;
  }
}

TEST(ProfJsonFuzz, UnknownEscapesThrow) {
  EXPECT_THROW(prof::json::parse("\"\\q\""), Error);
  EXPECT_THROW(prof::json::parse("\"\\x41\""), Error);
  EXPECT_THROW(prof::json::parse("\"\\\x01\""), Error);
}

TEST(ProfJsonFuzz, NonAsciiCodePointsDecodeAsPlaceholder) {
  // The parser is documented ASCII-only: higher code points — including
  // lone UTF-16 surrogates, which full decoders must pair — become '?'.
  EXPECT_EQ(prof::json::parse("\"\\u0041\"").string, "A");
  EXPECT_EQ(prof::json::parse("\"\\u00e9\"").string, "?");
  EXPECT_EQ(prof::json::parse("\"\\ud800\"").string, "?");
  EXPECT_EQ(prof::json::parse("\"\\udfff\"").string, "?");
  EXPECT_EQ(prof::json::parse("\"\\u0000\"").string, std::string(1, '\0'));
}

TEST(ProfJsonFuzz, EscapeOutputRoundTripsArbitraryBytes) {
  Lcg rng(0x5eedu);
  for (int iter = 0; iter < 200; ++iter) {
    std::string s;
    const std::uint32_t len = rng.below(64);
    for (std::uint32_t i = 0; i < len; ++i) {
      s += static_cast<char>(rng.below(256));  // all bytes incl. NUL, quotes
    }
    std::string doc = "\"";
    doc += prof::json::escape(s);
    doc += '"';
    Value v;
    ASSERT_NO_THROW(v = prof::json::parse(doc)) << "doc: " << doc;
    ASSERT_TRUE(v.is_string());
    EXPECT_EQ(v.string, s) << "doc: " << doc;
  }
}

// ---- nesting --------------------------------------------------------------

TEST(ProfJsonFuzz, PathologicalNestingThrowsInsteadOfOverflowingStack) {
  // 10k unclosed '[' — without the depth cap this recurses 10k frames deep
  // and segfaults long before hitting the unexpected-end check.
  const std::string bombs[] = {
      std::string(10000, '['),
      std::string(10000, '[') + std::string(10000, ']'),
      [] {
        std::string s;
        for (int i = 0; i < 10000; ++i) s += "{\"k\":";
        return s;
      }(),
  };
  for (const std::string& doc : bombs) {
    EXPECT_THROW(prof::json::parse(doc), Error);
  }
}

TEST(ProfJsonFuzz, NestingUpToTheCapParses) {
  // The cap is 128 levels (prof/json.cpp kMaxDepth); Kestrel's own
  // documents nest < 10, so 128 parses and 129 is the first failure.
  const std::string ok =
      std::string(128, '[') + std::string(128, ']');
  EXPECT_NO_THROW(prof::json::parse(ok));
  const std::string over =
      std::string(129, '[') + std::string(129, ']');
  EXPECT_THROW(prof::json::parse(over), Error);
}

// ---- truncation ------------------------------------------------------------

TEST(ProfJsonFuzz, EveryProperPrefixOfAnObjectDocThrows) {
  // An object-rooted document is only complete at its final '}': every
  // proper prefix must be rejected (no partial-success parse).
  const std::string docs[] = {
      "{\"a\":[1,2,-3.5e2],\"b\":\"x\\n\\u0041\",\"c\":{\"d\":null}}",
      "{\"schema\":\"kestrel-scope-metrics-v2\",\"events\":[{\"t\":true}]}",
      "{\"deep\":[[[{\"k\":[false,1e-3]}]]]}",
  };
  for (const std::string& doc : docs) {
    ASSERT_NO_THROW(prof::json::parse(doc));
    for (std::size_t n = 0; n < doc.size(); ++n) {
      EXPECT_THROW(prof::json::parse(doc.substr(0, n)), Error)
          << "prefix of length " << n << " of: " << doc;
    }
  }
}

TEST(ProfJsonFuzz, TrailingGarbageThrows) {
  EXPECT_THROW(prof::json::parse("{} {}"), Error);
  EXPECT_THROW(prof::json::parse("1 2"), Error);
  EXPECT_THROW(prof::json::parse("[1]]"), Error);
  EXPECT_THROW(prof::json::parse("\"a\"b"), Error);
}

// ---- random structured documents ------------------------------------------

/// Serializes a Value the way prof/report.cpp writes documents.
std::string serialize(const Value& v) {
  switch (v.kind) {
    case Value::Kind::Null:
      return "null";
    case Value::Kind::Bool:
      return v.boolean ? "true" : "false";
    case Value::Kind::Number: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      return buf;
    }
    case Value::Kind::String:
      return "\"" + prof::json::escape(v.string) + "\"";
    case Value::Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out += ",";
        out += serialize(v.array[i]);
      }
      return out + "]";
    }
    case Value::Kind::Object: {
      std::string out = "{";
      bool first = true;
      for (const auto& kv : v.object) {
        if (!first) out += ",";
        first = false;
        out += "\"" + prof::json::escape(kv.first) + "\":" +
               serialize(kv.second);
      }
      return out + "}";
    }
  }
  return "null";
}

bool deep_equal(const Value& a, const Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Value::Kind::Null:
      return true;
    case Value::Kind::Bool:
      return a.boolean == b.boolean;
    case Value::Kind::Number:
      return a.number == b.number;
    case Value::Kind::String:
      return a.string == b.string;
    case Value::Kind::Array: {
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!deep_equal(a.array[i], b.array[i])) return false;
      }
      return true;
    }
    case Value::Kind::Object: {
      if (a.object.size() != b.object.size()) return false;
      for (const auto& kv : a.object) {
        const Value* other = b.find(kv.first);
        if (other == nullptr || !deep_equal(kv.second, *other)) return false;
      }
      return true;
    }
  }
  return false;
}

Value random_value(Lcg& rng, int depth) {
  Value v;
  // Leaves only at the bottom; containers get rarer as depth grows.
  const std::uint32_t pick = rng.below(depth >= 5 ? 4u : 6u);
  switch (pick) {
    case 0:
      break;  // null
    case 1:
      v.kind = Value::Kind::Bool;
      v.boolean = rng.below(2) != 0;
      break;
    case 2:
      v.kind = Value::Kind::Number;
      // Halves round-trip exactly through %.17g / strtod.
      v.number = static_cast<double>(static_cast<std::int32_t>(rng.next())) /
                 2.0;
      break;
    case 3: {
      v.kind = Value::Kind::String;
      const std::uint32_t len = rng.below(12);
      for (std::uint32_t i = 0; i < len; ++i) {
        v.string += static_cast<char>(rng.below(256));
      }
      break;
    }
    case 4: {
      v.kind = Value::Kind::Array;
      const std::uint32_t len = rng.below(4);
      for (std::uint32_t i = 0; i < len; ++i) {
        v.array.push_back(random_value(rng, depth + 1));
      }
      break;
    }
    default: {
      v.kind = Value::Kind::Object;
      const std::uint32_t len = rng.below(4);
      for (std::uint32_t i = 0; i < len; ++i) {
        // The child draws from rng before the key's last byte, so the
        // documents stay the ones this test has always generated.
        Value child = random_value(rng, depth + 1);
        std::string key = "k";
        key += std::to_string(i);
        key += static_cast<char>(rng.below(256));
        v.object.emplace(std::move(key), std::move(child));
      }
      break;
    }
  }
  return v;
}

TEST(ProfJsonFuzz, RandomDocumentsRoundTripExactly) {
  Lcg rng(0xfeedfaceu);
  for (int iter = 0; iter < 300; ++iter) {
    const Value original = random_value(rng, 0);
    const std::string doc = serialize(original);
    Value reparsed;
    ASSERT_NO_THROW(reparsed = prof::json::parse(doc)) << "doc: " << doc;
    EXPECT_TRUE(deep_equal(original, reparsed)) << "doc: " << doc;
  }
}

// ---- raw byte fuzz ---------------------------------------------------------

TEST(ProfJsonFuzz, RandomBytesEitherParseOrThrow) {
  // Pure garbage must never crash, hang, or throw anything other than
  // kestrel::Error. (ASan/UBSan jobs run this same binary, so out-of-bounds
  // reads in the parser would also surface here.)
  Lcg rng(0xdeadbeefu);
  int parsed = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string doc;
    const std::uint32_t len = rng.below(48);
    for (std::uint32_t i = 0; i < len; ++i) {
      // Bias toward structural bytes so some inputs get deep into the
      // parser instead of failing on the first character.
      static const char structural[] = "{}[]\",:\\u0123e.-+ tfn";
      doc += rng.below(3) != 0
                 ? structural[rng.below(sizeof(structural) - 1)]
                 : static_cast<char>(rng.below(256));
    }
    try {
      (void)prof::json::parse(doc);
      ++parsed;
    } catch (const Error&) {
      // expected for malformed input
    }
  }
  // Sanity that the corpus exercised both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 2000);
}

}  // namespace
}  // namespace kestrel
