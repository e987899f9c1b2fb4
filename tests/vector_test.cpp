// Vector (BLAS-1) operation tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "base/aligned.hpp"
#include "base/error.hpp"
#include "vec/vector.hpp"

namespace kestrel {
namespace {

TEST(Vector, ConstructionAndFill) {
  Vector a(5);
  for (Index i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(a[i], 0.0);
  Vector b(4, 2.5);
  for (Index i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(b[i], 2.5);
  Vector c{1.0, 2.0, 3.0};
  EXPECT_EQ(c.size(), 3);
  EXPECT_DOUBLE_EQ(c[2], 3.0);
}

TEST(Vector, StorageIsAligned) {
  Vector v(100);
  EXPECT_TRUE(is_aligned(v.data(), kCacheLine));
}

TEST(Vector, Axpy) {
  Vector y{1.0, 2.0, 3.0};
  Vector x{10.0, 20.0, 30.0};
  y.axpy(0.5, x);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 18.0);
}

TEST(Vector, Aypx) {
  Vector y{1.0, 2.0};
  Vector x{10.0, 10.0};
  y.aypx(3.0, x);  // y = 3y + x
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 16.0);
}

TEST(Vector, Waxpby) {
  Vector w;
  Vector x{1.0, 2.0};
  Vector y{10.0, 20.0};
  w.waxpby(2.0, x, -1.0, y);
  EXPECT_DOUBLE_EQ(w[0], -8.0);
  EXPECT_DOUBLE_EQ(w[1], -16.0);
}

TEST(Vector, DotAndNorms) {
  Vector a{3.0, 4.0};
  Vector b{1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.dot(b), 7.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 4.0);
}

TEST(Vector, NormInfUsesAbsoluteValue) {
  Vector a{-9.0, 1.0};
  EXPECT_DOUBLE_EQ(a.norm_inf(), 9.0);
}

TEST(Vector, Scale) {
  Vector a{2.0, 4.0};
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
}

TEST(Vector, CopyFromResizes) {
  Vector a{1.0, 2.0, 3.0};
  Vector b;
  b.copy_from(a);
  EXPECT_EQ(b.size(), 3);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  b[1] = 99.0;
  EXPECT_DOUBLE_EQ(a[1], 2.0);
}

TEST(Vector, MaxpyMatchesRepeatedAxpy) {
  const Index n = 33;
  Vector base(n);
  for (Index i = 0; i < n; ++i) base[i] = 0.1 * i;
  Vector xs[5];
  const Vector* ptrs[5];
  Scalar alphas[5];
  for (int k = 0; k < 5; ++k) {
    xs[k].resize(n);
    for (Index i = 0; i < n; ++i) xs[k][i] = std::sin(0.3 * i + k);
    ptrs[k] = &xs[k];
    alphas[k] = 0.5 * (k + 1);
  }
  Vector a, b;
  a.copy_from(base);
  b.copy_from(base);
  a.maxpy(5, alphas, ptrs);
  for (int k = 0; k < 5; ++k) b.axpy(alphas[k], xs[k]);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(a[i], b[i], 1e-13);
}

TEST(Vector, MaxpyEdgeCounts) {
  Vector a{1.0, 2.0};
  const Vector x{10.0, 20.0};
  const Vector* ptrs[1] = {&x};
  const Scalar alpha[1] = {2.0};
  a.maxpy(0, nullptr, nullptr);  // no-op
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  a.maxpy(1, alpha, ptrs);  // odd count path
  EXPECT_DOUBLE_EQ(a[0], 21.0);
  EXPECT_DOUBLE_EQ(a[1], 42.0);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a(3), b(4);
  EXPECT_THROW(a.axpy(1.0, b), Error);
  EXPECT_THROW(a.dot(b), Error);
}

TEST(Vector, EmptyVectorOpsAreSafe) {
  Vector a, b;
  EXPECT_DOUBLE_EQ(a.dot(b), 0.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 0.0);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 0.0);
}

// --------------------------------------------------------------------------
// Vector::dot's summation order and its error bound.
// --------------------------------------------------------------------------

constexpr Scalar kUnitRoundoff = 0x1p-53;

bool same_bits(Scalar a, Scalar b) {
  return std::memcmp(&a, &b, sizeof(Scalar)) == 0;
}

Scalar serial_dot(const Vector& a, const Vector& b) {
  Scalar sum = 0.0;
  for (Index i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

// The order vector.hpp documents, written out one lane at a time.
Scalar lane_tree_tail_dot(const Vector& a, const Vector& b) {
  const Index blocks = a.size() / 16;
  Scalar lane[16];
  for (Index j = 0; j < 16; ++j) {
    lane[j] = 0.0;
    for (Index k = 0; k < blocks; ++k) lane[j] += a[16 * k + j] * b[16 * k + j];
  }
  for (int j = 0; j < 8; ++j) lane[j] += lane[j + 8];
  for (int j = 0; j < 4; ++j) lane[j] += lane[j + 4];
  for (int j = 0; j < 2; ++j) lane[j] += lane[j + 2];
  lane[0] += lane[1];
  Scalar sum = lane[0];
  for (Index i = 16 * blocks; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

// Error-free transformation (Ogita, Rump and Oishi, "Accurate sum and dot
// product", SIAM J. Sci. Comput. 26(6), 2005): hi + lo == a + b exactly.
void two_sum(Scalar a, Scalar b, Scalar& hi, Scalar& lo) {
  hi = a + b;
  const Scalar z = hi - a;
  lo = (a - (hi - z)) + (b - z);
}

// Their Dot2 (§5), kept as a running state so that a prefix costs nothing
// extra. TwoProduct is h + r == x * y exactly, through std::fma. The result
// is as accurate as a dot product computed in twice the working precision
// and then rounded.
struct Dot2 {
  Scalar p = 0.0;
  Scalar s = 0.0;
  void add(Scalar x, Scalar y) {
    const Scalar h = x * y;
    const Scalar r = std::fma(x, y, -h);
    Scalar q = 0.0;
    two_sum(p, h, p, q);
    s += q + r;
  }
  Scalar result() const { return p + s; }
};

Scalar gamma(Index k) {
  const Scalar ku = static_cast<Scalar>(k) * kUnitRoundoff;
  return ku / (1.0 - ku);
}

// The rounding depth k of Vector::dot: the most roundings any product
// a[i]*b[i] passes through on its way into the result. The product itself
// is one. With m = floor(n/16) full blocks, the product that opens a lane
// is then added m times; the first of those adds it to +0.0, which is
// exact, so that is m - 1 roundings. The tree adds four (16 -> 8 -> 4 ->
// 2 -> 1), and the n mod 16 tail additions one each. So k = 1 + (m - 1) +
// 4 + n mod 16. Below 16 the sum is the serial loop, whose first product
// is added to +0.0 exactly and then once per later product: k = n.
Index dot_rounding_depth(Index n) {
  return n < 16 ? n : n / 16 + 4 + n % 16;
}

// Checks |dot - exact| <= gamma_k * sum|a[i]*b[i]| (Higham, "Accuracy and
// Stability of Numerical Algorithms", 2nd ed., §3.1), with Dot2 standing in
// for the exact value. Returns the condition number
// 2 * sum|a[i]*b[i]| / |a.b|.
Scalar expect_dot_within_bound(const Vector& a, const Vector& b,
                               const std::string& what) {
  const Index n = a.size();
  Dot2 ref;
  Scalar abs_sum = 0.0;
  for (Index i = 0; i < n; ++i) {
    ref.add(a[i], b[i]);
    abs_sum += std::abs(a[i] * b[i]);
  }
  // abs_sum is itself rounded: each term passes at most n roundings, so
  // the exact sum is at most abs_sum / (1 - gamma_n).
  const Scalar s = abs_sum / (1.0 - gamma(n));
  // Dot2's own error (their §5) is at most
  // u*|exact| + gamma_n^2 * s, and |exact| <= |ref| + that error.
  const Scalar ref_err =
      (kUnitRoundoff * std::abs(ref.result()) + gamma(n) * gamma(n) * s) /
      (1.0 - kUnitRoundoff);
  // The factor 1 + 16u covers the few roundings of this check itself.
  const Scalar bound = (gamma(dot_rounding_depth(n)) * s + ref_err) *
                       (1.0 + 16.0 * kUnitRoundoff);
  EXPECT_LE(std::abs(a.dot(b) - ref.result()), bound)
      << what << " n=" << n << " k=" << dot_rounding_depth(n);
  return 2.0 * abs_sum / std::abs(ref.result());
}

void fill_uniform(Vector& v, std::mt19937_64& rng) {
  std::uniform_real_distribution<Scalar> unit(-1.0, 1.0);
  for (Scalar& x : v) x = unit(rng);
}

// Ogita, Rump and Oishi's GenDot (their §6): x and y of length
// n >= 4 whose dot product has condition number about
// c = 2 * sum|x[i]*y[i]| / |sum x[i]*y[i]|. The first half spans exponents
// up to log2(c)/2; each element of the second half cancels the dot product
// of everything before it, down to exponents near 0.
void gen_dot(Index n, Scalar c, std::mt19937_64& rng, Vector& x,
             Vector& y) {
  std::uniform_real_distribution<Scalar> unit(-1.0, 1.0);
  std::uniform_real_distribution<Scalar> frac(0.0, 1.0);
  x.resize(n);
  y.resize(n);
  const Index n2 = n / 2;
  const Scalar half_bits = std::log2(c) / 2.0;
  for (Index i = 0; i < n2; ++i) {
    int e = static_cast<int>(std::lround(frac(rng) * half_bits));
    if (i == 0) e = static_cast<int>(std::lround(half_bits)) + 1;
    if (i == n2 - 1) e = 0;
    x[i] = std::ldexp(unit(rng), e);
    y[i] = std::ldexp(unit(rng), e);
  }
  Dot2 prefix;
  for (Index i = 0; i < n2; ++i) prefix.add(x[i], y[i]);
  for (Index i = n2; i < n; ++i) {
    const Scalar t =
        static_cast<Scalar>(i - n2) / static_cast<Scalar>(n - n2 - 1);
    const int e = static_cast<int>(std::lround(half_bits * (1.0 - t)));
    x[i] = std::ldexp(unit(rng), e);
    y[i] = (std::ldexp(unit(rng), e) - prefix.result()) / x[i];
    prefix.add(x[i], y[i]);
  }
  std::vector<Index> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), Index{0});
  std::shuffle(perm.begin(), perm.end(), rng);
  Vector xs(n), ys(n);
  for (Index i = 0; i < n; ++i) {
    xs[i] = x[perm[static_cast<std::size_t>(i)]];
    ys[i] = y[perm[static_cast<std::size_t>(i)]];
  }
  x.copy_from(xs);
  y.copy_from(ys);
}

std::vector<Index> dot_test_lengths() {
  std::vector<Index> lengths = {0, 1, 15, 16, 17, 31, 8191, 8192, 131072};
  std::mt19937_64 rng(21);
  std::uniform_int_distribution<Index> len(2, 5000);
  for (int k = 0; k < 12; ++k) lengths.push_back(len(rng));
  return lengths;
}

TEST(VectorDot, MatchesLaneTreeTailOrderBitForBit) {
  std::mt19937_64 rng(1);
  for (const Index n : dot_test_lengths()) {
    Vector a(n), b(n);
    fill_uniform(a, rng);
    fill_uniform(b, rng);
    EXPECT_TRUE(same_bits(a.dot(b), lane_tree_tail_dot(a, b))) << "n=" << n;
    // Mixed magnitudes make almost every other order round differently.
    for (Index i = 0; i < n; ++i) a[i] = std::ldexp(a[i], (i * 7) % 40 - 20);
    EXPECT_TRUE(same_bits(a.dot(b), lane_tree_tail_dot(a, b))) << "n=" << n;
  }
}

TEST(VectorDot, ShorterThanSixteenIsTheSerialLoop) {
  std::mt19937_64 rng(2);
  for (Index n = 0; n < 16; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      Vector a(n), b(n);
      fill_uniform(a, rng);
      fill_uniform(b, rng);
      for (Index i = 0; i < n; ++i) {
        a[i] = std::ldexp(a[i], (rep * i) % 60 - 30);
      }
      EXPECT_TRUE(same_bits(a.dot(b), serial_dot(a, b))) << "n=" << n;
    }
  }
}

TEST(VectorDot, RandomInputsWithinComponentwiseBound) {
  std::mt19937_64 rng(3);
  for (const Index n : dot_test_lengths()) {
    Vector a(n), b(n);
    fill_uniform(a, rng);
    fill_uniform(b, rng);
    expect_dot_within_bound(a, b, "uniform");
  }
}

TEST(VectorDot, IllConditionedInputsWithinComponentwiseBound) {
  std::mt19937_64 rng(4);
  for (const Scalar cond : {1e8, 1e12, 1e16}) {
    for (const Index n : dot_test_lengths()) {
      if (n < 4) continue;
      Vector x, y;
      gen_dot(n, cond, rng, x, y);
      const std::string what = "cond " + std::to_string(cond);
      EXPECT_GE(expect_dot_within_bound(x, y, what), cond / 10) << what;
    }
  }
}

TEST(VectorDot, Norm2IsSqrtOfDotBitForBit) {
  std::mt19937_64 rng(5);
  for (const Index n : dot_test_lengths()) {
    Vector a(n);
    fill_uniform(a, rng);
    EXPECT_TRUE(same_bits(a.norm2(), std::sqrt(a.dot(a)))) << "n=" << n;
  }
}

}  // namespace
}  // namespace kestrel
