// Tests for the extension features: flexible GMRES, pattern-reuse value
// refresh (CSR and SELL), and the blocked AVX2 BAIJ kernel.

#include <gtest/gtest.h>

#include <cmath>

#include "app/gray_scott.hpp"
#include "app/laplacian.hpp"
#include "ksp/context.hpp"
#include "mat/bcsr.hpp"
#include "mat/sell.hpp"
#include "pc/jacobi.hpp"
#include "test_matrices.hpp"

namespace kestrel {
namespace {

// ---- FGMRES ------------------------------------------------------------

TEST(FGmres, SolvesNonsymmetricSystem) {
  const mat::Csr a = testing::banded(64, {-3, 1, 5}, 21);
  Vector x_true(64);
  for (Index i = 0; i < 64; ++i) x_true[i] = std::cos(0.2 * i);
  Vector b;
  a.spmv(x_true, b);
  Vector x(64);
  ksp::Settings settings;
  settings.rtol = 1e-12;
  settings.max_iterations = 500;
  const ksp::FGmres solver(settings);
  ksp::SeqContext ctx(a);
  const auto res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 64; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(FGmres, ToleratesIterationVaryingPreconditioner) {
  // A preconditioner whose scaling changes every apply: plain GMRES theory
  // breaks, flexible GMRES must still converge.
  class Wobbly final : public pc::Pc {
   public:
    explicit Wobbly(const mat::Matrix& a) : jacobi_(a) {}
    void apply(const Vector& r, Vector& z) const override {
      jacobi_.apply(r, z);
      z.scale(1.0 + 0.5 * ((calls_++) % 3));  // 1x, 1.5x, 2x, ...
    }
    std::string name() const override { return "wobbly"; }

   private:
    pc::Jacobi jacobi_;
    mutable int calls_ = 0;
  };

  const mat::Csr a = app::laplacian_dirichlet(10, 10);
  const Vector b(a.rows(), 1.0);
  Vector x(a.rows());
  const Wobbly pc(a);
  ksp::Settings settings;
  settings.rtol = 1e-8;
  settings.max_iterations = 600;
  const ksp::FGmres solver(settings);
  ksp::SeqContext ctx(a, &pc);
  const auto res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  // verify the actual residual, not just the solver's claim
  Vector check;
  a.spmv(x, check);
  check.aypx(-1.0, b);
  EXPECT_LT(check.norm2(), 1e-6);
}

TEST(FGmres, AvailableFromFactory) {
  EXPECT_EQ(ksp::make_solver("fgmres")->name(), "fgmres");
}

// ---- structure-reuse value refresh --------------------------------------

TEST(ValueRefresh, SellCopyValuesFrom) {
  app::GrayScott gs(8);
  Vector u0;
  gs.initial_condition(u0);
  const mat::Csr jac0 = gs.rhs_jacobian(u0);
  mat::Sell sell(jac0);

  // advance the state; same pattern, different values
  Vector u1 = u0;
  for (Index i = 0; i < u1.size(); ++i) u1[i] *= 0.9;
  const mat::Csr jac1 = gs.rhs_jacobian(u1);
  sell.copy_values_from(jac1);

  // refreshed SELL must multiply like the new CSR
  Vector x(jac1.cols(), 1.0), y1, y2;
  jac1.spmv(x, y1);
  sell.spmv(x, y2);
  for (Index i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(ValueRefresh, SellRejectsPatternChange) {
  const mat::Csr a = testing::banded(20, {-1, 1}, 2);
  const mat::Csr b = testing::banded(20, {-2, 2}, 2);
  mat::Sell sell(a);
  EXPECT_THROW(sell.copy_values_from(b), Error);
}

TEST(ValueRefresh, CsrCopyValuesFrom) {
  const mat::Csr a = testing::banded(15, {-1, 1}, 5);
  mat::Csr b = a;
  mat::Csr a2 = testing::banded(15, {-1, 1}, 6);  // same pattern, new values
  b.copy_values_from(a2);
  for (Index i = 0; i < 15; ++i) {
    for (Index j : a2.row_cols(i)) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a2.at(i, j));
    }
  }
}

// ---- blocked BAIJ AVX2 kernel --------------------------------------------

TEST(BcsrAvx2, MatchesScalarKernelOnBlocks) {
  if (!simd::cpu_supports(simd::IsaTier::kAvx2)) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  app::GrayScott gs(10);
  Vector u;
  gs.initial_condition(u);
  const mat::Csr jac = gs.rhs_jacobian(u);
  mat::Bcsr scalar_b(jac, 2);
  scalar_b.set_tier(simd::IsaTier::kScalar);
  mat::Bcsr avx2_b(jac, 2);
  avx2_b.set_tier(simd::IsaTier::kAvx2);

  const auto x = testing::random_x(jac.cols(), 41);
  Vector xv(jac.cols());
  for (Index i = 0; i < xv.size(); ++i) {
    xv[i] = x[static_cast<std::size_t>(i)];
  }
  Vector y1, y2;
  scalar_b.spmv(xv, y1);
  avx2_b.spmv(xv, y2);
  for (Index i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(BcsrAvx2, GenericBlockSizesStillWork) {
  if (!simd::cpu_supports(simd::IsaTier::kAvx2)) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  const Index bs = 3;
  mat::Coo coo(bs * 5, bs * 5);
  Rng rng(8);
  for (Index i = 0; i < bs * 5; ++i) {
    coo.add(i, i, 2.0);
    coo.add(i, (i + bs) % (bs * 5), rng.uniform(-1.0, 1.0));
  }
  const mat::Csr csr = coo.to_csr();
  mat::Bcsr b(csr, bs);
  b.set_tier(simd::IsaTier::kAvx2);
  const auto x = testing::random_x(csr.cols(), 4);
  const auto expect = testing::dense_spmv(csr, x);
  Vector xv(csr.cols()), y;
  for (Index i = 0; i < xv.size(); ++i) {
    xv[i] = x[static_cast<std::size_t>(i)];
  }
  b.spmv(xv, y);
  for (Index i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], expect[static_cast<std::size_t>(i)], 1e-12);
  }
}

}  // namespace
}  // namespace kestrel
