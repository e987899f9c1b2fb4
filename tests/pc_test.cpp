// Preconditioner tests: Jacobi, block-Jacobi, SOR, ILU(0), factory.

#include <gtest/gtest.h>

#include "app/laplacian.hpp"
#include "ksp/context.hpp"
#include "mat/dense.hpp"
#include "pc/bjacobi.hpp"
#include "pc/ilu0.hpp"
#include "pc/jacobi.hpp"
#include "pc/sor.hpp"
#include "test_matrices.hpp"

namespace kestrel::pc {
namespace {

TEST(Jacobi, InvertsDiagonalExactly) {
  mat::Coo coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 4.0);
  coo.add(2, 2, -8.0);
  coo.add(0, 1, 100.0);  // off-diagonal ignored by Jacobi
  const mat::Csr a = coo.to_csr();
  const Jacobi pc(a);
  Vector r{2.0, 4.0, -8.0}, z;
  pc.apply(r, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 1.0);
  EXPECT_DOUBLE_EQ(z[2], 1.0);
}

TEST(Jacobi, DampedVariantScales) {
  mat::Coo coo(1, 1);
  coo.add(0, 0, 2.0);
  const mat::Csr a = coo.to_csr();
  const Jacobi pc(a, 0.5);
  Vector r{4.0}, z;
  pc.apply(r, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);  // 0.5 * 4 / 2
}

TEST(Jacobi, ZeroDiagonalRejected) {
  mat::Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);  // row 1 has no diagonal
  EXPECT_THROW(Jacobi pc(coo.to_csr()), Error);
}

TEST(BlockJacobi, ExactOnBlockDiagonalMatrix) {
  // block-diagonal 2x2 blocks: block-Jacobi IS the inverse
  mat::Coo coo(6, 6);
  Rng rng(3);
  for (Index ib = 0; ib < 3; ++ib) {
    coo.add(ib * 2, ib * 2, 3.0 + rng.next_double());
    coo.add(ib * 2, ib * 2 + 1, rng.uniform(-1.0, 1.0));
    coo.add(ib * 2 + 1, ib * 2, rng.uniform(-1.0, 1.0));
    coo.add(ib * 2 + 1, ib * 2 + 1, 3.0 + rng.next_double());
  }
  const mat::Csr a = coo.to_csr();
  const BlockJacobi pc(a, 2);

  const auto x = testing::random_x(6);
  Vector xv(6), b;
  for (Index i = 0; i < 6; ++i) xv[i] = x[static_cast<std::size_t>(i)];
  a.spmv(xv, b);
  Vector z;
  pc.apply(b, z);
  for (Index i = 0; i < 6; ++i) EXPECT_NEAR(z[i], xv[i], 1e-12);
}

TEST(BlockJacobi, StrongerThanPointJacobiOnCoupledBlocks) {
  // 2x2 blocks with strong intra-block coupling: bjacobi should beat
  // jacobi as a CG preconditioner.
  mat::Coo coo(40, 40);
  for (Index ib = 0; ib < 20; ++ib) {
    coo.add(ib * 2, ib * 2, 4.0);
    coo.add(ib * 2 + 1, ib * 2 + 1, 4.0);
    coo.add(ib * 2, ib * 2 + 1, 1.9);
    coo.add(ib * 2 + 1, ib * 2, 1.9);
    if (ib > 0) {
      coo.add(ib * 2, ib * 2 - 2, -0.4);
      coo.add(ib * 2 - 2, ib * 2, -0.4);
    }
  }
  const mat::Csr a = coo.to_csr();
  const Vector b(40, 1.0);

  ksp::Settings settings;
  settings.rtol = 1e-10;
  const ksp::Cg cg(settings);

  Vector x1(40);
  const Jacobi jac(a);
  ksp::SeqContext c1(a, &jac);
  const auto r1 = cg.solve(c1, b, x1);

  Vector x2(40);
  const BlockJacobi bjac(a, 2);
  ksp::SeqContext c2(a, &bjac);
  const auto r2 = cg.solve(c2, b, x2);

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LE(r2.iterations, r1.iterations);
}

TEST(BlockJacobi, SingularBlockRejected) {
  mat::Coo coo(2, 2);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 0.0);
  // block [[0,1],[0,0]] is singular
  EXPECT_THROW(BlockJacobi(coo.to_csr(), 2), Error);
}

TEST(Sor, OneSweepReducesResidual) {
  const mat::Csr a = app::laplacian_dirichlet(10, 10);
  const Sor pc(a, 1.2);
  Vector r(a.rows(), 1.0), z;
  pc.apply(r, z);
  // residual of the preconditioned correction: || r - A z || < || r ||
  Vector az;
  a.spmv(z, az);
  az.aypx(-1.0, r);
  EXPECT_LT(az.norm2(), r.norm2());
}

TEST(Sor, InvalidOmegaRejected) {
  const mat::Csr a = app::laplacian_dirichlet(4, 4);
  EXPECT_THROW(Sor(a, 0.0), Error);
  EXPECT_THROW(Sor(a, 2.0), Error);
}

TEST(Ilu0, ExactForLowerTriangularMatrix) {
  // For a triangular matrix ILU(0) is an exact factorization.
  mat::Coo coo(5, 5);
  for (Index i = 0; i < 5; ++i) {
    coo.add(i, i, 2.0 + i);
    if (i > 0) coo.add(i, i - 1, -1.0);
  }
  const mat::Csr a = coo.to_csr();
  const Ilu0 pc(a);
  const auto x = testing::random_x(5);
  Vector xv(5), b, z;
  for (Index i = 0; i < 5; ++i) xv[i] = x[static_cast<std::size_t>(i)];
  a.spmv(xv, b);
  pc.apply(b, z);
  for (Index i = 0; i < 5; ++i) EXPECT_NEAR(z[i], xv[i], 1e-12);
}

TEST(Ilu0, ExactWhenNoFillWouldOccur) {
  // Tridiagonal matrices have no fill-in: ILU(0) == LU, so the apply is a
  // direct solve.
  const mat::Csr a = testing::banded(30, {-1, 1}, 6);
  const Ilu0 pc(a);
  const auto x = testing::random_x(30);
  Vector xv(30), b, z;
  for (Index i = 0; i < 30; ++i) xv[i] = x[static_cast<std::size_t>(i)];
  a.spmv(xv, b);
  pc.apply(b, z);
  for (Index i = 0; i < 30; ++i) EXPECT_NEAR(z[i], xv[i], 1e-10);
}

TEST(Ilu0, AcceleratesGmresOnLaplacian) {
  const mat::Csr a = app::laplacian_dirichlet(24, 24);
  const Vector b(a.rows(), 1.0);
  ksp::Settings settings;
  settings.rtol = 1e-8;
  const ksp::Gmres gmres(settings);

  Vector x0(a.rows());
  ksp::SeqContext plain(a);
  const auto r0 = gmres.solve(plain, b, x0);

  Vector x1(a.rows());
  const Ilu0 ilu(a);
  ksp::SeqContext pre(a, &ilu);
  const auto r1 = gmres.solve(pre, b, x1);

  ASSERT_TRUE(r0.converged);
  ASSERT_TRUE(r1.converged);
  EXPECT_LT(r1.iterations, r0.iterations * 7 / 10);
}

TEST(Ilu0, MissingDiagonalRejected) {
  mat::Coo coo(2, 2);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);  // no diagonal entries at all
  EXPECT_THROW(Ilu0 pc(coo.to_csr()), Error);
}

TEST(Factory, MakesAllSimpleTypes) {
  const mat::Csr a = app::laplacian_dirichlet(6, 6);
  EXPECT_EQ(make_pc("none", a, 1)->name(), "none");
  EXPECT_EQ(make_pc("jacobi", a, 1)->name(), "jacobi");
  EXPECT_EQ(make_pc("bjacobi", a, 1)->name(), "bjacobi");
  EXPECT_EQ(make_pc("sor", a, 1)->name(), "sor");
  EXPECT_EQ(make_pc("ilu", a, 1)->name(), "ilu");
  EXPECT_THROW(make_pc("ilu-level", a, 1), Error);  // Ilu0 is the one ILU(0)
  EXPECT_THROW(make_pc("voodoo", a, 1), Error);
}

}  // namespace
}  // namespace kestrel::pc
