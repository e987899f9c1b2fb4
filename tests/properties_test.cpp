// Property-based sweeps over randomized inputs: format conversions must
// round-trip, every solver must reproduce the dense direct solution on
// well-conditioned random systems, SpGEMM must be associative, and
// distributed BAIJ matrices must respect block-aligned layouts.

#include <gtest/gtest.h>

#include <cmath>

#include "app/gray_scott.hpp"
#include "ksp/context.hpp"
#include "mat/dense.hpp"
#include "mat/sell.hpp"
#include "mat/spgemm.hpp"
#include "mat/talon.hpp"
#include "par/parmat.hpp"
#include "pc/jacobi.hpp"
#include "simd/isa.hpp"
#include "test_matrices.hpp"

namespace kestrel {
namespace {

// ---- conversion round trips over a randomized parameter grid ------------

class ConversionSweep
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index>> {};

TEST_P(ConversionSweep, SellRoundTripsForAllConfigs) {
  const auto [n, slice_height, sigma] = GetParam();
  const mat::Csr csr = testing::power_law(n, 100 + n);
  mat::SellOptions opts;
  opts.slice_height = slice_height;
  opts.sigma = std::min<Index>(sigma, n);
  opts.build_bitmask = (n % 2 == 0);  // alternate variants
  const mat::Sell sell(csr, opts);
  const mat::Csr back = sell.to_csr();
  ASSERT_EQ(back.nnz(), csr.nnz());
  for (Index i = 0; i < n; ++i) {
    const auto c1 = csr.row_cols(i);
    const auto c2 = back.row_cols(i);
    ASSERT_EQ(c1.size(), c2.size());
    for (std::size_t k = 0; k < c1.size(); ++k) {
      EXPECT_EQ(c1[k], c2[k]);
      EXPECT_DOUBLE_EQ(csr.row_vals(i)[k], back.row_vals(i)[k]);
    }
  }
  // and SpMV through the SELL matches CSR
  const auto x = testing::random_x(n, 9);
  Vector xv(n), y1, y2;
  for (Index i = 0; i < n; ++i) xv[i] = x[static_cast<std::size_t>(i)];
  csr.spmv(xv, y1);
  sell.spmv(xv, y2);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConversionSweep,
    ::testing::Values(std::tuple<Index, Index, Index>{17, 8, 1},
                      std::tuple<Index, Index, Index>{64, 8, 16},
                      std::tuple<Index, Index, Index>{65, 4, 32},
                      std::tuple<Index, Index, Index>{100, 16, 1},
                      std::tuple<Index, Index, Index>{33, 3, 8},
                      std::tuple<Index, Index, Index>{128, 32, 64},
                      std::tuple<Index, Index, Index>{7, 8, 4}),
    [](const ::testing::TestParamInfo<std::tuple<Index, Index, Index>>& p) {
      return "n" + std::to_string(std::get<0>(p.param)) + "_c" +
             std::to_string(std::get<1>(p.param)) + "_s" +
             std::to_string(std::get<2>(p.param));
    });

// ---- Talon round trips and SpMV over the same parameter grid ------------

class TalonSweep : public ::testing::TestWithParam<std::tuple<Index, Index>> {
};

TEST_P(TalonSweep, RoundTripsAndMatchesCsrSpmv) {
  const auto [n, force_r] = GetParam();
  const mat::Csr csr = testing::power_law(n, 300 + n);
  mat::TalonOptions opts;
  opts.force_r = force_r;
  const mat::Talon talon(csr, opts);
  EXPECT_EQ(talon.nnz(), csr.nnz());
  const mat::Csr back = talon.to_csr();
  ASSERT_EQ(back.nnz(), csr.nnz());
  for (Index i = 0; i < n; ++i) {
    const auto c1 = csr.row_cols(i);
    const auto c2 = back.row_cols(i);
    ASSERT_EQ(c1.size(), c2.size());
    for (std::size_t k = 0; k < c1.size(); ++k) {
      EXPECT_EQ(c1[k], c2[k]);
      EXPECT_DOUBLE_EQ(csr.row_vals(i)[k], back.row_vals(i)[k]);
    }
  }
  const auto x = testing::random_x(n, 23);
  Vector xv(n), y1, y2;
  for (Index i = 0; i < n; ++i) xv[i] = x[static_cast<std::size_t>(i)];
  csr.spmv(xv, y1);
  talon.spmv(xv, y2);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TalonSweep,
    ::testing::Combine(::testing::Values<Index>(7, 17, 64, 65, 100),
                       ::testing::Values<Index>(0, 1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<Index, Index>>& p) {
      return "n" + std::to_string(std::get<0>(p.param)) + "_r" +
             std::to_string(std::get<1>(p.param));
    });

// ---- all Krylov solvers vs the dense direct solution --------------------

class SolverSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SolverSweep, MatchesDenseDirectSolve) {
  const std::string type = GetParam();
  const Index n = 40;
  // well-conditioned diagonally dominant nonsymmetric matrix; for CG use a
  // symmetrized SPD variant
  mat::Coo coo(n, n);
  Rng rng(1234);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 6.0 + rng.next_double());
    coo.add(i, (i + 1) % n, rng.uniform(-1.0, 1.0));
    coo.add(i, (i + 7) % n, rng.uniform(-1.0, 1.0));
  }
  mat::Csr a = coo.to_csr();
  if (type == "cg") {
    const mat::Csr at = a.transpose();
    a = mat::add(0.5, a, 0.5, at);
    a = mat::add(1.0, a, 3.0, mat::identity(n));  // push SPD
  }

  const auto x = testing::random_x(n, 55);
  Vector b(n);
  {
    Vector xv(n);
    for (Index i = 0; i < n; ++i) xv[i] = x[static_cast<std::size_t>(i)];
    a.spmv(xv, b);
  }

  // dense reference
  mat::Dense dense = mat::Dense::from_csr(a);
  dense.lu_factor();
  Vector x_direct(n);
  dense.lu_solve(b.data(), x_direct.data());

  Vector u(n);
  ksp::Settings settings;
  settings.rtol = 1e-12;
  settings.max_iterations = 5000;
  const auto solver = ksp::make_solver(type, settings);
  const pc::Jacobi jacobi(a);
  ksp::SeqContext ctx(a, &jacobi);
  const auto res = solver->solve(ctx, b, u);
  ASSERT_TRUE(res.converged) << type;
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(u[i], x_direct[i], 1e-7) << type << " entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, SolverSweep,
                         ::testing::Values("cg", "gmres", "fgmres",
                                           "bicgstab", "richardson"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           return std::string(p.param);
                         });

// ---- SpGEMM algebra -------------------------------------------------------

TEST(SpgemmProperties, AssociativityOnRandomTriples) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const mat::Csr a = testing::uniform_random(12, 9, 3, seed);
    const mat::Csr b = testing::uniform_random(9, 14, 3, seed + 10);
    const mat::Csr c = testing::uniform_random(14, 7, 3, seed + 20);
    const mat::Csr left = mat::spgemm(mat::spgemm(a, b), c);
    const mat::Csr right = mat::spgemm(a, mat::spgemm(b, c));
    ASSERT_EQ(left.rows(), right.rows());
    for (Index i = 0; i < left.rows(); ++i) {
      for (Index j = 0; j < left.cols(); ++j) {
        EXPECT_NEAR(left.at(i, j), right.at(i, j), 1e-11);
      }
    }
  }
}

TEST(SpgemmProperties, TransposeOfProduct) {
  // (A B)^T == B^T A^T
  const mat::Csr a = testing::uniform_random(10, 8, 3, 5);
  const mat::Csr b = testing::uniform_random(8, 11, 3, 6);
  const mat::Csr lhs = mat::spgemm(a, b).transpose();
  const mat::Csr rhs = mat::spgemm(b.transpose(), a.transpose());
  for (Index i = 0; i < lhs.rows(); ++i) {
    for (Index j = 0; j < lhs.cols(); ++j) {
      EXPECT_NEAR(lhs.at(i, j), rhs.at(i, j), 1e-12);
    }
  }
}

// ---- block-aligned distributed BAIJ ---------------------------------------

TEST(BlockedLayout, EvenBlockedRespectsBlockSize) {
  const par::Layout l = par::Layout::even_blocked(2 * 13, 3, 2);
  EXPECT_EQ(l.global_size(), 26);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(l.local_size(r) % 2, 0);
  EXPECT_THROW(par::Layout::even_blocked(7, 2, 2), Error);
}

TEST(BlockedLayout, DistributedBcsrGrayScott) {
  app::GrayScott gs(8);
  Vector u0;
  gs.initial_condition(u0);
  const mat::Csr global = gs.rhs_jacobian(u0);
  const auto x = testing::random_x(global.cols(), 19);
  Vector xg(global.cols());
  for (Index i = 0; i < xg.size(); ++i) {
    xg[i] = x[static_cast<std::size_t>(i)];
  }
  Vector y_seq;
  global.spmv(xg, y_seq);

  auto layout = std::make_shared<par::Layout>(
      par::Layout::even_blocked(global.rows(), 3, 2));
  par::Fabric::run(3, [&](par::Comm& comm) {
    par::ParMatrixOptions opts;
    opts.diag_format = par::DiagFormat::kBcsr;
    opts.block_size = 2;
    const par::ParMatrix a =
        par::ParMatrix::from_global(global, layout, comm, opts);
    EXPECT_EQ(a.diag_block().format_name(), "bcsr");
    par::ParVector xp(layout, comm.rank()), yp(layout, comm.rank());
    xp.set_from_global(xg);
    a.spmv(xp, yp, comm);
    const Vector y_par = yp.gather_all(comm);
    for (Index i = 0; i < y_seq.size(); ++i) {
      EXPECT_NEAR(y_par[i], y_seq[i], 1e-11);
    }
  });
}

// ---- distributed Talon across rank counts and ISA tiers -------------------

TEST(DistributedTalon, MatchesSequentialAcrossRankCountsAndTiers) {
  // Acceptance sweep: Talon as the diagonal block, beside the compressed
  // off-diagonal block, must reproduce the sequential CSR product at 1, 2,
  // and 8 ranks on every ISA tier the host supports (both blocks run at
  // that tier).
  app::GrayScott gs(8);
  Vector u0;
  gs.initial_condition(u0);
  const mat::Csr global = gs.rhs_jacobian(u0);
  const auto x = testing::random_x(global.cols(), 31);
  Vector xg(global.cols());
  for (Index i = 0; i < xg.size(); ++i) {
    xg[i] = x[static_cast<std::size_t>(i)];
  }
  Vector y_seq;
  global.spmv(xg, y_seq);

  const int best = static_cast<int>(simd::detect_best_tier());
  for (int nranks : {1, 2, 8}) {
    auto layout = std::make_shared<par::Layout>(
        par::Layout::even(global.rows(), nranks));
    for (int t = 0; t <= best; ++t) {
      const auto tier = static_cast<simd::IsaTier>(t);
      par::Fabric::run(nranks, [&](par::Comm& comm) {
        par::ParMatrixOptions opts;
        opts.diag_format = par::DiagFormat::kTalon;
        opts.tier = tier;
        const par::ParMatrix a =
            par::ParMatrix::from_global(global, layout, comm, opts);
        EXPECT_EQ(a.diag_block().format_name(), std::string("talon"));
        par::ParVector xp(layout, comm.rank()), yp(layout, comm.rank());
        xp.set_from_global(xg);
        a.spmv(xp, yp, comm);
        const Vector y_par = yp.gather_all(comm);
        for (Index i = 0; i < y_seq.size(); ++i) {
          EXPECT_NEAR(y_par[i], y_seq[i], 1e-11)
              << "rank count " << nranks << " tier " << simd::tier_name(tier);
        }
      });
    }
  }
}

TEST(DistributedTalon, AdversarialPatternsAcrossRanks) {
  // The patterns that historically break block formats, pushed through the
  // distributed path (uneven ghost traffic, empty local rows, edge blocks).
  for (const mat::Csr& global :
       {testing::with_empty_rows(64), testing::last_row_only_column(48),
        testing::straddling_boundaries(56)}) {
    const auto x = testing::random_x(global.cols(), 37);
    Vector xg(global.cols());
    for (Index i = 0; i < xg.size(); ++i) {
      xg[i] = x[static_cast<std::size_t>(i)];
    }
    Vector y_seq;
    global.spmv(xg, y_seq);
    for (int nranks : {2, 8}) {
      auto layout = std::make_shared<par::Layout>(
          par::Layout::even(global.rows(), nranks));
      par::Fabric::run(nranks, [&](par::Comm& comm) {
        par::ParMatrixOptions opts;
        opts.diag_format = par::DiagFormat::kTalon;
        const par::ParMatrix a =
            par::ParMatrix::from_global(global, layout, comm, opts);
        par::ParVector xp(layout, comm.rank()), yp(layout, comm.rank());
        xp.set_from_global(xg);
        a.spmv(xp, yp, comm);
        const Vector y_par = yp.gather_all(comm);
        for (Index i = 0; i < y_seq.size(); ++i) {
          EXPECT_NEAR(y_par[i], y_seq[i], 1e-11) << "ranks " << nranks;
        }
      });
    }
  }
}

}  // namespace
}  // namespace kestrel
