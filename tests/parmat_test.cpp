// Distributed matrix/vector tests: the parallel overlapped SpMV of paper
// section 2.2 must agree with the sequential kernel for any rank count,
// row split and diagonal-block format.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "aegis/fault.hpp"
#include "app/gray_scott.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "par/parmat.hpp"
#include "test_matrices.hpp"

namespace kestrel::par {
namespace {

TEST(Layout, EvenSplit) {
  const Layout l = Layout::even(10, 3);
  EXPECT_EQ(l.global_size(), 10);
  EXPECT_EQ(l.local_size(0), 4);  // 10 % 3 extra goes to rank 0
  EXPECT_EQ(l.local_size(1), 3);
  EXPECT_EQ(l.local_size(2), 3);
  EXPECT_EQ(l.begin(1), 4);
  EXPECT_EQ(l.owner(0), 0);
  EXPECT_EQ(l.owner(4), 1);
  EXPECT_EQ(l.owner(9), 2);
  EXPECT_THROW(l.owner(10), Error);
}

TEST(Layout, FromSizes) {
  const Layout l = Layout::from_sizes({2, 0, 5});
  EXPECT_EQ(l.global_size(), 7);
  EXPECT_EQ(l.local_size(1), 0);
  EXPECT_EQ(l.begin(2), 2);
}

TEST(ParVector, GatherAllReassembles) {
  auto layout = std::make_shared<Layout>(Layout::even(11, 3));
  Fabric::run(3, [&](Comm& comm) {
    ParVector v(layout, comm.rank());
    for (Index i = 0; i < v.local_size(); ++i) {
      v.local()[i] = static_cast<Scalar>(v.own_begin() + i);
    }
    const Vector full = v.gather_all(comm);
    ASSERT_EQ(full.size(), 11);
    for (Index i = 0; i < 11; ++i) EXPECT_DOUBLE_EQ(full[i], i);
  });
}

TEST(ParVector, DotAndNormAreGlobal) {
  auto layout = std::make_shared<Layout>(Layout::even(8, 4));
  Fabric::run(4, [&](Comm& comm) {
    ParVector a(layout, comm.rank()), b(layout, comm.rank());
    for (Index i = 0; i < a.local_size(); ++i) {
      a.local()[i] = 1.0;
      b.local()[i] = 2.0;
    }
    EXPECT_DOUBLE_EQ(a.dot(b, comm), 16.0);
    EXPECT_DOUBLE_EQ(a.norm2(comm), std::sqrt(8.0));
  });
}

void check_parallel_spmv(const mat::Csr& global, int nranks,
                         ParMatrixOptions opts) {
  const auto x = testing::random_x(global.cols(), 77);
  Vector xg(global.cols());
  for (Index i = 0; i < global.cols(); ++i) {
    xg[i] = x[static_cast<std::size_t>(i)];
  }
  Vector y_seq;
  global.spmv(xg, y_seq);

  auto layout = std::make_shared<Layout>(Layout::even(global.rows(), nranks));
  Fabric::run(nranks, [&](Comm& comm) {
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, opts);
    ParVector xp(layout, comm.rank()), yp(layout, comm.rank());
    xp.set_from_global(xg);
    a.spmv(xp, yp, comm);
    const Vector y_par = yp.gather_all(comm);
    ASSERT_EQ(y_par.size(), y_seq.size());
    for (Index i = 0; i < y_seq.size(); ++i) {
      EXPECT_NEAR(y_par[i], y_seq[i], 1e-11) << "row " << i;
    }
  });
}

class ParSpmv : public ::testing::TestWithParam<int> {};

TEST_P(ParSpmv, CsrDiagMatchesSequential) {
  check_parallel_spmv(testing::banded(53, {-5, -1, 1, 5}), GetParam(), {});
}

TEST_P(ParSpmv, SellDiagMatchesSequential) {
  ParMatrixOptions opts;
  opts.diag_format = DiagFormat::kSell;
  check_parallel_spmv(testing::banded(53, {-5, -1, 1, 5}), GetParam(), opts);
}

TEST_P(ParSpmv, CsrPermDiagMatchesSequential) {
  ParMatrixOptions opts;
  opts.diag_format = DiagFormat::kCsrPerm;
  check_parallel_spmv(testing::power_law(60), GetParam(), opts);
}

TEST_P(ParSpmv, RandomMatrixMatchesSequential) {
  check_parallel_spmv(testing::uniform_random(47, 47, 5), GetParam(), {});
}

TEST_P(ParSpmv, GrayScottJacobianMatchesSequential) {
  app::GrayScott gs(8);
  Vector u;
  gs.initial_condition(u);
  ParMatrixOptions opts;
  opts.diag_format = DiagFormat::kSell;
  check_parallel_spmv(gs.rhs_jacobian(u), GetParam(), opts);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParSpmv, ::testing::Values(1, 2, 3, 5, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "ranks" + std::to_string(pinfo.param);
                         });

TEST(ParMatrix, SplitsDiagAndOffdiag) {
  const mat::Csr global = testing::banded(20, {-6, 6});
  auto layout = std::make_shared<Layout>(Layout::even(20, 2));
  Fabric::run(2, [&](Comm& comm) {
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, {});
    EXPECT_EQ(a.local_rows(), 10);
    // total nnz conserved across the split
    const std::int64_t total =
        comm.allreduce(a.local_nnz(), Comm::ReduceOp::kSum);
    EXPECT_EQ(total, global.nnz());
    // the band reaches 6 columns across the midline: ghosts needed
    EXPECT_GT(a.num_ghosts(), 0);
    EXPECT_LE(a.num_ghosts(), 6);
    // compressed off-diagonal block: far fewer rows than the local block
    EXPECT_LT(a.offdiag_block().rows(), a.local_rows());
  });
}

TEST(ParMatrix, BlockDiagonalMatrixNeedsNoCommunication) {
  // purely block-diagonal by the layout: off-diag blocks empty
  mat::Coo coo(12, 12);
  for (Index i = 0; i < 12; ++i) coo.add(i, (i / 4) * 4 + (i + 1) % 4, 1.0);
  const mat::Csr global = coo.to_csr();
  auto layout = std::make_shared<Layout>(Layout::even(12, 3));
  Fabric::run(3, [&](Comm& comm) {
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, {});
    EXPECT_EQ(a.num_ghosts(), 0);
    EXPECT_EQ(a.offdiag_block().nnz(), 0);
  });
}

TEST(ParMatrix, ToleratesRankWithZeroRows) {
  // a custom layout where one rank owns nothing must still work
  const mat::Csr global = testing::banded(14, {-2, 2});
  auto layout =
      std::make_shared<Layout>(Layout::from_sizes({7, 0, 7}));
  const auto x = testing::random_x(14, 5);
  Vector xg(14);
  for (Index i = 0; i < 14; ++i) xg[i] = x[static_cast<std::size_t>(i)];
  Vector y_seq;
  global.spmv(xg, y_seq);
  Fabric::run(3, [&](Comm& comm) {
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, {});
    ParVector xp(layout, comm.rank()), yp(layout, comm.rank());
    xp.set_from_global(xg);
    a.spmv(xp, yp, comm);
    const Vector y_par = yp.gather_all(comm);
    for (Index i = 0; i < 14; ++i) EXPECT_NEAR(y_par[i], y_seq[i], 1e-12);
  });
}

TEST(ParMatrix, UnevenCustomLayout) {
  const mat::Csr global = testing::uniform_random(30, 30, 4, 91);
  auto layout =
      std::make_shared<Layout>(Layout::from_sizes({1, 12, 3, 14}));
  const auto x = testing::random_x(30, 6);
  Vector xg(30);
  for (Index i = 0; i < 30; ++i) xg[i] = x[static_cast<std::size_t>(i)];
  Vector y_seq;
  global.spmv(xg, y_seq);
  Fabric::run(4, [&](Comm& comm) {
    ParMatrixOptions opts;
    opts.diag_format = DiagFormat::kSell;
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, opts);
    ParVector xp(layout, comm.rank()), yp(layout, comm.rank());
    xp.set_from_global(xg);
    a.spmv(xp, yp, comm);
    const Vector y_par = yp.gather_all(comm);
    for (Index i = 0; i < 30; ++i) EXPECT_NEAR(y_par[i], y_seq[i], 1e-11);
  });
}

TEST(ParMatrix, RepeatedSpmvIsStable) {
  const mat::Csr global = testing::banded(31, {-2, 2});
  auto layout = std::make_shared<Layout>(Layout::even(31, 3));
  Fabric::run(3, [&](Comm& comm) {
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, {});
    ParVector x(layout, comm.rank()), y(layout, comm.rank());
    for (Index i = 0; i < x.local_size(); ++i) x.local()[i] = 1.0;
    a.spmv(x, y, comm);
    const Vector first = y.gather_all(comm);
    for (int rep = 0; rep < 5; ++rep) a.spmv(x, y, comm);
    const Vector last = y.gather_all(comm);
    for (Index i = 0; i < first.size(); ++i) {
      EXPECT_DOUBLE_EQ(first[i], last[i]);
    }
  });
}

TEST(ParMatrix, AbftRecomputesOnceThenEscalatesOnACorruptedBlock) {
  // Rank 1's diagonal block is corrupted after its column checksums were
  // fixed: its check fails, its one local recompute fails again, and its
  // AbftError reaches Fabric::run, while rank 0's check passes. Each rank
  // holds 8192 rows and 4100 ghosts, above par::kPoolElemCutoff, so at 4
  // threads every reduction of the check runs in chunks. The drift bits
  // are recorded as test properties (--gtest_output=xml).
  const mat::Csr global = testing::banded(16384, {-4100, -1, 1, 4100});
  auto layout = std::make_shared<Layout>(Layout::even(16384, 2));
  for (const int threads : {1, 4}) {
    const std::string saved = Options::global().get_string("threads", "");
    Options::global().set("threads", std::to_string(threads));
    aegis::stats().reset();
    try {
      Fabric::run(2, [&](Comm& comm) {
        ParMatrixOptions opts;
        opts.abft = true;
        opts.threads = threads;
        const ParMatrix a = ParMatrix::from_global(global, layout, comm, opts);
        if (comm.rank() == 1) {
          // The block is built non-const; only its accessor is const.
          auto& diag = const_cast<mat::Csr&>(
              dynamic_cast<const mat::Csr&>(a.diag_block()));
          diag.mutable_val()[0] += 1000.0;
        }
        ParVector x(layout, comm.rank()), y(layout, comm.rank());
        for (Index i = 0; i < x.local_size(); ++i) {
          x.local()[i] = 1.0 + 1e-3 * static_cast<Scalar>(x.own_begin() + i);
        }
        std::exception_ptr error;
        try {
          a.spmv(x, y, comm);
        } catch (...) {
          error = std::current_exception();
        }
        // Rank 0's check has finished before rank 1's error ends the run.
        comm.barrier();
        if (error) std::rethrow_exception(error);
      });
      ADD_FAILURE() << "expected AbftError at " << threads << " threads";
    } catch (const AbftError& e) {
      EXPECT_EQ(e.format(), "parmat(csr)");
      EXPECT_GT(e.drift(), 1.0);
      char bits[40];
      std::snprintf(bits, sizeof(bits), "%a", e.drift());
      RecordProperty("drift_threads" + std::to_string(threads), bits);
    }
    Options::global().set("threads", saved.empty() ? "1" : saved);
    EXPECT_EQ(aegis::stats().abft_failures.load(), 1u) << threads;
    EXPECT_EQ(aegis::stats().abft_retries.load(), 1u) << threads;
    EXPECT_EQ(aegis::stats().abft_verifications.load(), 3u) << threads;
    EXPECT_EQ(aegis::stats().recoveries.load(), 0u) << threads;
  }
  aegis::stats().reset();
}

}  // namespace
}  // namespace kestrel::par
