// Kestrel Slipstream acceptance tests: the persistent-channel ghost
// exchange must match a serial oracle bit for bit over a long evolving run,
// and its steady state must touch the fabric without a single heap
// allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "base/error.hpp"
#include "par/parmat.hpp"
#include "test_matrices.hpp"

namespace kestrel::par {
namespace {

/// Ghost-heavy operator: the band reaches 12 columns past each 12-row rank
/// block, so every rank exchanges with both neighbors every iteration.
mat::Csr stress_matrix() {
  return testing::banded(96, {-12, -3, -1, 1, 3, 12});
}

/// One power-method step as rank 0 saw it: the gathered x that went into
/// the multiply and the gathered y that came out.
struct Step {
  Vector x;
  Vector y;
};

/// Runs `iters` power-method-style iterations (y = A x; x = y / max|y|) at
/// the scalar ISA tier over `layout` and returns every iteration's gathered
/// x and y. The evolution is computed from the gathered vector, so a wrong
/// ghost value in one iteration also changes every later one.
std::vector<Step> run_history(const mat::Csr& global, LayoutPtr layout,
                              int iters) {
  std::vector<Step> history(static_cast<std::size_t>(iters));
  const auto x0 = [](Index g) { return 1.0 + 1e-3 * static_cast<Scalar>(g); };
  Fabric::run(layout->nranks(), [&](Comm& comm) {
    ParMatrixOptions opts;
    opts.tier = simd::IsaTier::kScalar;
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, opts);
    ParVector x(layout, comm.rank()), y(layout, comm.rank());
    for (Index i = 0; i < x.local_size(); ++i) {
      x.local()[i] = x0(x.own_begin() + i);
    }
    Vector x_full(global.rows());  // rank 0's copy of the whole x
    for (Index g = 0; g < x_full.size(); ++g) x_full[g] = x0(g);
    for (int it = 0; it < iters; ++it) {
      a.spmv(x, y, comm);
      const Vector full = y.gather_all(comm);
      Scalar norm = 0.0;  // same on every rank: computed from `full`
      for (Index i = 0; i < full.size(); ++i) {
        norm = std::max(norm, std::abs(full[i]));
      }
      if (comm.rank() == 0) {
        Step& step = history[static_cast<std::size_t>(it)];
        step.x = x_full;
        step.y = full;
        for (Index g = 0; g < full.size(); ++g) x_full[g] = full[g] / norm;
      }
      for (Index i = 0; i < x.local_size(); ++i) {
        x.local()[i] = full[x.own_begin() + i] / norm;
      }
    }
  });
  return history;
}

/// The serial oracle, computed on one thread: each row sums its owned
/// columns in column order, then its ghost columns in column order, and
/// adds the ghost sum when the row has ghost columns. That is what the
/// scalar CSR kernel (diagonal block) and kCsrSpmvAddRows (compressed
/// off-diagonal block) compute on the owning rank.
Vector serial_oracle(const mat::Csr& a, const Layout& layout,
                     const Vector& x) {
  Vector y(a.rows());
  for (int r = 0; r < layout.nranks(); ++r) {
    for (Index i = layout.begin(r); i < layout.end(r); ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      Scalar owned = 0.0, ghost = 0.0;
      bool has_ghost = false;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const Scalar term = vals[k] * x[cols[k]];
        if (cols[k] >= layout.begin(r) && cols[k] < layout.end(r)) {
          owned += term;
        } else {
          ghost += term;
          has_ghost = true;
        }
      }
      y[i] = has_ghost ? owned + ghost : owned;
    }
  }
  return y;
}

TEST(ParMatrixPersistent, BitwiseIdenticalToSerialOracleOver100Iterations) {
  const mat::Csr global = stress_matrix();
  const int iters = 100;
  // 8 even blocks of 12 rows, and 3 uneven blocks of 40, 25 and 31 rows,
  // where rank 0's first 28 rows have no ghost columns.
  const LayoutPtr layouts[] = {
      std::make_shared<Layout>(Layout::even(global.rows(), 8)),
      std::make_shared<Layout>(Layout::from_sizes({40, 25, 31}))};
  for (const auto& layout : layouts) {
    const std::vector<Step> history = run_history(global, layout, iters);
    for (std::size_t it = 0; it < history.size(); ++it) {
      const Vector& got = history[it].y;
      const Vector want = serial_oracle(global, *layout, history[it].x);
      ASSERT_EQ(got.size(), want.size()) << "iteration " << it;
      // bitwise, not EXPECT_DOUBLE_EQ: the oracle adds the same products
      // in the same order, so even the representation must match
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(got.size()) *
                                sizeof(Scalar)),
                0)
          << layout->nranks() << " ranks: diverged from the serial oracle "
          << "at iteration " << it;
    }
  }
}

TEST(ParMatrixPersistent, SteadyStateMakesZeroFabricAllocations) {
  const mat::Csr global = stress_matrix();
  auto layout = std::make_shared<Layout>(Layout::even(global.rows(), 8));
  Fabric::run(8, [&](Comm& comm) {
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, {});
    ParVector x(layout, comm.rank()), y(layout, comm.rank());
    for (Index i = 0; i < x.local_size(); ++i) x.local()[i] = 1.0;
    // warmup: opens the persistent channels (lazy, collective) and settles
    // the pack buffers
    for (int it = 0; it < 3; ++it) a.spmv(x, y, comm);
    comm.barrier();

    // Counted window: spmv only, no collectives — every mailbox counter
    // must stay frozen while the ghost exchange keeps flowing.
    const FabricStats before = comm.stats();
    constexpr int kIters = 50;
    for (int it = 0; it < kIters; ++it) a.spmv(x, y, comm);
    const FabricStats after = comm.stats();

    EXPECT_EQ(after.mailbox_allocs, before.mailbox_allocs)
        << "rank " << comm.rank()
        << " allocated fabric payloads in steady state";
    EXPECT_EQ(after.mailbox_msgs, before.mailbox_msgs);
    // every neighbor channel fired every iteration (edge ranks have one
    // neighbor, interior ranks two), one copy per message
    const bool edge = comm.rank() == 0 || comm.rank() == comm.size() - 1;
    const auto expected = static_cast<std::uint64_t>((edge ? 1 : 2) * kIters);
    EXPECT_EQ(after.channel_sends - before.channel_sends, expected);
    EXPECT_EQ(after.payload_copies - before.payload_copies, expected);
  });
}

TEST(ParMatrixPersistent, CopiedMatrixReopensItsOwnChannels) {
  // A copied ParMatrix owns a different ghost_ buffer; its first spmv must
  // open fresh channels instead of delivering into the original's slices.
  const mat::Csr global = stress_matrix();
  auto layout = std::make_shared<Layout>(Layout::even(global.rows(), 4));
  Fabric::run(4, [&](Comm& comm) {
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, {});
    ParVector x(layout, comm.rank()), y(layout, comm.rank());
    for (Index i = 0; i < x.local_size(); ++i) {
      x.local()[i] = 0.5 + 0.01 * static_cast<Scalar>(i);
    }
    a.spmv(x, y, comm);
    const Vector direct = y.gather_all(comm);

    const ParMatrix b = a;  // copy after a's channels exist
    a.spmv(x, y, comm);     // keep a's channels hot
    b.spmv(x, y, comm);     // must not write into a's ghost buffer
    const Vector copied = y.gather_all(comm);
    for (Index i = 0; i < direct.size(); ++i) {
      EXPECT_DOUBLE_EQ(copied[i], direct[i]) << "row " << i;
    }

    // The original dies before the copy's first spmv. The copy holds none
    // of the original's channels, so they close and drain with the
    // original, before its ghost buffer is freed.
    auto original = std::make_unique<ParMatrix>(a);
    original->spmv(x, y, comm);
    const ParMatrix orphan = *original;
    original.reset();
    orphan.spmv(x, y, comm);
    const Vector orphaned = y.gather_all(comm);
    for (Index i = 0; i < direct.size(); ++i) {
      EXPECT_DOUBLE_EQ(orphaned[i], direct[i]) << "row " << i;
    }
  });
}

TEST(ParMatrixPersistent, PersistentGhostsFalseIsRejected) {
  // The persistent channels are the only ghost transport; asking for the
  // deleted mailbox transport fails at construction on every rank.
  const mat::Csr global = stress_matrix();
  auto layout = std::make_shared<Layout>(Layout::even(global.rows(), 3));
  ParMatrixOptions opts;
  opts.persistent_ghosts = false;
  EXPECT_THROW(Fabric::run(3,
                           [&](Comm& comm) {
                             (void)ParMatrix::from_global(global, layout,
                                                          comm, opts);
                           }),
               Error);
}

}  // namespace
}  // namespace kestrel::par
