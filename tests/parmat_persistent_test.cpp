// Kestrel Slipstream acceptance tests: the persistent-channel ghost
// exchange must be bitwise indistinguishable from the seed mailbox
// transport over a long evolving run, and its steady state must touch the
// fabric without a single heap allocation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "par/parmat.hpp"
#include "test_matrices.hpp"

namespace kestrel::par {
namespace {

/// Ghost-heavy operator: the band reaches 12 columns past each 12-row rank
/// block, so every rank exchanges with both neighbors every iteration.
mat::Csr stress_matrix() {
  return testing::banded(96, {-12, -3, -1, 1, 3, 12});
}

/// Runs `iters` power-method-style iterations (y = A x; x = y / max|y|) on
/// `nranks` ranks and returns every iteration's gathered y. The evolution
/// is computed from the gathered vector, so any cross-transport divergence
/// — even one ulp in one iteration — compounds and is caught.
std::vector<Vector> run_history(const mat::Csr& global, int nranks,
                                int iters, bool persistent) {
  std::vector<Vector> history(static_cast<std::size_t>(iters));
  auto layout =
      std::make_shared<Layout>(Layout::even(global.rows(), nranks));
  Fabric::run(nranks, [&](Comm& comm) {
    ParMatrixOptions opts;
    opts.persistent_ghosts = persistent;
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, opts);
    ParVector x(layout, comm.rank()), y(layout, comm.rank());
    for (Index i = 0; i < x.local_size(); ++i) {
      x.local()[i] = 1.0 + 1e-3 * static_cast<Scalar>(x.own_begin() + i);
    }
    for (int it = 0; it < iters; ++it) {
      a.spmv(x, y, comm);
      const Vector full = y.gather_all(comm);
      if (comm.rank() == 0) {
        history[static_cast<std::size_t>(it)] = full;
      }
      Scalar norm = 0.0;  // same on every rank: computed from `full`
      for (Index i = 0; i < full.size(); ++i) {
        norm = std::max(norm, std::abs(full[i]));
      }
      for (Index i = 0; i < x.local_size(); ++i) {
        x.local()[i] = full[x.own_begin() + i] / norm;
      }
    }
  });
  return history;
}

TEST(ParMatrixPersistent, BitwiseIdenticalToMailboxOver100Iterations) {
  const mat::Csr global = stress_matrix();
  const int nranks = 8;
  const int iters = 100;
  const auto persistent = run_history(global, nranks, iters, true);
  const auto mailbox = run_history(global, nranks, iters, false);
  ASSERT_EQ(persistent.size(), mailbox.size());
  for (std::size_t it = 0; it < persistent.size(); ++it) {
    const Vector& p = persistent[it];
    const Vector& m = mailbox[it];
    ASSERT_EQ(p.size(), m.size()) << "iteration " << it;
    // bitwise, not EXPECT_DOUBLE_EQ: the transports move identical packed
    // bytes, so even the representation must match exactly
    EXPECT_EQ(std::memcmp(p.data(), m.data(),
                          static_cast<std::size_t>(p.size()) *
                              sizeof(Scalar)),
              0)
        << "transports diverged at iteration " << it;
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

TEST(ParMatrixPersistent, MailboxOptOutStillWorks) {
  const mat::Csr global = stress_matrix();
  auto layout = std::make_shared<Layout>(Layout::even(global.rows(), 3));
  Fabric::run(3, [&](Comm& comm) {
    ParMatrixOptions opts;
    opts.persistent_ghosts = false;
    const ParMatrix a = ParMatrix::from_global(global, layout, comm, opts);
    ParVector x(layout, comm.rank()), y(layout, comm.rank());
    for (Index i = 0; i < x.local_size(); ++i) x.local()[i] = 1.0;
    a.spmv(x, y, comm);
    const FabricStats& st = comm.stats();
    // the seed transport really was used: mailbox messages, no channels
    EXPECT_GT(st.mailbox_msgs, 0u);
    EXPECT_EQ(st.channel_sends, 0u);
  });
}

}  // namespace
}  // namespace kestrel::par
