// Randomized fabric stress (Kestrel Sentry): 8 ranks run hundreds of slot
// collectives of random shape and size with random local work between
// them, and a second battery injects exceptions mid-exchange to exercise
// abort_all under load. Runs in the TSan suite (ctest -L tsan) and, 50
// times shuffled, in the sanitizer builds' stress gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "par/comm.hpp"

namespace kestrel::par {
namespace {

constexpr int kRanks = 8;

FabricOptions checked() {
  FabricOptions opts;
  opts.check = true;
  opts.hang_timeout_s = 60.0;  // generous: TSan slows the fabric a lot
  return opts;
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1],
              v[static_cast<std::size_t>(rng.next_index(
                  static_cast<Index>(i)))]);
  }
}

TEST(FabricStress, ExceptionInjectionUnblocksEveryRank) {
  // Inject a failure at rank `victim` after a partial exchange; every other
  // rank is blocked on channel receives that will never complete and must
  // be woken by abort_all. The root-cause message must survive the pile-up
  // of secondary "fabric aborted" errors.
  for (int victim : {0, 3, 7}) {
    try {
      Fabric::run(kRanks, checked(), [victim](Comm& comm) {
        const int me = comm.rank();
        Rng rng(static_cast<std::uint64_t>(17 * victim + me));
        std::vector<Scalar> ghost(kRanks, 0.0);
        std::vector<GhostSendSpec> sends;
        std::vector<GhostRecvSpec> recvs;
        for (int p = 0; p < kRanks; ++p) {
          if (p == me) continue;
          sends.push_back({p, 1});
          recvs.push_back({p, &ghost[static_cast<std::size_t>(p)], 1});
        }
        auto ex = comm.open_exchange(sends, recvs);
        ex->arm();
        // Everyone sends to a shuffled half of the peers...
        std::vector<int> order(sends.size());
        std::iota(order.begin(), order.end(), 0);
        shuffle(order, rng);
        const Scalar one = 1.0;
        for (std::size_t k = 0; k < order.size() / 2; ++k) {
          ex->send(order[k], &one, 1);
        }
        if (me == victim) {
          KESTREL_FAIL("injected failure at rank " +
                       std::to_string(victim));
        }
        // ...then waits on every peer, including messages no one sends.
        ex->wait_all();
      });
      FAIL() << "expected the injected failure to propagate";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("injected failure at rank " +
                                           std::to_string(victim)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FabricStress, CollectiveBurstStaysOrdered) {
  Fabric::run(kRanks, checked(), [](Comm& comm) {
    Rng rng(static_cast<std::uint64_t>(5 + comm.rank()));
    for (int round = 0; round < 24; ++round) {
      // All ranks derive the same op from the round number, so the
      // sequence is collectively consistent but locally unpredictable.
      switch (round % 3) {
        case 0:
          EXPECT_DOUBLE_EQ(
              comm.allreduce(static_cast<Scalar>(round), Comm::ReduceOp::kMax),
              static_cast<Scalar>(round));
          break;
        case 1:
          comm.barrier();
          break;
        default: {
          const auto all =
              comm.allgatherv(std::vector<Scalar>{Scalar(comm.rank())});
          ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
          EXPECT_DOUBLE_EQ(all[3], 3.0);
          break;
        }
      }
      // Unsynchronized local work of random size between collectives.
      volatile Scalar sink = 0;
      const Index spin = rng.next_index(512);
      for (Index i = 0; i < spin; ++i) sink = sink + 1.0;
    }
  });
}

/// Rank r's contribution to gather `round`: its length comes from a
/// generator every rank seeds alike, so each rank knows every length. A
/// quarter of the contributions are empty and every 25th round is empty on
/// every rank.
std::vector<std::size_t> gather_lengths(int round) {
  Rng shared(static_cast<std::uint64_t>(4099 * round + 3));
  std::vector<std::size_t> len(kRanks, 0);
  if (round % 25 == 7) return len;
  for (std::size_t& n : len) {
    n = shared.next_index(4) == 0
            ? 0
            : static_cast<std::size_t>(shared.next_index(48));
  }
  return len;
}

template <class T>
T gather_element(int rank, int round, std::size_t k) {
  return static_cast<T>(rank * 1000000 + round * 1000 + static_cast<int>(k));
}

template <class T>
void check_gather(Comm& comm, int round) {
  const std::vector<std::size_t> len = gather_lengths(round);
  std::vector<T> mine(len[static_cast<std::size_t>(comm.rank())]);
  for (std::size_t k = 0; k < mine.size(); ++k) {
    mine[k] = gather_element<T>(comm.rank(), round, k);
  }
  const std::vector<T> all = comm.allgatherv(mine);
  std::size_t at = 0;
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t k = 0; k < len[static_cast<std::size_t>(r)]; ++k) {
      ASSERT_LT(at, all.size()) << "round " << round;
      ASSERT_EQ(all[at], gather_element<T>(r, round, k))
          << "round " << round << ", rank " << r << ", element " << k;
      ++at;
    }
  }
  EXPECT_EQ(at, all.size()) << "round " << round;
}

TEST(FabricStress, AllgathervOfVaryingSizesKeepsEveryElement) {
  // Rank 0 concatenates into one buffer the Fabric owns and may rewrite it
  // only once every rank has arrived at the next round; ranks that copy
  // the result out late, and buffers that grow and shrink, would show a
  // wrong element. The checker stays off: its lock orders every entry and
  // would hide an early rewrite from TSan.
  FabricOptions opts;
  opts.check = false;
  Fabric::run(kRanks, opts, [](Comm& comm) {
    Rng work(static_cast<std::uint64_t>(31 + comm.rank()));
    for (int round = 0; round < 200; ++round) {
      if (round % 2 == 0) {
        check_gather<Scalar>(comm, round);
      } else {
        check_gather<Index>(comm, round);
      }
      if (round % 3 == 0) {
        EXPECT_DOUBLE_EQ(comm.allreduce(Scalar(comm.rank() + round)),
                         kRanks * (kRanks - 1) / 2.0 + kRanks * round);
      }
      if (round % 5 == 0) comm.barrier();
      // Unsynchronized local work, sometimes a yield, so arrival order and
      // the late copiers change from round to round.
      volatile Scalar sink = 0;
      const Index spin = work.next_index(1500);
      for (Index i = 0; i < spin; ++i) sink = sink + 1.0;
      if (work.next_index(3) == 0) std::this_thread::yield();
    }
  });
}

}  // namespace
}  // namespace kestrel::par
