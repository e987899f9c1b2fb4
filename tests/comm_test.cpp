// Message-passing fabric tests: persistent channels, the collective slot,
// failure propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "par/comm.hpp"

namespace kestrel::par {
namespace {

TEST(Fabric, SingleRankRunsInline) {
  int calls = 0;
  Fabric::run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Fabric, AllreduceSumMaxMin) {
  for (int nranks : {1, 2, 5}) {
    Fabric::run(nranks, [nranks](Comm& comm) {
      const Scalar mine = comm.rank() + 1.0;
      EXPECT_DOUBLE_EQ(comm.allreduce(mine, Comm::ReduceOp::kSum),
                       nranks * (nranks + 1) / 2.0);
      EXPECT_DOUBLE_EQ(comm.allreduce(mine, Comm::ReduceOp::kMax),
                       static_cast<Scalar>(nranks));
      EXPECT_DOUBLE_EQ(comm.allreduce(mine, Comm::ReduceOp::kMin), 1.0);
    });
  }
}

TEST(Fabric, AllreduceInt64) {
  Fabric::run(4, [](Comm& comm) {
    const std::int64_t total =
        comm.allreduce(static_cast<std::int64_t>(1000000 + comm.rank()));
    EXPECT_EQ(total, 4000006);
  });
}

TEST(Fabric, SuccessiveAllreducesStayOrdered) {
  Fabric::run(3, [](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const Scalar sum =
          comm.allreduce(static_cast<Scalar>(round), Comm::ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(sum, 3.0 * round);
    }
  });
}

TEST(Fabric, AllgathervConcatenatesInRankOrder) {
  Fabric::run(3, [](Comm& comm) {
    std::vector<Scalar> local(static_cast<std::size_t>(comm.rank()) + 1,
                              static_cast<Scalar>(comm.rank()));
    const auto all = comm.allgatherv(local);
    ASSERT_EQ(all.size(), 6u);  // 1 + 2 + 3
    EXPECT_DOUBLE_EQ(all[0], 0.0);
    EXPECT_DOUBLE_EQ(all[1], 1.0);
    EXPECT_DOUBLE_EQ(all[2], 1.0);
    EXPECT_DOUBLE_EQ(all[5], 2.0);
  });
}

TEST(Fabric, BarrierCompletes) {
  std::atomic<int> counter{0};
  Fabric::run(4, [&](Comm& comm) {
    counter.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(counter.load(), 4);
  });
}

TEST(Fabric, RankExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(Fabric::run(3,
                           [](Comm& comm) {
                             if (comm.rank() == 1) {
                               KESTREL_FAIL("rank 1 exploded");
                             }
                             // other ranks block in a collective rank 1
                             // never enters; abort must wake them
                             (void)comm.allgatherv(std::vector<Scalar>{1.0});
                           }),
               Error);
}

TEST(Fabric, RootCauseExceptionIsRethrown) {
  try {
    Fabric::run(3, [](Comm& comm) {
      if (comm.rank() == 2) KESTREL_FAIL("root cause");
      comm.barrier();
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("root cause"), std::string::npos);
  }
}

TEST(Fabric, IndexAllgathervConcatenatesInRankOrder) {
  Fabric::run(3, [](Comm& comm) {
    const std::vector<Index> local(static_cast<std::size_t>(comm.rank()),
                                   static_cast<Index>(10 * comm.rank()));
    const auto all = comm.allgatherv(local);
    ASSERT_EQ(all.size(), 3u);  // 0 + 1 + 2
    EXPECT_EQ(all[0], 10);
    EXPECT_EQ(all[1], 20);
    EXPECT_EQ(all[2], 20);
  });
}

TEST(PersistentExchange, RoundTripDeliversInPlace) {
  Fabric::run(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<Scalar> ghost(3, -1.0);
    auto ex = comm.open_exchange({{peer, 3}}, {{peer, ghost.data(), 3}});
    for (int round = 1; round <= 4; ++round) {
      const std::vector<Scalar> packed = {
          10.0 * comm.rank() + round, 0.5, static_cast<Scalar>(round)};
      ex->arm();
      ex->send(0, packed.data(), 3);
      EXPECT_EQ(ex->wait_any(), 0);
      // delivered straight into the registered slice, no staging buffer
      EXPECT_DOUBLE_EQ(ghost[0], 10.0 * peer + round);
      EXPECT_DOUBLE_EQ(ghost[2], static_cast<Scalar>(round));
    }
  });
}

TEST(PersistentExchange, WaitAnyCompletesInArrivalOrder) {
  // Rank 0 receives from 1 and 2; rank 2's message is held back until rank
  // 0 has completed one receive, so channel 0 (from rank 1) must complete
  // first even though both were armed together.
  std::atomic<bool> release{false};
  Fabric::run(3, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Scalar> ghost(2, 0.0);
      auto ex = comm.open_exchange(
          {}, {{1, ghost.data(), 1}, {2, ghost.data() + 1, 1}});
      ex->arm();
      const int first = ex->wait_any();
      EXPECT_EQ(first, 0);          // rank 1 sent immediately
      release.store(true);          // release rank 2
      const int second = ex->wait_any();
      EXPECT_EQ(second, 1);
      EXPECT_DOUBLE_EQ(ghost[0], 1.0);
      EXPECT_DOUBLE_EQ(ghost[1], 2.0);
    } else if (comm.rank() == 1) {
      auto ex = comm.open_exchange({{0, 1}}, {});
      const Scalar v = 1.0;
      ex->send(0, &v, 1);
    } else {
      auto ex = comm.open_exchange({{0, 1}}, {});
      // wait until rank 0 drained channel 0
      while (!release.load()) std::this_thread::yield();
      const Scalar v = 2.0;
      ex->send(0, &v, 1);
    }
  });
}

TEST(PersistentExchange, SenderBlocksUntilReArm) {
  // Depth-1 backpressure: round k+1's send must not overwrite round k's
  // data before the receiver drained it, even when the sender sprints.
  Fabric::run(2, [](Comm& comm) {
    constexpr int kRounds = 50;
    if (comm.rank() == 0) {
      auto ex = comm.open_exchange({{1, 1}}, {});
      for (int round = 1; round <= kRounds; ++round) {
        const Scalar v = static_cast<Scalar>(round);
        ex->send(0, &v, 1);  // sprints ahead; parks when 1 round ahead
      }
    } else {
      Scalar slot = 0.0;
      auto ex = comm.open_exchange({}, {{0, &slot, 1}});
      for (int round = 1; round <= kRounds; ++round) {
        ex->arm();
        ex->wait_all();
        ASSERT_DOUBLE_EQ(slot, static_cast<Scalar>(round));
      }
    }
  });
}

TEST(PersistentExchange, StatsCountChannelTraffic) {
  Fabric::run(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<Scalar> ghost(4, 0.0);
    auto ex = comm.open_exchange({{peer, 4}}, {{peer, ghost.data(), 4}});
    const FabricStats before = comm.stats();
    const std::vector<Scalar> packed(4, 1.5);
    for (int round = 0; round < 10; ++round) {
      ex->arm();
      ex->send(0, packed.data(), 4);
      ex->wait_all();
    }
    const FabricStats& after = comm.stats();
    EXPECT_EQ(after.channel_sends - before.channel_sends, 10u);
    EXPECT_EQ(after.payload_copies - before.payload_copies, 10u);
    // the defining Slipstream property: zero mailbox allocations
    EXPECT_EQ(after.mailbox_allocs, before.mailbox_allocs);
    EXPECT_EQ(after.wait_any_calls - before.wait_any_calls, 10u);
  });
}

TEST(PersistentExchange, MismatchedSendCountThrows) {
  EXPECT_THROW(
      Fabric::run(2,
                  [](Comm& comm) {
                    const int peer = 1 - comm.rank();
                    std::vector<Scalar> ghost(3, 0.0);
                    auto ex = comm.open_exchange({{peer, 3}},
                                                 {{peer, ghost.data(), 3}});
                    ex->arm();
                    const std::vector<Scalar> wrong(2, 1.0);
                    ex->send(0, wrong.data(), 2);  // plan says 3
                    ex->wait_all();
                  }),
      Error);
}

TEST(PersistentExchange, InvalidSpecsRejected) {
  Fabric::run(2, [](Comm& comm) {
    std::vector<Scalar> ghost(1, 0.0);
    if (comm.rank() == 0) {
      EXPECT_THROW((void)comm.open_exchange({{5, 1}}, {}), Error);
      EXPECT_THROW((void)comm.open_exchange({}, {{1, nullptr, 1}}), Error);
      EXPECT_THROW((void)comm.open_exchange({}, {{1, ghost.data(), 0}}),
                   Error);
    }
    comm.barrier();
  });
}

TEST(PersistentExchange, AbortWakesParkedSenderAndWaiter) {
  // Rank 1 dies; rank 0 is blocked in wait_any on a channel that will never
  // be delivered and rank 2 is parked in send on a peer that will never
  // re-arm. Abort must wake both without deadlock.
  EXPECT_THROW(
      Fabric::run(3,
                  [](Comm& comm) {
                    if (comm.rank() == 0) {
                      Scalar slot = 0.0;
                      auto ex = comm.open_exchange({}, {{1, &slot, 1}});
                      ex->arm();
                      (void)ex->wait_any();
                    } else if (comm.rank() == 1) {
                      auto ex = comm.open_exchange({{0, 1}}, {});
                      (void)ex;
                      KESTREL_FAIL("rank 1 exploded");
                    } else {
                      // send channel to rank 0, who never opens/arms the
                      // matching receive endpoint: the send parks forever
                      auto ex = comm.open_exchange({{0, 1}}, {});
                      const Scalar v = 1.0;
                      ex->send(0, &v, 1);
                    }
                  }),
      Error);
}

TEST(Fabric, InvalidArgumentsRejected) {
  EXPECT_THROW(Fabric::run(0, [](Comm&) {}), Error);
  Fabric::run(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    Scalar slot = 0.0;
    auto ex = comm.open_exchange({{peer, 1}}, {{peer, &slot, 1}});
    const Scalar v = 1.0;
    EXPECT_THROW(ex->send(1, &v, 1), Error);   // there is no channel 1
    EXPECT_THROW(ex->send(-1, &v, 1), Error);
    EXPECT_THROW((void)ex->wait_any(), Error);  // never armed
    ex->arm();
    ex->send(0, &v, 1);
    EXPECT_EQ(ex->wait_any(), 0);
    EXPECT_THROW((void)ex->wait_any(), Error);  // the round is drained
  });
}

// --------------------------------------------------------------------------
// The collective slot behind allreduce, barrier and allgatherv.
// --------------------------------------------------------------------------

TEST(CollectiveSlot, AllocatesNothing) {
  Fabric::run(4, [](Comm& comm) {
    const FabricStats before = comm.stats();
    for (int round = 0; round < 1000; ++round) {
      if (round % 2 == 0) {
        EXPECT_DOUBLE_EQ(comm.allreduce(1.0), 4.0);
      } else {
        comm.barrier();
      }
    }
    const FabricStats& after = comm.stats();
    EXPECT_EQ(after.mailbox_allocs, before.mailbox_allocs);
    EXPECT_EQ(after.mailbox_msgs, before.mailbox_msgs);
    EXPECT_EQ(after.payload_copies, before.payload_copies);
  });
}

bool same_bits(Scalar a, Scalar b) {
  return std::memcmp(&a, &b, sizeof(Scalar)) == 0;
}

TEST(CollectiveSlot, SumsFoldInRankOrderBitForBit) {
  // 8 ranks on an oversubscribed fabric arrive in a different order every
  // round. Every rank knows every rank's value, so it can fold them in
  // rank order itself; magnitudes from 1e16 down to 1 make most other
  // orders round differently.
  constexpr int kRanks = 8;
  constexpr int kRounds = 400;
  std::atomic<int> order_sensitive{0};
  Fabric::run(kRanks, [&](Comm& comm) {
    Rng work(static_cast<std::uint64_t>(101 + comm.rank()));
    for (int round = 0; round < kRounds; ++round) {
      Rng shared(static_cast<std::uint64_t>(7919 * round + 1));
      constexpr Scalar kMagnitudes[] = {1e16, 1.0, 3.0, 0.5, 1e8, 7e15};
      std::array<Scalar, kRanks> v{};
      for (Scalar& x : v) {
        x = kMagnitudes[shared.next_index(6)] *
            (shared.next_index(2) == 0 ? 1.0 : -1.0);
      }
      const Scalar mine = v[static_cast<std::size_t>(comm.rank())];
      switch (round % 5) {
        case 0:
        case 1: {
          Scalar want = v[0];
          for (int r = 1; r < kRanks; ++r) want += v[r];
          const Scalar got = comm.allreduce(mine, Comm::ReduceOp::kSum);
          EXPECT_TRUE(same_bits(got, want))
              << "round " << round << ": " << got << " vs " << want;
          Scalar reversed = v[kRanks - 1];
          for (int r = kRanks - 2; r >= 0; --r) reversed += v[r];
          if (comm.rank() == 0 && !same_bits(reversed, want)) {
            order_sensitive.fetch_add(1);
          }
          break;
        }
        case 2:
          EXPECT_DOUBLE_EQ(comm.allreduce(mine, Comm::ReduceOp::kMax),
                           *std::max_element(v.begin(), v.end()));
          break;
        case 3:
          EXPECT_DOUBLE_EQ(comm.allreduce(mine, Comm::ReduceOp::kMin),
                           *std::min_element(v.begin(), v.end()));
          break;
        default:
          comm.barrier();
          break;
      }
      // Random local work, sometimes a yield, so arrival order shuffles.
      volatile Scalar sink = 0;
      const Index spin = work.next_index(2000);
      for (Index i = 0; i < spin; ++i) sink = sink + 1.0;
      if (work.next_index(4) == 0) std::this_thread::yield();
    }
  });
  // The values have teeth: folding them backwards changes the bits often.
  EXPECT_GT(order_sensitive.load(), kRounds / 10);
}

TEST(CollectiveSlot, ThrowWhileParkedUnwindsPeersWithRootCause) {
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  std::vector<std::atomic<int>> observed(kRanks);
  std::vector<std::atomic<std::uint64_t>> parks(kRanks);
  for (auto& o : observed) o.store(-1);
  try {
    Fabric::run(kRanks, [&](Comm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      if (comm.rank() == kVictim) {
        // Long enough for every peer to spin out and park.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        KESTREL_FAIL("rank 2 exploded");
      }
      try {
        (void)comm.allreduce(1.0);
      } catch (const RankFailure& e) {
        observed[me].store(e.failed_rank());
        parks[me].store(comm.stats().collective_parks);
        throw;
      }
    });
    FAIL() << "expected the victim's failure to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 exploded"),
              std::string::npos)
        << e.what();
  }
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    EXPECT_EQ(observed[static_cast<std::size_t>(r)].load(), kVictim)
        << "rank " << r;
    EXPECT_GE(parks[static_cast<std::size_t>(r)].load(), 1u) << "rank " << r;
  }
}

TEST(CollectiveSlot, KillInsideAllreduceSurfacesOnEveryRank) {
  // Rank 2 consults the plan once per collective, so its 5th consultation
  // is the entry of its 5th allreduce.
  constexpr int kRanks = 4;
  FabricOptions opts;
  opts.faults = aegis::FaultPlan::parse("kill=2@5");
  aegis::stats().reset();
  std::vector<std::atomic<int>> observed(kRanks);
  std::vector<std::atomic<int>> completed(kRanks);
  for (auto& o : observed) o.store(-1);
  EXPECT_THROW(Fabric::run(kRanks, opts,
                           [&](Comm& comm) {
                             const auto me =
                                 static_cast<std::size_t>(comm.rank());
                             try {
                               for (int k = 0; k < 10; ++k) {
                                 (void)comm.allreduce(Scalar(k));
                                 completed[me].fetch_add(1);
                               }
                             } catch (const RankFailure& e) {
                               observed[me].store(e.failed_rank());
                               throw;
                             }
                           }),
               RankFailure);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(observed[static_cast<std::size_t>(r)].load(), 2)
        << "rank " << r;
    EXPECT_EQ(completed[static_cast<std::size_t>(r)].load(), 4)
        << "rank " << r;
  }
  EXPECT_EQ(aegis::stats().rank_kills.load(), 1u);
}

TEST(CollectiveSlot, MessageFaultsAreRetransmittedAndCounted) {
  constexpr int kRanks = 4;
  FabricOptions opts;
  opts.faults = aegis::FaultPlan::parse(
      "seed=5,drop=0.15,delay=0.1,dup=0.1,reorder=0.1,bitflip=0.1");
  aegis::stats().reset();
  Fabric::run(kRanks, opts, [](Comm& comm) {
    for (int k = 0; k < 60; ++k) {
      const Scalar got = comm.allreduce(Scalar(k + comm.rank()));
      EXPECT_DOUBLE_EQ(got, 4.0 * k + 6.0);
    }
    comm.barrier();
  });
  const aegis::AegisStats& st = aegis::stats();
  EXPECT_GT(st.faults_injected.load(), 0u);
  EXPECT_GT(st.retries.load(), 0u);
  EXPECT_GT(st.delays.load(), 0u);
  EXPECT_GT(st.checksum_failures.load(), 0u);

  // A fault that outlasts the retry budget kills the link: every rank
  // unwinds with a structured RankFailure.
  opts.faults = aegis::FaultPlan::parse("seed=5,drop=0.5,repeat=9");
  EXPECT_THROW(Fabric::run(kRanks, opts,
                           [](Comm& comm) {
                             for (int k = 0; k < 60; ++k) {
                               (void)comm.allreduce(1.0);
                             }
                           }),
               RankFailure);
}

TEST(CollectiveSlot, KillInsideAllgathervSurfacesOnEveryRank) {
  // As for allreduce: rank 2's 5th plan consultation is the entry of its
  // 5th allgatherv, before it has published a contribution.
  constexpr int kRanks = 4;
  FabricOptions opts;
  opts.faults = aegis::FaultPlan::parse("kill=2@5");
  aegis::stats().reset();
  std::vector<std::atomic<int>> observed(kRanks);
  std::vector<std::atomic<int>> completed(kRanks);
  for (auto& o : observed) o.store(-1);
  EXPECT_THROW(
      Fabric::run(kRanks, opts,
                  [&](Comm& comm) {
                    const auto me = static_cast<std::size_t>(comm.rank());
                    try {
                      for (int k = 0; k < 10; ++k) {
                        const std::vector<Index> mine(me + 1, Index(k));
                        EXPECT_EQ(comm.allgatherv(mine).size(), 10u);
                        completed[me].fetch_add(1);
                      }
                    } catch (const RankFailure& e) {
                      observed[me].store(e.failed_rank());
                      throw;
                    }
                  }),
      RankFailure);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(observed[static_cast<std::size_t>(r)].load(), 2)
        << "rank " << r;
    EXPECT_EQ(completed[static_cast<std::size_t>(r)].load(), 4)
        << "rank " << r;
  }
  EXPECT_EQ(aegis::stats().rank_kills.load(), 1u);
}

TEST(CollectiveSlot, MismatchedKindsFailEveryRankWithCheckerOff) {
  // The ranks share one slot, so a rank that enters allgatherv while the
  // others enter allreduce or barrier would pair its contribution with
  // theirs. Rank 0 compares every arrival's kind with its own, in every
  // build: each rank must fail, none may hang.
  for (const int nranks : {2, 3}) {
    for (const int odd : {0, nranks - 1}) {
      for (const bool against_barrier : {false, true}) {
        FabricOptions opts;
        opts.check = false;
        std::vector<std::atomic<int>> failed(static_cast<std::size_t>(nranks));
        std::string what;
        try {
          Fabric::run(nranks, opts, [&](Comm& comm) {
            try {
              if (comm.rank() == odd) {
                (void)comm.allgatherv(std::vector<Scalar>{1.0, 2.0});
              } else if (against_barrier) {
                comm.barrier();
              } else {
                (void)comm.allreduce(1.0, Comm::ReduceOp::kMax);
              }
            } catch (const Error&) {
              failed[static_cast<std::size_t>(comm.rank())].store(1);
              throw;
            }
          });
        } catch (const Error& e) {
          what = e.what();
        }
        const std::string which = std::to_string(nranks) + " ranks, odd " +
                                  std::to_string(odd) + ", " +
                                  (against_barrier ? "barrier" : "allreduce");
        EXPECT_NE(what.find("mismatched collectives"), std::string::npos)
            << which << ": " << what;
        EXPECT_NE(what.find("allgatherv"), std::string::npos) << which;
        EXPECT_NE(what.find(against_barrier ? "barrier" : "allreduce"),
                  std::string::npos)
            << which;
        for (int r = 0; r < nranks; ++r) {
          EXPECT_EQ(failed[static_cast<std::size_t>(r)].load(), 1)
              << which << ": rank " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace kestrel::par
