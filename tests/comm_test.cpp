// Message-passing fabric tests: point-to-point, collectives, failure
// propagation.

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

TEST(Fabric, PointToPointRoundTrip) {
  Fabric::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.isend(1, 7, {1.0, 2.0, 3.0});
      const auto echoed = comm.recv(1, 8);
      ASSERT_EQ(echoed.size(), 3u);
      EXPECT_DOUBLE_EQ(echoed[2], 6.0);
    } else {
      auto data = comm.recv(0, 7);
      for (auto& v : data) v *= 2.0;
      comm.isend(0, 8, data);
    }
  });
}

TEST(Fabric, MessagesMatchOnSourceAndTag) {
  Fabric::run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      // receive in the opposite order of sending; matching must be by
      // (source, tag), not arrival order
      const auto from2 = comm.recv(2, 5);
      const auto from1 = comm.recv(1, 5);
      EXPECT_DOUBLE_EQ(from1[0], 1.0);
      EXPECT_DOUBLE_EQ(from2[0], 2.0);
    } else {
      comm.isend(0, 5, {static_cast<Scalar>(comm.rank())});
    }
  });
}

TEST(Fabric, FifoOrderPerSourceTag) {
  Fabric::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.isend(1, 3, {10.0});
      comm.isend(1, 3, {20.0});
      comm.isend(1, 3, {30.0});
    } else {
      EXPECT_DOUBLE_EQ(comm.recv(0, 3)[0], 10.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 3)[0], 20.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 3)[0], 30.0);
    }
  });
}

TEST(Fabric, IrecvWaitFillsSink) {
  Fabric::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Scalar> sink;
      Request req = comm.irecv(1, 2, &sink);
      comm.wait(req);
      EXPECT_TRUE(req.done);
      ASSERT_EQ(sink.size(), 2u);
      EXPECT_DOUBLE_EQ(sink[1], -4.0);
    } else {
      comm.isend(0, 2, {3.0, -4.0});
    }
  });
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
                             // other ranks block on a message that will
                             // never arrive; abort must wake them
                             (void)comm.recv((comm.rank() + 1) % 3, 9);
                           }),
               Error);
}

TEST(Fabric, RootCauseExceptionIsRethrown) {
  try {
    Fabric::run(3, [](Comm& comm) {
      if (comm.rank() == 2) KESTREL_FAIL("root cause");
      (void)comm.recv(2, 1);
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("root cause"), std::string::npos);
  }
}

TEST(Fabric, TypedIndexMessagesRoundTrip) {
  Fabric::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // values beyond 2^53 would be corrupted by a Scalar round-trip; the
      // typed path must carry them exactly (Index permitting)
      comm.isend_indices(1, 4, {0, 7, 123456789, 3});
      const auto echoed = comm.recv_indices(1, 5);
      ASSERT_EQ(echoed.size(), 4u);
      EXPECT_EQ(echoed[2], 123456790);
    } else {
      auto idx = comm.recv_indices(0, 4);
      for (auto& v : idx) v += 1;
      comm.isend_indices(0, 5, idx);
    }
  });
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
  // Rank 0 receives from 1 and 2; rank 2's message is held back behind a
  // mailbox rendezvous, so channel 0 (from rank 1) must complete first
  // even though both were armed together.
  Fabric::run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Scalar> ghost(2, 0.0);
      auto ex = comm.open_exchange(
          {}, {{1, ghost.data(), 1}, {2, ghost.data() + 1, 1}});
      ex->arm();
      const int first = ex->wait_any();
      EXPECT_EQ(first, 0);          // rank 1 sent immediately
      comm.isend(2, 1, {1.0});      // release rank 2
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
      (void)comm.recv(0, 1);  // wait until rank 0 drained channel 0
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
  Fabric::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.isend(5, 0, {1.0}), Error);
      EXPECT_THROW(comm.isend(1, -3, {1.0}), Error);
      std::vector<Scalar> sink;
      EXPECT_THROW(comm.irecv(-1, 0, &sink), Error);
      // Negative tags name the fabric's internal streams: a user receive on
      // one would wait forever or steal a collective's message.
      EXPECT_THROW(comm.recv(1, -1), Error);
      EXPECT_THROW(comm.recv_indices(1, -4), Error);
      comm.isend(1, 0, {0.0});  // unblock peer
    } else {
      (void)comm.recv(0, 0);
    }
  });
}

TEST(Fabric, FaultedBurstOnOneStreamArrivesIntactAndInOrder) {
  // Every message of a Scalar burst and an index burst on one (source, tag)
  // stream is queued before the receiver takes any, so duplicate, reordered
  // and corrupted envelopes of different sequence numbers wait side by side
  // and the receiver must consume them in sequence order.
  constexpr int kBurst = 16;
  constexpr int kTag = 7;
  const auto scalars = [](int k) {
    return std::vector<Scalar>{Scalar(k), 0.5 + k, -1.0 * k, 1e3 + k};
  };
  const auto indices = [](int k) {
    return std::vector<Index>{k, 2 * k + 1, 100 + k};
  };
  const struct {
    const char* spec;
    std::atomic<std::uint64_t> aegis::AegisStats::*counter;
  } cases[] = {
      {"seed=21,dup=0.3", &aegis::AegisStats::duplicates_dropped},
      {"seed=21,reorder=0.3", &aegis::AegisStats::reorders_healed},
      {"seed=21,drop=0.3", &aegis::AegisStats::retries},
      {"seed=21,bitflip=0.3", &aegis::AegisStats::checksum_failures},
      {"seed=21,delay=0.3,delay_ms=1", &aegis::AegisStats::delays},
  };
  for (const auto& c : cases) {
    FabricOptions opts;
    opts.faults = aegis::FaultPlan::parse(c.spec);
    // A receiver that wrongly discards a message waits for it forever; the
    // checker's hang bound turns that into a failure in every build.
    opts.check = true;
    opts.hang_timeout_s = 10.0;
    aegis::stats().reset();
    // Set outside the fabric, so no collective adds faults of its own.
    std::atomic<bool> sent{false};
    Fabric::run(2, opts, [&](Comm& comm) {
      if (comm.rank() == 0) {
        for (int k = 0; k < kBurst; ++k) comm.isend(1, kTag, scalars(k));
        for (int k = 0; k < kBurst; ++k) {
          comm.isend_indices(1, kTag, indices(k));
        }
        sent.store(true);
        return;
      }
      while (!sent.load()) std::this_thread::yield();
      for (int k = 0; k < kBurst; ++k) {
        EXPECT_EQ(comm.recv(0, kTag), scalars(k)) << c.spec << " #" << k;
      }
      for (int k = 0; k < kBurst; ++k) {
        EXPECT_EQ(comm.recv_indices(0, kTag), indices(k))
            << c.spec << " #" << k;
      }
    });
    EXPECT_GT(aegis::stats().faults_injected.load(), 0u) << c.spec;
    EXPECT_GT((aegis::stats().*c.counter).load(), 0u) << c.spec;
  }
  aegis::stats().reset();
}

TEST(Fabric, EveryDuplicatedEnvelopeIsDroppedAndCounted) {
  // Under dup=1.0 every mailbox message arrives twice with one sequence
  // number. The copy of a stream's last message must be dropped and counted
  // like the others, although no later receive on that stream comes to
  // discard it. With the receiver waiting for the whole burst both copies
  // are queued when it takes the first; without waiting, the second copy
  // may arrive after the first was taken.
  constexpr int kTag = 7;
  for (const int per_stream : {1, 16}) {
    for (const bool wait_for_burst : {true, false}) {
      FabricOptions opts;
      opts.faults = aegis::FaultPlan::parse("seed=1,dup=1.0");
      opts.check = true;
      opts.hang_timeout_s = 10.0;
      aegis::stats().reset();
      std::atomic<bool> sent{false};
      Fabric::run(2, opts, [&](Comm& comm) {
        if (comm.rank() == 0) {
          for (int k = 0; k < per_stream; ++k) {
            comm.isend(1, kTag, std::vector<Scalar>{Scalar(k)});
            comm.isend_indices(1, kTag, std::vector<Index>{k});
          }
          sent.store(true);
          return;
        }
        while (wait_for_burst && !sent.load()) std::this_thread::yield();
        for (int k = 0; k < per_stream; ++k) {
          EXPECT_EQ(comm.recv(0, kTag), std::vector<Scalar>{Scalar(k)});
          EXPECT_EQ(comm.recv_indices(0, kTag), std::vector<Index>{k});
        }
      });
      const std::string what = std::to_string(per_stream) +
                               " per stream, wait_for_burst=" +
                               std::to_string(wait_for_burst);
      EXPECT_EQ(aegis::stats().faults_injected.load(),
                static_cast<std::uint64_t>(2 * per_stream))
          << what;
      EXPECT_EQ(aegis::stats().duplicates_dropped.load(),
                aegis::stats().faults_injected.load())
          << what;
    }
  }
  aegis::stats().reset();
}

// --------------------------------------------------------------------------
// The collective slot behind allreduce and barrier.
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

}  // namespace
}  // namespace kestrel::par
