// Fabric checker tests (Kestrel Sentry): the happens-before recorder must
// catch mismatched collectives, persistent-channel misuse and hangs — each
// with rank/op/peer context — while staying silent on correct programs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/error.hpp"
#include "par/checker.hpp"
#include "par/comm.hpp"

namespace kestrel::par {
namespace {

/// Checker always on, regardless of build type; short hang timeout only
/// where a test intends to hang.
FabricOptions checked(double hang_timeout_s = 30.0) {
  FabricOptions opts;
  opts.check = true;
  opts.hang_timeout_s = hang_timeout_s;
  return opts;
}

std::string run_and_capture_error(int nranks,
                                  const std::function<void(Comm&)>& fn,
                                  double hang_timeout_s = 30.0) {
  try {
    Fabric::run(nranks, checked(hang_timeout_s), fn);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(FabricChecker, CleanProgramStaysSilent) {
  Fabric::run(3, checked(), [](Comm& comm) {
    const int me = comm.rank();
    Scalar ghost = -1.0;
    auto ex = comm.open_exchange({{(me + 1) % 3, 1}},
                                 {{(me + 2) % 3, &ghost, 1}});
    ex->arm();
    const Scalar mine = static_cast<Scalar>(me);
    ex->send(0, &mine, 1);
    ex->wait_all();
    EXPECT_DOUBLE_EQ(ghost, static_cast<Scalar>((me + 2) % 3));
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.allreduce(1.0), 3.0);
    const auto all = comm.allgatherv(std::vector<Scalar>{Scalar(me)});
    EXPECT_EQ(all.size(), 3u);
  });
}

TEST(FabricChecker, MismatchedCollectiveReportsRankAndOp) {
  const std::string what = run_and_capture_error(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();
    } else {
      (void)comm.allreduce(1.0);
    }
  });
  EXPECT_NE(what.find("mismatched collectives"), std::string::npos) << what;
  EXPECT_NE(what.find("barrier"), std::string::npos) << what;
  EXPECT_NE(what.find("allreduce"), std::string::npos) << what;
  EXPECT_NE(what.find("rank"), std::string::npos) << what;
}

TEST(FabricChecker, MismatchedCollectiveLaterRound) {
  // Rounds 0 and 1 agree; round 2 diverges between allgatherv and barrier.
  const std::string what = run_and_capture_error(3, [](Comm& comm) {
    (void)comm.allreduce(1.0);
    comm.barrier();
    if (comm.rank() == 2) {
      (void)comm.allgatherv(std::vector<Scalar>{1.0});
    } else {
      comm.barrier();
    }
  });
  EXPECT_NE(what.find("mismatched collectives at round 2"),
            std::string::npos)
      << what;
}

TEST(FabricChecker, HangReportedAsLostWakeup) {
  const std::string what = run_and_capture_error(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          // rank 1 never enters the gather
          (void)comm.allgatherv(std::vector<Index>{7});
        }
      },
      /*hang_timeout_s=*/0.2);
  EXPECT_NE(what.find("lost wakeup or deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  // The report names the operation, the round and who has not arrived.
  EXPECT_NE(what.find("allgatherv round 1 (not arrived: 1)"),
            std::string::npos)
      << what;
}

TEST(FabricChecker, CollectiveHangNamesRoundAndMissingRank) {
  // Rank 1 leaves after the first allreduce. Rank 0 parks waiting for its
  // arrival and rank 2 waiting for the result; both reports must name the
  // round and the rank that never arrived.
  const std::string what = run_and_capture_error(
      3,
      [](Comm& comm) {
        (void)comm.allreduce(1.0);
        if (comm.rank() == 1) return;
        (void)comm.allreduce(2.0);
      },
      /*hang_timeout_s=*/0.2);
  EXPECT_NE(what.find("lost wakeup or deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("allreduce round 2 (not arrived: 1)"),
            std::string::npos)
      << what;
}

TEST(FabricChecker, AllgathervHangNamesRoundAndMissingRanks) {
  // Ranks 1 and 3 leave after the first gather. Rank 0 parks waiting for
  // their arrivals and rank 2 waiting for the result; either report must
  // name the operation, the round and both missing ranks.
  const std::string what = run_and_capture_error(
      4,
      [](Comm& comm) {
        const std::vector<Scalar> mine(2, Scalar(comm.rank()));
        EXPECT_EQ(comm.allgatherv(mine).size(), 8u);
        if (comm.rank() % 2 == 1) return;
        (void)comm.allgatherv(mine);
      },
      /*hang_timeout_s=*/0.2);
  EXPECT_NE(what.find("lost wakeup or deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("allgatherv round 2 (not arrived: 1 3)"),
            std::string::npos)
      << what;
}

TEST(FabricChecker, ReportsIncludeEventTrace) {
  const std::string what = run_and_capture_error(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();
    } else {
      (void)comm.allreduce(1.0);
    }
  });
  EXPECT_NE(what.find("recent fabric events"), std::string::npos) << what;
}

TEST(FabricChecker, CleanPersistentExchangeStaysSilent) {
  Fabric::run(2, checked(), [](Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<Scalar> ghost(2, 0.0);
    auto ex = comm.open_exchange({{peer, 2}}, {{peer, ghost.data(), 2}});
    const std::vector<Scalar> packed = {1.0, 2.0};
    for (int round = 0; round < 3; ++round) {
      ex->arm();
      ex->send(0, packed.data(), 2);
      ex->wait_all();
    }
  });
}

TEST(FabricChecker, ReArmAcrossExchangesWithUndrainedReceives) {
  // Per-rank accounting catches what each exchange's local state cannot:
  // arming a second exchange while the first still has posted receives.
  const std::string what = run_and_capture_error(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Scalar a = 0.0, b = 0.0;
      auto ex1 = comm.open_exchange({}, {{1, &a, 1}});
      auto ex2 = comm.open_exchange({}, {{1, &b, 1}});
      ex1->arm();
      ex2->arm();  // ex1's receive is still in flight
      ex1->wait_all();
      ex2->wait_all();
    }
    // rank 1 exits immediately; rank 0 fails before needing its sends
  });
  EXPECT_NE(what.find("undrained receive(s)"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
}

TEST(FabricChecker, ExitWithArmedReceivesReported) {
  const std::string what = run_and_capture_error(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Scalar slot = 0.0;
      auto ex = comm.open_exchange({}, {{1, &slot, 1}});
      ex->arm();
      // returns without wait_any: the posted receive is abandoned
    } else {
      auto ex = comm.open_exchange({{0, 1}}, {});
      const Scalar v = 4.0;
      ex->send(0, &v, 1);
    }
  });
  EXPECT_NE(what.find("armed persistent receive(s) never completed"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
}

TEST(FabricChecker, EventNamesAreStable) {
  // The lint/docs reference these names; keep them fixed.
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kBarrier), "barrier");
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kAllreduce), "allreduce");
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kAllgatherv),
               "allgatherv");
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kChannelOpen),
               "channel-open");
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kChannelArm),
               "channel-arm");
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kChannelSend),
               "channel-send");
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kChannelComplete),
               "channel-complete");
  EXPECT_STREQ(fabric_event_name(FabricEventKind::kRankExit), "rank-exit");
}

}  // namespace
}  // namespace kestrel::par
