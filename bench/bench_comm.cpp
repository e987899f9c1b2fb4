// Fabric communication benchmark (Kestrel Slipstream).
//
// Phase A calibrates the postal model alpha + beta*bytes (perf/commmodel.hpp)
// from a 2-rank persistent ping-pong; the constants feed the Figure 10
// multinode model's halo term (see EXPERIMENTS.md for the procedure).
//
// Phase B is the headline race: an 8-rank ring ghost exchange — every rank
// trades one message with each neighbor per round, the shape of ParMatrix's
// halo update — run through both fabric transports:
//   * mailbox     the seed path: every message allocates a payload vector,
//                 copies into the mailbox, and copies again into the ghost
//                 slice (2 copies + 1 allocation per message);
//   * persistent  Slipstream channels: one memcpy straight into the
//                 registered ghost slice, zero steady-state allocations.
// Rounds are barrier-synced, timed best-of-trials, and reduced with a max
// across ranks so the reported figure is the slowest rank's, as in MPI
// benches. The exported BENCH_comm.json carries both times, the speedup
// (CI gates on >= 1.3x), and the fabric counters behind the story.

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "par/comm.hpp"
#include "perf/commmodel.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"

namespace {

using namespace kestrel;
using par::Comm;

constexpr int kTagGhost = 7;

/// Cross-rank totals of the counters a transport accrued during the timed
/// rounds only (warmup and barrier traffic excluded).
struct ExchangeCounters {
  std::int64_t messages = 0;
  std::int64_t allocs = 0;
  std::int64_t copies = 0;
  std::int64_t send_parks = 0;
  std::int64_t wait_any_wakeups = 0;
};

struct ExchangeResult {
  double seconds_per_round = 0.0;  ///< slowest rank, best trial
  int timed_rounds = 0;
  ExchangeCounters counters;
};

/// Times `iters` ring-exchange rounds on `nranks` ranks with the chosen
/// transport. Every rank sends `count` scalars to each ring neighbor and
/// receives the same into its 2*count ghost slice.
ExchangeResult time_exchange(int nranks, Index count, int iters, int trials,
                             bool persistent) {
  ExchangeResult result;
  result.timed_rounds = iters;  // length of the counter window below
  par::FabricOptions fopts;
  fopts.check = false;  // measure the fast path, not the instrumented one
  par::Fabric::run(nranks, fopts, [&](Comm& comm) {
    const int left = (comm.rank() + nranks - 1) % nranks;
    const int right = (comm.rank() + 1) % nranks;
    std::vector<Scalar> sendbuf(static_cast<std::size_t>(count));
    for (Index i = 0; i < count; ++i) {
      sendbuf[static_cast<std::size_t>(i)] = comm.rank() + 1e-3 * i;
    }
    std::vector<Scalar> ghost(2 * static_cast<std::size_t>(count), 0.0);

    std::shared_ptr<par::PersistentExchange> ex;
    if (persistent) {
      ex = comm.open_exchange(
          {{left, count}, {right, count}},
          {{left, ghost.data(), count}, {right, ghost.data() + count, count}});
    }
    auto round = [&] {
      if (persistent) {
        ex->arm();
        ex->send(0, sendbuf.data(), count);
        ex->send(1, sendbuf.data(), count);
        ex->wait_all();
      } else {
        comm.isend(left, kTagGhost, sendbuf.data(),
                   static_cast<std::size_t>(count));
        comm.isend(right, kTagGhost, sendbuf.data(),
                   static_cast<std::size_t>(count));
        const std::vector<Scalar> a = comm.recv(left, kTagGhost);
        std::copy(a.begin(), a.end(), ghost.begin());
        comm.add_payload_copy();
        const std::vector<Scalar> b = comm.recv(right, kTagGhost);
        std::copy(b.begin(), b.end(), ghost.begin() + count);
        comm.add_payload_copy();
      }
    };

    for (int i = 0; i < 3; ++i) round();  // warm up (channels, mailbox maps)

    double best = 1e300;
    for (int t = 0; t < trials; ++t) {
      comm.barrier();
      const double t0 = wall_time();
      for (int i = 0; i < iters; ++i) round();
      const double dt = wall_time() - t0;
      // The exchange is only done when the slowest rank is done.
      best = std::min(best, comm.allreduce(dt, Comm::ReduceOp::kMax));
    }

    // Counter window: exactly `iters` exchange rounds and nothing else, so
    // the per-exchange figures divide cleanly. (Collectives touch no
    // mailbox counter; they run on the fabric's combining slot.)
    comm.barrier();
    const par::FabricStats before = comm.stats();
    for (int i = 0; i < iters; ++i) round();
    const par::FabricStats after = comm.stats();  // before any collective
    auto total = [&](std::uint64_t a, std::uint64_t b) {
      return comm.allreduce(static_cast<std::int64_t>(a - b));
    };
    const ExchangeCounters counters = {
        total(after.mailbox_msgs + after.channel_sends,
              before.mailbox_msgs + before.channel_sends),
        total(after.mailbox_allocs, before.mailbox_allocs),
        total(after.payload_copies, before.payload_copies),
        total(after.send_parks, before.send_parks),
        total(after.wait_any_wakeups, before.wait_any_wakeups)};
    if (comm.rank() == 0) {
      result.seconds_per_round = best / iters;
      result.counters = counters;
    }
    volatile Scalar sink = ghost[0];  // keep the exchange observable
    (void)sink;
  });
  return result;
}

double per_round(const ExchangeResult& r, std::int64_t counter) {
  return static_cast<double>(counter) / static_cast<double>(r.timed_rounds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kestrel;
  bench::parse_args(argc, argv);

  bench::header("Fabric comm benchmark: postal model + ghost exchange");

  // -- Phase A: postal-model calibration (2-rank persistent ping-pong) ----
  const int cal_reps = bench::scaled_reps(50, 6);
  const perf::CommModel cm = perf::CommModel::measure_fabric(cal_reps);
  std::printf("\n-- Phase A: postal model t(bytes) = alpha + beta*bytes --\n");
  std::printf("alpha (latency)      %10.3f us\n", cm.alpha_s * 1e6);
  std::printf("beta  (per byte)     %10.4f ns  (%.2f GB/s effective)\n",
              cm.beta_s_per_byte * 1e9,
              cm.beta_s_per_byte > 0.0 ? 1.0 / (cm.beta_s_per_byte * 1e9)
                                       : 0.0);
  std::printf("modeled 8 KiB msg    %10.3f us\n",
              cm.message_seconds(8192.0) * 1e6);

  // -- Phase B: 8-rank ring ghost exchange, mailbox vs persistent --------
  const int nranks = 8;
  const Index count = bench::scaled(1024, 256);
  const int iters = bench::scaled_reps(400, 60);
  const int trials = bench::scaled_reps(3, 2);
  std::printf(
      "\n-- Phase B: %d-rank ring exchange, 2 x %d scalars per rank --\n",
      nranks, static_cast<int>(count));
  const ExchangeResult mailbox =
      time_exchange(nranks, count, iters, trials, /*persistent=*/false);
  const ExchangeResult persistent =
      time_exchange(nranks, count, iters, trials, /*persistent=*/true);

  const double mailbox_us = mailbox.seconds_per_round * 1e6;
  const double persistent_us = persistent.seconds_per_round * 1e6;
  const double speedup =
      persistent_us > 0.0 ? mailbox_us / persistent_us : 0.0;
  std::printf("%-12s %14s %16s %16s\n", "transport", "us/exchange",
              "allocs/exchange", "copies/exchange");
  std::printf("%-12s %14.2f %16.2f %16.2f\n", "mailbox", mailbox_us,
              per_round(mailbox, mailbox.counters.allocs),
              per_round(mailbox, mailbox.counters.copies));
  std::printf("%-12s %14.2f %16.2f %16.2f\n", "persistent", persistent_us,
              per_round(persistent, persistent.counters.allocs),
              per_round(persistent, persistent.counters.copies));
  std::printf("persistent parks/exchange: %.2f, wait_any wakeups/exchange: "
              "%.2f\n",
              per_round(persistent, persistent.counters.send_parks),
              per_round(persistent, persistent.counters.wait_any_wakeups));
  std::printf("exchange speedup (mailbox / persistent): %.2fx\n", speedup);

  if (!bench::json_path().empty()) {
    // kestrel-scope-metrics-v1 artifact for the bench-smoke CI job, which
    // gates on exchange_speedup >= 1.3 (the Slipstream acceptance bar).
    prof::Profiler log;
    log.set_metric("comm_alpha_s", cm.alpha_s);
    log.set_metric("comm_beta_s_per_byte", cm.beta_s_per_byte);
    log.set_metric("exchange_us/mailbox", mailbox_us);
    log.set_metric("exchange_us/persistent", persistent_us);
    log.set_metric("exchange_speedup", speedup);
    log.set_metric("fabric/mailbox_allocs_per_exchange",
                   per_round(mailbox, mailbox.counters.allocs));
    log.set_metric("fabric/persistent_allocs_per_exchange",
                   per_round(persistent, persistent.counters.allocs));
    log.set_metric("fabric/persistent_copies_per_exchange",
                   per_round(persistent, persistent.counters.copies));
    log.set_metric("fabric/mailbox_copies_per_exchange",
                   per_round(mailbox, mailbox.counters.copies));
    std::ofstream out(bench::json_path());
    if (!out.good()) {
      std::fprintf(stderr, "cannot open %s\n", bench::json_path().c_str());
      return 1;
    }
    prof::write_json_metrics(out, prof::reduce(log));
    std::printf("\nwrote %s\n", bench::json_path().c_str());
  }
  return 0;
}
