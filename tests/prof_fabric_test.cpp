// Kestrel Scope on the fabric: per-rank profiler attachment, cross-rank
// min/max/ratio reduction on an 8-rank fabric, ParMatrix phase
// instrumentation, collective trace export, and the TSan-labeled regression
// for the old EventLog::global() data race (rank threads hammering the
// shared global profiler, which is now internally locked).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>

#include "app/laplacian.hpp"
#include "par/parmat.hpp"
#include "prof/json.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"

namespace kestrel {
namespace {

TEST(ProfFabric, RanksGetTheirOwnAttachedProfilers) {
  prof::EnableGuard enable(true);
  std::atomic<int> distinct_ok{0};
  par::Fabric::run(4, [&](par::Comm& comm) {
    prof::Profiler* mine = prof::attached();
    ASSERT_NE(mine, nullptr);
    ASSERT_NE(mine, &prof::Profiler::global());
    // record rank-private work; no other rank sees it
    const int ev = prof::registered_event("prof_fabric_private");
    mine->begin(ev);
    mine->end(ev, static_cast<std::uint64_t>(comm.rank()));
    if (mine->calls(ev) == 1u) distinct_ok.fetch_add(1);
  });
  EXPECT_EQ(distinct_ok.load(), 4);
}

TEST(ProfFabric, EightRankReductionComputesMinMaxRatio) {
  prof::EnableGuard enable(true);
  const int nranks = 8;
  par::Fabric::run(nranks, [&](par::Comm& comm) {
    prof::Profiler& p = prof::current();
    const int ev = prof::registered_event("prof_fabric_reduced");
    // rank r performs r+1 calls carrying 10 flops each
    for (int i = 0; i <= comm.rank(); ++i) {
      p.begin(ev);
      p.end(ev, 10, 5);
    }
    const prof::Reduced r = prof::reduce(p, comm);

    // identical result on every rank
    ASSERT_EQ(r.nranks, nranks);
    const prof::ReducedRow* row = nullptr;
    for (const auto& candidate : r.rows) {
      if (candidate.event == ev) row = &candidate;
    }
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls_max, 8u);                  // rank 7 made 8 calls
    EXPECT_DOUBLE_EQ(row->flops_total, 10.0 * 36);  // sum 1..8 calls
    EXPECT_DOUBLE_EQ(row->bytes_total, 5.0 * 36);
    EXPECT_LE(row->t_min, row->t_max);
    EXPECT_GE(row->t_avg, row->t_min);
    EXPECT_LE(row->t_avg, row->t_max);
    if (row->t_min > 0.0) {
      EXPECT_DOUBLE_EQ(row->ratio, row->t_max / row->t_min);
      EXPECT_GE(row->ratio, 1.0);
    }
    EXPECT_GT(r.elapsed_max, 0.0);
  });
}

TEST(ProfFabric, CollectivesCountAsReductions) {
  prof::EnableGuard enable(true);
  par::Fabric::run(4, [&](par::Comm& comm) {
    prof::Profiler& p = prof::current();
    comm.barrier();
    (void)comm.allreduce(Scalar{1.0});
    (void)comm.allgatherv(std::vector<Scalar>{1.0});
    EXPECT_EQ(p.total_reductions(), 3u);
    EXPECT_EQ(p.total_messages(), 0u);
    // A channel send is one message carrying its payload bytes.
    const int next = (comm.rank() + 1) % 4;
    const int prev = (comm.rank() + 3) % 4;
    std::vector<Scalar> ghost(2, 0.0);
    auto ex = comm.open_exchange({{next, 2}}, {{prev, ghost.data(), 2}});
    ex->arm();
    const std::vector<Scalar> packed = {1.0, 2.0};
    ex->send(0, packed.data(), 2);
    ex->wait_all();
    EXPECT_EQ(p.total_messages(), 1u);
    EXPECT_EQ(p.total_message_bytes(), 2u * sizeof(Scalar));
  });
}

TEST(ProfFabric, ParMatrixPhasesAreInstrumented) {
  prof::EnableGuard enable(true, /*trace=*/true);
  const mat::Csr global = app::laplacian_dirichlet(16, 16);
  auto layout =
      std::make_shared<par::Layout>(par::Layout::even(global.rows(), 4));
  par::Fabric::run(4, [&](par::Comm& comm) {
    const par::ParMatrix a =
        par::ParMatrix::from_global(global, layout, comm, {});
    par::ParVector x(layout, comm.rank()), y(layout, comm.rank());
    x.local().set(1.0);
    a.spmv(x, y, comm);

    prof::Profiler& p = prof::current();
    EXPECT_EQ(p.calls(prof::registered_event("MatMult")), 1u);
    EXPECT_EQ(p.calls(prof::registered_event("MatMultLocal")), 1u);
    EXPECT_EQ(p.calls(prof::registered_event("MatMultWait")), 1u);
    EXPECT_EQ(p.calls(prof::registered_event("MatMultOffdiag")), 1u);
    // interior ranks exchange with both neighbors, edge ranks with one
    EXPECT_GE(p.calls(prof::registered_event("MatMultPack")), 1u);
    EXPECT_GE(p.calls(prof::registered_event("MatMultSend")), 1u);
    // ghost payloads were attributed to the send phase
    const auto send_perf = p.perf_in(
        prof::kMainStage, prof::registered_event("MatMultSend"));
    EXPECT_GE(send_perf.messages, 1u);
    EXPECT_GT(send_perf.message_bytes, 0u);
    // MatMult flops cover diagonal + off-diagonal blocks
    EXPECT_EQ(p.flops(prof::registered_event("MatMult")),
              2u * static_cast<std::uint64_t>(a.diag_block().nnz() +
                                              a.offdiag_block().nnz()));

    // the collective trace contains one named track per rank, with the
    // overlap phases visible as distinct complete events
    const prof::Reduced r = prof::reduce(p, comm);
    if (comm.rank() == 0) {
      std::ostringstream os;
      prof::write_chrome_trace(os, r);
      const prof::json::Value doc = prof::json::parse(os.str());
      const auto* events = doc.find("traceEvents");
      ASSERT_NE(events, nullptr);
      std::set<double> tids;
      std::set<std::string> names;
      for (const auto& e : events->array) {
        if (e.find("ph")->string == "X") {
          tids.insert(e.find("tid")->number);
          names.insert(e.find("name")->string);
        }
      }
      EXPECT_EQ(tids.size(), 4u);  // one track per rank
      EXPECT_EQ(names.count("MatMultPack"), 1u);
      EXPECT_EQ(names.count("MatMultSend"), 1u);
      EXPECT_EQ(names.count("MatMultLocal"), 1u);
      EXPECT_EQ(names.count("MatMultWait"), 1u);
    }
  });
}

// Regression for the satellite-task data race: the old EventLog::global()
// was a bare singleton mutated concurrently from fabric rank threads. The
// prof global is internally locked; under -DKESTREL_SANITIZE=thread this
// test runs with the tsan ctest label and must stay clean. All ranks use
// the SAME event id so the shared LIFO stack always pairs correctly no
// matter how the threads interleave.
TEST(ProfFabric, SharedGlobalProfilerIsThreadSafe) {
  prof::EnableGuard enable(true);
  prof::Profiler& g = prof::Profiler::global();
  g.reset();
  const int ev = prof::registered_event("prof_fabric_global_hammer");
  const int iters = 500;
  par::Fabric::run(8, [&](par::Comm& comm) {
    (void)comm;
    for (int i = 0; i < iters; ++i) {
      g.begin(ev);
      g.end(ev, 1, 1);
      g.message(1, 8);
      g.set_metric("hammer", static_cast<double>(i));
    }
  });
  EXPECT_EQ(g.calls(ev), static_cast<std::uint64_t>(8 * iters));
  EXPECT_EQ(g.flops(ev), static_cast<std::uint64_t>(8 * iters));
  EXPECT_EQ(g.total_messages(), static_cast<std::uint64_t>(8 * iters));
  g.reset();
}

}  // namespace
}  // namespace kestrel
