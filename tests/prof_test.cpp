// Unit tests for Kestrel Scope (kestrel::prof): the name registries,
// accumulation and LIFO pairing, stages, options-driven configuration, the
// JSON helpers, exporter schemas, and the kernel-bytes-vs-traffic-model
// cross-check the acceptance criteria require.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "app/gray_scott.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "mat/csr.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "par/pool.hpp"
#include "perf/spmv_model.hpp"
#include "prof/hwc.hpp"
#include "prof/json.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"

namespace kestrel {
namespace {

TEST(ProfRegistry, IdsAreStableAndShared) {
  const int a = prof::registered_event("prof_test_event_a");
  const int b = prof::registered_event("prof_test_event_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, prof::registered_event("prof_test_event_a"));
  EXPECT_EQ(b, prof::registered_event("prof_test_event_b"));
  EXPECT_EQ(prof::event_name(a), "prof_test_event_a");
  EXPECT_GE(prof::num_registered_events(), 2);

  // "Main Stage" is pre-registered as stage 0.
  EXPECT_EQ(prof::registered_stage("Main Stage"), prof::kMainStage);
  EXPECT_EQ(prof::stage_name(prof::kMainStage), "Main Stage");
}

TEST(ProfProfiler, AccumulatesTimeFlopsAndBytes) {
  prof::Profiler log;
  const int id = prof::registered_event("prof_test_spmv");
  log.begin(id);
  log.end(id, 1000, 4096);
  log.begin(id);
  log.end(id, 500, 1024);
  EXPECT_EQ(log.calls(id), 2u);
  EXPECT_EQ(log.flops(id), 1500u);
  EXPECT_EQ(log.bytes(id), 5120u);
  EXPECT_GE(log.seconds(id), 0.0);
  EXPECT_GT(log.elapsed_seconds(), 0.0);

  log.reset();
  EXPECT_EQ(log.calls(id), 0u);
}

TEST(ProfProfiler, PairingErrorsThrow) {
  prof::Profiler log;
  const int a = prof::registered_event("prof_test_pair_a");
  const int b = prof::registered_event("prof_test_pair_b");
  // end with nothing running
  EXPECT_THROW(log.end(a), Error);
  // mismatched end: inner event must close first (LIFO)
  log.begin(a);
  log.begin(b);
  EXPECT_THROW(log.end(a), Error);
  log.end(b);
  log.end(a);
  EXPECT_EQ(log.calls(a), 1u);
  EXPECT_EQ(log.calls(b), 1u);
}

TEST(ProfProfiler, StagesPartitionAccounting) {
  prof::Profiler log;
  const int ev = prof::registered_event("prof_test_staged");
  const int setup = prof::registered_stage("prof_test Setup");
  ASSERT_NE(setup, prof::kMainStage);

  log.begin(ev);
  log.end(ev, 10);
  log.stage_push(setup);
  EXPECT_EQ(log.current_stage(), setup);
  log.begin(ev);
  log.end(ev, 1);
  log.stage_pop();
  EXPECT_EQ(log.current_stage(), prof::kMainStage);

  EXPECT_EQ(log.perf_in(prof::kMainStage, ev).calls, 1u);
  EXPECT_EQ(log.perf_in(prof::kMainStage, ev).flops, 10u);
  EXPECT_EQ(log.perf_in(setup, ev).calls, 1u);
  EXPECT_EQ(log.perf_in(setup, ev).flops, 1u);
  EXPECT_EQ(log.calls(ev), 2u);  // query sums over stages

  // the main stage cannot be popped
  EXPECT_THROW(log.stage_pop(), Error);
}

TEST(ProfProfiler, MessagesAttributeToInnermostEvent) {
  prof::Profiler log;
  const int ev = prof::registered_event("prof_test_comm_owner");
  log.begin(ev);
  log.message(2, 160);
  log.end(ev);
  log.message(1, 80);  // no running event: implicit "Comm"
  log.reduction();

  EXPECT_EQ(log.perf_in(prof::kMainStage, ev).messages, 2u);
  EXPECT_EQ(log.perf_in(prof::kMainStage, ev).message_bytes, 160u);
  const int comm = prof::registered_event("Comm");
  EXPECT_EQ(log.perf_in(prof::kMainStage, comm).messages, 1u);
  EXPECT_EQ(log.perf_in(prof::kMainStage, comm).reductions, 1u);
  EXPECT_EQ(log.total_messages(), 3u);
  EXPECT_EQ(log.total_message_bytes(), 240u);
  EXPECT_EQ(log.total_reductions(), 1u);
}

TEST(ProfProfiler, ScopedEventIsNoOpWhenDisabled) {
  prof::Profiler log;
  prof::AttachGuard attach(&log);
  const int ev = prof::registered_event("prof_test_disabled");
  {
    prof::EnableGuard enable(false);
    prof::ScopedEvent scope(ev, 100, 100);
  }
  EXPECT_EQ(log.calls(ev), 0u);
  {
    prof::EnableGuard enable(true);
    prof::ScopedEvent scope(ev, 100, 100);
  }
  EXPECT_EQ(log.calls(ev), 1u);
}

TEST(ProfProfiler, TracingRecordsSpansWithDepth) {
  prof::Profiler log;
  prof::AttachGuard attach(&log);
  prof::EnableGuard enable(true, /*trace=*/true);
  const int outer = prof::registered_event("prof_test_outer");
  const int inner = prof::registered_event("prof_test_inner");
  {
    prof::ScopedEvent o(outer);
    prof::ScopedEvent i(inner);
  }
  const auto spans = log.trace();
  ASSERT_EQ(spans.size(), 2u);
  // inner closes first
  EXPECT_EQ(spans[0].event, inner);
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].event, outer);
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_LE(spans[1].t0, spans[0].t0);
  EXPECT_EQ(log.dropped_spans(), 0u);
}

TEST(ProfConfigure, ReadsLogOptions) {
  const bool was_enabled = prof::enabled();
  const bool was_tracing = prof::tracing();
  {
    Options opts;
    opts.set_flag("log_view");
    opts.set("log_trace", "t.json");
    opts.set("log_json", "m.json");
    const prof::LogConfig cfg = prof::configure(opts);
    EXPECT_TRUE(cfg.view);
    EXPECT_EQ(cfg.trace_path, "t.json");
    EXPECT_EQ(cfg.json_path, "m.json");
    EXPECT_TRUE(cfg.any());
    EXPECT_TRUE(prof::enabled());
    EXPECT_TRUE(prof::tracing());
  }
  {
    Options opts;
    const prof::LogConfig cfg = prof::configure(opts);
    EXPECT_FALSE(cfg.any());
  }
  prof::set_enabled(was_enabled);
  prof::set_tracing(was_tracing);
}

TEST(ProfConfigure, LogViewEnvironmentReadsFalseAsOff) {
  const bool was_enabled = prof::enabled();
  const Options opts;
  ::setenv("KESTREL_LOG_VIEW", "false", 1);
  EXPECT_FALSE(prof::configure(opts).view);
  ::setenv("KESTREL_LOG_VIEW", "maybe", 1);
  try {
    (void)prof::configure(opts);
    ADD_FAILURE() << "accepted KESTREL_LOG_VIEW=maybe";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("KESTREL_LOG_VIEW"),
              std::string::npos)
        << e.what();
  }
  ::unsetenv("KESTREL_LOG_VIEW");
  prof::set_enabled(was_enabled);
}

TEST(ProfJson, ParsesDocumentsAndRejectsGarbage) {
  const prof::json::Value v = prof::json::parse(
      R"({"a": [1, 2.5, -3e2], "s": "x\"\n", "t": true, "n": null})");
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(v.find("s")->string, "x\"\n");
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_TRUE(v.find("n")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);

  EXPECT_THROW(prof::json::parse("{"), Error);
  EXPECT_THROW(prof::json::parse("[1,]"), Error);
  EXPECT_THROW(prof::json::parse("{} trailing"), Error);
  EXPECT_EQ(prof::json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ProfExport, ViewTableListsEventsWithRatioColumns) {
  prof::Profiler log;
  const int ev = prof::registered_event("prof_test_view_event");
  log.begin(ev);
  log.end(ev, 1000, 100);
  const prof::Reduced r = prof::reduce(log);
  ASSERT_EQ(r.nranks, 1);

  std::ostringstream os;
  prof::report(os, r);
  const std::string table = os.str();
  EXPECT_NE(table.find("prof_test_view_event"), std::string::npos);
  EXPECT_NE(table.find("Ratio"), std::string::npos);
  EXPECT_NE(table.find("Time min"), std::string::npos);
  EXPECT_NE(table.find("Time max"), std::string::npos);
  EXPECT_NE(table.find("Main Stage"), std::string::npos);
}

TEST(ProfExport, ChromeTraceIsValidJsonWithCompleteEvents) {
  prof::Profiler log;
  prof::AttachGuard attach(&log);
  prof::EnableGuard enable(true, /*trace=*/true);
  const int ev = prof::registered_event("prof_test_trace_event");
  {
    prof::ScopedEvent scope(ev);
  }
  std::ostringstream os;
  prof::write_chrome_trace(os, prof::reduce(log));

  const prof::json::Value doc = prof::json::parse(os.str());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_meta = false, saw_span = false;
  for (const auto& e : events->array) {
    const auto* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      saw_meta = true;
      EXPECT_EQ(e.find("name")->string, "thread_name");
    } else if (ph->string == "X") {
      saw_span = true;
      EXPECT_EQ(e.find("name")->string, "prof_test_trace_event");
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->number, 0.0);
      ASSERT_NE(e.find("tid"), nullptr);
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
}

TEST(ProfExport, MetricsJsonMatchesSchema) {
  prof::Profiler log;
  const int ev = prof::registered_event("prof_test_metrics_event");
  log.begin(ev);
  log.end(ev, 2000, 512);
  log.record_history("residual", 0.0, 1.0);
  log.record_history("residual", 1.0, 0.25);
  log.set_metric("model_bytes", 512.0);

  std::ostringstream os;
  prof::write_json_metrics(os, prof::reduce(log));
  const prof::json::Value doc = prof::json::parse(os.str());

  ASSERT_NE(doc.find("schema"), nullptr);
  // The writer must emit the shared constant (v2); v1 consumers keep
  // working because v2 only ADDS fields, checked below.
  EXPECT_EQ(doc.find("schema")->string, prof::kMetricsSchema);
  EXPECT_EQ(doc.find("schema")->string, "kestrel-scope-metrics-v2");
  EXPECT_EQ(doc.find("nranks")->number, 1.0);

  // v2 hwc capability block is always present (available=false on hosts
  // where sampling was off) so consumers can branch on it.
  const auto* hwc_block = doc.find("hwc");
  ASSERT_NE(hwc_block, nullptr);
  ASSERT_NE(hwc_block->find("available"), nullptr);
  ASSERT_NE(hwc_block->find("source"), nullptr);
  ASSERT_NE(hwc_block->find("paranoid"), nullptr);
  EXPECT_EQ(hwc_block->find("cache_line_bytes")->number, 64.0);
  const auto* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const auto& e : events->array) {
    if (e.find("event")->string != "prof_test_metrics_event") continue;
    found = true;
    EXPECT_EQ(e.find("stage")->string, "Main Stage");
    EXPECT_EQ(e.find("calls_max")->number, 1.0);
    EXPECT_EQ(e.find("flops_total")->number, 2000.0);
    EXPECT_EQ(e.find("bytes_total")->number, 512.0);
    ASSERT_NE(e.find("time_min"), nullptr);
    ASSERT_NE(e.find("time_max"), nullptr);
    ASSERT_NE(e.find("ratio"), nullptr);
  }
  EXPECT_TRUE(found);

  const auto* hist = doc.find("histories");
  ASSERT_NE(hist, nullptr);
  const auto* residual = hist->find("residual");
  ASSERT_NE(residual, nullptr);
  ASSERT_EQ(residual->array.size(), 2u);
  EXPECT_DOUBLE_EQ(residual->array[1].array[1].number, 0.25);

  const auto* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->find("model_bytes")->number, 512.0);
}

TEST(ProfKernels, ReportedBytesMatchTrafficModelWithin10Percent) {
  // Acceptance criterion: the bytes the instrumented kernels report must
  // agree with the section 6 traffic model (perf::spmv_model) within 10%
  // on the paper's Gray-Scott matrix.
  const Index n = 16;
  app::GrayScott gs(n);
  Vector u;
  gs.initial_condition(u);
  const mat::Csr jac = gs.rhs_jacobian(u);
  const perf::SpmvWorkload wl = perf::SpmvWorkload::gray_scott(n);

  prof::Profiler log;
  prof::AttachGuard attach(&log);
  prof::EnableGuard enable(true);
  Vector x(jac.cols(), 1.0), y(jac.rows());

  jac.spmv(x.data(), y.data());
  const int ev_csr = prof::registered_event("MatMult(csr)");
  ASSERT_EQ(log.calls(ev_csr), 1u);
  const double csr_model =
      static_cast<double>(wl.traffic_bytes(perf::ModelFormat::kCsrBaseline));
  EXPECT_NEAR(static_cast<double>(log.bytes(ev_csr)), csr_model,
              0.10 * csr_model);

  const mat::Sell sell(jac);
  sell.spmv(x.data(), y.data());
  const int ev_sell = prof::registered_event("MatMult(sell)");
  ASSERT_EQ(log.calls(ev_sell), 1u);
  const double sell_model =
      static_cast<double>(wl.traffic_bytes(perf::ModelFormat::kSell));
  EXPECT_NEAR(static_cast<double>(log.bytes(ev_sell)), sell_model,
              0.10 * sell_model);

  // flops are exact: 2 per stored nonzero
  EXPECT_EQ(log.flops(ev_csr), 2u * static_cast<std::uint64_t>(jac.nnz()));
}

TEST(ProfKernels, TalonReportedBytesMatchTrafficModelWithin10Percent) {
  // Same acceptance criterion for the Talon format: the bytes the kernel
  // reports (Talon::spmv_traffic_bytes) must agree with the analytic
  // traffic model within 10%. With the true block geometry plugged into
  // the workload the two formulas coincide exactly; the default estimate
  // (talon_blocks = talon_panels = 0) must still land inside the band.
  const Index n = 16;
  app::GrayScott gs(n);
  Vector u;
  gs.initial_condition(u);
  const mat::Csr jac = gs.rhs_jacobian(u);
  const mat::Talon talon(jac);

  perf::SpmvWorkload wl = perf::SpmvWorkload::gray_scott(n);
  wl.talon_blocks = talon.num_blocks();
  wl.talon_panels = talon.num_panels();
  const double model =
      static_cast<double>(wl.traffic_bytes(perf::ModelFormat::kTalon));

  prof::Profiler log;
  prof::AttachGuard attach(&log);
  prof::EnableGuard enable(true);
  Vector x(jac.cols(), 1.0), y(jac.rows());
  talon.spmv(x, y);

  const int ev = prof::registered_event("MatMult(talon)");
  ASSERT_EQ(log.calls(ev), 1u);
  EXPECT_EQ(log.bytes(ev), talon.spmv_traffic_bytes());
  EXPECT_NEAR(static_cast<double>(log.bytes(ev)), model, 0.10 * model);
  EXPECT_EQ(log.flops(ev), 2u * static_cast<std::uint64_t>(jac.nnz()));

  const perf::SpmvWorkload est = perf::SpmvWorkload::gray_scott(n);
  const double est_model =
      static_cast<double>(est.traffic_bytes(perf::ModelFormat::kTalon));
  EXPECT_NEAR(est_model, model, 0.10 * model);
}

TEST(ProfKernels, MeasuredBytesMatchTrafficModelOnBandwidthBoundSize) {
  // Kestrel Pulse acceptance: on a perf-capable host, the MEASURED DRAM
  // bytes per SpMV on a bandwidth-bound (larger-than-LLC) Gray-Scott
  // matrix must land within the bench_hwc tolerance gate of
  // spmv_traffic_bytes(). Skips cleanly where perf events are unavailable
  // (VMs, containers, perf_event_paranoid).
  const prof::hwc::Capability& cap = prof::hwc::capability();
  if (!cap.counters) {
    GTEST_SKIP() << "perf events unavailable: " << cap.detail;
  }

  // ~128k rows x 10 nnz: ~16 MB of matrix data, streamed past any
  // reasonable LLC share, so DRAM traffic is the dominant term.
  const Index n = 256;
  app::GrayScott gs(n);
  Vector u;
  gs.initial_condition(u);
  const mat::Csr jac = gs.rhs_jacobian(u);
  const double model = static_cast<double>(jac.spmv_traffic_bytes());

  const bool was_enabled = prof::hwc::enabled();
  ASSERT_TRUE(prof::hwc::enable_if_capable());
  Vector x(jac.cols(), 1.0), y(jac.rows());
  jac.spmv(x.data(), y.data());  // warm up

  const int reps = 10;
  const prof::hwc::Reading r0 = prof::hwc::read_thread();
  for (int r = 0; r < reps; ++r) jac.spmv(x.data(), y.data());
  const prof::hwc::Reading r1 = prof::hwc::read_thread();
  prof::hwc::set_enabled(was_enabled);

  const prof::hwc::Reading d = prof::hwc::delta(r0, r1);
  ASSERT_TRUE(d.valid);
  EXPECT_GT(d.cycles, 0u);
  EXPECT_GT(d.instructions, 0u);
  const double measured = static_cast<double>(d.dram_bytes) / reps;
  // Same wide gate as bench_hwc: the LLC-miss fallback undercounts under
  // prefetch and write-allocate overcounts; 10-100x off means broken
  // wiring, which is what this guards.
  EXPECT_GT(measured / model, 0.25) << "measured " << measured << " vs model "
                                    << model;
  EXPECT_LT(measured / model, 4.0) << "measured " << measured << " vs model "
                                   << model;
}

TEST(ProfFlock, AccountedTotalsAreThreadCountInvariant) {
  // Kestrel Flock regression: Scope once kept a single running-span stack,
  // so concurrent begin/end from pool workers could cross-pair or
  // double-count. The per-thread stacks must make every accounted total —
  // calls, flops, bytes — identical whether a kernel ran serial or on the
  // pool.
  const mat::Csr jac = [&] {
    app::GrayScott gs(24);
    Vector u;
    gs.initial_condition(u);
    return gs.rhs_jacobian(u);
  }();
  const std::string saved = Options::global().get_string("threads", "");
  const int ev_csr = prof::registered_event("MatMult(csr)");
  const int ev_sell = prof::registered_event("MatMult(sell)");

  auto totals = [&](int threads) {
    Options::global().set("threads", std::to_string(threads));
    mat::Csr csr(jac);
    mat::Sell sell(jac);
    csr.repartition(threads);
    sell.repartition(threads);
    prof::Profiler log;
    prof::AttachGuard attach(&log);
    prof::EnableGuard enable(true);
    Vector x(jac.cols(), 1.0), y(jac.rows());
    for (int r = 0; r < 3; ++r) {
      csr.spmv(x.data(), y.data());
      sell.spmv(x.data(), y.data());
    }
    return std::array<std::uint64_t, 6>{
        log.calls(ev_csr),  log.flops(ev_csr),  log.bytes(ev_csr),
        log.calls(ev_sell), log.flops(ev_sell), log.bytes(ev_sell)};
  };

  const auto serial = totals(1);
  for (int t : {2, 4}) {
    const auto threaded = totals(t);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(threaded[i], serial[i])
          << "total " << i << " drifted at threads=" << t;
    }
  }
  Options::global().set("threads", saved.empty() ? "1" : saved);
}

TEST(ProfFlock, PoolWorkerSpansLandInCallerProfiler) {
  // Spans opened inside pool parts must record into the caller's attached
  // profiler (the pool re-attaches it per job) without cross-thread
  // pairing errors.
  prof::Profiler log;
  prof::AttachGuard attach(&log);
  prof::EnableGuard enable(true);
  const int ev = prof::registered_event("prof_flock_part_span");
  par::ThreadPool pool(4);
  constexpr int kParts = 16;
  pool.run(kParts, [&](int, int) {
    prof::ScopedEvent span(ev, 10, 100);
  });
  EXPECT_EQ(log.calls(ev), static_cast<std::uint64_t>(kParts));
  EXPECT_EQ(log.flops(ev), static_cast<std::uint64_t>(10 * kParts));
  EXPECT_EQ(log.bytes(ev), static_cast<std::uint64_t>(100 * kParts));
}

}  // namespace
}  // namespace kestrel
