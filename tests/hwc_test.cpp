// Unit tests for Kestrel Pulse (kestrel::prof::hwc): the pure counter math
// (multiplexing scaling, wrap-safe deltas, the LLC-miss byte fallback), the
// grouped-fd plumbing exercised with SOFTWARE perf events (available in
// most VMs/containers where the hardware PMU is not), and the full
// profiler -> reduce -> JSON pipeline under the software debug source.
// Hardware-PMU-dependent checks GTEST_SKIP with the probe's reason.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "prof/hwc.hpp"
#include "prof/json.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"

namespace kestrel {
namespace {

// ---- pure math -----------------------------------------------------------

TEST(HwcMath, ScaleMultiplexedExtrapolatesByEnabledOverRunning) {
  // Group on the PMU half the time: raw counts double.
  EXPECT_EQ(prof::hwc::scale_multiplexed(1000, 200, 100), 2000u);
  // Fully scheduled: raw passes through untouched.
  EXPECT_EQ(prof::hwc::scale_multiplexed(1000, 100, 100), 1000u);
  // running > enabled (clock skew inside the kernel): never scale DOWN.
  EXPECT_EQ(prof::hwc::scale_multiplexed(1000, 100, 120), 1000u);
  // Never scheduled: the honest answer is zero, not a division blowup.
  EXPECT_EQ(prof::hwc::scale_multiplexed(1000, 200, 0), 0u);
}

TEST(HwcMath, ScaleMultiplexedSurvivesLargeCounts) {
  // ~1e13 cycles (hours of uptime) at 1/3 duty cycle: the naive u64
  // raw * enabled product would overflow; the scaled result must not.
  const std::uint64_t raw = 10'000'000'000'000ull;
  const std::uint64_t scaled =
      prof::hwc::scale_multiplexed(raw, 3'000'000'000ull, 1'000'000'000ull);
  EXPECT_NEAR(static_cast<double>(scaled), 3.0e13, 1e7);
}

TEST(HwcMath, WrapDeltaHandlesCounterWrap) {
  EXPECT_EQ(prof::hwc::wrap_delta(100, 250), 150u);
  EXPECT_EQ(prof::hwc::wrap_delta(0, 0), 0u);
  // Counter wrapped its 64-bit range between the snapshots: the unsigned
  // difference is still the true small delta.
  const std::uint64_t near_max = ~std::uint64_t{0} - 5;
  EXPECT_EQ(prof::hwc::wrap_delta(near_max, 10), 16u);
}

TEST(HwcMath, LlcFallbackBytesIsMissesTimesCacheLine) {
  EXPECT_EQ(prof::hwc::kCacheLineBytes, 64u);
  EXPECT_EQ(prof::hwc::llc_fallback_bytes(0), 0u);
  EXPECT_EQ(prof::hwc::llc_fallback_bytes(1000), 64000u);
}

TEST(HwcMath, DeltaIsPerCounterAndRequiresValidEndpoints) {
  prof::hwc::Reading a;
  a.valid = true;
  a.cycles = 100;
  a.instructions = 400;
  a.llc_misses = 7;
  a.dram_bytes = 448;
  prof::hwc::Reading b = a;
  b.cycles = 150;
  b.instructions = 600;
  b.llc_misses = 9;
  b.dram_bytes = 576;

  const prof::hwc::Reading d = prof::hwc::delta(a, b);
  ASSERT_TRUE(d.valid);
  EXPECT_EQ(d.cycles, 50u);
  EXPECT_EQ(d.instructions, 200u);
  EXPECT_EQ(d.llc_misses, 2u);
  EXPECT_EQ(d.dram_bytes, 128u);

  prof::hwc::Reading invalid;  // e.g. the group failed to open mid-span
  EXPECT_FALSE(prof::hwc::delta(invalid, b).valid);
  EXPECT_FALSE(prof::hwc::delta(a, invalid).valid);
}

// ---- capability probe ----------------------------------------------------

TEST(HwcCapability, ProbeIsConsistentAndNeverThrows) {
  const prof::hwc::Capability& cap = prof::hwc::capability();
  // Unavailable hosts must say why (the single structured warning and the
  // JSON hwc block both surface this string).
  if (!cap.counters) {
    EXPECT_FALSE(cap.detail.empty());
  }
  // The probe is cached: a second call returns the same object.
  EXPECT_EQ(&cap, &prof::hwc::capability());
}

TEST(HwcCapability, SourceNamesAreStable) {
  using prof::hwc::Source;
  EXPECT_STREQ(prof::hwc::source_name(Source::kNone), "none");
  EXPECT_STREQ(prof::hwc::source_name(Source::kLlcFallback), "llc-fallback");
  EXPECT_STREQ(prof::hwc::source_name(Source::kUncoreImc), "uncore-imc");
  EXPECT_STREQ(prof::hwc::source_name(Source::kSoftwareDebug),
               "software-debug");
}

// ---- grouped reads with software events ----------------------------------

TEST(HwcGroup, SoftwareGroupDeliversConsistentSnapshots) {
  prof::hwc::Group group;
  const bool opened = group.open(
      {{prof::hwc::kTypeSoftware, prof::hwc::kSwTaskClock},
       {prof::hwc::kTypeSoftware, prof::hwc::kSwPageFaults}});
  if (!opened) {
    GTEST_SKIP() << "software perf events unavailable: " << group.error();
  }

  prof::hwc::Group::Sample s0;
  ASSERT_TRUE(group.sample(&s0));
  ASSERT_EQ(s0.values.size(), 2u);

  // Burn measurable CPU time; task-clock counts in nanoseconds, so even a
  // short spin moves it by thousands of counts.
  volatile double sink = 0.0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + 1e-9 * i;
  (void)sink;

  prof::hwc::Group::Sample s1;
  ASSERT_TRUE(group.sample(&s1));
  EXPECT_GT(s1.values[0], s0.values[0]);  // task-clock advanced
  EXPECT_GE(s1.time_enabled, s0.time_enabled);
  // Software events are never multiplexed off: running tracks enabled.
  EXPECT_GE(s1.time_running, s0.time_running);
}

TEST(HwcGroup, OpenFailureIsReportedNotThrown) {
  prof::hwc::Group group;
  // type 0xffffff does not exist; the open must fail with a message.
  EXPECT_FALSE(group.open({{0xffffffu, 0}}));
  EXPECT_FALSE(group.valid());
  EXPECT_FALSE(group.error().empty());
  prof::hwc::Group::Sample s;
  EXPECT_FALSE(group.sample(&s));
}

// ---- end-to-end pipeline under the software debug source -----------------

class HwcEnvGuard {
 public:
  HwcEnvGuard() { setenv("KESTREL_HWC_SOFTWARE", "1", 1); }
  ~HwcEnvGuard() {
    unsetenv("KESTREL_HWC_SOFTWARE");
    prof::hwc::set_enabled(false);
  }
};

TEST(HwcPipeline, ProfilerAccumulatesAndExportsMeasuredCounters) {
  if (!prof::hwc::capability().sw_counters) {
    GTEST_SKIP() << "software perf events unavailable: "
                 << prof::hwc::capability().detail;
  }
  const HwcEnvGuard env;
  ASSERT_TRUE(prof::hwc::enable_if_capable());
  EXPECT_EQ(prof::hwc::source(), prof::hwc::Source::kSoftwareDebug);

  prof::Profiler log;
  prof::AttachGuard attach(&log);
  prof::EnableGuard enable(true, /*trace=*/true);

  const int ev = prof::registered_event("hwc_test_pipeline_event");
  {
    prof::ScopedEvent scope(ev, /*flops=*/100, /*bytes=*/4096);
    volatile double sink = 0.0;
    for (int i = 0; i < 2'000'000; ++i) sink = sink + 1e-9 * i;
    (void)sink;
  }

  // Counters accumulated into the (stage, event) cell...
  const prof::EventPerf p = log.perf_in(prof::kMainStage, ev);
  ASSERT_EQ(p.calls, 1u);
  EXPECT_GT(p.cycles, 0u) << "debug source maps task-clock ns to cycles";
  EXPECT_EQ(p.bytes, 4096u) << "modeled bytes stay untouched";

  // ...onto the recorded trace span...
  bool span_found = false;
  for (const prof::TraceSpan& s : log.trace()) {
    if (s.event != ev) continue;
    span_found = true;
    EXPECT_EQ(s.cycles, p.cycles);
  }
  EXPECT_TRUE(span_found);

  // ...and through reduce() into the v2 JSON with the hwc block.
  std::ostringstream os;
  prof::write_json_metrics(os, prof::reduce(log));
  const prof::json::Value doc = prof::json::parse(os.str());
  EXPECT_EQ(doc.find("schema")->string, prof::kMetricsSchema);
  const auto* hwc_block = doc.find("hwc");
  ASSERT_NE(hwc_block, nullptr);
  EXPECT_TRUE(hwc_block->find("available")->boolean);
  EXPECT_EQ(hwc_block->find("source")->string, "software-debug");
  bool row_found = false;
  for (const auto& e : doc.find("events")->array) {
    if (e.find("event")->string != "hwc_test_pipeline_event") continue;
    row_found = true;
    ASSERT_NE(e.find("cycles_total"), nullptr);
    EXPECT_GT(e.find("cycles_total")->number, 0.0);
    ASSERT_NE(e.find("ipc"), nullptr);
  }
  EXPECT_TRUE(row_found);

  // The Pulse table appears in the -log_view report when counters exist.
  std::ostringstream view;
  prof::report(view, prof::reduce(log));
  EXPECT_NE(view.str().find("Kestrel Pulse"), std::string::npos);
}

TEST(HwcPipeline, DisabledMeansInvalidReadingsAndNoCounters) {
  prof::hwc::set_enabled(false);
  EXPECT_FALSE(prof::hwc::read_thread().valid);
  EXPECT_EQ(prof::hwc::source(), prof::hwc::Source::kNone);

  prof::Profiler log;
  prof::AttachGuard attach(&log);
  prof::EnableGuard enable(true);
  const int ev = prof::registered_event("hwc_test_disabled_event");
  {
    prof::ScopedEvent scope(ev);
  }
  const prof::EventPerf p = log.perf_in(prof::kMainStage, ev);
  EXPECT_EQ(p.calls, 1u);
  EXPECT_EQ(p.cycles, 0u);
  EXPECT_EQ(p.hwc_bytes, 0u);
}

}  // namespace
}  // namespace kestrel
