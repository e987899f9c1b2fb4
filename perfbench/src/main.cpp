// perfbench: kestrel's end-to-end benchmark binary.
//
//   perfbench --workload gray_scott|spmv|dist_cg|serve --seed N
//             --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//   perfbench --self-test
//
// Prints report lines (every metric with its unit and sample count), then,
// as the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 1 when an output check failed, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/options.hpp"
#include "host.hpp"
#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "simd/isa.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

int run_self_test();

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The reported sets; BENCHMARK.json lists the same names and units.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// Every workload reports every per-layer metric; a layer the workload
// does not load reads 0.
const MetricSpec kPerLayer[] = {
    {"host.calib_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"trace.accounting_err_pct", "%"},
    {"ts.step_ms", "ms"},
    {"app.jacobian_ms", "ms"},
    {"app.jacobian_calls", "count"},
    {"app.rhs_ms", "ms"},
    {"app.rhs_calls", "count"},
    {"mat.convert_ms", "ms"},
    {"mat.convert_calls", "count"},
    {"mem.minor_faults_per_step", "count"},
    {"pc.setup_ms", "ms"},
    {"pc.setup_calls", "count"},
    {"pc.apply_ms", "ms"},
    {"pc.apply_calls", "count"},
    {"mat.spmv_ms", "ms"},
    {"mat.spmv_gbs", "GB/s"},
    {"mat.spmv_share", "ratio"},
    {"mat.csr.spmv_ms", "ms"},
    {"mat.csr.pct_triad", "%"},
    {"mat.csr.convert_ms", "ms"},
    {"mat.csrperm.spmv_ms", "ms"},
    {"mat.csrperm.pct_triad", "%"},
    {"mat.csrperm.convert_ms", "ms"},
    {"mat.sell.spmv_ms", "ms"},
    {"mat.sell.pct_triad", "%"},
    {"mat.sell.convert_ms", "ms"},
    {"mat.bcsr.spmv_ms", "ms"},
    {"mat.bcsr.pct_triad", "%"},
    {"mat.bcsr.convert_ms", "ms"},
    {"mat.talon.spmv_ms", "ms"},
    {"mat.talon.pct_triad", "%"},
    {"mat.talon.convert_ms", "ms"},
    {"mat.csr.isa_speedup", "ratio"},
    {"perf.triad_gbs", "GB/s"},
    {"par.spmv_ms", "ms"},
    {"par.local_spmv_ms", "ms"},
    {"par.allreduce_us", "us"},
    {"par.allreduce_calls", "count"},
    {"par.setup_ms", "ms"},
    {"par.rank_imbalance", "ratio"},
    {"par.send_parks", "count"},
    {"par.wait_any_wakeups", "count"},
    {"par.payload_copies", "count"},
    {"par.mailbox_allocs", "count"},
    {"svc.queue_wait_p50_ms", "ms"},
    {"svc.queue_wait_p90_ms", "ms"},
    {"svc.service_ms", "ms"},
    {"svc.dispatch_ms", "ms"},
    {"svc.submit_us", "us"},
    {"svc.shed", "count"},
    {"svc.deadline_exceeded", "count"},
    {"svc.degraded_served", "count"},
    {"gen.lateness_ms", "ms"},
    {"svc.setup_ms", "ms"},
    {"snes.newton_its", "count"},
    {"ksp.linear_its", "count"},
    {"ksp.its_per_solve", "count"},
    {"ksp.its_per_request", "count"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "gray_scott|spmv|dist_cg|serve --seed N --seconds S --trace "
               "0|1 [--smoke] [--trace-out FILE] | --self-test\n",
               msg);
  return 2;
}

/// The measured program must not pick up settings from the caller's
/// environment: every KESTREL_* variable is removed before any library
/// code reads one, the pool is pinned to one thread, the profiler is off.
std::vector<std::string> pin_environment() {
  std::vector<std::string> removed;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("KESTREL_", 0) == 0) removed.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : removed) unsetenv(name.c_str());
  kestrel::Options::global().set("threads", "1");
  kestrel::prof::set_enabled(false);
  kestrel::prof::set_tracing(false);
  return removed;
}

void print_metric(const char* kind, const Metric& m) {
  std::printf("%-6s %-26s %.6g %s (n=%lld)\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

const Metric* find(const std::vector<Metric>& v, const char* name) {
  for (const Metric& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

void finish_trace(const Args& args, const std::vector<Span>& spans,
                  Result& out) {
  const Accounting acc = account(spans, 2.0, 2000);
  out.layer.push_back({"trace.accounting_err_pct", acc.max_error_pct, "%",
                       acc.parents});
  out.check(acc.violations == 0,
            "span accounting: " + std::to_string(acc.violations) + " of " +
                std::to_string(acc.parents) +
                " parents off by more than 2%");
  std::printf("trace: %zu spans, %lld parents, %lld accounting violations\n",
              spans.size(), static_cast<long long>(acc.parents),
              static_cast<long long>(acc.violations));
  if (!args.trace_out.empty()) {
    if (write_spans_json(args.trace_out, spans)) {
      std::printf("trace: spans written to %s\n", args.trace_out.c_str());
    } else {
      std::printf("trace: could not write %s\n", args.trace_out.c_str());
    }
  }
}

int main_impl(int argc, char** argv) {
  Args args;
  bool seconds_set = false, trace_set = false, seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      pin_environment();
      return run_self_test();
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      seed_set = true;
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
      seconds_set = args.seconds > 0.0;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      args.trace = v == "1";
      trace_set = true;
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (args.workload.empty() || !seed_set || !seconds_set || !trace_set) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*run)(const Args&, Result&) = nullptr;
  if (args.workload == "gray_scott") run = run_gray_scott;
  if (args.workload == "spmv") run = run_spmv;
  if (args.workload == "dist_cg") run = run_dist_cg;
  if (args.workload == "serve") run = run_serve;
  if (run == nullptr) return usage("unknown workload");

  const std::vector<std::string> removed = pin_environment();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::string ignored;
  for (const std::string& r : removed) ignored += (ignored.empty() ? "" : ",") + r;
  std::printf("pinned: threads=%d fabric_check=0 fabric_faults=none "
              "profiler=off isa=%s nproc=%u ignored_env=[%s]\n",
              kestrel::par::configured_threads(),
              kestrel::simd::tier_name(kestrel::simd::default_tier()),
              std::thread::hardware_concurrency(), ignored.c_str());

  const double calib_start = host_calibration_ms();
  Result out;
  run(args, out);
  const double calib_end = host_calibration_ms();
  std::printf("host: calib_ms start=%.4f end=%.4f\n", calib_start, calib_end);
  out.e2e.push_back({"peak_rss_mb", rusage_self().max_rss_mb, "MB", 1});
  out.layer.push_back({"host.calib_ms", 0.5 * (calib_start + calib_end), "ms", 2});

  for (const Metric& m : out.e2e) print_metric("e2e", m);
  for (const Metric& m : out.named) print_metric("report", m);
  for (const Metric& m : out.layer) print_metric("layer", m);
  const double ok_rate =
      out.attempted > 0
          ? static_cast<double>(out.attempted - out.failed) / out.attempted
          : 0.0;
  std::printf("report ok_rate                    %.6g ratio (n=%lld)\n",
              ok_rate, static_cast<long long>(out.attempted));
  for (const std::string& f : out.failures) std::printf("FAILED: %s\n", f.c_str());

  std::string metrics;
  auto emit = [&](const MetricSpec& spec, const std::vector<Metric>& from,
                  bool required) {
    const Metric* m = find(from, spec.name);
    if (m == nullptr && required) {
      throw std::runtime_error(std::string("missing metric ") + spec.name);
    }
    const double v = m != nullptr ? m->value : 0.0;
    if (!std::isfinite(v)) {
      throw std::runtime_error(std::string("non-finite metric ") + spec.name);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, v, spec.unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const MetricSpec& s : kPerLayer) emit(s, out.layer, false);
  } else {
    for (const MetricSpec& s : kEndToEnd) emit(s, out.e2e, true);
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}
