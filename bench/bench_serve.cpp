// Kestrel Bastion bench: open-loop load generation against the solve
// service. Calibrates the service's capacity (workers / median solve time),
// then offers 0.5x, 1x and 2x that rate with open-loop arrivals — requests
// are submitted on schedule whether or not earlier ones finished, which is
// what makes overload visible (a closed loop self-throttles and hides it).
//
// Reported per load point: offered and achieved requests/sec, accepted and
// shed counts, shed rate, the p50/p99 in-service latency (queue wait +
// solve) of ACCEPTED requests, and their median solve time, which shows
// whether the calibration matched the service under load. The --json
// export feeds scripts/check.sh, which asserts the robustness invariants
// rather than raw speed:
//   * every over-capacity submission was shed with a structured
//     RejectedError (serve/unstructured_errors == 0),
//   * shed rate is monotonically non-decreasing in offered load,
//   * accepted-request p99 at 2x stays within 3x the 0.5x p99 — admission
//     control keeps latency flat by refusing work instead of queueing it.
//
// Arrivals are Poisson (exponential inter-arrival times) from a seeded
// RNG: --seed N reproduces a schedule bit-for-bit, which is what the CI
// overload-stress job logs so a TSan hit replays locally.
//
//   ./bench_serve [--smoke] [--json BENCH_serve.json] [--seed N]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "app/laplacian.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "bench_common.hpp"
#include "svc/registry.hpp"
#include "svc/service.hpp"

namespace {

using namespace kestrel;

struct LoadPoint {
  const char* label;    ///< metric key segment
  double multiplier;    ///< offered rate as a fraction of capacity
};

struct LoadResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  int submitted = 0;
  int accepted = 0;
  int shed = 0;
  int unstructured = 0;  ///< non-RejectedError submit failures (must be 0)
  int deadline_exceeded = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double mean_wait_s = 0.0;
  double solve_p50_s = 0.0;  ///< solve alone, beside the calibrated time
};

svc::SolveRequest make_request(const mat::Csr& csr) {
  svc::SolveRequest req;
  req.handle = "poisson";
  req.ksp.rtol = 1e-10;
  req.b = Vector(csr.rows(), 1.0);
  return req;
}

/// Median in-service seconds per request with the service idle (solo
/// requests, no queueing): the capacity basis. A warm-up solve is
/// discarded, and the median of `reps` more keeps one slow solve from
/// moving the capacity: a capacity set too low puts the 1x step under
/// real capacity, where its shed rate can fall below the 0.5x step's.
double calibrate_solve_s(svc::SolveService& service, const mat::Csr& csr,
                         int reps) {
  std::vector<double> solve_s;
  for (int i = 0; i <= reps; ++i) {
    const svc::SolveResponse resp =
        service.submit(make_request(csr)).wait();
    if (resp.status != svc::Status::kOk) {
      std::fprintf(stderr, "bench_serve: calibration solve %s: %s\n",
                   svc::status_name(resp.status), resp.error.c_str());
      std::exit(1);
    }
    if (i > 0) solve_s.push_back(resp.solve_s);
  }
  std::sort(solve_s.begin(), solve_s.end());
  return bench::quantile(solve_s, 0.50);
}

LoadResult run_load(svc::MatrixRegistry& registry, const mat::Csr& csr,
                    const svc::ServiceOptions& opts, double offered_rps,
                    double duration_s, std::uint64_t seed) {
  // Fresh service per load point: stats and watchdog state start clean.
  svc::SolveService service(registry, opts);
  LoadResult r;
  r.offered_rps = offered_rps;
  r.submitted = std::max(1, static_cast<int>(offered_rps * duration_s));

  // Poisson arrivals: exponential inter-arrival times with mean
  // 1/offered_rps, pre-drawn from the seeded RNG so the whole schedule is
  // reproducible from --seed alone.
  Rng rng(seed);
  std::vector<double> arrival_s(static_cast<std::size_t>(r.submitted));
  double clock_s = 0.0;
  for (double& a : arrival_s) {
    clock_s += -std::log(1.0 - rng.next_double()) / offered_rps;
    a = clock_s;
  }

  std::vector<svc::SolveService::Ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(r.submitted));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < r.submitted; ++i) {
    // Open loop: arrival i fires on schedule regardless of how the
    // service is doing.
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(
                    arrival_s[static_cast<std::size_t>(i)]));
    try {
      tickets.push_back(service.submit(make_request(csr)));
    } catch (const RejectedError&) {
      ++r.shed;
    } catch (const std::exception&) {
      ++r.unstructured;
    }
  }

  std::vector<double> latencies;
  std::vector<double> solves;
  latencies.reserve(tickets.size());
  solves.reserve(tickets.size());
  for (svc::SolveService::Ticket& t : tickets) {
    const svc::SolveResponse resp = t.wait();
    if (resp.status == svc::Status::kDeadlineExceeded) ++r.deadline_exceeded;
    latencies.push_back(resp.queue_wait_s + resp.solve_s);
    solves.push_back(resp.solve_s);
    r.mean_wait_s += resp.queue_wait_s;
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  r.accepted = static_cast<int>(tickets.size());
  r.achieved_rps = elapsed > 0.0 ? r.accepted / elapsed : 0.0;
  // Every request shed leaves the latencies empty: they then report 0.
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    std::sort(solves.begin(), solves.end());
    r.p50_s = bench::quantile(latencies, 0.50);
    r.p99_s = bench::quantile(latencies, 0.99);
    r.solve_p50_s = bench::quantile(solves, 0.50);
    r.mean_wait_s /= static_cast<double>(latencies.size());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  std::uint64_t seed = 20260808ull;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  bench::header("Kestrel Bastion: open-loop service load, shed and latency");
  std::printf("arrival seed: %llu (replay with --seed %llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));

  // The operator is sized so one solve is milliseconds — long enough that
  // queueing is observable, short enough that a sweep finishes quickly.
  // Smoke shrinks the matrix and the measurement window, not the invariants.
  const Index n = bench::scaled(96, 24);
  const mat::Csr csr = app::laplacian_dirichlet(n, n);
  svc::MatrixRegistry registry;
  registry.add("poisson", csr);

  svc::ServiceOptions opts;
  opts.workers = 2;
  opts.queue_depth = 4;

  const double duration_s = bench::smoke_mode() ? 0.5 : 3.0;

  // Capacity: the rate at which `workers` busy workers retire requests.
  const double solve_s = [&] {
    svc::SolveService calibration(registry, opts);
    return calibrate_solve_s(calibration, csr, 21);
  }();
  const double capacity_rps = opts.workers / solve_s;
  std::printf("matrix: %d x %d, %lld nnz\n", csr.rows(), csr.cols(),
              static_cast<long long>(csr.nnz()));
  std::printf("calibration: %.2f ms/solve -> capacity %.1f req/s "
              "(%d workers, queue depth %d)\n\n",
              solve_s * 1e3, capacity_rps, opts.workers, opts.queue_depth);

  const LoadPoint points[] = {
      {"half", 0.5},
      {"1x", 1.0},
      {"2x", 2.0},
  };

  prof::Profiler log;
  log.set_metric("serve/capacity_rps", capacity_rps);
  log.set_metric("serve/workers", opts.workers);
  log.set_metric("serve/queue_depth", opts.queue_depth);
  log.set_metric("serve/calibrated_solve_s", solve_s);

  std::printf("%-6s %10s %10s %9s %6s %9s %9s %9s %9s\n", "load",
              "offered/s", "achieved/s", "accepted", "shed", "shed-rate",
              "p50[ms]", "p99[ms]", "solve[ms]");
  double half_p99 = 0.0, two_p99 = 0.0;
  double prev_shed_rate = -1.0;
  bool monotonic = true;
  int unstructured = 0;
  for (const LoadPoint& pt : points) {
    // Each load point draws its own arrival stream so points stay
    // independent of each other's schedules.
    const std::uint64_t point_seed =
        seed + static_cast<std::uint64_t>(pt.multiplier * 10.0);
    const LoadResult r =
        run_load(registry, csr, opts, pt.multiplier * capacity_rps,
                 duration_s, point_seed);
    const double shed_rate =
        r.submitted > 0 ? static_cast<double>(r.shed) / r.submitted : 0.0;
    std::printf("%-6s %10.1f %10.1f %9d %6d %8.1f%% %9.2f %9.2f %9.2f\n",
                pt.label, r.offered_rps, r.achieved_rps, r.accepted, r.shed,
                shed_rate * 100.0, r.p50_s * 1e3, r.p99_s * 1e3,
                r.solve_p50_s * 1e3);
    const std::string key = std::string("serve/") + pt.label + "/";
    log.set_metric(key + "offered_rps", r.offered_rps);
    log.set_metric(key + "achieved_rps", r.achieved_rps);
    log.set_metric(key + "submitted", r.submitted);
    log.set_metric(key + "accepted", r.accepted);
    log.set_metric(key + "shed", r.shed);
    log.set_metric(key + "shed_rate", shed_rate);
    log.set_metric(key + "p50_s", r.p50_s);
    log.set_metric(key + "p99_s", r.p99_s);
    log.set_metric(key + "mean_queue_wait_s", r.mean_wait_s);
    log.set_metric(key + "solve_p50_s", r.solve_p50_s);
    log.set_metric(key + "deadline_exceeded", r.deadline_exceeded);
    unstructured += r.unstructured;
    if (shed_rate < prev_shed_rate) monotonic = false;
    prev_shed_rate = shed_rate;
    if (pt.multiplier == 0.5) half_p99 = r.p99_s;
    if (pt.multiplier == 2.0) two_p99 = r.p99_s;
  }

  const double p99_ratio = half_p99 > 0.0 ? two_p99 / half_p99 : 0.0;
  log.set_metric("serve/unstructured_errors", unstructured);
  log.set_metric("serve/shed_rate_monotonic", monotonic ? 1.0 : 0.0);
  log.set_metric("serve/p99_ratio_2x_over_half", p99_ratio);
  std::printf("\noverload proof: unstructured errors %d (want 0), shed rate "
              "%s, p99(2x)/p99(0.5x) = %.2f (admission control bounds "
              "queueing)\n",
              unstructured, monotonic ? "monotonic" : "NOT MONOTONIC",
              p99_ratio);

  const bool wrote = bench::write_metrics(log);
  return wrote && unstructured == 0 && monotonic ? 0 : 1;
}
