// Kestrel Bastion walkthrough: an in-process multi-tenant solve service.
//
// Registers two Poisson handles (one ABFT-guarded), then drives the service
// the way a hosting application would: several tenant threads submitting
// concurrently, one request under a tight deadline, one cancelled mid-solve,
// and a burst past the queue bound to show structured shedding. Ends by
// printing the service stats and the svc/* Scope metrics.
//
//   ./solve_server [-n 64] [-svc_workers 2] [-svc_queue_depth 8]
//                  [-svc_deadline_ms 0] [-svc_mem_budget MB]
//                  [-svc_degraded_max_it 100]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "app/laplacian.hpp"
#include "base/budget.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "prof/profiler.hpp"
#include "svc/registry.hpp"
#include "svc/service.hpp"

using namespace kestrel;

int main(int argc, char** argv) try {
  Options::global().parse(argc, argv);
  const Index n = Options::global().get_index("n", 64);
  const svc::ServiceOptions opts =
      svc::ServiceOptions::from_options(Options::global());

  // 1. Register handles. The registry owns the inspected formats and
  //    accounts their bytes against the global memory budget; an over-budget
  //    add() declines with a structured BudgetError instead of OOMing later.
  const mat::Csr csr = app::laplacian_dirichlet(n, n);
  svc::MatrixRegistry registry;
  try {
    registry.add("poisson", csr);
    svc::HandleOptions guarded;
    guarded.format = "sell";
    guarded.abft = true;
    registry.add("poisson_guarded", csr, guarded);
  } catch (const BudgetError& e) {
    // The decline carries the arithmetic a host needs to decide what to
    // evict; nothing was retained, so exiting (or evicting) is safe.
    std::printf("registration declined: %s\n", e.what());
    return 1;
  }
  for (const svc::HandleInfo& info : registry.list()) {
    std::printf("handle %-16s %s, %d x %d, %lld nnz, %.2f MB%s\n",
                info.name.c_str(), info.format.c_str(), info.rows, info.cols,
                static_cast<long long>(info.nnz),
                static_cast<double>(info.bytes) / (1024.0 * 1024.0),
                info.abft ? " [abft]" : "");
  }
  std::printf("resident: %.2f MB (budget %s)\n\n",
              static_cast<double>(registry.resident_bytes()) /
                  (1024.0 * 1024.0),
              MemoryBudget::global().limit_bytes() == 0
                  ? "unlimited"
                  : "bounded");

  svc::SolveService service(registry, opts);
  std::printf("service: %d workers, queue depth %d\n\n", opts.workers,
              opts.queue_depth);

  const auto make_request = [&](const std::string& handle,
                                const std::string& tenant) {
    svc::SolveRequest req;
    req.handle = handle;
    req.tenant = tenant;
    req.ksp.rtol = 1e-8;
    req.b = Vector(csr.rows(), 1.0);
    return req;
  };

  // 2. Concurrent tenants: three threads, each solving against its own
  //    choice of handle. Handles are immutable, so tenants cannot observe
  //    each other.
  std::vector<std::thread> tenants;
  for (int t = 0; t < 3; ++t) {
    tenants.emplace_back([&, t] {
      const std::string name = "tenant_" + std::to_string(t);
      const std::string handle = t == 2 ? "poisson_guarded" : "poisson";
      svc::SolveRequest req = make_request(handle, name);
      svc::SolveService::Ticket ticket = service.submit(std::move(req));
      const svc::SolveResponse resp = ticket.wait();
      std::printf("%-9s -> %-17s %s, %d iterations, wait %.1f ms, "
                  "solve %.1f ms\n",
                  name.c_str(), handle.c_str(),
                  svc::status_name(resp.status), resp.ksp.iterations,
                  resp.queue_wait_s * 1e3, resp.solve_s * 1e3);
    });
  }
  for (std::thread& t : tenants) t.join();

  // 3. A deadline that cannot be met: the solver stops at the next
  //    iteration boundary and hands back its best iterate. The deadline is
  //    calibrated off a measured solve so it reliably lands mid-solve on
  //    any host.
  const double full_solve_s =
      service.submit(make_request("poisson", "calibration")).wait().solve_s;
  {
    svc::SolveRequest req = make_request("poisson", "impatient");
    req.ksp.rtol = 1e-30;  // needs far more iterations than the deadline buys
    req.ksp.max_iterations = 1000000;
    req.deadline_s = full_solve_s * 0.3;
    const svc::SolveResponse resp = service.submit(std::move(req)).wait();
    std::printf("impatient -> poisson           %s after %d iterations "
                "(residual %.3e, best iterate returned)\n",
                svc::status_name(resp.status), resp.ksp.iterations,
                resp.ksp.residual_norm);
  }

  // 4. Cooperative cancellation: same mechanism, tripped by the client.
  {
    svc::SolveRequest req = make_request("poisson", "cancelled");
    req.ksp.rtol = 1e-30;
    req.ksp.max_iterations = 1000000;
    svc::SolveService::Ticket ticket = service.submit(std::move(req));
    std::this_thread::sleep_for(
        std::chrono::duration<double>(full_solve_s * 0.2));
    ticket.cancel();
    const svc::SolveResponse resp = ticket.wait();
    std::printf("cancelled -> poisson           %s after %d iterations\n",
                svc::status_name(resp.status), resp.ksp.iterations);
  }

  // 5. Admission control: a burst past workers + queue_depth sheds the
  //    excess immediately with a structured RejectedError — a fast "no"
  //    with a retry hint, not an unbounded queue.
  {
    std::vector<svc::SolveService::Ticket> burst;
    int shed = 0;
    double hint = 0.0;
    const int total = opts.workers + opts.queue_depth + 6;
    for (int i = 0; i < total; ++i) {
      try {
        burst.push_back(
            service.submit(make_request("poisson", "bursty")));
      } catch (const RejectedError& e) {
        ++shed;
        hint = e.retry_after_hint_s();
      }
    }
    for (svc::SolveService::Ticket& t : burst) t.wait();
    std::printf("burst of %d: %zu accepted, %d shed (retry hint %.1f ms)\n",
                total, burst.size(), shed, hint * 1e3);
  }

  // 6. The scoreboard, both human- and machine-readable.
  const svc::SolveService::Stats stats = service.stats();
  std::printf("\nstats: accepted %llu, completed %llu, shed %llu, "
              "deadline_exceeded %llu, faulted %llu, failed %llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.deadline_exceeded),
              static_cast<unsigned long long>(stats.faulted),
              static_cast<unsigned long long>(stats.failed));
  prof::Profiler metrics;
  service.export_metrics(metrics);
  std::printf("scope metrics: svc/ewma_solve_s %.4f, svc/resident_bytes "
              "%.0f\n",
              metrics.metrics().at("svc/ewma_solve_s"),
              metrics.metrics().at("svc/resident_bytes"));
  return 0;
} catch (const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
