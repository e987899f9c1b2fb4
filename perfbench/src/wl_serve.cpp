// serve: the solve service with 2 workers and two tenants. A seeded 80/20
// mix sends CG requests to a small CSR handle and a 4x larger SELL handle.
// Phase one is open loop: Poisson arrivals at a fixed absolute rate, each
// request timed from its scheduled send to the client seeing it complete.
// Phase two is closed loop: one client keeps two requests outstanding.
// One operation is one request.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "app/laplacian.hpp"
#include "base/budget.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "layers.hpp"
#include "mat/sell.hpp"
#include "svc/registry.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kestrel;

constexpr int kWorkers = 2;
constexpr int kQueueDepth = 64;
constexpr double kLargeShare = 0.2;
constexpr double kRtol = 1e-8;
constexpr double kOpenShare = 0.6;  ///< of the measured seconds
constexpr int kClosedOutstanding = 2;

struct Handles {
  mat::Csr small;
  mat::Csr large;
};

Handles assemble(bool smoke) {
  const Index n = smoke ? 12 : 32;
  return {app::laplacian_dirichlet(n, n),
          app::laplacian_dirichlet(2 * n, 2 * n)};
}

/// Registry holding both handles, and the service over it.
struct Stack {
  MemoryBudget budget;
  std::unique_ptr<svc::MatrixRegistry> registry;
  std::unique_ptr<svc::SolveService> service;
};

std::unique_ptr<Stack> start_stack(const Handles& h, bool traced) {
  auto st = std::make_unique<Stack>();
  st->registry = std::make_unique<svc::MatrixRegistry>(st->budget);
  mat::MatrixPtr small = std::make_shared<const mat::Csr>(h.small);
  mat::MatrixPtr large = std::make_shared<const mat::Sell>(h.large);
  if (traced) {
    small = std::make_shared<const TracedMatrix>(small, "mat.spmv");
    large = std::make_shared<const TracedMatrix>(large, "mat.spmv");
  }
  st->registry->add_matrix("small", small);
  st->registry->add_matrix("large", large);
  svc::ServiceOptions so;
  so.workers = kWorkers;
  so.queue_depth = kQueueDepth;
  st->service = std::make_unique<svc::SolveService>(*st->registry, so);
  return st;
}

struct InFlight {
  std::int64_t id = 0;
  bool large = false;
  bool traced = false;
  std::vector<double> b;
  svc::SolveService::Ticket ticket;
  std::int64_t sched_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t submit_end_ns = 0;
};

struct Completed {
  std::vector<double> latency_ms, lateness_ms, wait_ms, service_ms,
      dispatch_ms, submit_us, iterations;
};

/// What the client knows about one traced request.
struct RequestRecord {
  std::int64_t id = 0;
  std::int64_t sched_ns = 0, submit_ns = 0, done_ns = 0;
  std::int64_t wait_ns = 0, service_ns = 0;
};

/// The client: submits, notices completions by polling, verifies each
/// response against the handle's CSR, and keeps a record of each traced
/// request for the span tree built after the run. It polls without
/// sleeping (yielding only), so its own wake-ups add neither lateness nor
/// completion delay; it is one of the run's three busy threads.
class Client {
 public:
  Client(svc::SolveService& service, const Handles& h, Result& out)
      : service_(service), h_(h), out_(out) {}

  bool submit(std::int64_t id, bool large, std::uint64_t rhs_seed,
              std::int64_t sched_ns, bool traced) {
    InFlight f;
    f.id = id;
    f.large = large;
    f.traced = traced;
    f.sched_ns = sched_ns;
    const mat::Csr& a = large ? h_.large : h_.small;
    f.b = make_rhs(rhs_seed, a.rows());
    svc::SolveRequest req;
    req.handle = large ? "large" : "small";
    req.tenant = large ? "tenant_b" : "tenant_a";
    req.ksp_type = "cg";
    req.ksp.rtol = kRtol;
    req.ksp.max_iterations = 100000;
    req.b = Vector(a.rows());
    std::copy(f.b.begin(), f.b.end(), req.b.begin());
    if (traced) {
      req.ksp.monitor = [id](int, Scalar) {
        const std::int64_t t = now_ns();
        trace::record("ksp.monitor", t, t, id);
      };
    }
    f.submit_ns = now_ns();
    try {
      f.ticket = service_.submit(std::move(req));
    } catch (const RejectedError& e) {
      out_.check(false, std::string("request shed: ") + e.what());
      return false;
    }
    f.submit_end_ns = now_ns();
    inflight_.push_back(std::move(f));
    return true;
  }

  /// Completes every finished request; returns how many.
  int poll(Completed& into) {
    int n = 0;
    for (std::size_t i = 0; i < inflight_.size();) {
      if (!inflight_[i].ticket.done()) {
        ++i;
        continue;
      }
      complete(inflight_[i], now_ns(), into);
      inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
      ++n;
    }
    return n;
  }

  std::size_t outstanding() const { return inflight_.size(); }

 private:
  void complete(InFlight& f, std::int64_t done_ns, Completed& into) {
    const svc::SolveResponse resp = f.ticket.wait();
    const mat::Csr& a = f.large ? h_.large : h_.small;
    bool ok = resp.status == svc::Status::kOk && resp.ksp.converged &&
              resp.x.size() == a.rows();
    if (ok) {
      const double rel = residual_norm(a, resp.x.data(), f.b.data()) /
                         norm2(f.b.data(), a.rows());
      ok = rel <= 10.0 * kRtol;
    }
    out_.check(ok, "request " + std::to_string(f.id) + ": " +
                       svc::status_name(resp.status) + " " + resp.error);
    const std::int64_t wait_ns =
        static_cast<std::int64_t>(resp.queue_wait_s * 1e9);
    const std::int64_t service_ns =
        static_cast<std::int64_t>(resp.solve_s * 1e9);
    const double latency_ms = static_cast<double>(done_ns - f.sched_ns) * 1e-6;
    const double lateness_ms =
        static_cast<double>(f.submit_ns - f.sched_ns) * 1e-6;
    into.latency_ms.push_back(latency_ms);
    into.lateness_ms.push_back(lateness_ms);
    into.wait_ms.push_back(resp.queue_wait_s * 1e3);
    into.service_ms.push_back(resp.solve_s * 1e3);
    into.dispatch_ms.push_back(latency_ms - lateness_ms -
                               (resp.queue_wait_s + resp.solve_s) * 1e3);
    into.submit_us.push_back(
        static_cast<double>(f.submit_end_ns - f.submit_ns) * 1e-3);
    into.iterations.push_back(resp.ksp.iterations);
    if (f.traced) {
      records.push_back({f.id, f.sched_ns, f.submit_ns, done_ns, wait_ns,
                         service_ns});
    }
  }

 public:
  std::vector<RequestRecord> records;

 private:
  svc::SolveService& service_;
  const Handles& h_;
  Result& out_;
  std::vector<InFlight> inflight_;
};

double rate_per_s(bool smoke) { return smoke ? 100.0 : 200.0; }

/// Builds each traced request's span tree. Worker threads recorded spmv
/// spans and a mark at every KSP monitor call; CG calls the monitor after
/// every operator application, so a spmv belongs to the next mark on its
/// thread. A request's root runs from its scheduled send to the client
/// seeing it done; its children are the generator's lateness, the queue
/// wait and the solve, as the client and the service report them. The
/// unattributed rest is dispatch.
std::vector<Span> request_spans(const std::vector<Span>& worker,
                                const std::vector<RequestRecord>& records) {
  std::vector<Span> spmv;
  std::map<std::int64_t, std::int64_t> last_mark;
  std::int64_t next_op = -1;
  int thread = -1;
  for (std::size_t i = worker.size(); i-- > 0;) {
    Span s = worker[i];
    if (s.thread != thread) {
      thread = s.thread;
      next_op = -1;
    }
    if (std::string(s.name) == "ksp.monitor") {
      next_op = s.op;
      last_mark.emplace(s.op, s.end_ns);  // scanning backwards: first = last
    } else if (std::string(s.name) == "mat.spmv") {
      s.op = next_op;
      spmv.push_back(s);
    }
  }
  std::vector<Span> out;
  std::map<std::int64_t, std::int64_t> service_of;
  auto add = [&out](const char* name, std::int64_t a, std::int64_t b,
                    std::int64_t op, std::int64_t parent) {
    Span s;
    s.name = name;
    s.start_ns = a;
    s.end_ns = b;
    s.op = op;
    s.parent = parent;
    out.push_back(s);
    return static_cast<std::int64_t>(out.size()) - 1;
  };
  for (const RequestRecord& r : records) {
    // The solve starts no earlier than the queue wait ends and ends no
    // earlier than its last mark; the latest start both allow keeps every
    // spmv of the request inside it.
    const auto mark = last_mark.find(r.id);
    std::int64_t solve_start = r.submit_ns + r.wait_ns;
    if (mark != last_mark.end()) {
      solve_start = std::max(solve_start, mark->second - r.service_ns);
    }
    const std::int64_t root = add("svc.request", r.sched_ns, r.done_ns, r.id, -1);
    add("gen.lateness", r.sched_ns, r.submit_ns, r.id, root);
    add("svc.queue_wait", r.submit_ns, r.submit_ns + r.wait_ns, r.id, root);
    service_of[r.id] = add("svc.service", solve_start,
                           solve_start + r.service_ns, r.id, root);
  }
  for (Span s : spmv) {
    const auto it = service_of.find(s.op);
    s.parent = it == service_of.end() ? -1 : it->second;
    out.push_back(s);
  }
  return out;
}

}  // namespace

Schedule make_schedule(std::uint64_t seed, double rate_per_s, int count,
                       double large_share) {
  Rng rng(seed);
  Schedule s;
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    s.at_s.push_back(t);
    s.large.push_back(rng.next_double() < large_share ? 1 : 0);
    s.rhs_seed.push_back(rng.next_u64());
  }
  return s;
}

void run_serve(const Args& args, Result& out) {
  // Set-up is about a millisecond, short enough to follow the host's
  // phase at that moment (0.6 or 1.1 ms on a 4-vCPU KVM guest). Its
  // repeats are spread over the run: a third before each phase and a third
  // after the last.
  const int setup_reps = args.smoke ? 1 : 5;
  std::vector<double> setup_s;
  auto time_setups = [&](int reps) {
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_s();
      const Handles h = assemble(args.smoke);
      const std::unique_ptr<Stack> st = start_stack(h, args.trace);
      setup_s.push_back(now_s() - t0);
    }
  };
  start_stack(assemble(args.smoke), args.trace);  // warm-up, not counted
  time_setups(setup_reps);
  const Handles h = assemble(args.smoke);
  const std::unique_ptr<Stack> st = start_stack(h, args.trace);
  svc::SolveService& service = *st->service;
  Client client(service, h, out);

  // Open loop at a fixed absolute rate; traced throughout in the traced
  // run.
  const double rate = rate_per_s(args.smoke);
  const int count = std::max(1, static_cast<int>(rate * kOpenShare * args.seconds));
  const Schedule sch = make_schedule(args.seed, rate, count, kLargeShare);
  Completed open;
  trace::set_on(args.trace);
  const std::int64_t start_ns = now_ns() + 2000000;
  auto due_ns = [&](int i) {
    return start_ns + static_cast<std::int64_t>(
                          sch.at_s[static_cast<std::size_t>(i)] * 1e9);
  };
  int next = 0;
  while (next < count || client.outstanding() > 0) {
    while (next < count && due_ns(next) <= now_ns()) {
      const auto i = static_cast<std::size_t>(next);
      client.submit(next, sch.large[i] != 0, sch.rhs_seed[i], due_ns(next),
                    args.trace);
      ++next;
    }
    client.poll(open);
    std::this_thread::yield();
  }
  trace::set_on(false);

  time_setups(setup_reps);

  // Closed loop: keep two requests outstanding. The traced run alternates
  // traced and untraced windows, drained at each boundary, for the
  // tracing overhead.
  const int windows = args.trace ? 4 : 1;
  const double window_s = (1.0 - kOpenShare) * args.seconds / windows;
  Rng mix(args.seed ^ 0xC105EDull);
  std::int64_t id = count;
  std::vector<double> window_rps;
  Completed closed;
  for (int w = 0; w < windows; ++w) {
    const bool traced = args.trace && w % 2 == 0;
    trace::set_on(traced);
    const std::size_t done0 = closed.latency_ms.size();
    const std::int64_t w0 = now_ns();
    const std::int64_t w_end = w0 + static_cast<std::int64_t>(window_s * 1e9);
    while (now_ns() < w_end || client.outstanding() > 0) {
      while (client.outstanding() < kClosedOutstanding && now_ns() < w_end) {
        const bool large = mix.next_double() < kLargeShare;
        client.submit(id++, large, mix.next_u64(), now_ns(), traced);
      }
      if (client.poll(closed) == 0) std::this_thread::yield();
    }
    trace::set_on(false);
    window_rps.push_back(static_cast<double>(closed.latency_ms.size() - done0) /
                         (static_cast<double>(now_ns() - w0) * 1e-9));
  }
  const svc::SolveService::Stats stats = service.stats();
  time_setups(setup_reps);

  const auto nopen = static_cast<std::int64_t>(open.latency_ms.size());
  const auto nclosed = static_cast<std::int64_t>(closed.latency_ms.size());
  // Untraced windows only: the one window of the untraced run, the odd
  // windows of the traced run.
  double rps = 0.0;
  int counted = 0;
  for (int w = args.trace ? 1 : 0; w < windows; w += args.trace ? 2 : 1) {
    rps += window_rps[static_cast<std::size_t>(w)];
    ++counted;
  }
  rps /= counted;
  out.e2e.push_back({"setup_s", median(setup_s), "s",
                     static_cast<std::int64_t>(setup_s.size())});
  out.e2e.push_back({"latency_p50_ms", median(open.latency_ms), "ms", nopen});
  if (percentile_supported(open.latency_ms.size(), 90.0)) {
    out.named.push_back({"latency_p90_ms", percentile(open.latency_ms, 90.0),
                         "ms", nopen});
  }
  out.named.push_back({"throughput_rps", rps, "req/s", nclosed});
  out.named.push_back({"svc.shed", static_cast<double>(stats.shed), "count",
                       nopen + nclosed});
  if (!args.trace) return;

  const std::vector<Span> spans =
      request_spans(trace::collect(), client.records);
  out.layer.push_back({"svc.queue_wait_p50_ms", median(open.wait_ms), "ms", nopen});
  if (percentile_supported(open.wait_ms.size(), 90.0)) {
    out.layer.push_back({"svc.queue_wait_p90_ms",
                         percentile(open.wait_ms, 90.0), "ms", nopen});
  }
  out.layer.push_back({"svc.service_ms", median(open.service_ms), "ms", nopen});
  out.layer.push_back({"svc.dispatch_ms", median(open.dispatch_ms), "ms", nopen});
  out.layer.push_back({"svc.submit_us", median(open.submit_us), "us", nopen});
  out.layer.push_back({"svc.shed", static_cast<double>(stats.shed), "count",
                       nopen + nclosed});
  out.layer.push_back({"svc.deadline_exceeded",
                       static_cast<double>(stats.deadline_exceeded), "count",
                       nopen + nclosed});
  out.layer.push_back({"svc.degraded_served",
                       static_cast<double>(stats.degraded_served), "count",
                       nopen + nclosed});
  out.layer.push_back({"gen.lateness_ms", median(open.lateness_ms), "ms", nopen});
  out.layer.push_back({"svc.setup_ms", median(setup_s) * 1e3, "ms",
                       static_cast<std::int64_t>(setup_s.size())});
  const LayerStats spmv = layer_stats(spans, "mat.spmv");
  const LayerStats served = layer_stats(spans, "svc.service");
  double attributed_ms = 0.0;
  for (const Span& s : spans) {
    if (s.parent >= 0 && std::string(s.name) == "mat.spmv") attributed_ms += s.ms();
  }
  out.layer.push_back({"mat.spmv_share", attributed_ms / served.total_ms,
                       "ratio", static_cast<std::int64_t>(spmv.durations_ms.size())});
  out.layer.push_back({"ksp.its_per_request", mean(open.iterations), "count",
                       nopen});
  out.layer.push_back({"trace.overhead_pct",
                       100.0 * ((window_rps[1] + window_rps[3]) /
                                    (window_rps[0] + window_rps[2]) -
                                1.0),
                       "%", nclosed});
  const LayerStats requests = layer_stats(spans, "svc.request");
  out.layer.push_back({"trace.unattributed_pct",
                       100.0 * self_ms(spans, "svc.request") / requests.total_ms,
                       "%", static_cast<std::int64_t>(requests.durations_ms.size())});
  finish_trace(args, spans, out);
}

}  // namespace perfbench
