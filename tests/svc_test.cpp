// Kestrel Bastion acceptance battery: the solve service must say "no",
// "not yet", or "stop now" — precisely, structurally, and without ever
// poisoning a neighbouring tenant.
//
// Five layers, mirroring the feature's structure:
//   1. Base tokens — Deadline/CancelSource semantics, MemoryBudget ledger
//      and its structured BudgetError, LoadWatchdog hysteresis.
//   2. Registry — per-handle accounting against the budget, structured
//      decline (nothing retained), ABFT full/degraded twin wrappers.
//   3. Deadline proof — every KSP type (CG, BiCGStab, GMRES, FGMRES,
//      Richardson, Chebyshev) interrupted mid-solve returns
//      kDeadlineExceeded within 1.5x the requested wall budget with a
//      valid partial SolveResult; SNES and TS stop between steps with the
//      last completed iterate. Cooperative cancel does the same without a
//      wall budget.
//   4. Service — admission control sheds with RejectedError exactly when
//      the bounded queue is full (deterministic under a seeded schedule),
//      the watchdog degrades before shedding, per-request metrics export.
//   5. Isolation — a sabotaged tenant's AbftError maps to kFaulted for its
//      own responses only; a concurrent clean tenant's solution is
//      bitwise identical to its solo run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aegis/abft.hpp"
#include "aegis/fault.hpp"
#include "app/laplacian.hpp"
#include "base/budget.hpp"
#include "base/deadline.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "ksp/context.hpp"
#include "ksp/ksp.hpp"
#include "mat/csr.hpp"
#include "mat/spgemm.hpp"
#include "prof/profiler.hpp"
#include "snes/newton.hpp"
#include "svc/registry.hpp"
#include "svc/service.hpp"
#include "svc/watchdog.hpp"
#include "ts/theta.hpp"

namespace kestrel::svc {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Vector ones(Index n) {
  Vector b(n);
  b.set(1.0);
  return b;
}

/// Delegating wrapper that sleeps per multiply: a "slow operator" whose
/// solves reliably straddle a deadline without depending on host speed.
class SlowMatrix final : public mat::Matrix {
 public:
  SlowMatrix(mat::MatrixPtr inner, double delay_s)
      : inner_(std::move(inner)), delay_s_(delay_s) {}

  Index rows() const override { return inner_->rows(); }
  Index cols() const override { return inner_->cols(); }
  std::int64_t nnz() const override { return inner_->nnz(); }
  void spmv(const Scalar* x, Scalar* y) const override {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay_s_));
    inner_->spmv(x, y);
  }
  using Matrix::spmv;
  void get_diagonal(Vector& d) const override { inner_->get_diagonal(d); }
  void abft_col_checksum(Vector& c) const override {
    inner_->abft_col_checksum(c);
  }
  std::string format_name() const override {
    return "slow(" + inner_->format_name() + ")";
  }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::size_t spmv_traffic_bytes() const override {
    return inner_->spmv_traffic_bytes();
  }

 private:
  mat::MatrixPtr inner_;
  double delay_s_;
};

/// Delegating wrapper whose multiplies block on a latch until released —
/// holds a service worker deterministically busy so queue-full behaviour
/// can be asserted without timing assumptions.
class LatchMatrix final : public mat::Matrix {
 public:
  explicit LatchMatrix(mat::MatrixPtr inner) : inner_(std::move(inner)) {}

  Index rows() const override { return inner_->rows(); }
  Index cols() const override { return inner_->cols(); }
  std::int64_t nnz() const override { return inner_->nnz(); }
  void spmv(const Scalar* x, Scalar* y) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    inner_->spmv(x, y);
  }
  using Matrix::spmv;
  void get_diagonal(Vector& d) const override { inner_->get_diagonal(d); }
  void abft_col_checksum(Vector& c) const override {
    inner_->abft_col_checksum(c);
  }
  std::string format_name() const override {
    return "latch(" + inner_->format_name() + ")";
  }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::size_t spmv_traffic_bytes() const override {
    return inner_->spmv_traffic_bytes();
  }

  /// Blocks until a worker is inside spmv (i.e. a request is in service).
  void wait_entered() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mat::MatrixPtr inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool released_ = false;
};

// --------------------------------------------------------------------------
// 1. Base tokens
// --------------------------------------------------------------------------

TEST(BastionDeadline, DefaultTokenNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.active());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
}

TEST(BastionDeadline, WallBudgetExpires) {
  const Deadline d = Deadline::after(0.02);
  EXPECT_TRUE(d.active());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), 0.0);
  EXPECT_TRUE(Deadline::after(-1.0).expired());
}

TEST(BastionDeadline, CancelTripsSharedTokens) {
  CancelSource src;
  const Deadline a = Deadline().with_cancel(src);
  const Deadline b = Deadline::after(3600.0).with_cancel(src);
  EXPECT_TRUE(a.active());
  EXPECT_FALSE(a.expired());
  EXPECT_FALSE(b.expired());
  src.cancel();
  EXPECT_TRUE(a.expired());
  EXPECT_TRUE(b.expired());
  EXPECT_EQ(b.remaining_seconds(), 0.0);
  src.reset();
  EXPECT_FALSE(a.expired());
}

TEST(BastionBudget, LedgerAndStructuredDecline) {
  MemoryBudget budget;
  budget.set_limit_bytes(1000);
  budget.reserve(600, "a");
  EXPECT_EQ(budget.used_bytes(), 600u);
  budget.require(400, "fits exactly");
  try {
    budget.reserve(401, "too big");
    FAIL() << "expected BudgetError";
  } catch (const BudgetError& e) {
    EXPECT_EQ(e.requested_bytes(), 401u);
    EXPECT_EQ(e.in_use_bytes(), 600u);
    EXPECT_EQ(e.limit_bytes(), 1000u);
  }
  EXPECT_EQ(budget.used_bytes(), 600u);  // failed reserve left no residue
  budget.release(600);
  EXPECT_EQ(budget.used_bytes(), 0u);
  budget.release(50);  // over-release clamps at zero, never wraps
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(BastionBudget, ZeroLimitDisablesEnforcement) {
  MemoryBudget budget;
  budget.require(std::uint64_t{1} << 60, "unlimited");
  budget.reserve(std::uint64_t{1} << 60, "counted but not enforced");
  EXPECT_EQ(budget.used_bytes(), std::uint64_t{1} << 60);
}

TEST(BastionWatchdog, DegradesOnSustainedHighAndRecoversWithHysteresis) {
  WatchdogOptions opts;
  opts.window = 4;
  opts.high_watermark = 0.75;
  opts.low_watermark = 0.25;
  LoadWatchdog dog(opts);
  // One spike inside an empty window is not "sustained".
  dog.observe(8, 8);
  EXPECT_FALSE(dog.degraded());
  for (int i = 0; i < 4; ++i) dog.observe(8, 8);
  EXPECT_TRUE(dog.degraded());
  EXPECT_EQ(dog.degrade_events(), 1u);
  // Mid-band occupancy keeps the degraded mode (hysteresis, no flapping).
  for (int i = 0; i < 8; ++i) dog.observe(4, 8);
  EXPECT_TRUE(dog.degraded());
  // Sustained low load recovers.
  for (int i = 0; i < 8; ++i) dog.observe(0, 8);
  EXPECT_FALSE(dog.degraded());
  EXPECT_EQ(dog.recover_events(), 1u);
}

// --------------------------------------------------------------------------
// 2. Registry
// --------------------------------------------------------------------------

TEST(BastionRegistry, RegistersEveryFormatAndAccountsBytes) {
  const mat::Csr a = app::laplacian_dirichlet(12, 12);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  for (const char* fmt : {"csr", "csrperm", "sell", "bcsr", "talon"}) {
    HandleOptions opts;
    opts.format = fmt;
    const auto h = reg.add(std::string("m_") + fmt, a, opts);
    EXPECT_EQ(h->info.rows, a.rows());
    EXPECT_EQ(h->info.nnz, a.nnz()) << fmt;
    EXPECT_GT(h->info.bytes, 0u) << fmt;
  }
  EXPECT_EQ(reg.list().size(), 5u);
  EXPECT_EQ(reg.resident_bytes(), budget.used_bytes());
  reg.remove("m_csr");
  EXPECT_FALSE(reg.has("m_csr"));
  EXPECT_EQ(reg.resident_bytes(), budget.used_bytes());
  EXPECT_THROW(reg.get("m_csr"), Error);
  EXPECT_THROW(reg.add("m_sell", a), Error);  // duplicate name
}

TEST(BastionRegistry, OverBudgetHandleDeclinesAndRetainsNothing) {
  const mat::Csr a = app::laplacian_dirichlet(24, 24);
  MemoryBudget budget;
  budget.set_limit_bytes(64);  // far below any real matrix
  MatrixRegistry reg(budget);
  try {
    reg.add("too_big", a);
    FAIL() << "expected BudgetError";
  } catch (const BudgetError& e) {
    EXPECT_EQ(e.limit_bytes(), 64u);
    EXPECT_GT(e.requested_bytes(), 64u);
  }
  EXPECT_FALSE(reg.has("too_big"));
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(reg.resident_bytes(), 0u);
}

TEST(BastionRegistry, AbftHandleCarriesFullAndDegradedTwins) {
  const mat::Csr a = app::laplacian_dirichlet(8, 8);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  HandleOptions opts;
  opts.abft = true;
  opts.degraded_verify_every = 8;
  const auto h = reg.add("guarded", a, opts);
  EXPECT_NE(h->full.get(), h->degraded.get());
  EXPECT_EQ(h->full->format_name(), "abft(csr)");
  EXPECT_EQ(h->degraded->format_name(), "abft(csr)");
  // Twins compute the same multiply (shared inner storage).
  const Vector x = ones(a.cols());
  Vector y_full, y_degraded;
  h->full->spmv(x, y_full);
  h->degraded->spmv(x, y_degraded);
  EXPECT_EQ(std::memcmp(y_full.data(), y_degraded.data(),
                        sizeof(Scalar) * static_cast<std::size_t>(a.rows())),
            0);
  // A degraded sampling interval tighter than the full wrapper's is a
  // configuration error, not a silent "verify more under overload".
  HandleOptions bad;
  bad.abft = true;
  bad.abft_opts.verify_every = 4;
  bad.degraded_verify_every = 2;
  EXPECT_THROW(reg.add("bad", a, bad), Error);
}

TEST(BastionRegistry, DegradedTwinSamplesExactlyUnderTwoWorkers) {
  // Every service worker multiplies one handle's degraded twin in degraded
  // mode. Two threads x 400 multiplies at degraded_verify_every = 4 must
  // verify exactly 200 times, and every product must be the inner
  // matrix's, bit for bit.
  const mat::Csr a = app::laplacian_dirichlet(8, 8);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  HandleOptions opts;
  opts.abft = true;
  ASSERT_EQ(opts.degraded_verify_every, 4);
  const auto h = reg.add("guarded", a, opts);
  const mat::Matrix& inner =
      dynamic_cast<const aegis::AbftMatrix&>(*h->degraded).inner();
  aegis::stats().reset();
  const int multiplies = 400;
  std::atomic<int> wrong{0};
  const auto serve = [&](int t) {
    Vector x(a.cols()), y, want;
    for (int k = 0; k < multiplies; ++k) {
      for (Index i = 0; i < x.size(); ++i) {
        x[i] = 1.0 + static_cast<Scalar>((i + k + 31 * t) % 11);
      }
      h->degraded->spmv(x, y);
      inner.spmv(x, want);
      if (std::memcmp(y.data(), want.data(),
                      sizeof(Scalar) * static_cast<std::size_t>(y.size())) !=
          0) {
        ++wrong;
      }
    }
  };
  std::thread first(serve, 0);
  std::thread second(serve, 1);
  first.join();
  second.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(aegis::stats().abft_verifications.load(), 200u);
  EXPECT_EQ(aegis::stats().abft_failures.load(), 0u);
  aegis::stats().reset();
}

// --------------------------------------------------------------------------
// 3. Deadline proof: every KSP type, SNES, TS, and cooperative cancel
// --------------------------------------------------------------------------

struct KspCase {
  const char* type;
  bool chebyshev = false;
};

class BastionKspDeadline : public ::testing::TestWithParam<KspCase> {};

TEST_P(BastionKspDeadline, MidSolveDeadlineReturnsBestIterateInTime) {
  // 2304 unknowns + 2 ms per multiply: no method converges at rtol=1e-30
  // before the 200 ms budget, and no iteration is long enough to overshoot
  // the 1.5x acceptance bound.
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(48, 48));
  const SlowMatrix slow(inner, 0.002);
  const double deadline_s = 0.2;

  ksp::Settings settings;
  settings.rtol = 1e-30;
  settings.max_iterations = 1000000;
  settings.deadline = Deadline::after(deadline_s);

  // The 1/h^2-scaled 48x48 Laplacian has eigenvalues in roughly
  // [20, 1.9e4]; Richardson and Chebyshev get spectrum-aware parameters so
  // they iterate stably (no Inf/NaN escape hatch) yet far too slowly to
  // converge at rtol=1e-30 — only the deadline can stop them.
  std::unique_ptr<ksp::Solver> solver;
  if (GetParam().chebyshev) {
    solver = std::make_unique<ksp::Chebyshev>(settings, 10.0, 2.0e4);
  } else if (std::string(GetParam().type) == "richardson") {
    solver = std::make_unique<ksp::Richardson>(settings, 5e-5);
  } else {
    solver = ksp::make_solver(GetParam().type, settings);
  }

  const Vector b = ones(slow.rows());
  Vector x(slow.rows());
  x.set(0.0);
  ksp::SeqContext ctx(slow);
  const Clock::time_point t0 = Clock::now();
  const ksp::SolveResult res = solver->solve(ctx, b, x);
  const double elapsed = seconds_since(t0);

  EXPECT_EQ(res.reason, ksp::Reason::kDeadlineExceeded) << GetParam().type;
  EXPECT_FALSE(res.converged);
  // Valid partial result: progress was made, the residual is a real
  // number, and the best iterate is finite.
  EXPECT_GE(res.iterations, 1) << GetParam().type;
  EXPECT_TRUE(std::isfinite(res.residual_norm)) << GetParam().type;
  for (Index i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(std::isfinite(x[i])) << GetParam().type << " x[" << i << "]";
  }
  // The acceptance bound: DeadlineExceeded within 1.5x the requested wall
  // budget (one 2 ms iteration of slack is 1% of the budget).
  EXPECT_GE(elapsed, deadline_s * 0.5) << GetParam().type;
  EXPECT_LE(elapsed, deadline_s * 1.5) << GetParam().type;
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, BastionKspDeadline,
    ::testing::Values(KspCase{"cg"}, KspCase{"bicgstab"}, KspCase{"gmres"},
                      KspCase{"fgmres"}, KspCase{"richardson"},
                      KspCase{"chebyshev", true}),
    [](const ::testing::TestParamInfo<KspCase>& param_info) {
      return std::string(param_info.param.type);
    });

TEST(BastionKspDeadline, ConvergenceAtTheWireStillReportsSuccess) {
  // An easy solve under a generous deadline: the deadline must never
  // convert a success into a failure.
  const mat::Csr a = app::laplacian_dirichlet(16, 16);
  ksp::Settings settings;
  settings.rtol = 1e-10;
  settings.deadline = Deadline::after(3600.0);
  const Vector b = ones(a.rows());
  Vector x(a.rows());
  x.set(0.0);
  ksp::SeqContext ctx(a);
  const ksp::SolveResult res = ksp::Cg(settings).solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.reason, ksp::Reason::kConvergedRtol);
}

TEST(BastionKspDeadline, CooperativeCancelStopsASolveWithNoWallBudget) {
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(48, 48));
  const SlowMatrix slow(inner, 0.002);
  CancelSource src;
  ksp::Settings settings;
  settings.rtol = 1e-30;
  settings.max_iterations = 1000000;
  settings.deadline = Deadline().with_cancel(src);

  const Vector b = ones(slow.rows());
  Vector x(slow.rows());
  x.set(0.0);
  ksp::SeqContext ctx(slow);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    src.cancel();
  });
  const Clock::time_point t0 = Clock::now();
  const ksp::SolveResult res = ksp::Cg(settings).solve(ctx, b, x);
  const double elapsed = seconds_since(t0);
  canceller.join();
  EXPECT_EQ(res.reason, ksp::Reason::kDeadlineExceeded);
  EXPECT_GE(res.iterations, 1);
  EXPECT_LT(elapsed, 2.0);  // stopped promptly, not at max_iterations
}

TEST(BastionKspDeadline, AegisRecoveryDoesNotRestartAnExpiredSolve) {
  // kDeadlineExceeded is not a "broken" reason: with breakdown_recovery on,
  // the driver must return the expired result, not burn restarts on it.
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(32, 32));
  const SlowMatrix slow(inner, 0.002);
  ksp::Settings settings;
  settings.rtol = 1e-30;
  settings.max_iterations = 1000000;
  settings.breakdown_recovery = true;
  settings.max_restarts = 3;
  settings.deadline = Deadline::after(0.05);
  const Vector b = ones(slow.rows());
  Vector x(slow.rows());
  x.set(0.0);
  ksp::SeqContext ctx(slow);
  const ksp::SolveResult res = ksp::Cg(settings).solve(ctx, b, x);
  EXPECT_EQ(res.reason, ksp::Reason::kDeadlineExceeded);
  EXPECT_EQ(res.restarts, 0);
}

/// du/dt = -u with a sleep per residual/Jacobian so TS steps take real
/// wall time; the Jacobian is -I.
class SlowDecay final : public ts::RhsFunction {
 public:
  SlowDecay(Index n, double delay_s) : n_(n), delay_s_(delay_s) {}
  Index size() const override { return n_; }
  void rhs(const Vector& u, Vector& f) const override {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay_s_));
    f.resize(n_);
    for (Index i = 0; i < n_; ++i) f[i] = -u[i];
  }
  mat::Csr rhs_jacobian(const Vector&) const override {
    return mat::add(-1.0, mat::identity(n_), 0.0, mat::identity(n_));
  }

 private:
  Index n_;
  double delay_s_;
};

TEST(BastionSnesDeadline, ExpiredTokenStopsBeforeTheFirstStep) {
  SlowDecay f(8, 0.0);
  Vector u = ones(8);
  Vector u_before(8);
  u_before.copy_from(u);
  snes::NewtonOptions opts;
  opts.deadline = Deadline::after(-1.0);  // already expired
  // Wrap through TS to exercise the propagation chain in one shot.
  ts::ThetaOptions topts;
  topts.steps = 5;
  topts.newton = opts;
  topts.deadline = opts.deadline;
  const ts::ThetaResult res = ts::theta_integrate(f, u, topts);
  EXPECT_FALSE(res.completed);
  EXPECT_TRUE(res.deadline_exceeded);
  EXPECT_EQ(res.steps_taken, 0);
  EXPECT_EQ(std::memcmp(u.data(), u_before.data(), sizeof(Scalar) * 8), 0)
      << "an expired integration must not touch the state";
}

TEST(BastionTsDeadline, MidIntegrationDeadlineKeepsLastCompletedStep) {
  // ~6 ms per step (3 residual evaluations and a Jacobian per Newton
  // iteration at 2 ms each): a 60 ms budget completes some, not all 50.
  SlowDecay f(8, 0.002);
  Vector u = ones(8);
  ts::ThetaOptions opts;
  opts.steps = 50;
  opts.dt = 0.1;
  opts.deadline = Deadline::after(0.06);
  const Clock::time_point t0 = Clock::now();
  const ts::ThetaResult res = ts::theta_integrate(f, u, opts);
  const double elapsed = seconds_since(t0);
  EXPECT_FALSE(res.completed);
  EXPECT_TRUE(res.deadline_exceeded);
  EXPECT_LT(res.steps_taken, 50);
  EXPECT_LE(elapsed, 1.0);
  // u is the state after exactly steps_taken completed steps of decay:
  // every component shrank but stayed positive and finite.
  for (Index i = 0; i < u.size(); ++i) {
    ASSERT_TRUE(std::isfinite(u[i]));
    ASSERT_GT(u[i], 0.0);
    ASSERT_LE(u[i], 1.0);
  }
}

// --------------------------------------------------------------------------
// 4. Service: admission control, shedding determinism, degradation,
//    deadlines end-to-end, metrics
// --------------------------------------------------------------------------

TEST(BastionService, ServesConcurrentTenantsToCompletion) {
  const mat::Csr a = app::laplacian_dirichlet(16, 16);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add("lap", a);
  ServiceOptions opts;
  opts.workers = 3;
  opts.queue_depth = 16;
  SolveService service(reg, opts);

  std::vector<SolveService::Ticket> tickets;
  for (int i = 0; i < 12; ++i) {
    SolveRequest req;
    req.handle = "lap";
    req.tenant = "tenant_" + std::to_string(i % 3);
    req.ksp.rtol = 1e-10;
    req.b = ones(a.rows());
    tickets.push_back(service.submit(std::move(req)));
  }
  for (auto& t : tickets) {
    const SolveResponse resp = t.wait();
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    EXPECT_TRUE(resp.ksp.converged);
    EXPECT_GE(resp.queue_wait_s, 0.0);
    EXPECT_GT(resp.solve_s, 0.0);
  }
  const SolveService::Stats st = service.stats();
  EXPECT_EQ(st.accepted, 12u);
  EXPECT_EQ(st.completed, 12u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(service.queue_depth(), 0);
}

TEST(BastionService, QueueFullShedsDeterministicallyUnderSeededSchedule) {
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(12, 12));
  const auto latch = std::make_shared<LatchMatrix>(inner);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add_matrix("latched", latch);

  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 2;
  SolveService service(reg, opts);

  const auto make_req = [&](const std::string& tenant) {
    SolveRequest req;
    req.handle = "latched";
    req.tenant = tenant;
    req.ksp.rtol = 1e-8;
    req.b = ones(inner->rows());
    return req;
  };

  // First request is dequeued and blocks inside the latch; wait for that
  // so the queue state below is exact, not racy.
  std::vector<SolveService::Ticket> accepted;
  accepted.push_back(service.submit(make_req("t0")));
  latch->wait_entered();

  // Seeded schedule: the tenant mix varies with the seed, the outcome must
  // not — capacity is 1 in service + queue_depth queued; everything past
  // that sheds with a structured RejectedError.
  Rng rng(20260808);
  int shed = 0;
  for (int i = 0; i < 20; ++i) {
    std::string tenant = "t";
    tenant += std::to_string(rng.next_index(4));
    try {
      accepted.push_back(service.submit(make_req(tenant)));
    } catch (const RejectedError& e) {
      ++shed;
      EXPECT_EQ(e.queue_depth(), opts.queue_depth);
      EXPECT_GT(e.retry_after_hint_s(), 0.0);
    }
  }
  EXPECT_EQ(accepted.size(), 3u);  // 1 in service + 2 queued
  EXPECT_EQ(shed, 18);
  EXPECT_EQ(service.stats().shed, 18u);

  latch->release();
  for (auto& t : accepted) {
    const SolveResponse resp = t.wait();
    EXPECT_EQ(resp.status, Status::kOk) << resp.error;
  }
  const SolveService::Stats st = service.stats();
  EXPECT_EQ(st.accepted, 3u);
  EXPECT_EQ(st.completed, 3u);
}

TEST(BastionService, WatchdogDegradesBeforeSheddingAndCapsIterations) {
  const mat::Csr a = app::laplacian_dirichlet(24, 24);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add("lap", a);

  // window 2 / high 0.25: the submit observation (occupancy 0.5) plus the
  // dequeue observation (0.0) average exactly to the watermark, so the
  // very first request is served degraded — deterministically, because
  // observations are ordered under the service lock.
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 2;
  opts.degraded_max_iterations = 3;
  opts.watchdog.window = 2;
  opts.watchdog.high_watermark = 0.25;
  opts.watchdog.low_watermark = 0.0;
  SolveService service(reg, opts);

  SolveRequest req;
  req.handle = "lap";
  req.ksp.rtol = 1e-30;  // unreachable: only the degraded cap can stop it
  req.ksp.max_iterations = 10000;
  req.b = ones(a.rows());
  const SolveResponse resp = service.submit(std::move(req)).wait();
  EXPECT_EQ(resp.status, Status::kOk) << resp.error;
  EXPECT_TRUE(resp.degraded);
  EXPECT_LE(resp.ksp.iterations, 3);
  EXPECT_EQ(resp.ksp.reason, ksp::Reason::kDivergedMaxIts);
  EXPECT_GE(service.watchdog().degrade_events(), 1u);
  EXPECT_EQ(service.stats().degraded_served, 1u);
}

TEST(BastionService, DeadlineCoversQueueWaitAndSolve) {
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(48, 48));
  const auto slow = std::make_shared<SlowMatrix>(inner, 0.002);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add_matrix("slow", slow);

  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 4;
  SolveService service(reg, opts);

  SolveRequest req;
  req.handle = "slow";
  req.ksp.rtol = 1e-30;
  req.ksp.max_iterations = 1000000;
  req.b = ones(inner->rows());
  req.deadline_s = 0.2;
  const Clock::time_point t0 = Clock::now();
  const SolveResponse resp = service.submit(std::move(req)).wait();
  const double elapsed = seconds_since(t0);
  EXPECT_EQ(resp.status, Status::kDeadlineExceeded);
  EXPECT_EQ(resp.ksp.reason, ksp::Reason::kDeadlineExceeded);
  EXPECT_GE(resp.ksp.iterations, 1);
  EXPECT_LE(elapsed, 0.3);  // the acceptance 1.5x bound, end to end
  for (Index i = 0; i < resp.x.size(); ++i) {
    ASSERT_TRUE(std::isfinite(resp.x[i]));
  }
}

TEST(BastionService, ExpiredWhileQueuedResolvesWithoutSolving) {
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(12, 12));
  const auto latch = std::make_shared<LatchMatrix>(inner);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add_matrix("latched", latch);

  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 2;
  SolveService service(reg, opts);

  SolveRequest blocker;
  blocker.handle = "latched";
  blocker.b = ones(inner->rows());
  auto t_blocker = service.submit(std::move(blocker));
  latch->wait_entered();

  SolveRequest doomed;
  doomed.handle = "latched";
  doomed.b = ones(inner->rows());
  doomed.deadline_s = 0.01;  // expires while waiting behind the blocker
  auto t_doomed = service.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  latch->release();

  const SolveResponse resp = t_doomed.wait();
  EXPECT_EQ(resp.status, Status::kDeadlineExceeded);
  EXPECT_EQ(resp.solve_s, 0.0);  // never reached the solver
  EXPECT_GT(resp.queue_wait_s, 0.0);
  EXPECT_EQ(t_blocker.wait().status, Status::kOk);
}

TEST(BastionService, TicketCancelStopsARunningSolve) {
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(48, 48));
  const auto slow = std::make_shared<SlowMatrix>(inner, 0.002);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add_matrix("slow", slow);
  SolveService service(reg);

  SolveRequest req;
  req.handle = "slow";
  req.ksp.rtol = 1e-30;
  req.ksp.max_iterations = 1000000;
  req.b = ones(inner->rows());
  auto ticket = service.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(ticket.done());
  ticket.cancel();
  const SolveResponse resp = ticket.wait();
  EXPECT_EQ(resp.status, Status::kDeadlineExceeded);
  EXPECT_GE(resp.ksp.iterations, 1);
}

TEST(BastionService, UnknownHandleAndBadRhsFailStructurally) {
  const mat::Csr a = app::laplacian_dirichlet(8, 8);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add("lap", a);
  SolveService service(reg);

  SolveRequest req;
  req.handle = "nonexistent";
  req.b = ones(a.rows());
  SolveResponse resp = service.submit(std::move(req)).wait();
  EXPECT_EQ(resp.status, Status::kFailed);
  EXPECT_NE(resp.error.find("unknown handle"), std::string::npos);

  SolveRequest wrong;
  wrong.handle = "lap";
  wrong.b = ones(3);  // size mismatch
  resp = service.submit(std::move(wrong)).wait();
  EXPECT_EQ(resp.status, Status::kFailed);
  EXPECT_NE(resp.error.find("rhs size"), std::string::npos);
}

TEST(BastionService, ShutdownResolvesQueuedRequestsInsteadOfHanging) {
  const auto inner =
      std::make_shared<const mat::Csr>(app::laplacian_dirichlet(12, 12));
  const auto latch = std::make_shared<LatchMatrix>(inner);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add_matrix("latched", latch);

  std::vector<SolveService::Ticket> tickets;
  {
    ServiceOptions opts;
    opts.workers = 1;
    opts.queue_depth = 4;
    SolveService service(reg, opts);
    for (int i = 0; i < 3; ++i) {
      SolveRequest req;
      req.handle = "latched";
      req.b = ones(inner->rows());
      tickets.push_back(service.submit(std::move(req)));
    }
    latch->wait_entered();
    latch->release();
    // Destructor: in-flight request finishes; still-queued ones resolve.
  }
  int ok = 0, cancelled = 0;
  for (auto& t : tickets) {
    const SolveResponse resp = t.wait();  // must not hang
    if (resp.status == Status::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(resp.status, Status::kDeadlineExceeded);
      ++cancelled;
    }
  }
  EXPECT_GE(ok, 1);  // the in-flight one at minimum
  EXPECT_EQ(ok + cancelled, 3);
}

TEST(BastionService, SubmitAfterShutdownStartsIsRejected) {
  // Covered structurally: a full queue and a stopping service both shed
  // with RejectedError from submit(); exercise the option parser here too.
  Options o;
  o.set("svc_workers", "3");
  o.set("svc_queue_depth", "5");
  o.set("svc_deadline_ms", "250");
  o.set("svc_degraded_max_it", "7");
  o.set("svc_watchdog_window", "9");
  const ServiceOptions opts = ServiceOptions::from_options(o);
  EXPECT_EQ(opts.workers, 3);
  EXPECT_EQ(opts.queue_depth, 5);
  EXPECT_NEAR(opts.default_deadline_s, 0.25, 1e-12);
  EXPECT_EQ(opts.degraded_max_iterations, 7);
  EXPECT_EQ(opts.watchdog.window, 9);
}

TEST(BastionService, ExportsScopeMetrics) {
  const mat::Csr a = app::laplacian_dirichlet(12, 12);
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add("lap", a);
  SolveService service(reg);
  SolveRequest req;
  req.handle = "lap";
  req.ksp.rtol = 1e-10;
  req.b = ones(a.rows());
  EXPECT_EQ(service.submit(std::move(req)).wait().status, Status::kOk);

  prof::Profiler p;
  service.export_metrics(p);
  const auto metrics = p.metrics();
  EXPECT_EQ(metrics.at("svc/accepted"), 1.0);
  EXPECT_EQ(metrics.at("svc/completed"), 1.0);
  EXPECT_EQ(metrics.at("svc/shed"), 0.0);
  EXPECT_EQ(metrics.at("svc/deadline_exceeded"), 0.0);
  EXPECT_GT(metrics.at("svc/total_solve_s"), 0.0);
  EXPECT_EQ(metrics.at("svc/resident_bytes"),
            static_cast<double>(reg.resident_bytes()));
}

// --------------------------------------------------------------------------
// 5. Tenant isolation
// --------------------------------------------------------------------------

TEST(BastionIsolation, SabotagedTenantFaultsAloneCleanTenantBitwiseIntact) {
  const mat::Csr clean_csr = app::laplacian_dirichlet(24, 24);

  // Solo baseline: the clean tenant's solution with nothing else running.
  Vector x_solo;
  {
    MemoryBudget budget;
    MatrixRegistry reg(budget);
    reg.add("clean", clean_csr);
    SolveService service(reg);
    SolveRequest req;
    req.handle = "clean";
    req.ksp.rtol = 1e-10;
    req.b = ones(clean_csr.rows());
    const SolveResponse resp = service.submit(std::move(req)).wait();
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    x_solo = resp.x;
  }

  // Shared service: a sabotaged tenant (persistently corrupted operator
  // under ABFT — every multiply escalates to AbftError) hammers the
  // service while the clean tenant solves.
  MemoryBudget budget;
  MatrixRegistry reg(budget);
  reg.add("clean", clean_csr);
  auto sab_inner = std::make_shared<mat::Csr>(app::laplacian_dirichlet(8, 8));
  auto sab = std::make_shared<const aegis::AbftMatrix>(sab_inner);
  reg.add_matrix("sabotaged", sab);
  sab_inner->mutable_val()[0] += 1000.0;  // corrupt after checksum fixed

  ServiceOptions opts;
  opts.workers = 2;
  opts.queue_depth = 16;
  SolveService service(reg, opts);

  std::vector<SolveService::Ticket> sab_tickets;
  for (int i = 0; i < 6; ++i) {
    SolveRequest req;
    req.handle = "sabotaged";
    req.tenant = "attacker";
    req.b = ones(sab_inner->rows());
    sab_tickets.push_back(service.submit(std::move(req)));
  }
  SolveRequest clean_req;
  clean_req.handle = "clean";
  clean_req.tenant = "victim";
  clean_req.ksp.rtol = 1e-10;
  clean_req.b = ones(clean_csr.rows());
  auto clean_ticket = service.submit(std::move(clean_req));

  for (auto& t : sab_tickets) {
    const SolveResponse resp = t.wait();
    EXPECT_EQ(resp.status, Status::kFaulted);
    EXPECT_NE(resp.error.find("abft"), std::string::npos);
  }
  const SolveResponse clean_resp = clean_ticket.wait();
  ASSERT_EQ(clean_resp.status, Status::kOk) << clean_resp.error;
  ASSERT_EQ(clean_resp.x.size(), x_solo.size());
  EXPECT_EQ(std::memcmp(clean_resp.x.data(), x_solo.data(),
                        sizeof(Scalar) *
                            static_cast<std::size_t>(x_solo.size())),
            0)
      << "a concurrent sabotaged tenant changed the clean tenant's bits";

  const SolveService::Stats st = service.stats();
  EXPECT_EQ(st.faulted, 6u);
  EXPECT_EQ(st.completed, 1u);
  // The sabotaged handle's fault left the registry and budget coherent.
  EXPECT_TRUE(reg.has("sabotaged"));
  EXPECT_EQ(reg.resident_bytes(), budget.used_bytes());
}

}  // namespace
}  // namespace kestrel::svc
