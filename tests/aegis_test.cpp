// Kestrel Aegis fault-tolerance suite: deterministic fault plans, the
// transport's heal-or-fail guarantees under an 8-rank fault sweep,
// ABFT-checksummed SpMV detection and recovery across formats, and the
// solver breakdown/rollback ladder
// (KSP restart, SNES fresh-Jacobian retry, TS checkpoint rewind).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "aegis/abft.hpp"
#include "aegis/fault.hpp"
#include "app/laplacian.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "ksp/context.hpp"
#include "ksp/ksp.hpp"
#include "mat/bcsr.hpp"
#include "mat/coo.hpp"
#include "mat/csr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "par/parmat.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "snes/newton.hpp"
#include "test_matrices.hpp"
#include "ts/theta.hpp"

namespace kestrel {
namespace {

Vector random_x_vec(Index n, std::uint64_t seed) {
  const auto raw = testing::random_x(n, seed);
  Vector x(n);
  for (Index i = 0; i < n; ++i) x[i] = raw[static_cast<std::size_t>(i)];
  return x;
}

// --------------------------------------------------------------------------
// FaultPlan: parsing, determinism, kill bookkeeping
// --------------------------------------------------------------------------

TEST(FaultPlan, EmptySpecIsNull) {
  EXPECT_EQ(aegis::FaultPlan::parse(""), nullptr);
}

TEST(FaultPlan, ParsesClausesAndAccessors) {
  const auto plan = aegis::FaultPlan::parse(
      "seed=42,drop=0.25,delay_ms=3,repeat=2,max_retries=5,kill=3@20");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->seed(), 42u);
  EXPECT_EQ(plan->max_retries(), 5);
  EXPECT_DOUBLE_EQ(plan->delay_ms(), 3.0);
  EXPECT_TRUE(plan->corrupts_messages());
  // Kill-only plans skip message checksum work.
  const auto kill_only = aegis::FaultPlan::parse("kill=0@1");
  ASSERT_NE(kill_only, nullptr);
  EXPECT_FALSE(kill_only->corrupts_messages());
}

TEST(FaultPlan, SpecStringReplaysBitForBit) {
  const auto a = aegis::FaultPlan::parse("seed=7,drop=0.3,dup=0.2,reorder=0.1");
  ASSERT_NE(a, nullptr);
  // The logged spec is the replay handle: parsing it back must yield the
  // identical verdict for every (src, dst, tag, seq) tuple.
  const auto b = aegis::FaultPlan::parse(a->spec());
  ASSERT_NE(b, nullptr);
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      for (std::uint64_t seq = 0; seq < 32; ++seq) {
        const auto va = a->message_fault(src, dst, 5, seq);
        const auto vb = b->message_fault(src, dst, 5, seq);
        EXPECT_EQ(static_cast<int>(va.kind), static_cast<int>(vb.kind));
        EXPECT_EQ(va.repeat, vb.repeat);
      }
    }
  }
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const auto a = aegis::FaultPlan::parse("seed=1,drop=0.5");
  const auto b = aegis::FaultPlan::parse("seed=2,drop=0.5");
  int differs = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    if (a->message_fault(0, 1, 0, seq).kind !=
        b->message_fault(0, 1, 0, seq).kind) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlan, CertainProbabilityForcesKind) {
  const auto plan = aegis::FaultPlan::parse("drop=1.0");
  for (std::uint64_t seq = 0; seq < 16; ++seq) {
    const auto v = plan->message_fault(0, 1, 2, seq);
    EXPECT_EQ(static_cast<int>(v.kind),
              static_cast<int>(aegis::FaultKind::kDrop));
    EXPECT_GE(v.repeat, 1);
  }
}

TEST(FaultPlan, KillFiresExactlyOnceAtConfiguredConsultation) {
  const auto plan = aegis::FaultPlan::parse("kill=0@3");
  EXPECT_FALSE(plan->check_kill(0));
  EXPECT_FALSE(plan->check_kill(0));
  EXPECT_TRUE(plan->check_kill(0));   // third consultation
  EXPECT_FALSE(plan->check_kill(0));  // fires once, never again
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(plan->check_kill(1));
}

TEST(FaultPlan, MalformedClauseThrowsStructuredOptionsError) {
  for (const char* spec : {"drop=abc", "kill=5", "bogus=1", "seed="}) {
    try {
      aegis::FaultPlan::parse(spec);
      FAIL() << "expected OptionsError for spec: " << spec;
    } catch (const OptionsError& e) {
      EXPECT_EQ(e.key(), "aegis_faults") << spec;
      EXPECT_FALSE(e.expected().empty()) << spec;
    }
  }
}

TEST(FaultPlan, FromEnvReadsKestrelAegis) {
  ::setenv("KESTREL_AEGIS", "seed=9,drop=0.5", 1);
  const auto plan = aegis::FaultPlan::from_env();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->seed(), 9u);
  ::unsetenv("KESTREL_AEGIS");
  EXPECT_EQ(aegis::FaultPlan::from_env(), nullptr);
}

TEST(FaultPlan, ChecksumDetectsSingleBitFlip) {
  std::vector<double> buf(64, 1.25);
  const std::uint64_t clean =
      aegis::checksum_bytes(buf.data(), buf.size() * sizeof(double));
  std::uint64_t bits;
  std::memcpy(&bits, &buf[17], sizeof(bits));
  bits ^= 1ull << 3;
  std::memcpy(&buf[17], &bits, sizeof(bits));
  EXPECT_NE(clean,
            aegis::checksum_bytes(buf.data(), buf.size() * sizeof(double)));
}

TEST(AegisStats, PublishMetricsEmitsScopeNames) {
  aegis::stats().reset();
  aegis::stats().retries += 3;
  prof::Profiler log;
  aegis::publish_metrics(log);
  std::ostringstream os;
  prof::write_json_metrics(os, prof::reduce(log));
  EXPECT_NE(os.str().find("aegis/retries"), std::string::npos);
  EXPECT_NE(os.str().find("aegis/abft_verifications"), std::string::npos);
  aegis::stats().reset();
}

/// Sets KESTREL_FABRIC_HANG_TIMEOUT for one scope.
struct HangTimeoutEnv {
  explicit HangTimeoutEnv(const char* v) {
    ::setenv("KESTREL_FABRIC_HANG_TIMEOUT", v, 1);
  }
  ~HangTimeoutEnv() { ::unsetenv("KESTREL_FABRIC_HANG_TIMEOUT"); }
};

TEST(FabricTimeout, FractionalSecondsSetHangTimeout) {
  const HangTimeoutEnv env("0.25");
  EXPECT_EQ(par::FabricOptions().hang_timeout_s, 0.25);
}

TEST(FabricTimeout, MalformedHangTimeoutThrowsNamingTheVariable) {
  for (const char* bad : {"", "abc", "30s", "0.5 ", "nan", "inf"}) {
    const HangTimeoutEnv env(bad);
    try {
      (void)par::FabricOptions();
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("KESTREL_FABRIC_HANG_TIMEOUT"),
                std::string::npos)
          << e.what();
    }
  }
  // Numbers <= 0 stay valid: they turn hang detection off.
  const HangTimeoutEnv off("0");
  EXPECT_EQ(par::FabricOptions().hang_timeout_s, 0.0);
}

// --------------------------------------------------------------------------
// ABFT: column checksums across formats, detection, recovery, escalation
// --------------------------------------------------------------------------

TEST(Abft, ColumnChecksumAgreesAcrossFormats) {
  const mat::Csr csr = app::laplacian_dirichlet(16, 16);  // 256 rows: 2 | n
  Vector oracle;
  csr.abft_col_checksum(oracle);
  ASSERT_EQ(oracle.size(), csr.cols());

  const mat::Sell sell(csr);
  const mat::CsrPerm perm{mat::Csr(csr)};
  const mat::Bcsr bcsr(csr, 2);
  const mat::Talon talon(csr);
  const mat::Matrix* formats[] = {&sell, &perm, &bcsr, &talon};
  for (const mat::Matrix* m : formats) {
    Vector c;
    m->abft_col_checksum(c);
    ASSERT_EQ(c.size(), oracle.size()) << m->format_name();
    for (Index j = 0; j < oracle.size(); ++j) {
      // Summation order differs per format; only rounding-level drift.
      EXPECT_NEAR(c[j], oracle[j], 1e-12) << m->format_name() << " col " << j;
    }
  }
}

TEST(Abft, VerifyReductionsMatchScalarReference) {
  // dot_abs / sum_abs are tier-dispatched (scalar/AVX2/AVX-512); pin them
  // against a plain serial loop over an awkward (non-multiple-of-8) length.
  const Index n = 1003;
  std::vector<Scalar> c(n), x(n);
  Scalar ref_dot = 0.0, ref_dot_abs = 0.0, ref_sum = 0.0, ref_sum_abs = 0.0;
  for (Index i = 0; i < n; ++i) {
    c[i] = std::sin(0.1 * static_cast<Scalar>(i));
    x[i] = std::cos(0.07 * static_cast<Scalar>(i)) - 0.5;
  }
  for (Index i = 0; i < n; ++i) {
    ref_dot += c[i] * x[i];
    ref_dot_abs += std::abs(c[i] * x[i]);
    ref_sum += x[i];
    ref_sum_abs += std::abs(x[i]);
  }
  Scalar s = 0.0, as = 0.0;
  aegis::dot_abs(c.data(), x.data(), n, &s, &as);
  EXPECT_NEAR(s, ref_dot, 1e-10);
  EXPECT_NEAR(as, ref_dot_abs, 1e-10);
  aegis::sum_abs(x.data(), n, &s, &as);
  EXPECT_NEAR(s, ref_sum, 1e-10);
  EXPECT_NEAR(as, ref_sum_abs, 1e-10);
}

TEST(Abft, StaticVerifyFlagsPerturbedResult) {
  const mat::Csr csr = testing::banded(64, {-3, -1, 1, 3});
  Vector colsum;
  csr.abft_col_checksum(colsum);
  const Vector x = random_x_vec(64, 5);
  Vector y;
  csr.spmv(x, y);
  Scalar drift = 0.0;
  EXPECT_TRUE(aegis::AbftMatrix::verify(colsum, x.data(), y.data(), y.size(),
                                        1e-8, &drift));
  EXPECT_LT(drift, 1e-8);
  y[3] += 1.0;
  EXPECT_FALSE(aegis::AbftMatrix::verify(colsum, x.data(), y.data(), y.size(),
                                         1e-8, &drift));
  EXPECT_GT(drift, 0.5);
}

TEST(Abft, TransientHighBitFlipDetectedAndRecovered) {
  aegis::stats().reset();
  const aegis::AbftMatrix a(
      std::make_shared<mat::Csr>(testing::banded(80, {-2, -1, 1, 2})));
  const Vector x = random_x_vec(80, 9);
  Vector y_clean;
  a.inner().spmv(x, y_clean);

  // Soft error model: flip an exponent-region bit of one entry right after
  // the multiply. The recompute-retry must restore the clean result.
  a.inject_fault_once([](Scalar* y, Index n) {
    std::uint64_t bits;
    std::memcpy(&bits, &y[n / 2], sizeof(bits));
    bits ^= 1ull << 62;
    std::memcpy(&y[n / 2], &bits, sizeof(bits));
  });
  Vector y;
  a.spmv(x, y);
  for (Index i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_clean[i]);
  EXPECT_EQ(aegis::stats().abft_failures.load(), 1u);
  EXPECT_EQ(aegis::stats().abft_retries.load(), 1u);
  EXPECT_GE(aegis::stats().abft_verifications.load(), 2u);
}

TEST(Abft, LowMantissaFlipIsBelowThresholdByDesign) {
  // Documented design point: a flip in the lowest mantissa bit perturbs the
  // sum by less than the tolerance band and is indistinguishable from
  // rounding — verification passes and no retry fires.
  aegis::stats().reset();
  const aegis::AbftMatrix a(
      std::make_shared<mat::Csr>(testing::banded(80, {-2, -1, 1, 2})));
  a.inject_fault_once([](Scalar* y, Index) {
    std::uint64_t bits;
    std::memcpy(&bits, &y[0], sizeof(bits));
    bits ^= 1ull;
    std::memcpy(&y[0], &bits, sizeof(bits));
  });
  const Vector x = random_x_vec(80, 9);
  Vector y;
  a.spmv(x, y);
  EXPECT_EQ(aegis::stats().abft_failures.load(), 0u);
}

TEST(Abft, PersistentCorruptionEscalatesToAbftError) {
  aegis::stats().reset();
  auto inner = std::make_shared<mat::Csr>(testing::banded(48, {-1, 1}));
  const aegis::AbftMatrix a(inner);  // colsum fixed from the clean values
  inner->mutable_val()[0] += 1000.0;  // corrupt the operator storage itself
  const Vector x = random_x_vec(48, 3);
  Vector y;
  try {
    a.spmv(x, y);
    FAIL() << "expected AbftError";
  } catch (const AbftError& e) {
    EXPECT_NE(e.format().find("csr"), std::string::npos);
    EXPECT_GT(e.drift(), 1.0);
  }
  // One failed multiply: initial verify failed, retry verified and failed
  // again, then escalated.
  EXPECT_EQ(aegis::stats().abft_failures.load(), 1u);
  EXPECT_EQ(aegis::stats().abft_retries.load(), 1u);
  EXPECT_EQ(aegis::stats().abft_verifications.load(), 2u);
}

TEST(Abft, VerifyEverySamplesAlternateMultiplies) {
  aegis::stats().reset();
  aegis::AbftOptions opts;
  opts.verify_every = 2;
  const aegis::AbftMatrix a(
      std::make_shared<mat::Csr>(testing::banded(32, {-1, 1})), opts);
  const Vector x = random_x_vec(32, 1);
  Vector y;
  for (int i = 0; i < 4; ++i) a.spmv(x, y);
  EXPECT_EQ(aegis::stats().abft_verifications.load(), 2u);
  EXPECT_THROW(aegis::AbftMatrix(
                   std::make_shared<mat::Csr>(testing::banded(8, {1})),
                   aegis::AbftOptions{1e-8, 1, 0}),
               Error);
}

// --------------------------------------------------------------------------
// 8-rank fault sweep: every recoverable fault kind must yield the
// bitwise-identical CG solve; kill must surface a structured RankFailure on
// every rank.
// --------------------------------------------------------------------------

std::vector<std::vector<Scalar>> fault_swept_cg(
    const mat::Csr& a, const Vector& b, int nranks,
    std::shared_ptr<const aegis::FaultPlan> plan) {
  auto layout =
      std::make_shared<par::Layout>(par::Layout::even(a.rows(), nranks));
  par::FabricOptions fopts;
  fopts.faults = std::move(plan);
  std::vector<std::vector<Scalar>> solution(
      static_cast<std::size_t>(nranks));
  par::Fabric::run(nranks, fopts, [&](par::Comm& comm) {
    par::ParMatrixOptions popts;
    popts.abft = true;  // exercise the distributed verify under faults too
    const par::ParMatrix pa =
        par::ParMatrix::from_global(a, layout, comm, popts);
    par::ParVector pb(layout, comm.rank());
    pb.set_from_global(b);
    Vector x(pa.local_rows());
    ksp::Settings settings;
    settings.rtol = 1e-10;
    settings.max_iterations = 500;
    const ksp::Cg cg(settings);
    ksp::ParContext ctx(pa, comm);
    const ksp::SolveResult res = cg.solve(ctx, pb.local(), x);
    EXPECT_TRUE(res.converged) << "rank " << comm.rank();
    solution[static_cast<std::size_t>(comm.rank())].assign(
        x.data(), x.data() + x.size());
  });
  return solution;
}

TEST(FaultSweep, RecoverableFaultsYieldBitwiseIdenticalSolve) {
  const int nranks = 8;
  // SPD operator (CG requires symmetry): 12x8 Dirichlet Laplacian, 96 rows.
  const mat::Csr a = app::laplacian_dirichlet(12, 8);
  Vector b(96);
  for (Index i = 0; i < 96; ++i) b[i] = std::sin(0.3 * (i + 1));

  const auto baseline = fault_swept_cg(a, b, nranks, nullptr);
  const char* specs[] = {
      "seed=11,drop=0.3",   "seed=11,delay=0.3,delay_ms=1",
      "seed=11,dup=0.3",    "seed=11,reorder=0.3",
      "seed=11,bitflip=0.2",
      "seed=13,drop=0.1,delay=0.1,dup=0.1,reorder=0.1,bitflip=0.05",
  };
  for (const char* spec : specs) {
    aegis::stats().reset();
    const auto faulted =
        fault_swept_cg(a, b, nranks, aegis::FaultPlan::parse(spec));
    EXPECT_GT(aegis::stats().faults_injected.load(), 0u) << spec;
    for (int r = 0; r < nranks; ++r) {
      const auto& want = baseline[static_cast<std::size_t>(r)];
      const auto& got = faulted[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), want.size()) << spec << " rank " << r;
      for (std::size_t i = 0; i < want.size(); ++i) {
        // Bitwise identity: healed transport faults must be invisible.
        EXPECT_EQ(got[i], want[i]) << spec << " rank " << r << " idx " << i;
      }
    }
  }
}

TEST(FaultSweep, KillSurfacesRankFailureOnEveryRank) {
  const int nranks = 8;
  const int victim = 2;
  const mat::Csr a = testing::banded(96, {-8, -1, 1, 8});
  Vector b(96);
  for (Index i = 0; i < 96; ++i) b[i] = 1.0;
  auto layout = std::make_shared<par::Layout>(par::Layout::even(96, nranks));
  par::FabricOptions fopts;
  fopts.faults = aegis::FaultPlan::parse("kill=2@30");

  // Fabric::run rethrows only the root-cause rank's exception, so the
  // every-rank guarantee is asserted from inside the rank lambda.
  std::vector<std::atomic<int>> observed(static_cast<std::size_t>(nranks));
  for (auto& o : observed) o.store(-1);
  aegis::stats().reset();
  EXPECT_THROW(
      par::Fabric::run(nranks, fopts,
                       [&](par::Comm& comm) {
                         try {
                           const par::ParMatrix pa =
                               par::ParMatrix::from_global(a, layout, comm);
                           par::ParVector pb(layout, comm.rank());
                           pb.set_from_global(b);
                           Vector x(pa.local_rows());
                           ksp::Settings settings;
                           settings.max_iterations = 500;
                           const ksp::Cg cg(settings);
                           ksp::ParContext ctx(pa, comm);
                           cg.solve(ctx, pb.local(), x);
                           comm.barrier();  // survivors block until aborted
                         } catch (const RankFailure& e) {
                           observed[static_cast<std::size_t>(comm.rank())]
                               .store(e.failed_rank());
                           throw;
                         }
                       }),
      RankFailure);
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(observed[static_cast<std::size_t>(r)].load(), victim)
        << "rank " << r << " did not observe the structured failure";
  }
  EXPECT_EQ(aegis::stats().rank_kills.load(), 1u);
}

// --------------------------------------------------------------------------
// KSP breakdown zoo + recovery driver
// --------------------------------------------------------------------------

mat::Csr indefinite_diag(Index n) {
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) coo.add(i, i, (i % 2 == 0) ? 1.0 : -1.0);
  return coo.to_csr();
}

TEST(KspBreakdown, CgOnIndefiniteMatrixReportsBreakdown) {
  const mat::Csr a = indefinite_diag(8);
  Vector b(8), x(8);
  b.set(1.0);
  x.set(0.0);
  ksp::SeqContext ctx(a);
  const ksp::SolveResult res = ksp::Cg(ksp::Settings{}).solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.reason, ksp::Reason::kDivergedBreakdown);
}

TEST(KspBreakdown, NanRhsReportsDivergedNan) {
  const mat::Csr a = testing::banded(16, {-1, 1});
  Vector b(16), x(16);
  b.set(1.0);
  b[0] = std::numeric_limits<Scalar>::quiet_NaN();
  x.set(0.0);
  ksp::SeqContext ctx(a);
  for (const char* type : {"cg", "gmres", "bicgstab"}) {
    x.set(0.0);
    const ksp::SolveResult res =
        ksp::make_solver(type)->solve(ctx, b, x);
    EXPECT_FALSE(res.converged) << type;
    EXPECT_EQ(res.reason, ksp::Reason::kDivergedNan) << type;
  }
}

TEST(KspBreakdown, BiCgStabOnZeroOperatorBreaksDown) {
  mat::Coo coo(8, 8);
  for (Index i = 0; i < 8; ++i) coo.add(i, i, 0.0);
  const mat::Csr a = coo.to_csr();
  Vector b(8), x(8);
  b.set(1.0);
  x.set(0.0);
  ksp::SeqContext ctx(a);
  const ksp::SolveResult res = ksp::BiCgStab(ksp::Settings{}).solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.reason, ksp::Reason::kDivergedBreakdown);
}

TEST(KspBreakdown, MaxIterationsReported) {
  const mat::Csr a = testing::banded(64, {-4, -1, 1, 4});
  Vector b(64), x(64);
  b.set(1.0);
  x.set(0.0);
  ksp::Settings settings;
  settings.rtol = 1e-30;
  settings.atol = 0.0;
  settings.max_iterations = 2;
  ksp::SeqContext ctx(a);
  const ksp::SolveResult res = ksp::Cg(settings).solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.reason, ksp::Reason::kDivergedMaxIts);
}

TEST(KspBreakdown, ReasonNamesAreStable) {
  EXPECT_STREQ(ksp::reason_name(ksp::Reason::kDivergedBreakdown),
               "diverged_breakdown");
  EXPECT_STREQ(ksp::reason_name(ksp::Reason::kDivergedNan), "diverged_nan");
}

/// Context that sabotages exactly one operator application: either poisons
/// y with a NaN (transient soft error) or throws AbftError (unrecoverable
/// checksum escalation from a wrapped format).
class SabotageContext final : public ksp::LinearContext {
 public:
  SabotageContext(const mat::Matrix& a, int sabotage_call, bool throw_abft)
      : a_(a), sabotage_call_(sabotage_call), throw_abft_(throw_abft) {}

  Index local_size() const override { return a_.rows(); }
  void apply_operator(const Vector& x, Vector& y) override {
    a_.spmv(x, y);
    if (++calls_ == sabotage_call_) {
      if (throw_abft_) {
        throw AbftError(a_.format_name(), 42.0, "injected corruption",
                        __FILE__, __LINE__);
      }
      y[0] = std::numeric_limits<Scalar>::quiet_NaN();
    }
  }
  int calls() const { return calls_; }

 private:
  const mat::Matrix& a_;
  int sabotage_call_;
  bool throw_abft_;
  int calls_ = 0;
};

TEST(KspRecovery, RestartRecoversFromTransientNan) {
  aegis::stats().reset();
  // SPD operator so CG converges too: 8x6 Dirichlet Laplacian, 48 rows.
  const mat::Csr a = app::laplacian_dirichlet(8, 6);
  Vector b(48), x(48);
  b.set(1.0);
  ksp::Settings settings;
  settings.rtol = 1e-10;
  for (const char* type : {"cg", "gmres", "bicgstab", "fgmres"}) {
    SabotageContext poisoned(a, 2, /*throw_abft=*/false);
    x.set(0.0);
    settings.breakdown_recovery = false;
    const ksp::SolveResult plain =
        ksp::make_solver(type, settings)->solve(poisoned, b, x);
    EXPECT_FALSE(plain.converged) << type;

    SabotageContext recovered_ctx(a, 2, /*throw_abft=*/false);
    x.set(0.0);
    settings.breakdown_recovery = true;
    settings.max_restarts = 2;
    const ksp::SolveResult res =
        ksp::make_solver(type, settings)->solve(recovered_ctx, b, x);
    EXPECT_TRUE(res.converged) << type;
    EXPECT_GE(res.restarts, 1) << type;
    Vector r(48);
    a.spmv(x, r);
    for (Index i = 0; i < 48; ++i) r[i] = b[i] - r[i];
    EXPECT_LT(r.norm2(), 1e-7) << type;
  }
  EXPECT_GE(aegis::stats().solver_restarts.load(), 4u);
  EXPECT_GE(aegis::stats().recoveries.load(), 4u);
}

TEST(KspRecovery, AbftErrorCaughtByDriverWhenEnabled) {
  const mat::Csr a = app::laplacian_dirichlet(8, 6);
  Vector b(48), x(48);
  b.set(1.0);
  ksp::Settings settings;
  settings.rtol = 1e-10;

  SabotageContext throwing(a, 2, /*throw_abft=*/true);
  x.set(0.0);
  EXPECT_THROW(ksp::Cg(settings).solve(throwing, b, x), AbftError);

  SabotageContext recovered_ctx(a, 2, /*throw_abft=*/true);
  x.set(0.0);
  settings.breakdown_recovery = true;
  const ksp::SolveResult res =
      ksp::Cg(settings).solve(recovered_ctx, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.restarts, 1);
}

TEST(KspRecovery, RestartBudgetExhaustionSurfacesFailure) {
  const mat::Csr a = testing::banded(48, {-4, -1, 1, 4});
  Vector b(48), x(48);
  b.set(1.0);
  x.set(0.0);
  ksp::Settings settings;
  settings.breakdown_recovery = true;
  settings.max_restarts = 1;
  // Sabotage every single application: no restart can help.
  class AlwaysNan final : public ksp::LinearContext {
   public:
    explicit AlwaysNan(const mat::Matrix& a) : a_(a) {}
    Index local_size() const override { return a_.rows(); }
    void apply_operator(const Vector& x, Vector& y) override {
      a_.spmv(x, y);
      y[0] = std::numeric_limits<Scalar>::quiet_NaN();
    }
   private:
    const mat::Matrix& a_;
  } ctx(a);
  const ksp::SolveResult res = ksp::Cg(settings).solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.restarts, 1);
}

// --------------------------------------------------------------------------
// SNES fresh-Jacobian retry and TS checkpoint rollback
// --------------------------------------------------------------------------

/// Linear "nonlinear" problem F(u) = A u - b with analytic Jacobian A.
class LinearProblem final : public snes::NonlinearFunction {
 public:
  LinearProblem(mat::Csr a, Vector b) : a_(std::move(a)), b_(std::move(b)) {}
  Index size() const override { return a_.rows(); }
  void residual(const Vector& u, Vector& f) const override {
    a_.spmv(u, f);
    for (Index i = 0; i < f.size(); ++i) f[i] -= b_[i];
  }
  mat::Csr jacobian(const Vector&) const override { return a_; }

 private:
  mat::Csr a_;
  Vector b_;
};

TEST(SnesRecovery, FreshJacobianRetryAfterAbftError) {
  aegis::stats().reset();
  const mat::Csr a = testing::banded(24, {-2, -1, 1, 2});
  Vector b(24);
  b.set(1.0);
  const LinearProblem prob(a, b);

  snes::NewtonOptions opts;
  opts.ksp.rtol = 1e-12;
  int factory_calls = 0;
  // First assembly hands the KSP an operator whose storage is corrupted
  // after the ABFT checksum was fixed — every multiply escalates to
  // AbftError. The retry rebuilds from the user callback and succeeds.
  opts.format_factory =
      [&factory_calls](const mat::Csr& jac) -> std::shared_ptr<const mat::Matrix> {
    auto inner = std::make_shared<mat::Csr>(jac);
    auto wrapped = std::make_shared<aegis::AbftMatrix>(inner);
    if (++factory_calls == 1) inner->mutable_val()[0] += 1000.0;
    return wrapped;
  };

  Vector u(24);
  u.set(0.0);
  const snes::NewtonResult res = snes::newton_solve(prob, u, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.abft_retries, 1);
  EXPECT_GE(factory_calls, 2);
  Vector f(24);
  prob.residual(u, f);
  EXPECT_LT(f.norm2(), 1e-8);
  EXPECT_GE(aegis::stats().recoveries.load(), 1u);
}

/// du/dt = -u with one sabotaged rhs evaluation (returns NaN once).
class DecayWithGlitch final : public ts::RhsFunction {
 public:
  DecayWithGlitch(Index n, int fail_call) : n_(n), fail_call_(fail_call) {}
  Index size() const override { return n_; }
  void rhs(const Vector& u, Vector& f) const override {
    for (Index i = 0; i < n_; ++i) f[i] = -u[i];
    if (++calls_ == fail_call_) {
      f[0] = std::numeric_limits<Scalar>::quiet_NaN();
    }
  }
  mat::Csr rhs_jacobian(const Vector&) const override {
    mat::Coo coo(n_, n_);
    for (Index i = 0; i < n_; ++i) coo.add(i, i, -1.0);
    return coo.to_csr();
  }

 private:
  Index n_;
  int fail_call_;
  mutable int calls_ = 0;
};

TEST(TsRecovery, CheckpointRollbackReplaysGlitchedStep) {
  aegis::stats().reset();
  const Index n = 8;
  ts::ThetaOptions opts;
  opts.theta = 0.5;
  opts.dt = 0.1;
  opts.steps = 6;
  opts.newton.ksp.rtol = 1e-12;
  opts.checkpoint_every = 1;
  opts.max_rollbacks = 2;

  const DecayWithGlitch glitched(n, /*fail_call=*/5);
  Vector u(n);
  u.set(1.0);
  const ts::ThetaResult res = ts::theta_integrate(glitched, u, opts);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.steps_taken, 6);
  EXPECT_GE(res.rollbacks, 1);
  EXPECT_GE(aegis::stats().rollbacks.load(), 1u);

  // The replayed trajectory must match the glitch-free integration.
  const DecayWithGlitch clean(n, /*fail_call=*/0);
  Vector u_ref(n);
  u_ref.set(1.0);
  ts::ThetaOptions ref_opts = opts;
  ref_opts.checkpoint_every = 0;
  ASSERT_TRUE(ts::theta_integrate(clean, u_ref, ref_opts).completed);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(u[i], u_ref[i], 1e-12);
}

TEST(TsRecovery, WithoutCheckpointingGlitchFailsTheRun) {
  const DecayWithGlitch glitched(8, /*fail_call=*/5);
  Vector u(8);
  u.set(1.0);
  ts::ThetaOptions opts;
  opts.dt = 0.1;
  opts.steps = 6;
  opts.checkpoint_every = 0;  // rollback disabled
  const ts::ThetaResult res = ts::theta_integrate(glitched, u, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.rollbacks, 0);
}

}  // namespace
}  // namespace kestrel
