// Self-tests of the benchmark's own machinery: the percentile rule, seed
// determinism of the generated inputs, the span accounting invariant and
// the componentwise SpMV bound. The smoke runs of every workload are
// driven from run.py --self-test.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "mat/coo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_percentile() {
  std::vector<double> v99, v100;
  for (int i = 0; i < 99; ++i) v99.push_back(i);
  for (int i = 0; i < 100; ++i) v100.push_back(i);
  bool refused = false;
  try {
    percentile(v99, 90.0);
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  expect(refused, "percentile refuses p90 from 99 samples");
  expect(!percentile_supported(99, 90.0) && percentile_supported(100, 90.0),
         "percentile_supported: p90 needs 100 samples");
  expect(std::abs(percentile(v100, 90.0) - 89.1) < 1e-12,
         "p90 of 0..99 is 89.1");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of 1..4 is 2.5");
  expect(median({7.0}) == 7.0, "median of one sample");
}

void test_seed_determinism() {
  const Schedule a = make_schedule(11, 120.0, 500, 0.2);
  const Schedule b = make_schedule(11, 120.0, 500, 0.2);
  const Schedule c = make_schedule(12, 120.0, 500, 0.2);
  expect(a.at_s == b.at_s && a.large == b.large && a.rhs_seed == b.rhs_seed,
         "same seed, same arrival schedule and mix");
  expect(a.at_s != c.at_s, "another seed, another arrival schedule");
  int large = 0;
  for (char l : a.large) large += l;
  expect(large > 60 && large < 140, "mix is about 20% large requests (" +
                                        std::to_string(large) + "/500)");
  expect(make_rhs(11, 1000) == make_rhs(11, 1000) &&
             make_rhs(11, 1000) != make_rhs(12, 1000),
         "same seed, same right-hand side");
  const std::vector<int> its1 = dist_cg_iterations(11, 16, 3);
  const std::vector<int> its2 = dist_cg_iterations(11, 16, 3);
  expect(its1 == its2 && its1.size() == 3 && its1[0] > 0,
         "same seed, same dist_cg iteration counts");
}

Span span(const char* name, std::int64_t start_us, std::int64_t end_us,
          std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start_us * 1000;
  s.end_ns = end_us * 1000;
  s.parent = parent;
  s.op = 0;
  return s;
}

void test_accounting() {
  // op [0,100): a [0,40) with child a1 [5,25), b [40,90); 10 us unattributed.
  const std::vector<Span> good = {span("op", 0, 100, -1), span("a", 0, 40, 0),
                                  span("a1", 5, 25, 1), span("b", 40, 90, 0)};
  const Accounting acc = account(good, 2.0, 0);
  expect(acc.violations == 0 && acc.parents == 2,
         "accounting holds on a well-formed tree");
  expect(std::abs(self_ms(good, "op") - 0.010) < 1e-12 &&
             std::abs(self_ms(good, "a") - 0.020) < 1e-12,
         "unattributed = parent - children (op: 10 of 100 us, a: 20 of 40)");

  const std::vector<Span> overlap = {span("op", 0, 100, -1),
                                     span("a", 0, 60, 0), span("b", 40, 100, 0)};
  const Accounting bad = account(overlap, 2.0, 0);
  expect(bad.violations == 1 && bad.max_error_pct > 19.0,
         "overlapping children are a 20% accounting error");
  const std::vector<Span> leak = {span("op", 0, 100, -1),
                                  span("a", 50, 101, 0)};
  expect(account(leak, 2.0, 0).violations == 1,
         "a child ending after its parent is a violation");
  expect(account(leak, 2.0, 2000).violations == 0,
         "within the clock slack it is not");
}

void test_spmv_bound() {
  kestrel::mat::Coo coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 2, 1e-3);
  coo.add(1, 1, 2.0);
  coo.add(2, 0, -1.0);
  coo.add(2, 2, 3.0);
  const kestrel::mat::Csr a = coo.to_csr();
  const double x[3] = {0.1, 0.2, 0.3};
  double y[3] = {0.1 + 1e-3 * 0.3, 0.4, -0.1 + 0.9};
  expect(spmv_bound_violations(a, x, y) == 0, "exact product meets gamma_k");
  y[2] *= 1.0 + 1e-12;
  expect(spmv_bound_violations(a, x, y) == 1,
         "a 1e-12 relative error breaks gamma_2");
}

}  // namespace

int run_self_test() {
  test_percentile();
  test_seed_determinism();
  test_accounting();
  test_spmv_bound();
  std::printf("self-test: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
