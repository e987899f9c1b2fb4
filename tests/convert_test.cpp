// The format table (mat::convert): every name and alias builds its format,
// the formats multiply alike, and an unknown name is an error that lists
// the table.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "base/error.hpp"
#include "mat/bcsr.hpp"
#include "mat/convert.hpp"
#include "par/parmat.hpp"
#include "svc/registry.hpp"
#include "test_matrices.hpp"

namespace kestrel::mat {
namespace {

struct Name {
  const char* type;
  const char* format;
};

constexpr Name kNames[] = {{"csr", "csr"},         {"aij", "csr"},
                           {"csrperm", "csrperm"}, {"aijperm", "csrperm"},
                           {"sell", "sell"},       {"bcsr", "bcsr"},
                           {"baij", "bcsr"},       {"talon", "talon"},
                           {"spc5", "talon"}};

TEST(Convert, EveryNameAndAliasBuildsItsFormat) {
  const Csr csr = testing::banded(64, {-9, -1, 0, 1, 9});
  const auto x = testing::random_x(csr.cols());
  const auto expect = testing::dense_spmv(csr, x);
  for (const Name& n : kNames) {
    const std::shared_ptr<Matrix> m = convert(csr, n.type, 2);
    EXPECT_EQ(m->format_name(), n.format) << n.type;
    EXPECT_EQ(canonical_format(n.type), n.format) << n.type;
    EXPECT_EQ(m->nnz(), csr.nnz()) << n.type;
    Vector y(csr.rows());
    m->spmv(x.data(), y.data());
    for (Index i = 0; i < csr.rows(); ++i) {
      EXPECT_NEAR(y[i], expect[static_cast<std::size_t>(i)], 1e-12)
          << n.type << " row " << i;
    }
  }
}

TEST(Convert, BcsrTakesTheCallersBlockSize) {
  const Csr csr = testing::banded(48, {-1, 0, 1});
  for (const Index bs : {1, 3, 4}) {
    const auto m = convert(csr, "baij", bs);
    EXPECT_EQ(dynamic_cast<const Bcsr&>(*m).block_size(), bs);
  }
}

TEST(Convert, RvalueOverloadKeepsTheStorage) {
  Csr csr = testing::banded(32, {-1, 0, 1});
  const Scalar* val = csr.val();
  const auto m = convert(std::move(csr), "aij", 1);
  EXPECT_EQ(dynamic_cast<const Csr&>(*m).val(), val);
}

TEST(Convert, UnknownNameListsTheFiveNames) {
  const Csr csr = testing::banded(8, {0});
  try {
    (void)convert(csr, "foo", 2);
    FAIL() << "accepted 'foo'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'foo'"), std::string::npos) << what;
    EXPECT_NE(what.find("csr|csrperm|sell|bcsr|talon"), std::string::npos)
        << what;
  }
  EXPECT_THROW((void)canonical_format("SELL"), Error);
  EXPECT_THROW((void)canonical_format(""), Error);
}

// The table's callers accept the same names: ParMatrix's diagonal-block
// format and the solve service's handles.
TEST(Convert, CallersResolveAliasesThroughTheTable) {
  EXPECT_EQ(par::parse_diag_format("spc5"), par::DiagFormat::kTalon);
  EXPECT_EQ(par::parse_diag_format("aijperm"), par::DiagFormat::kCsrPerm);
  EXPECT_THROW((void)par::parse_diag_format("foo"), Error);

  MemoryBudget budget;
  svc::MatrixRegistry registry(budget);
  svc::HandleOptions opts;
  opts.format = "baij";
  opts.block_size = 2;
  const auto h = registry.add("a", testing::banded(16, {-1, 0, 1}), opts);
  EXPECT_EQ(h->info.format, "bcsr");
  opts.format = "foo";
  EXPECT_THROW((void)registry.add("b", testing::banded(16, {0}), opts),
               Error);
}

}  // namespace
}  // namespace kestrel::mat
