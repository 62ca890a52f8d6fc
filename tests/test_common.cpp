// Unit tests for src/common: status/error model, RNG determinism, stats,
// key=value lists.

#include <gtest/gtest.h>

#include <string>

#include "common/kv_list.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"

namespace hs {
namespace {

TEST(Status, DefaultIsOk) {
  const Status st;
  EXPECT_TRUE(static_cast<bool>(st));
  EXPECT_EQ(st.code(), Errc::ok);
  EXPECT_NO_THROW(st.expect("context"));
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status st = Status::error(Errc::not_found, "missing stream 3");
  EXPECT_FALSE(static_cast<bool>(st));
  EXPECT_EQ(st.code(), Errc::not_found);
  EXPECT_EQ(st.message(), "missing stream 3");
}

TEST(Status, ExpectThrowsWithContext) {
  const Status st = Status::error(Errc::out_of_range, "offset 10 > size 4");
  try {
    st.expect("enqueue");
    FAIL() << "expect should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::out_of_range);
    EXPECT_NE(std::string(e.what()).find("enqueue"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("offset 10"), std::string::npos);
  }
}

TEST(Status, RequireThrowsOnFalse) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "broken"), Error);
  try {
    require(false, "broken", Errc::resource_exhausted);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::resource_exhausted);
  }
}

TEST(Status, ToStringCoversAllCodes) {
  EXPECT_EQ(to_string(Errc::ok), "ok");
  EXPECT_EQ(to_string(Errc::overlapping_operands), "overlapping_operands");
  EXPECT_EQ(to_string(Errc::buffer_not_instantiated),
            "buffer_not_instantiated");
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double acc = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    acc += rng.uniform();
  }
  EXPECT_NEAR(acc / kN, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Stats, MeanMedianStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 100.0};
  EXPECT_DOUBLE_EQ(mean(xs), 22.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_GT(stddev(xs), 40.0);
}

TEST(Stats, MedianEvenCount) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {4.0, -1.0, 3.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(Stats, EmptySampleThrows) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), Error);
  EXPECT_THROW((void)median(empty), Error);
  const std::vector<double> one = {1.0};
  EXPECT_THROW((void)stddev(one), Error);
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  // Column widths: "alpha" (5) and header "value" (5).
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(Table, FmtFormatsFixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(KvList, MalformedItemsAndNonNumbersRaiseHsError) {
  std::string seen;
  parse_kv_list("a=1,,b=x=y,", "TEST",
                [&](const std::string& k, const std::string& v) {
                  seen += k + ":" + v + ";";
                });
  EXPECT_EQ(seen, "a:1;b:x=y;");
  const auto ignore = [](const std::string&, const std::string&) {};
  EXPECT_THROW(parse_kv_list("seed=1,p_stall", "TEST", ignore), Error);
  EXPECT_THROW(parse_kv_list("=3", "TEST", ignore), Error);
  EXPECT_DOUBLE_EQ(kv_number("TEST", "p", "2e-4"), 2e-4);
  for (const char* value : {"", "abc", "1.5x", " 1"}) {
    EXPECT_THROW((void)kv_number("TEST", "p", value), Error) << value;
  }
}

}  // namespace
}  // namespace hs
