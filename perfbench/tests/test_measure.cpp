// Self-tests of the benchmark's own arithmetic (src/measure.*, src/cli.*).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli.h"
#include "measure.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankConvention) {
  // ceil(q * n), 1-based, clamped to [1, n].
  EXPECT_EQ(nearest_rank(100, 0.99), 99u);
  EXPECT_EQ(nearest_rank(100, 0.5), 50u);
  EXPECT_EQ(nearest_rank(101, 0.5), 51u);
  EXPECT_EQ(nearest_rank(10, 0.99), 10u);
  EXPECT_EQ(nearest_rank(1, 0.01), 1u);
  EXPECT_EQ(nearest_rank(7, 1.0), 7u);
  EXPECT_THROW(nearest_rank(0, 0.5), std::invalid_argument);
  EXPECT_THROW(nearest_rank(5, 0.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank(5, 1.5), std::invalid_argument);
}

TEST(Percentile, ReportsMeasuredSamplesWithoutInterpolation) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(quantile(v, 0.99), 99.0);
  EXPECT_EQ(quantile(v, 0.5), 50.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower middle
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer t;
  const std::size_t outer = t.layer("serve.pump");
  const std::size_t inner = t.layer("harness.bookkeeping");
  EXPECT_EQ(t.layer("serve.pump"), outer);
  t.begin(outer, 0.0);
  t.begin(inner, 1.0);
  EXPECT_DOUBLE_EQ(t.end(3.0), 2.0);
  t.begin(inner, 4.0);
  t.end(5.0);
  t.end(10.0);
  EXPECT_EQ(t.stat(outer).count, 1u);
  EXPECT_DOUBLE_EQ(t.stat(outer).total_s, 10.0);
  EXPECT_DOUBLE_EQ(t.stat(outer).self_s, 7.0);
  EXPECT_EQ(t.stat(inner).count, 2u);
  EXPECT_DOUBLE_EQ(t.stat(inner).self_s, 3.0);
  // Nested self times add up to the outermost span's duration.
  EXPECT_DOUBLE_EQ(t.total_self_s(), 10.0);
  EXPECT_DOUBLE_EQ(t.self_s_with_prefix("harness."), 3.0);
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_THROW(t.end(11.0), std::logic_error);
}

TEST(Accounting, UnaccountedShareIsTheUncoveredPartOfWall) {
  Tracer t;
  const std::size_t a = t.layer("serve.submit");
  const std::size_t h = t.layer("harness.generate");
  t.begin(a, 0.0);
  t.end(6.0);
  t.begin(h, 6.5);
  t.end(8.0);
  // Wall 10: 6 in the layer, 1.5 in the harness, 2.5 uncovered.
  EXPECT_DOUBLE_EQ(unaccounted_share(t.total_self_s(), 10.0), 0.25);
  EXPECT_DOUBLE_EQ(unaccounted_share(10.0, 10.0), 0.0);
  EXPECT_THROW(unaccounted_share(1.0, 0.0), std::invalid_argument);
}

TEST(Tally, CountsFailedItemsAgainstAttempted) {
  Tally t;
  EXPECT_EQ(t.failed_fraction(), 0.0);
  t.attempt(200);
  t.fail("event got no decision", 3);
  t.fail("decision differs from the reference");
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.failed_fraction(), 0.02);
  EXPECT_EQ(t.reasons().size(), 2u);
  t.fail("more failures than items", 1000);
  EXPECT_EQ(t.failed(), 200u);  // clamped
  EXPECT_DOUBLE_EQ(t.failed_fraction(), 1.0);
  Tally none;
  none.fail("failed before attempting");
  EXPECT_DOUBLE_EQ(none.failed_fraction(), 1.0);
}

TEST(Names, MetricNameCharset) {
  EXPECT_TRUE(valid_metric_name("latency_p99_us"));
  EXPECT_TRUE(valid_metric_name("sim.kernel_ns_per_stop.MOM-Rand"));
  EXPECT_TRUE(valid_metric_name("0x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("decisions per s"));
}

TEST(Report, RejectsBadMetricsAndPrintsOneJsonLine) {
  Report r;
  r.add("setup_s", 0.5, "s");
  r.add("capacity_per_s", 3.25e6, "1/s");
  EXPECT_THROW(r.add("setup_s", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("nan_value", 0.0 / 0.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("bad_unit", 1.0, "per second"), std::invalid_argument);
  EXPECT_EQ(r.json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
            "\"capacity_per_s\": {\"value\": 3250000, \"unit\": \"1/s\"}}}");
}

TEST(Cli, AcceptsTheFourFlagsOnce) {
  const std::vector<std::string> w = {"serve_warm", "engine_expected"};
  std::string err;
  auto a = parse_args({"--workload", "serve_warm", "--seed", "7",
                       "--seconds=10", "--trace", "1"},
                      w, err);
  ASSERT_TRUE(a) << err;
  EXPECT_EQ(a->workload, "serve_warm");
  EXPECT_EQ(a->seed, 7u);
  EXPECT_EQ(a->seconds, 10);
  EXPECT_TRUE(a->trace);
}

TEST(Cli, RejectsMisuse) {
  const std::vector<std::string> w = {"serve_warm"};
  const std::vector<std::string> ok = {"--workload", "serve_warm", "--seed",
                                       "1",          "--seconds",  "5",
                                       "--trace",    "0"};
  auto with = [&](std::size_t index, std::string value) {
    std::vector<std::string> v = ok;
    v[index] = std::move(value);
    return v;
  };
  std::string err;
  EXPECT_FALSE(parse_args({"--help"}, w, err));
  EXPECT_FALSE(parse_args(with(1, "nope"), w, err));
  EXPECT_FALSE(parse_args(with(3, "-1"), w, err));
  EXPECT_FALSE(parse_args(with(3, "12x"), w, err));
  EXPECT_FALSE(parse_args(with(3, "99999999999999999999"), w, err));
  EXPECT_FALSE(parse_args(with(5, "0"), w, err));
  EXPECT_FALSE(parse_args(with(5, ""), w, err));
  EXPECT_FALSE(parse_args(with(7, "2"), w, err));
  EXPECT_FALSE(parse_args(with(6, "--verbose"), w, err));
  std::vector<std::string> twice = ok;
  twice.insert(twice.end(), {"--seed", "2"});
  EXPECT_FALSE(parse_args(twice, w, err));
  EXPECT_NE(err.find("twice"), std::string::npos);
  std::vector<std::string> missing(ok.begin(), ok.end() - 2);
  EXPECT_FALSE(parse_args(missing, w, err));
  EXPECT_NE(err.find("--trace"), std::string::npos);
  std::vector<std::string> dangling(ok.begin(), ok.end() - 1);
  EXPECT_FALSE(parse_args(dangling, w, err));
}

TEST(Cli, ParseUintIsWholeAndBounded) {
  EXPECT_EQ(parse_uint("18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
  EXPECT_FALSE(parse_uint("18446744073709551616", 0, UINT64_MAX));
  EXPECT_FALSE(parse_uint(" 1", 0, 10));
  EXPECT_FALSE(parse_uint("+1", 0, 10));
  EXPECT_FALSE(parse_uint("11", 0, 10));
  EXPECT_EQ(parse_uint("0", 0, 10), 0u);
}

}  // namespace
}  // namespace perfbench
