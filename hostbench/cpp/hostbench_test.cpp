// Tests for the benchmark's own arithmetic: slice percentiles, span self
// time, name rules and zero denominators.

#include <gtest/gtest.h>

#include <sstream>

#include "spans.hpp"
#include "stats.hpp"

namespace hostbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

TEST(TailPercentile, NearestRankOverHundredSlices) {
  // 100 samples: the 90th is the rank-90 value, with 10 beyond it.
  EXPECT_EQ(tail_percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(tail_percentile(one_to(200), 0.9), 180.0);
  EXPECT_EQ(tail_percentile(one_to(200), 0.5), 100.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(one_to(99), 0.9).has_value());
  EXPECT_TRUE(tail_percentile(one_to(100), 0.9).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.9).has_value());
  EXPECT_TRUE(tail_percentile(one_to(3), 0.5, 1).has_value());
}

TEST(TailPercentile, RejectsDegenerateQuantiles) {
  EXPECT_FALSE(tail_percentile(one_to(200), 0.0).has_value());
  EXPECT_FALSE(tail_percentile(one_to(200), 1.0).has_value());
}

TEST(Per, RejectsZeroDenominators) {
  EXPECT_DOUBLE_EQ(per(300.0, 3.0, "cells"), 100.0);
  EXPECT_THROW(per(300.0, 0.0, "cells"), std::domain_error);
  EXPECT_THROW(per(0.0, 0.0, "cells"), std::domain_error);
  EXPECT_THROW(per(1.0, -1.0, "cells"), std::domain_error);
  EXPECT_DOUBLE_EQ(per_or_zero(5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(per_or_zero(5.0, 2.0), 2.5);
}

TEST(ValidName, AllowsOnlyTheMetricAlphabet) {
  EXPECT_TRUE(valid_name("ns_per_cell"));
  EXPECT_TRUE(valid_name("sim.telemetry.entries_per_vc"));
  EXPECT_TRUE(valid_name("p2p-bulk"));
  EXPECT_TRUE(valid_name("9lives"));
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name("_leading"));
  EXPECT_FALSE(valid_name(".leading"));
  EXPECT_FALSE(valid_name("has space"));
  EXPECT_FALSE(valid_name("slash/name"));
  EXPECT_FALSE(valid_name("quote\"name"));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_name(std::string(64, 'a')));
}

TEST(SpanRecorder, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec(16);
  const auto root = rec.intern("root");
  const auto mid = rec.intern("mid");
  const auto leaf = rec.intern("leaf");
  rec.begin(root, 0);
  rec.begin(mid, 10);
  rec.begin(leaf, 20);
  rec.end(25);  // leaf: 5
  rec.begin(leaf, 30);
  rec.end(40);  // leaf: 10
  rec.end(50);  // mid: 40, children 15
  rec.begin(leaf, 60);
  rec.end(70);  // leaf directly under root: 10
  rec.end(100);  // root: 100, children 40 + 10
  EXPECT_EQ(rec.depth(), 0u);
  EXPECT_EQ(rec.totals(root).total_ns, 100);
  EXPECT_EQ(rec.totals(root).self_ns(), 50);
  EXPECT_EQ(rec.totals(mid).total_ns, 40);
  EXPECT_EQ(rec.totals(mid).self_ns(), 25);
  EXPECT_EQ(rec.totals(leaf).count, 3u);
  EXPECT_EQ(rec.totals(leaf).total_ns, 25);
  EXPECT_EQ(rec.totals(leaf).self_ns(), 25);
  // Parent links of the raw spans follow the nesting.
  ASSERT_EQ(rec.raw().size(), 5u);
  EXPECT_EQ(rec.raw()[0].parent, SpanRecorder::kNoParent);
  EXPECT_EQ(rec.raw()[1].parent, 0u);
  EXPECT_EQ(rec.raw()[2].parent, 1u);
  EXPECT_EQ(rec.raw()[4].parent, 0u);
}

TEST(SpanRecorder, SnapshotDiffTotalsOnePhase) {
  SpanRecorder rec(16);
  const auto a = rec.intern("a");
  rec.begin(a, 0);
  rec.end(7);
  const auto before = rec.snapshot();
  rec.begin(a, 10);
  rec.end(13);
  const auto after = rec.snapshot();
  EXPECT_EQ(after[a].count - before[a].count, 1u);
  EXPECT_EQ(after[a].total_ns - before[a].total_ns, 3);
}

TEST(SpanRecorder, RawCapIsPerNameAndKeepsTotalsExact) {
  SpanRecorder rec(2);
  const auto hot = rec.intern("hot");
  const auto rare = rec.intern("rare");
  for (int i = 0; i < 5; ++i) {
    rec.begin(hot, i * 10);
    rec.end(i * 10 + 4);
  }
  rec.begin(rare, 100);
  rec.end(101);
  EXPECT_EQ(rec.raw().size(), 3u);
  EXPECT_EQ(rec.raw_dropped(), 3u);
  EXPECT_EQ(rec.raw().back().name, rare);
  EXPECT_EQ(rec.totals(hot).count, 5u);
  EXPECT_EQ(rec.totals(hot).total_ns, 20);
}

TEST(SpanRecorder, ChromeTraceHasOneCompleteEventPerSpan) {
  SpanRecorder rec(8);
  const auto a = rec.intern("outer");
  const auto b = rec.intern("inner");
  rec.begin(a, 1000);
  rec.begin(b, 1500);
  rec.end(2500);
  rec.end(4000);
  std::ostringstream os;
  rec.write_chrome_trace(os, "p2p-bulk", 7);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"name\":\"outer\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"ts\":0.5,\"dur\":1,"), std::string::npos);
  EXPECT_NE(s.find("\"parent\":0"), std::string::npos);
  EXPECT_NE(s.find("\"workload\":\"p2p-bulk\""), std::string::npos);
}

}  // namespace
}  // namespace hostbench
