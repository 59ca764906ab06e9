// Tests of the benchmark's own arithmetic (perfbench/driver/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankSelection) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Select(v, 0.5).value, 50);
  EXPECT_EQ(Select(v, 0.9).value, 90);
  EXPECT_EQ(Select(v, 0.99).value, 99);
  EXPECT_EQ(Select(v, 1.0).value, 100);
  // Between ranks, nearest rank rounds up, never interpolates.
  EXPECT_EQ(Select(OneTo(10), 0.55).value, 6);
  EXPECT_EQ(Select({7.0}, 0.99).value, 7);
}

TEST(Percentile, SampleCountBehindEachPercentile) {
  const Quantile p99_of_100 = Select(OneTo(100), 0.99);
  EXPECT_EQ(p99_of_100.n, 100u);
  EXPECT_EQ(p99_of_100.beyond, 1u);  // too few for a trustworthy p99
  const Quantile p99_of_2000 = Select(OneTo(2000), 0.99);
  EXPECT_EQ(p99_of_2000.n, 2000u);
  EXPECT_EQ(p99_of_2000.beyond, 20u);
  const Quantile p90_of_100 = Select(OneTo(100), 0.9);
  EXPECT_EQ(p90_of_100.beyond, 10u);
}

TEST(Percentile, EmptySample) {
  const Quantile q = Select({}, 0.5);
  EXPECT_EQ(q.n, 0u);
  EXPECT_EQ(q.value, 0);
  EXPECT_EQ(q.beyond, 0u);
}

TEST(Windowed, DisturbedSpansDoNotMoveTheQuietQuantile) {
  // Five 1 s spans of latencies around 100; spans 1-3 are disturbed (x50).
  std::vector<Stamped> s;
  for (int span = 0; span < 5; ++span) {
    for (int i = 0; i < 100; ++i) {
      const std::int64_t at = span * 1000000000LL + i * 10000000LL;
      const double v = 100 + i % 10;
      s.push_back(Stamped{at, span >= 1 && span <= 3 ? v * 50 : v});
    }
  }
  const std::int64_t end = 5000000000LL;
  // Lower quartile of five span values = the 2nd smallest: undisturbed.
  EXPECT_EQ(WindowedQuantile(s, 0, end, 5, 0.5, kQuietLow), 104);
  EXPECT_EQ(WindowedQuantile(s, 0, end, 5, 0.9, kQuietLow), 108);
  // The median span is disturbed once three of five are.
  EXPECT_EQ(WindowedQuantile(s, 0, end, 5, 0.5, 0.5), 104 * 50);
  // Empty spans are skipped; no samples select 0.
  EXPECT_EQ(WindowedQuantile(s, 0, end, 10, 0.5, kQuietLow), 104);
  EXPECT_EQ(WindowedQuantile({}, 0, end, 5, 0.5, kQuietLow), 0);
}

TEST(Windowed, RateComesFromTheQuietSide) {
  // 2 s measured in four 0.5 s spans holding 10, 4, 2 and 12 events.
  std::vector<std::int64_t> t;
  const int per_span[] = {10, 4, 2, 12};
  for (int span = 0; span < 4; ++span) {
    for (int i = 0; i < per_span[span]; ++i) {
      t.push_back(span * 500000000LL + i);
    }
  }
  t.push_back(-1);            // before the window: ignored
  t.push_back(2000000000LL);  // at the end (exclusive): ignored
  // Upper quartile of {2, 4, 10, 12} per 0.5 s = 10 per 0.5 s.
  EXPECT_DOUBLE_EQ(WindowedRate(t, 0, 2000000000LL, 4, kQuietHigh), 20.0);
  EXPECT_DOUBLE_EQ(WindowedRate(t, 0, 2000000000LL, 4, 0.5), 8.0);
}

TEST(OpenLoop, DueTimesFollowTheRateNotTheSystem) {
  EXPECT_EQ(DueOffsetNs(0, 1000), 0);
  EXPECT_EQ(DueOffsetNs(1, 1000), 1000000);
  EXPECT_EQ(DueOffsetNs(2500, 1000), 2500000000);
}

TEST(OpenLoop, LatencyIsTimedFromDueNotFromSend) {
  // The generator stalled: a unit due at t=1ms was sent at t=5ms and
  // acked at t=6ms. Its latency is 5ms (the stall counts), not 1ms.
  const UnitTimes late{1000000, 5000000, 6000000};
  EXPECT_EQ(LatencyFromDueNs(late), 5000000);
  EXPECT_EQ(LagNs(late), 4000000);
  // A unit sent exactly on time has no lag; latency equals service time.
  const UnitTimes on_time{2000000, 2000000, 2300000};
  EXPECT_EQ(LatencyFromDueNs(on_time), 300000);
  EXPECT_EQ(LagNs(on_time), 0);
  // Lag never goes negative.
  EXPECT_EQ(LagNs(UnitTimes{5, 3, 9}), 0);
}

TEST(Coverage, SumOfLayerMeansOverEndToEndMean) {
  EXPECT_DOUBLE_EQ(Coverage({10, 20, 60}, 100), 0.9);
  EXPECT_DOUBLE_EQ(Coverage({50, 50}, 100), 1.0);
  // Overlapping layers show as coverage above 1.
  EXPECT_DOUBLE_EQ(Coverage({80, 40}, 100), 1.2);
  EXPECT_EQ(Coverage({1}, 0), 0);
}

TEST(FailedShare, DenominatorIsUnitsNotAttempts) {
  // 100 top-level transactions, 7 retried once and committed, 2 gave up
  // after their retries: 2 / 100, however many attempts were made.
  EXPECT_DOUBLE_EQ(FailedShare(2, 100), 0.02);
  EXPECT_EQ(FailedShare(0, 0), 0);
  EXPECT_DOUBLE_EQ(FailedShare(3, 3), 1.0);
}

}  // namespace
}  // namespace perfbench
