// Tests of the benchmark's own rules: the Poisson schedule and fault
// pattern are functions of the seed, the percentile rule, and the failure
// accounting against due requests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "loadgen.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using scwc::serve::RejectReason;
using scwc::serve::ServeResult;

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOther) {
  const std::vector<double> a = poisson_schedule(42, 1000.0, 2.0);
  const std::vector<double> b = poisson_schedule(42, 1000.0, 2.0);
  const std::vector<double> c = poisson_schedule(43, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, AscendingInsideTheWindowAtTheOfferedRate) {
  const std::vector<double> due = poisson_schedule(7, 5000.0, 4.0);
  ASSERT_FALSE(due.empty());
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_LE(due[i - 1], due[i]);
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 4.0);
  // 20000 expected arrivals; the count's standard deviation is ~141.
  EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 800.0);
}

TEST(PoissonSchedule, EmptyForNoRateOrNoTime) {
  EXPECT_TRUE(poisson_schedule(1, 0.0, 1.0).empty());
  EXPECT_TRUE(poisson_schedule(1, 100.0, 0.0).empty());
}

scwc::telemetry::TimeSeries clean_series() {
  scwc::telemetry::TimeSeries s;
  s.sample_hz = 1.0;
  s.values = scwc::linalg::Matrix(600, 7);
  for (std::size_t i = 0; i < 600 * 7; ++i) {
    s.values.flat()[i] = static_cast<double>(i % 97);
  }
  return s;
}

std::vector<bool> missing_mask(const scwc::telemetry::TimeSeries& s) {
  std::vector<bool> mask;
  for (const double v : s.values.flat()) mask.push_back(!std::isfinite(v));
  return mask;
}

TEST(StreamFaults, SameSeedSamePatternOtherSeedOther) {
  auto a = clean_series();
  auto b = clean_series();
  auto c = clean_series();
  (void)inject_stream_faults(a, 99);
  (void)inject_stream_faults(b, 99);
  (void)inject_stream_faults(c, 100);
  EXPECT_EQ(missing_mask(a), missing_mask(b));
  EXPECT_NE(missing_mask(a), missing_mask(c));
  EXPECT_EQ(a.steps(), 600u);  // no truncation: windows stay aligned
}

TEST(StreamFaults, InjectsDropoutAndNanRuns) {
  auto s = clean_series();
  const auto summary = inject_stream_faults(s, 5);
  EXPECT_GT(summary.dropped_steps, 0u);
  EXPECT_GT(summary.nan_values, 0u);
  EXPECT_EQ(summary.truncated_steps, 0u);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(quantile(v, 0.5), 50.0);
  EXPECT_EQ(quantile(v, 0.99), 99.0);
  EXPECT_EQ(quantile(v, 1.0), 100.0);
  EXPECT_EQ(quantile(v, 0.0), 1.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
  TailPercentile t = highest_supported_percentile(one_to(100));
  EXPECT_TRUE(t.supported);
  EXPECT_DOUBLE_EQ(t.q, 0.9);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100u);

  // 1000 samples: p99 leaves 10 beyond.
  t = highest_supported_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990.0);

  // 999 samples: p99 leaves 9, so p90 is the highest supported.
  t = highest_supported_percentile(one_to(999));
  EXPECT_DOUBLE_EQ(t.q, 0.9);

  // 100000 samples: p99.99 leaves 10 beyond.
  t = highest_supported_percentile(one_to(100000));
  EXPECT_DOUBLE_EQ(t.q, 0.9999);
  EXPECT_EQ(t.samples, 100000u);
}

TEST(Percentile, TooFewSamplesForAnyTail) {
  const TailPercentile t = highest_supported_percentile(one_to(19));
  EXPECT_FALSE(t.supported);
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(t.samples, 19u);
  EXPECT_TRUE(highest_supported_percentile(one_to(20)).supported);
}

ServeResult accepted() {
  ServeResult r;
  r.accepted = true;
  return r;
}

ServeResult refused(RejectReason reason) {
  ServeResult r;
  r.accepted = false;
  r.reject_reason = reason;
  return r;
}

TEST(Accounting, VerdictOutcomes) {
  EXPECT_EQ(classify_verdict(accepted(), 0.010, 0.020), Outcome::kOnTime);
  EXPECT_EQ(classify_verdict(accepted(), 0.020, 0.020), Outcome::kOnTime);
  EXPECT_EQ(classify_verdict(accepted(), 0.021, 0.020), Outcome::kLate);
  EXPECT_EQ(classify_verdict(refused(RejectReason::kQueueFull), 0.0, 0.02),
            Outcome::kShed);
  EXPECT_EQ(classify_verdict(refused(RejectReason::kExecutor), 0.0, 0.02),
            Outcome::kShed);
  EXPECT_EQ(
      classify_verdict(refused(RejectReason::kDeadlineExceeded), 0.0, 0.02),
      Outcome::kShed);
  EXPECT_EQ(classify_verdict(refused(RejectReason::kInternal), 0.0, 0.02),
            Outcome::kError);
  EXPECT_EQ(classify_verdict(refused(RejectReason::kShardDown), 0.0, 0.02),
            Outcome::kError);
  EXPECT_EQ(classify_verdict(refused(RejectReason::kNoModel), 0.0, 0.02),
            Outcome::kError);
}

TEST(Accounting, ShedLateErrorAndUnsentAllFailAgainstDue) {
  Accounting a;
  for (int i = 0; i < 6; ++i) a.add(Outcome::kOnTime);
  a.add(Outcome::kLate);
  a.add(Outcome::kShed);
  a.add(Outcome::kError);
  a.add(Outcome::kUnsent);
  EXPECT_EQ(a.due, 10u);
  EXPECT_EQ(a.sent, 9u);
  EXPECT_EQ(a.failed(), 4u);
  EXPECT_DOUBLE_EQ(a.failed_share(), 0.4);
  EXPECT_DOUBLE_EQ(a.sent_share(), 0.9);
}

TEST(Accounting, EmptyPhase) {
  const Accounting a;
  EXPECT_EQ(a.failed(), 0u);
  EXPECT_DOUBLE_EQ(a.failed_share(), 0.0);
  EXPECT_DOUBLE_EQ(a.sent_share(), 1.0);
}

TEST(SpanLog, DurationsSelfTimesAndRanges) {
  SpanLog log;
  const auto call = log.name_id("call");
  const auto child = log.name_id("child");
  EXPECT_EQ(log.name_id("call"), call);
  const auto root = log.add(call, 1, 0, 0.0, 10.0, 5);
  log.add(child, 1, root, 1.0, 3.0);
  log.add(child, 1, root, 4.0, 8.0);
  log.add(call, 2, 0, 20.0, 21.0);
  EXPECT_EQ(log.durations("call"), (std::vector<double>{10.0, 1.0}));
  EXPECT_EQ(log.durations("call", true), (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(log.self_times("call"), (std::vector<double>{4.0, 1.0}));
  EXPECT_EQ(log.durations("call", false, {3, 4}), (std::vector<double>{1.0}));
  EXPECT_TRUE(log.durations("absent").empty());
}

}  // namespace
}  // namespace perfbench
