#include "util/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace iosched::util {
namespace {

TEST(RunningStats, EmptyState) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, MatchesNaiveComputation) {
  std::vector<double> values = {1.5, -2.0, 7.25, 0.0, 3.5, 3.5, -1.25};
  RunningStats s;
  double sum = 0.0;
  for (double v : values) {
    s.Add(v);
    sum += v;
  }
  double mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  double var = ss / static_cast<double>(values.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.25);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(77);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(10, 3);
    whole.Add(v);
    (i < 400 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStats, ClearResets) {
  RunningStats s;
  s.Add(3.0);
  s.Clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summary, QuantilesOfKnownSample) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Summary s(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
  EXPECT_NEAR(s.Quantile(0.25), 3.25, 1e-12);
  EXPECT_NEAR(s.p90(), 9.1, 1e-12);
}

TEST(Summary, SingleElement) {
  std::vector<double> v = {42.0};
  Summary s(v);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 42.0);
}

TEST(Summary, UnsortedInputHandled) {
  std::vector<double> v = {9, 1, 5, 3, 7};
  Summary s(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(Summary, EmptyThrows) {
  std::vector<double> v;
  Summary s(v);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.Quantile(0.5), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.max(), std::logic_error);
}

TEST(Summary, MovedSampleMatchesSpanBitForBit) {
  Rng rng(2024);
  std::vector<double> sample(10007);
  for (double& x : sample) x = rng.LogNormal(6.0, 1.5);
  const Summary copied{std::span<const double>(sample)};
  std::vector<double> owned = sample;
  const Summary moved(std::move(owned));
  ASSERT_EQ(moved.count(), copied.count());
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(moved.mean()), bits(copied.mean()));
  EXPECT_EQ(bits(moved.min()), bits(copied.min()));
  EXPECT_EQ(bits(moved.max()), bits(copied.max()));
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(bits(moved.Quantile(q)), bits(copied.Quantile(q))) << q;
  }
}

TEST(Summary, QuantileRangeChecked) {
  std::vector<double> v = {1.0, 2.0};
  Summary s(v);
  EXPECT_THROW(s.Quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.Quantile(1.1), std::invalid_argument);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);    // bin 0
  h.Add(9.99);   // bin 4
  h.Add(-3.0);   // clamped into bin 0
  h.Add(25.0);   // clamped into bin 4
  h.Add(5.0);    // bin 2
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.BinLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BinHigh(0), 2.0);
  EXPECT_DOUBLE_EQ(h.BinLow(4), 8.0);
  EXPECT_DOUBLE_EQ(h.BinHigh(4), 10.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiRenderNonEmpty) {
  Histogram h(0.0, 4.0, 2);
  h.Add(1.0);
  h.Add(3.0);
  h.Add(3.5);
  std::string art = h.ToAscii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

// Property: Welford variance is non-negative and matches two-pass for random
// samples of many sizes.
class StatsSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(StatsSizeSweep, WelfordMatchesTwoPass) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  std::vector<double> values;
  RunningStats s;
  for (int i = 0; i < GetParam(); ++i) {
    double v = rng.LogNormal(1.0, 2.0);
    values.push_back(v);
    s.Add(v);
  }
  double sum = 0.0;
  for (double v : values) sum += v;
  double mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  EXPECT_GE(s.variance(), 0.0);
  EXPECT_NEAR(s.mean(), mean, std::abs(mean) * 1e-10);
  if (values.size() > 1) {
    double var = ss / static_cast<double>(values.size() - 1);
    EXPECT_NEAR(s.variance(), var, var * 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StatsSizeSweep,
                         ::testing::Values(2, 3, 10, 100, 1000, 10000));

}  // namespace
}  // namespace iosched::util
