// The streaming BandwidthTracker against a reference integrator: the
// summary must equal, bit for bit, one pass over the full sample series
// (the series-keeping implementation the streaming accumulator replaced).
// Covers same-instant overwrites, empty and one-sample series, episodes
// open at the first and last sample, and save/restore mid-stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/serializer.h"
#include "metrics/bandwidth.h"
#include "util/rng.h"
#include "util/units.h"

namespace iosched::metrics {
namespace {

/// The series as the pre-streaming tracker stored it: a sample within
/// kTimeEpsilon of the previous one overwrites it.
std::vector<BandwidthSample> ReferenceSeries(
    const std::vector<BandwidthSample>& recorded) {
  std::vector<BandwidthSample> series;
  for (const BandwidthSample& s : recorded) {
    if (!series.empty() &&
        s.time <= series.back().time + util::kTimeEpsilon) {
      series.back() = s;
    } else {
      series.push_back(s);
    }
  }
  return series;
}

/// The pre-streaming Summarize(): integrals over consecutive samples, then
/// the episode list, then its aggregates.
BandwidthSummary ReferenceSummarize(
    const std::vector<BandwidthSample>& samples, double bwmax) {
  BandwidthSummary summary;
  if (samples.size() < 2) return summary;
  double span = samples.back().time - samples.front().time;
  summary.time_span = span;
  if (span <= 0) return summary;
  double congested_time = 0.0;
  double demand_integral = 0.0;
  double granted_integral = 0.0;
  double wasted_integral = 0.0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const BandwidthSample& s = samples[i];
    double dt = samples[i + 1].time - s.time;
    if (s.demand_gbps > bwmax) congested_time += dt;
    demand_integral += s.demand_gbps * dt;
    granted_integral += s.granted_gbps * dt;
    double usable = std::min(s.demand_gbps, bwmax);
    wasted_integral += std::max(0.0, usable - s.granted_gbps) * dt;
  }
  summary.congested_fraction = congested_time / span;
  summary.mean_demand_gbps = demand_integral / span;
  summary.mean_granted_gbps = granted_integral / span;
  summary.mean_wasted_gbps = wasted_integral / span;

  std::vector<double> durations;
  bool in_episode = false;
  double start = 0.0;
  for (const BandwidthSample& s : samples) {
    bool congested = s.demand_gbps > bwmax;
    if (congested && !in_episode) {
      in_episode = true;
      start = s.time;
    } else if (!congested && in_episode) {
      durations.push_back(s.time - start);
      in_episode = false;
    }
  }
  if (in_episode) durations.push_back(samples.back().time - start);
  summary.episode_count = durations.size();
  double total = 0.0;
  for (double d : durations) {
    total += d;
    summary.max_episode_seconds = std::max(summary.max_episode_seconds, d);
  }
  if (!durations.empty()) {
    summary.mean_episode_seconds =
        total / static_cast<double>(durations.size());
  }
  return summary;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectBitIdentical(const BandwidthSummary& got,
                        const BandwidthSummary& want,
                        const std::string& where) {
  EXPECT_EQ(Bits(got.time_span), Bits(want.time_span)) << where;
  EXPECT_EQ(Bits(got.congested_fraction), Bits(want.congested_fraction))
      << where;
  EXPECT_EQ(got.episode_count, want.episode_count) << where;
  EXPECT_EQ(Bits(got.mean_episode_seconds), Bits(want.mean_episode_seconds))
      << where;
  EXPECT_EQ(Bits(got.max_episode_seconds), Bits(want.max_episode_seconds))
      << where;
  EXPECT_EQ(Bits(got.mean_demand_gbps), Bits(want.mean_demand_gbps)) << where;
  EXPECT_EQ(Bits(got.mean_granted_gbps), Bits(want.mean_granted_gbps))
      << where;
  EXPECT_EQ(Bits(got.mean_wasted_gbps), Bits(want.mean_wasted_gbps)) << where;
}

/// A random cycle series around BWmax = 100: a quarter of the steps land
/// at the same instant (or within kTimeEpsilon) and overwrite, demand
/// often sits exactly on BWmax, and grants never exceed demand.
std::vector<BandwidthSample> RandomSeries(util::Rng& rng, int n) {
  std::vector<BandwidthSample> out;
  double t = rng.Uniform(0.0, 1000.0);
  for (int i = 0; i < n; ++i) {
    double step = rng.Uniform(0.0, 1.0);
    if (step < 0.15) {
      // same instant
    } else if (step < 0.25) {
      t += rng.Uniform(0.0, util::kTimeEpsilon);
    } else {
      t += rng.Exponential(1.0 / 30.0);
    }
    BandwidthSample s;
    s.time = t;
    double pick = rng.Uniform(0.0, 1.0);
    s.demand_gbps = pick < 0.1    ? 100.0
                    : pick < 0.15 ? 0.0
                                  : rng.Uniform(0.0, 250.0);
    s.granted_gbps = std::min(s.demand_gbps, 100.0) * rng.Uniform(0.0, 1.0);
    s.active_requests = static_cast<int>(rng.UniformInt(0, 20));
    s.suspended_requests =
        static_cast<int>(rng.UniformInt(0, s.active_requests));
    out.push_back(s);
  }
  return out;
}

BandwidthSample Sample(double t, double demand, double granted) {
  BandwidthSample s;
  s.time = t;
  s.demand_gbps = demand;
  s.granted_gbps = granted;
  s.active_requests = 1;
  return s;
}

void CheckAgainstReference(const std::vector<BandwidthSample>& recorded,
                           const std::string& where) {
  const double bwmax = 100.0;
  BandwidthSummary want = ReferenceSummarize(ReferenceSeries(recorded), bwmax);
  for (bool keep : {true, false}) {
    BandwidthTracker tracker(bwmax, keep);
    for (const BandwidthSample& s : recorded) tracker.Record(s);
    ExpectBitIdentical(tracker.Summarize(), want,
                       where + (keep ? " (kept)" : " (streaming)"));
    EXPECT_EQ(tracker.sample_count(), ReferenceSeries(recorded).size())
        << where;
  }
}

TEST(BandwidthStream, EmptyAndSingleSampleMatchReference) {
  CheckAgainstReference({}, "empty");
  CheckAgainstReference({Sample(5, 200, 100)}, "one congested sample");
  CheckAgainstReference({Sample(5, 50, 50)}, "one idle sample");
  CheckAgainstReference({Sample(5, 50, 50), Sample(5, 150, 100)},
                        "one instant, overwritten");
}

TEST(BandwidthStream, EpisodesOpenAtFirstAndLastSampleMatchReference) {
  CheckAgainstReference(
      {Sample(0, 150, 100), Sample(10, 180, 100), Sample(20, 50, 40)},
      "open at the first sample");
  CheckAgainstReference(
      {Sample(0, 50, 50), Sample(10, 80, 80), Sample(20, 150, 100)},
      "opens at the last sample");
  CheckAgainstReference(
      {Sample(0, 150, 100), Sample(10, 50, 50), Sample(20, 150, 100),
       Sample(35, 170, 100)},
      "open at both ends");
  // A same-instant overwrite of the first sample moves the series start.
  CheckAgainstReference(
      {Sample(0, 50, 50), Sample(0.5e-7, 150, 100), Sample(10, 50, 50)},
      "first sample overwritten within epsilon");
  // An overwrite of the last sample can end the open episode.
  CheckAgainstReference(
      {Sample(0, 150, 100), Sample(10, 150, 100), Sample(10, 50, 50)},
      "last sample overwritten to uncongested");
}

TEST(BandwidthStream, OverwriteWithinEpsilonMovesTheIntervalEnd) {
  // The sample at t=10 is overwritten by one 0.9e-7 s later: the interval
  // that started at t=0 must end at the overwriting sample's time, so the
  // t=0 sample cannot be folded when the t=10 sample first arrives.
  CheckAgainstReference({Sample(0, 150, 100), Sample(10, 80, 80),
                         Sample(10 + 0.9e-7, 60, 60), Sample(20, 50, 50)},
                        "chained overwrite");
}

TEST(BandwidthStream, RandomSeriesMatchReferenceBitForBit) {
  util::Rng rng(20240517, 3);
  for (int trial = 0; trial < 400; ++trial) {
    int n = static_cast<int>(rng.UniformInt(0, 300));
    CheckAgainstReference(RandomSeries(rng, n),
                          "trial " + std::to_string(trial));
  }
}

TEST(BandwidthStream, SaveAndRestoreMidStreamEqualsUninterruptedRun) {
  util::Rng rng(77, 5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<BandwidthSample> series =
        RandomSeries(rng, static_cast<int>(rng.UniformInt(0, 200)));
    std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(series.size())));
    bool keep = rng.Bernoulli(0.5);
    BandwidthTracker whole(100.0, keep);
    for (const BandwidthSample& s : series) whole.Record(s);

    BandwidthTracker first(100.0, keep);
    for (std::size_t i = 0; i < cut; ++i) first.Record(series[i]);
    ckpt::Writer state;
    first.Serialize(state);
    ckpt::Writer samples;
    if (keep) first.SerializeSamples(samples);

    BandwidthTracker resumed(100.0, keep);
    ckpt::Reader state_reader(state.buffer(), "bandwidth");
    resumed.Serialize(state_reader);
    state_reader.ExpectEnd();
    if (keep) {
      ckpt::Reader samples_reader(samples.buffer(), "bandwidth_samples");
      resumed.SerializeSamples(samples_reader);
      samples_reader.ExpectEnd();
    }
    for (std::size_t i = cut; i < series.size(); ++i) {
      resumed.Record(series[i]);
    }
    std::string where = "trial " + std::to_string(trial) + " cut " +
                        std::to_string(cut);
    ExpectBitIdentical(resumed.Summarize(), whole.Summarize(), where);
    EXPECT_EQ(resumed.sample_count(), whole.sample_count()) << where;
    ASSERT_EQ(resumed.samples().size(), whole.samples().size()) << where;
    for (std::size_t i = 0; i < whole.samples().size(); ++i) {
      EXPECT_EQ(Bits(resumed.samples()[i].time),
                Bits(whole.samples()[i].time))
          << where;
    }
  }
}

TEST(BandwidthStream, StateSizeIsIndependentOfRunLength) {
  BandwidthTracker tracker(100.0, /*keep_samples=*/false);
  ckpt::Writer empty;
  tracker.Serialize(empty);
  for (int i = 0; i < 10000; ++i) {
    tracker.Record(Sample(i, (i % 7) * 40.0, 20.0));
  }
  ckpt::Writer full;
  tracker.Serialize(full);
  EXPECT_EQ(full.buffer().size(), empty.buffer().size());
  EXPECT_LT(full.buffer().size(), 200u);
  EXPECT_TRUE(tracker.samples().empty());
  EXPECT_EQ(tracker.sample_count(), 10000u);
}

TEST(BandwidthStream, EpisodesNeedTheKeptSeries) {
  BandwidthTracker tracker(100.0, /*keep_samples=*/false);
  tracker.Record(Sample(0, 150, 100));
  EXPECT_THROW(tracker.Episodes(), std::logic_error);
}

TEST(BandwidthStream, SampleSeriesMustMatchTheSummaryState) {
  BandwidthTracker source(100.0);
  source.Record(Sample(0, 50, 50));
  source.Record(Sample(10, 150, 100));
  ckpt::Writer samples;
  source.SerializeSamples(samples);
  BandwidthTracker fresh(100.0);  // summary state says: no samples
  ckpt::Reader reader(samples.buffer(), "bandwidth_samples");
  EXPECT_THROW(fresh.SerializeSamples(reader), ckpt::FormatError);
}

}  // namespace
}  // namespace iosched::metrics
