// Storage-bandwidth accounting: demand vs grant over time and congestion
// episodes.
//
// The I/O scheduler reports, at every scheduling cycle, the aggregate
// demand (sum of active requests' full rates), the aggregate granted rate,
// and the number of suspended requests. From that step function this module
// derives the paper-relevant facts: how often the storage is congested, how
// long episodes last, how much bandwidth the policy leaves unused while
// requests are suspended (the "waste" the adaptive policy attacks), and
// time-weighted averages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace iosched::metrics {

/// One scheduling-cycle sample.
struct BandwidthSample {
  sim::SimTime time = 0.0;
  /// Sum of active requests' full rates (GB/s).
  double demand_gbps = 0.0;
  /// Sum of granted rates (GB/s).
  double granted_gbps = 0.0;
  /// Requests with a zero grant.
  int suspended_requests = 0;
  /// Total in-flight requests.
  int active_requests = 0;
};

/// A maximal interval during which demand exceeded BWmax.
struct CongestionEpisode {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  /// Peak demand/BWmax ratio seen within the episode (>= 1).
  double peak_overload = 1.0;

  double Duration() const { return end - start; }
};

struct BandwidthSummary {
  double time_span = 0.0;
  /// Fraction of time with demand > BWmax.
  double congested_fraction = 0.0;
  std::size_t episode_count = 0;
  double mean_episode_seconds = 0.0;
  double max_episode_seconds = 0.0;
  /// Time-weighted mean demand and grant (GB/s).
  double mean_demand_gbps = 0.0;
  double mean_granted_gbps = 0.0;
  /// Time-weighted mean of (min(demand, BWmax) - granted), the bandwidth
  /// the policy left idle although requests wanted it (GB/s).
  double mean_wasted_gbps = 0.0;
};

/// Streaming accumulator over the per-cycle samples. The newest sample is
/// held *pending*, because a later sample at the same instant overwrites
/// it (time included). A strictly later sample makes it final; the sample
/// before it then folds `value x dt` into the running integrals and steps
/// the episode state machine. Summarize() adds the last interval and closes
/// any open episode on a copy, so the summary is bit-identical to a pass
/// over the full series (same operations, same summation order) while the
/// saved state stays a fixed 161 bytes.
class BandwidthTracker {
 public:
  /// `max_bandwidth_gbps` is the BWmax threshold for congestion.
  /// `keep_samples` additionally retains the raw series (samples(),
  /// Episodes(), DemandTimeline); the summary never needs it.
  explicit BandwidthTracker(double max_bandwidth_gbps,
                            bool keep_samples = true);

  /// Record a scheduling-cycle sample; times must be non-decreasing.
  /// Samples at the same instant overwrite (last cycle of the instant wins).
  void Record(const BandwidthSample& sample);

  /// Distinct instants recorded so far (kept series or not).
  std::size_t sample_count() const { return static_cast<std::size_t>(count_); }
  bool keeps_samples() const { return keep_samples_; }
  /// The raw series; empty unless constructed with keep_samples.
  const std::vector<BandwidthSample>& samples() const { return samples_; }
  std::vector<BandwidthSample> TakeSamples() { return std::move(samples_); }
  double max_bandwidth() const { return max_bandwidth_; }

  /// Maximal demand>BWmax intervals, in time order. Needs the kept series
  /// (throws std::logic_error otherwise).
  std::vector<CongestionEpisode> Episodes() const;

  /// Aggregate the whole series.
  BandwidthSummary Summarize() const;

  /// Save or load the running accumulators and the last two samples: a
  /// fixed size, independent of run length (max_bandwidth_ comes from
  /// config).
  template <class Ar>
  void Serialize(Ar& ar);
  /// Save or load the kept series (the optional bandwidth_samples
  /// section); a load must follow Serialize, whose sample count it checks.
  template <class Ar>
  void SerializeSamples(Ar& ar);

 private:
  /// Integrals and congestion-episode state over the samples folded so far.
  struct Running {
    double congested_seconds = 0.0;
    double demand_integral = 0.0;
    double granted_integral = 0.0;
    double wasted_integral = 0.0;
    bool episode_open = false;
    sim::SimTime episode_start = 0.0;
    std::uint64_t episode_count = 0;
    double episode_total_seconds = 0.0;
    double episode_max_seconds = 0.0;

    /// Fold final sample `s`, lasting until `next_time`.
    void Add(const BandwidthSample& s, sim::SimTime next_time, double bwmax);
    /// Step the episode state machine on a sample at `time`: an episode
    /// opens at a congested sample and ends at the next uncongested one.
    void Step(sim::SimTime time, bool congested);
    void CloseEpisode(sim::SimTime end);
  };

  double max_bandwidth_;
  bool keep_samples_;
  std::vector<BandwidthSample> samples_;
  /// Distinct instants recorded, the pending one included.
  std::uint64_t count_ = 0;
  /// The newest sample; may still be overwritten.
  BandwidthSample pending_;
  /// The final sample before pending_ (count_ >= 2); folded into running_
  /// once pending_ is final, since its interval ends at pending_.time.
  BandwidthSample previous_;
  /// Time of the first sample (the series start; count_ >= 2).
  sim::SimTime first_time_ = 0.0;
  Running running_;
};

}  // namespace iosched::metrics
