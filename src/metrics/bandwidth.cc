#include "metrics/bandwidth.h"

#include <algorithm>
#include <stdexcept>

#include "ckpt/serializer.h"
#include "util/units.h"

namespace iosched::metrics {

BandwidthTracker::BandwidthTracker(double max_bandwidth_gbps,
                                   bool keep_samples)
    : max_bandwidth_(max_bandwidth_gbps), keep_samples_(keep_samples) {
  if (max_bandwidth_ <= 0) {
    throw std::invalid_argument("BandwidthTracker: non-positive BWmax");
  }
}

void BandwidthTracker::Record(const BandwidthSample& sample) {
  if (sample.demand_gbps < 0 || sample.granted_gbps < 0 ||
      sample.suspended_requests < 0 ||
      sample.suspended_requests > sample.active_requests) {
    throw std::invalid_argument("BandwidthTracker: bogus sample");
  }
  if (count_ > 0) {
    if (sample.time < pending_.time - util::kTimeEpsilon) {
      throw std::logic_error("BandwidthTracker: time went backwards");
    }
    if (sample.time <= pending_.time + util::kTimeEpsilon) {
      pending_ = sample;
      if (keep_samples_) samples_.back() = sample;
      return;
    }
    // pending_ is final now: the interval before it is complete.
    if (count_ >= 2) {
      running_.Add(previous_, pending_.time, max_bandwidth_);
    } else {
      first_time_ = pending_.time;
    }
    previous_ = pending_;
  }
  pending_ = sample;
  ++count_;
  if (keep_samples_) samples_.push_back(sample);
}

void BandwidthTracker::Running::Add(const BandwidthSample& s,
                                    sim::SimTime next_time, double bwmax) {
  double dt = next_time - s.time;
  if (s.demand_gbps > bwmax) congested_seconds += dt;
  demand_integral += s.demand_gbps * dt;
  granted_integral += s.granted_gbps * dt;
  double usable = std::min(s.demand_gbps, bwmax);
  wasted_integral += std::max(0.0, usable - s.granted_gbps) * dt;
  Step(s.time, s.demand_gbps > bwmax);
}

void BandwidthTracker::Running::Step(sim::SimTime time, bool congested) {
  if (congested && !episode_open) {
    episode_open = true;
    episode_start = time;
  } else if (!congested && episode_open) {
    CloseEpisode(time);
  }
}

void BandwidthTracker::Running::CloseEpisode(sim::SimTime end) {
  double duration = end - episode_start;
  episode_total_seconds += duration;
  episode_max_seconds = std::max(episode_max_seconds, duration);
  ++episode_count;
  episode_open = false;
}

std::vector<CongestionEpisode> BandwidthTracker::Episodes() const {
  if (!keep_samples_) {
    throw std::logic_error(
        "BandwidthTracker: Episodes() needs the kept sample series");
  }
  std::vector<CongestionEpisode> episodes;
  bool in_episode = false;
  CongestionEpisode current;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const BandwidthSample& s = samples_[i];
    bool congested = s.demand_gbps > max_bandwidth_;
    if (congested && !in_episode) {
      in_episode = true;
      current = CongestionEpisode{s.time, s.time, s.demand_gbps / max_bandwidth_};
    } else if (congested && in_episode) {
      current.peak_overload =
          std::max(current.peak_overload, s.demand_gbps / max_bandwidth_);
    } else if (!congested && in_episode) {
      current.end = s.time;
      episodes.push_back(current);
      in_episode = false;
    }
  }
  if (in_episode) {
    current.end = samples_.back().time;
    episodes.push_back(current);
  }
  return episodes;
}

BandwidthSummary BandwidthTracker::Summarize() const {
  BandwidthSummary summary;
  if (count_ < 2) return summary;
  double span = pending_.time - first_time_;
  summary.time_span = span;
  if (span <= 0) return summary;

  // Fold the last interval, then the last sample (it may open or end an
  // episode), and close an episode still open at the last sample.
  Running r = running_;
  r.Add(previous_, pending_.time, max_bandwidth_);
  r.Step(pending_.time, pending_.demand_gbps > max_bandwidth_);
  if (r.episode_open) r.CloseEpisode(pending_.time);

  summary.congested_fraction = r.congested_seconds / span;
  summary.mean_demand_gbps = r.demand_integral / span;
  summary.mean_granted_gbps = r.granted_integral / span;
  summary.mean_wasted_gbps = r.wasted_integral / span;
  summary.episode_count = static_cast<std::size_t>(r.episode_count);
  summary.max_episode_seconds = r.episode_max_seconds;
  if (r.episode_count > 0) {
    summary.mean_episode_seconds =
        r.episode_total_seconds / static_cast<double>(r.episode_count);
  }
  return summary;
}

namespace {

template <class Ar>
void SerializeSample(Ar& ar, BandwidthSample& s) {
  ar.F64(s.time);
  ar.F64(s.demand_gbps);
  ar.F64(s.granted_gbps);
  ar.I64(s.suspended_requests);
  ar.I64(s.active_requests);
}

}  // namespace

template <class Ar>
void BandwidthTracker::Serialize(Ar& ar) {
  ar.U64(count_);
  SerializeSample(ar, pending_);
  SerializeSample(ar, previous_);
  ar.F64(first_time_);
  ar.F64(running_.congested_seconds);
  ar.F64(running_.demand_integral);
  ar.F64(running_.granted_integral);
  ar.F64(running_.wasted_integral);
  ar.Bool(running_.episode_open);
  ar.F64(running_.episode_start);
  ar.U64(running_.episode_count);
  ar.F64(running_.episode_total_seconds);
  ar.F64(running_.episode_max_seconds);
}
template void BandwidthTracker::Serialize(ckpt::Writer&);
template void BandwidthTracker::Serialize(ckpt::Reader&);

template <class Ar>
void BandwidthTracker::SerializeSamples(Ar& ar) {
  ar.Seq(samples_, [&ar](BandwidthSample& s) { SerializeSample(ar, s); });
  if constexpr (Ar::kLoading) {
    if (samples_.size() != count_) {
      ar.Fail("sample series length does not match the summary state");
    }
  }
}
template void BandwidthTracker::SerializeSamples(ckpt::Writer&);
template void BandwidthTracker::SerializeSamples(ckpt::Reader&);

}  // namespace iosched::metrics
