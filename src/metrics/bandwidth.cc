#include "metrics/bandwidth.h"

#include <algorithm>
#include <stdexcept>

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

void WriteSample(ckpt::Writer& w, const BandwidthSample& s) {
  w.F64(s.time);
  w.F64(s.demand_gbps);
  w.F64(s.granted_gbps);
  w.I64(s.suspended_requests);
  w.I64(s.active_requests);
}

BandwidthSample ReadSample(ckpt::Reader& r) {
  BandwidthSample s;
  s.time = r.F64();
  s.demand_gbps = r.F64();
  s.granted_gbps = r.F64();
  s.suspended_requests = static_cast<int>(r.I64());
  s.active_requests = static_cast<int>(r.I64());
  return s;
}

}  // namespace

void BandwidthTracker::SaveState(ckpt::Writer& w) const {
  w.U64(count_);
  WriteSample(w, pending_);
  WriteSample(w, previous_);
  w.F64(first_time_);
  w.F64(running_.congested_seconds);
  w.F64(running_.demand_integral);
  w.F64(running_.granted_integral);
  w.F64(running_.wasted_integral);
  w.Bool(running_.episode_open);
  w.F64(running_.episode_start);
  w.U64(running_.episode_count);
  w.F64(running_.episode_total_seconds);
  w.F64(running_.episode_max_seconds);
}

void BandwidthTracker::RestoreState(ckpt::Reader& r) {
  count_ = r.U64();
  pending_ = ReadSample(r);
  previous_ = ReadSample(r);
  first_time_ = r.F64();
  running_.congested_seconds = r.F64();
  running_.demand_integral = r.F64();
  running_.granted_integral = r.F64();
  running_.wasted_integral = r.F64();
  running_.episode_open = r.Bool();
  running_.episode_start = r.F64();
  running_.episode_count = r.U64();
  running_.episode_total_seconds = r.F64();
  running_.episode_max_seconds = r.F64();
}

void BandwidthTracker::SaveSamples(ckpt::Writer& w) const {
  w.U32(static_cast<std::uint32_t>(samples_.size()));
  for (const BandwidthSample& s : samples_) WriteSample(w, s);
}

void BandwidthTracker::RestoreSamples(ckpt::Reader& r) {
  samples_.resize(r.U32());
  for (BandwidthSample& s : samples_) s = ReadSample(r);
  if (samples_.size() != count_) {
    throw std::runtime_error(
        "BandwidthTracker: sample series length does not match the "
        "summary state");
  }
}

}  // namespace iosched::metrics
