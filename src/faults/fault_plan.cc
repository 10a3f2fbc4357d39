#include "faults/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"
#include "util/strings.h"

namespace iosched::faults {

std::string FaultPlan::Validate() const {
  for (const StorageDegradation& d : degradations) {
    if (d.start < 0 || d.end <= d.start) {
      return "degradation window must have 0 <= start < end";
    }
    if (d.bandwidth_factor <= 0 || d.bandwidth_factor > 1.0) {
      return "degradation bandwidth_factor must be in (0, 1]";
    }
  }
  for (const MidplaneOutage& o : outages) {
    if (o.start < 0 || o.end <= o.start) {
      return "outage window must have 0 <= start < end";
    }
    if (o.midplane < 0) return "outage midplane must be non-negative";
  }
  for (const BurstBufferFault& f : bb_faults) {
    if (f.start < 0 || f.end <= f.start) {
      return "bb fault window must have 0 <= start < end";
    }
  }
  for (const DrainDegradation& d : drain_degradations) {
    if (d.start < 0 || d.end <= d.start) {
      return "drain degradation window must have 0 <= start < end";
    }
    if (d.drain_factor <= 0 || d.drain_factor > 1.0) {
      return "drain_factor must be in (0, 1]";
    }
  }
  if (job_kill_probability < 0 || job_kill_probability > 1.0) {
    return "job_kill_probability must be in [0, 1]";
  }
  if (straggler_probability < 0 || straggler_probability > 1.0) {
    return "straggler_probability must be in [0, 1]";
  }
  if (straggler_probability > 0 &&
      (straggler_factor <= 0 || straggler_factor >= 1.0)) {
    return "straggler_factor must be in (0, 1)";
  }
  if (job_mtbf_seconds < 0) return "job_mtbf_seconds must be >= 0";
  return "";
}

std::string FaultPlanConfig::Validate() const {
  return util::FirstIssue(*this);
}

FaultPlan BuildFaultPlan(const FaultPlanConfig& config, double horizon_seconds,
                         int total_midplanes) {
  std::string err = config.Validate();
  if (!err.empty()) throw std::invalid_argument("BuildFaultPlan: " + err);
  if (horizon_seconds <= 0) {
    throw std::invalid_argument("BuildFaultPlan: non-positive horizon");
  }
  if (total_midplanes <= 0 && config.midplane_outages > 0) {
    throw std::invalid_argument("BuildFaultPlan: outages need midplanes");
  }

  FaultPlan plan;
  plan.job_kill_probability = config.job_kill_probability;
  plan.kill_seed = config.seed;
  util::Rng rng(config.seed, /*stream=*/17);

  if (config.degraded_fraction > 0) {
    // Tile the horizon and degrade a seeded-shuffled prefix of the tiles so
    // the degraded time hits the target as exactly as the tiling allows.
    auto tiles = static_cast<std::size_t>(
        std::ceil(horizon_seconds / config.degraded_window_seconds));
    auto degraded = static_cast<std::size_t>(std::llround(
        config.degraded_fraction * static_cast<double>(tiles)));
    degraded = std::min(degraded, tiles);
    if (degraded == 0 && config.degraded_fraction > 0) degraded = 1;
    std::vector<std::size_t> order(tiles);
    std::iota(order.begin(), order.end(), std::size_t{0});
    util::Shuffle(order, rng.engine());
    order.resize(degraded);
    std::sort(order.begin(), order.end());
    for (std::size_t tile : order) {
      StorageDegradation d;
      d.start = static_cast<double>(tile) * config.degraded_window_seconds;
      d.end = std::min(horizon_seconds,
                       d.start + config.degraded_window_seconds);
      d.bandwidth_factor = config.degradation_factor;
      if (d.end > d.start) plan.degradations.push_back(d);
    }
  }

  for (int i = 0; i < config.midplane_outages; ++i) {
    MidplaneOutage o;
    o.midplane = static_cast<int>(
        rng.UniformInt(0, total_midplanes - 1));
    o.start = rng.Uniform(0.0, horizon_seconds);
    o.end = o.start + config.midplane_outage_seconds;
    plan.outages.push_back(o);
  }
  std::sort(plan.outages.begin(), plan.outages.end(),
            [](const MidplaneOutage& a, const MidplaneOutage& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.midplane < b.midplane;
            });

  // Storage-tier fault kinds are drawn strictly after the original kinds so
  // enabling them never perturbs the degradation/outage schedule a seed
  // produced before they existed.
  for (int i = 0; i < config.bb_faults; ++i) {
    BurstBufferFault f;
    f.start = rng.Uniform(0.0, horizon_seconds);
    f.end = f.start + config.bb_fault_seconds;
    f.lose_data = config.bb_fault_lose_data;
    plan.bb_faults.push_back(f);
  }
  std::sort(plan.bb_faults.begin(), plan.bb_faults.end(),
            [](const BurstBufferFault& a, const BurstBufferFault& b) {
              return a.start < b.start;
            });

  if (config.drain_degraded_fraction > 0) {
    auto tiles = static_cast<std::size_t>(
        std::ceil(horizon_seconds / config.drain_window_seconds));
    auto degraded = static_cast<std::size_t>(std::llround(
        config.drain_degraded_fraction * static_cast<double>(tiles)));
    degraded = std::min(degraded, tiles);
    if (degraded == 0) degraded = 1;
    std::vector<std::size_t> order(tiles);
    std::iota(order.begin(), order.end(), std::size_t{0});
    util::Shuffle(order, rng.engine());
    order.resize(degraded);
    std::sort(order.begin(), order.end());
    for (std::size_t tile : order) {
      DrainDegradation d;
      d.start = static_cast<double>(tile) * config.drain_window_seconds;
      d.end = std::min(horizon_seconds, d.start + config.drain_window_seconds);
      d.drain_factor = config.drain_degradation_factor;
      if (d.end > d.start) plan.drain_degradations.push_back(d);
    }
  }

  plan.straggler_probability = config.straggler_probability;
  plan.straggler_factor = config.straggler_factor;
  plan.straggler_seed = config.seed;
  plan.job_mtbf_seconds = config.job_mtbf_seconds;
  plan.mtbf_seed = config.seed;

  err = plan.Validate();
  if (!err.empty()) throw std::logic_error("BuildFaultPlan: " + err);
  return plan;
}

RestartMode ParseRestartMode(const std::string& name) {
  std::string lower = util::ToLower(name);
  if (lower == "zero" || lower == "restart") {
    return RestartMode::kRestartFromZero;
  }
  if (lower == "resume" || lower == "checkpoint") {
    return RestartMode::kResumeFromLastPhase;
  }
  if (lower == "app_checkpoint" || lower == "app-checkpoint" ||
      lower == "app_ckpt") {
    return RestartMode::kRestartFromAppCheckpoint;
  }
  throw std::invalid_argument("unknown restart mode: " + name);
}

const char* ToString(RestartMode mode) {
  switch (mode) {
    case RestartMode::kRestartFromZero: return "zero";
    case RestartMode::kResumeFromLastPhase: return "resume";
    case RestartMode::kRestartFromAppCheckpoint: return "app_checkpoint";
  }
  return "?";
}

}  // namespace iosched::faults
