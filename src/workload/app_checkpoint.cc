#include "workload/app_checkpoint.h"

#include <cmath>
#include <stdexcept>

#include "util/rng.h"
#include "util/units.h"

namespace iosched::workload {

namespace {
/// RNG stream for per-job class assignment (see DESIGN.md §11; 7, 17, 23,
/// 29, 31, 37, 41, and 43 are taken by other subsystems).
constexpr std::uint64_t kClassStream = 47;

/// A flush boundary splitting a compute phase must leave real compute on
/// both sides, or the phase list would stop alternating (flush adjacent to
/// an application I/O phase).
constexpr double kSplitEpsilonSeconds = 1e-6;

/// Minimal compute emitted before an overdue (carried-over) flush boundary.
constexpr double kMinLeadSeconds = 1.0;
}  // namespace

std::string AppCheckpointConfig::Validate() const {
  if (!enabled) return "";
  if (mtbf_seconds <= 0) return "app_checkpoint.mtbf_seconds must be > 0";
  if (classes.empty()) return "app_checkpoint.classes must not be empty";
  double weight_sum = 0.0;
  for (const AppCheckpointClass& c : classes) {
    if (c.gb_per_node <= 0) {
      return "app_checkpoint class gb_per_node must be > 0";
    }
    if (c.weight < 0) return "app_checkpoint class weight must be >= 0";
    weight_sum += c.weight;
  }
  if (weight_sum <= 0) return "app_checkpoint class weights sum to 0";
  if (min_interval_seconds <= 0) {
    return "app_checkpoint.min_interval_seconds must be > 0";
  }
  if (min_compute_seconds < 0) {
    return "app_checkpoint.min_compute_seconds must be >= 0";
  }
  return "";
}

double YoungDalyInterval(double flush_seconds, double mtbf_seconds) {
  if (flush_seconds <= 0 || mtbf_seconds <= 0) return 0.0;
  return std::sqrt(2.0 * flush_seconds * mtbf_seconds);
}

void ApplyCheckpointTraffic(Workload& workload,
                            const AppCheckpointConfig& config,
                            double node_bandwidth_gbps) {
  if (!config.enabled) return;
  std::string err = config.Validate();
  if (!err.empty()) {
    throw std::invalid_argument("ApplyCheckpointTraffic: " + err);
  }
  if (node_bandwidth_gbps <= 0) {
    throw std::invalid_argument(
        "ApplyCheckpointTraffic: node_bandwidth_gbps must be > 0");
  }

  std::vector<double> weights;
  weights.reserve(config.classes.size());
  for (const AppCheckpointClass& c : config.classes) {
    weights.push_back(c.weight);
  }

  util::Rng rng(config.seed, kClassStream);
  std::vector<Phase> rewritten;
  for (Job& job : workload) {
    // One draw per job, unconditionally, so skipping a job never shifts the
    // class assignment of the jobs after it.
    const AppCheckpointClass& cls = config.classes[rng.WeightedIndex(weights)];
    double total_compute = job.TotalComputeSeconds();
    if (total_compute < config.min_compute_seconds) continue;

    double flush_gb = cls.gb_per_node * job.nodes;
    double full_rate = job.FullIoRate(node_bandwidth_gbps);
    if (full_rate <= 0) continue;
    double flush_seconds = flush_gb / full_rate;
    double tau = YoungDalyInterval(flush_seconds, config.mtbf_seconds);
    tau = std::max(tau, config.min_interval_seconds);
    // No room for even one interior boundary: leave the job alone.
    if (tau >= total_compute) continue;

    rewritten.clear();
    rewritten.reserve(job.phases.size() * 2);
    double since_flush = 0.0;  // compute accumulated since the last flush
    for (const Phase& phase : job.phases) {
      if (phase.kind != PhaseKind::kCompute) {
        rewritten.push_back(phase);
        continue;
      }
      double remaining = phase.compute_seconds();
      while (since_flush + remaining >= tau + kSplitEpsilonSeconds) {
        // Compute still owed before the boundary. A boundary carried over
        // from an earlier phase (it would have abutted the application's
        // own I/O phase) is overdue — emit it after a minimal lead chunk so
        // alternation is preserved.
        double lead = std::max(tau - since_flush, kMinLeadSeconds);
        if (lead > remaining - kSplitEpsilonSeconds) {
          // The boundary lands on (or past) the phase end; emitting the
          // flush here would abut the next I/O phase and break alternation.
          // Carry the accumulator into the next compute phase.
          break;
        }
        rewritten.push_back(Phase::Compute(lead));
        rewritten.push_back(Phase::Flush(flush_gb));
        remaining -= lead;
        since_flush = 0.0;
      }
      rewritten.push_back(Phase::Compute(remaining));
      since_flush += remaining;
    }
    job.phases = rewritten;
  }
}

}  // namespace iosched::workload
