// System-utilization accounting (paper Section IV-C).
//
// Utilization = busy node-hours / total node-hours over a window. The
// tracker records the busy-node step function as (time, busy_nodes) change
// points and integrates over any window; reports use the stabilized window
// that excludes the workload's warm-up and cool-down phases, as the paper
// prescribes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace iosched::metrics {

class UtilizationTracker {
 public:
  explicit UtilizationTracker(int total_nodes);

  /// Record that the busy-node count changed to `busy_nodes` at `time`.
  /// Times must be non-decreasing; equal-time updates overwrite.
  void Record(sim::SimTime time, int busy_nodes);

  /// Integral of busy nodes over [t0, t1] in node-seconds. The step function
  /// extends the last sample to t1; before the first sample it is 0.
  double BusyNodeSeconds(sim::SimTime t0, sim::SimTime t1) const;

  /// Mean utilization (0..1) over [t0, t1].
  double Utilization(sim::SimTime t0, sim::SimTime t1) const;

  /// Utilization over the stabilized window: the span [first, last] sample
  /// times shrunk by `warmup_fraction` at the front and `cooldown_fraction`
  /// at the back.
  double StableUtilization(double warmup_fraction,
                           double cooldown_fraction) const;

  int total_nodes() const { return total_nodes_; }
  std::size_t sample_count() const { return times_.size(); }
  sim::SimTime first_time() const;
  sim::SimTime last_time() const;

  /// Save or load the change-point series (total_nodes_ comes from
  /// config).
  template <class Ar>
  void Serialize(Ar& ar) {
    ar.Seq(times_, [&ar](sim::SimTime& t) { ar.F64(t); });
    busy_.resize(times_.size());
    for (int& b : busy_) ar.I64(b);
  }

 private:
  int total_nodes_;
  std::vector<sim::SimTime> times_;
  std::vector<int> busy_;
};

}  // namespace iosched::metrics
