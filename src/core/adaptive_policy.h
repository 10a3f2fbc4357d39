// ADAPTIVE policy (paper Section III-C.2, Algorithm 1, Figure 7).
//
// Starts as Cons-FCFS: admit requests in arrival order while they fit under
// BWmax. When a request does not fit, instead of making it wait the policy
// estimates two average I/O completion times over Sopt ∪ {J_i}:
//   T_FCFS     — admitted jobs finish at full rate; J_i starts at the
//                earliest time T_i enough bandwidth has been released;
//   T_Adaptive — J_i is admitted immediately and the whole set fair-shares
//                BWmax per node.
// If T_Adaptive < T_FCFS the job is admitted (bandwidth bound broken on
// purpose) and the remaining budget drops to zero, so every later candidate
// must also pass the comparison against the enlarged set.
//
// Estimation detail (the paper leaves it open): both estimates freeze rates
// at their initial values — they ignore future release/re-share events
// within the compared horizon. This mirrors "calculate the average time" in
// Algorithm 1 lines 12-13 and keeps each cycle O(K log K).
#pragma once

#include "core/io_policy.h"

namespace iosched::obs {
class Counter;
}  // namespace iosched::obs

namespace iosched::core {

/// Tier / flush-backlog awareness read the per-cycle CycleInputs
/// (IoPolicy::inputs()): while the burst-buffer drain backlog is deep (above
/// kBacklogDeferralFraction of capacity) or the parked-flush backlog holds
/// kFlushBacklogDeferralSeconds of full-bandwidth work, the over-admission
/// branch is suspended and the policy degrades to Cons-FCFS — see DESIGN.md
/// §9. Both are no-ops when the respective feature is off.
class AdaptivePolicy final : public IoPolicy {
 public:
  const std::string& name() const override;
  std::vector<RateGrant> Assign(std::span<const IoJobView> active,
                                double max_bandwidth_gbps,
                                sim::SimTime now) override;
  void BindObs(obs::Hub* hub) override;

  /// Hold a ready flush while the direct channel is saturated or the
  /// burst-buffer drain is behind; release as soon as there is headroom
  /// (the scheduler force-releases at the deadline regardless).
  bool DeferFlush(const FlushView& flush, double active_demand_gbps,
                  double max_bandwidth_gbps, sim::SimTime now) override;

  /// Backlog fraction of BB capacity above which over-admission pauses.
  static constexpr double kBacklogDeferralFraction = 0.5;

  /// Parked-flush backlog, in seconds of full-bandwidth work, above which
  /// over-admission pauses.
  static constexpr double kFlushBacklogDeferralSeconds = 30.0;

 private:
  /// Accumulates water-filling steps across cycles; null when obs is off.
  obs::Counter* waterfill_counter_ = nullptr;
};

/// Earliest time J_i (index `candidate`) could start I/O if not admitted
/// now: admitted jobs release bandwidth as they finish at their granted
/// rates; returns the completion time of the release that first makes
/// b*N_i (capped at BWmax) available. Exposed for unit tests.
sim::SimTime EarliestStartIfDeferred(std::span<const IoJobView> active,
                                     std::span<const std::uint8_t> admitted,
                                     std::span<const double> rates,
                                     std::size_t candidate,
                                     double max_bandwidth_gbps,
                                     sim::SimTime now);

}  // namespace iosched::core
