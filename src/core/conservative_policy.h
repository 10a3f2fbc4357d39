// Conservative I/O-aware policies (paper Section III-C.2): never let the
// admitted set's aggregate bandwidth exceed BWmax.
//
// Four variants differ only in how candidates are prioritised:
//   * Cons-FCFS       — by current request's start time (user fairness);
//   * Cons-MaxUtil    — 0-1 knapsack maximizing busy compute nodes;
//   * Cons-MinInstSld — ascending InstSld (Eq. 1);
//   * Cons-MinAggrSld — ascending AggrSld (Eq. 2).
//
// Except for MaxUtil (whose knapsack picks the set directly), admission is
// greedy in priority order, skipping candidates that no longer fit. To
// avoid starving a job whose solo demand exceeds BWmax (> 8,000 nodes on
// Mira), when nothing has been admitted the top-priority job is admitted
// with its rate capped at BWmax — a single huge job alone on the storage
// simply runs at disk speed.
#pragma once

#include "core/io_policy.h"

namespace iosched::obs {
class Counter;
}  // namespace iosched::obs

namespace iosched::core {

enum class ConservativeOrder {
  kFcfs,        // Cons-FCFS
  kMaxUtil,     // Cons-MaxUtil (knapsack; order field unused for packing)
  kMinInstSld,  // Cons-MinInstSld
  kMinAggrSld,  // Cons-MinAggrSld
};

class ConservativePolicy final : public IoPolicy {
 public:
  explicit ConservativePolicy(ConservativeOrder order);

  const std::string& name() const override;
  std::vector<RateGrant> Assign(std::span<const IoJobView> active,
                                double max_bandwidth_gbps,
                                sim::SimTime now) override;
  void BindObs(obs::Hub* hub) override;

  ConservativeOrder order() const { return order_; }

 private:
  ConservativeOrder order_;
  std::string name_;
  /// Counts SolveKnapsack01 calls (MaxUtil only); null when obs is off.
  obs::Counter* knapsack_counter_ = nullptr;
};

/// Priority-ordered index permutation of `active` for the given ordering at
/// time `now` (exposed for tests; MaxUtil falls back to FCFS order here).
std::vector<std::size_t> ConservativePriorityOrder(
    std::span<const IoJobView> active, ConservativeOrder order,
    sim::SimTime now);

}  // namespace iosched::core
