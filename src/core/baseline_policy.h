// BASE_LINE policy (paper Section IV-D): no coordination. Every job with a
// pending I/O request transfers. "In case of I/O congestion, the BASE_LINE
// policy will evenly distribute the I/O bandwidth among the concurrent
// applications": each of the K applications is granted min(demand, BWmax/K)
// — an even per-application split regardless of job size. The slice an
// application cannot use is NOT redistributed; a static even split (the
// paper's round-robin reference point) is not work-conserving, and that
// wasted bandwidth is a large part of what the I/O-aware policies recover.
//
// MaxMinPolicy ("BASE_LINE_MAXMIN") is our ablation variant: the
// work-conserving round-robin limit, where unused slack flows to the
// applications that can use it (max-min fairness). Comparing the two
// quantifies how much of the I/O-aware win comes from the baseline's
// non-work-conservation versus genuine coordination.
#pragma once

#include "core/io_policy.h"

namespace iosched::core {

class BaselinePolicy final : public IoPolicy {
 public:
  const std::string& name() const override;
  std::vector<RateGrant> Assign(std::span<const IoJobView> active,
                                double max_bandwidth_gbps,
                                sim::SimTime now) override;
};

/// Ablation: work-conserving even split (max-min fairness per application).
class MaxMinPolicy final : public IoPolicy {
 public:
  const std::string& name() const override;
  std::vector<RateGrant> Assign(std::span<const IoJobView> active,
                                double max_bandwidth_gbps,
                                sim::SimTime now) override;
};

}  // namespace iosched::core
