// Queue-ordering policies of the Cobalt batch scheduler (paper Section II-C).
//
// Cobalt on Mira orders the wait queue with "WFP", which favors large and
// old jobs by growing a job's priority with the ratio of its wait time to
// its requested runtime. We implement the WFP3 variant documented for
// Argonne's Blue Gene systems: score = (wait / requested_walltime)^3 * nodes,
// plus plain FCFS for comparison.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/time.h"
#include "workload/job.h"

namespace iosched::sched {

enum class QueueOrder { kFcfs, kWfp };

/// Parse "fcfs" / "wfp" (case-insensitive); throws on unknown names.
QueueOrder ParseQueueOrder(const std::string& name);
std::string ToString(QueueOrder order);
/// ParseQueueOrder for field-table rows (util/field_table.h).
inline bool ParseValue(const std::string& name, QueueOrder& order) {
  order = ParseQueueOrder(name);
  return true;
}

/// WFP priority score at time `now`; higher runs earlier.
double WfpScore(const workload::Job& job, sim::SimTime now);

/// Return queue entries sorted into service order (descending priority).
/// Ties break by (submit time, id) so the order is total and deterministic.
/// `comparisons`, when non-null, is incremented by the number of comparator
/// invocations the call consumed (regression tests pin the FCFS fast path).
std::vector<const workload::Job*> OrderQueue(
    std::span<const workload::Job* const> queue, QueueOrder order,
    sim::SimTime now, std::uint64_t* comparisons = nullptr);

/// Retained capacity of this thread's WFP ranking scratch, in entries.
/// Test hook for the capacity cap (see kOrderQueueScratchCapacityCap).
std::size_t OrderQueueScratchCapacity();

/// Ceiling on the WFP scratch retained between passes. One oversized pass
/// (a driver sweep cell with a very deep queue) must not pin peak capacity
/// on a pool thread forever; anything above the cap is freed after the
/// pass.
inline constexpr std::size_t kOrderQueueScratchCapacityCap = 4096;

}  // namespace iosched::sched
