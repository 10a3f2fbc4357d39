// The observability hub: one Registry + Tracer + TimeSeriesSampler bundle
// with every framework instrument pre-bound, so hot paths pay exactly one
// null check when observability is off and one pointer-chase + add when it
// is on.
//
// Ownership: the caller that runs a simulation owns the Hub and passes a
// raw pointer down (nullptr = observability off, the default). The engine
// and its components never construct instruments themselves — they use the
// bound pointers below, which keeps instrument naming in one place.
#pragma once

#include <cstddef>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/tracer.h"

namespace iosched::obs {

struct Options {
  /// Master switch, read by drivers to decide whether to build a Hub at
  /// all (the engine only sees the Hub pointer).
  bool enabled = false;
  /// Time-series sampling period (simulated seconds); <= 0 disables the
  /// sampler ticks.
  double sample_dt_seconds = 600.0;
  /// Ring capacity of the tracer (records, not bytes).
  std::size_t trace_capacity = 1u << 20;
};

class Hub {
 public:
  explicit Hub(const Options& options);
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  const Options& options() const { return options_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  TimeSeriesSampler& sampler() { return sampler_; }
  const TimeSeriesSampler& sampler() const { return sampler_; }

  // Pre-bound instruments (never null). Names mirror the subsystem that
  // feeds them.

  /// sim.events_processed — discrete events popped by the Simulator.
  Counter* events_processed = nullptr;
  /// core.io_cycles — I/O scheduling cycles (policy invocations).
  Counter* io_cycles = nullptr;
  /// core.forced_reschedules — out-of-band cycles (BWmax changes).
  Counter* forced_reschedules = nullptr;
  /// core.io_requests — I/O requests submitted (absorbed + direct).
  Counter* io_requests = nullptr;
  /// core.congested_cycles — cycles whose aggregate demand exceeded the
  /// usable bandwidth.
  Counter* congested_cycles = nullptr;
  /// core.throttled_grants — per-cycle count of requests granted rate 0
  /// (the policy's throttle decisions).
  Counter* throttled_grants = nullptr;
  /// core.knapsack_invocations — MAX_UTIL 0-1 knapsack solves.
  Counter* knapsack_invocations = nullptr;
  /// storage.waterfill_iterations — water-filling sorted-pass steps
  /// (ADAPTIVE fair share and FairShareRates).
  Counter* waterfill_iterations = nullptr;
  /// storage.bb_absorbed_requests — I/O requests absorbed by the
  /// burst-buffer tier (bypassing the policy-managed PFS path).
  Counter* bb_absorbed_requests = nullptr;
  /// storage.bb_spilled_requests — requests that did not fit the buffer
  /// (capacity or per-job quota) and fell back to the direct path.
  Counter* bb_spilled_requests = nullptr;
  /// storage.bb_congested_cycles — scheduling cycles with BB occupancy
  /// above the configured watermark.
  Counter* bb_congested_cycles = nullptr;
  /// storage.bb_reflushed_requests — absorbed requests whose staged data a
  /// lossy BB fault dropped, forcing a re-flush over the direct path.
  Counter* bb_reflushed_requests = nullptr;
  /// core.io_transfer_timeouts — direct transfers aborted at their deadline
  /// (progress kept, remainder resubmitted after backoff).
  Counter* io_transfer_timeouts = nullptr;
  /// core.io_transfer_retries — timed-out transfers resubmitted.
  Counter* io_transfer_retries = nullptr;
  /// core.io_straggler_spills — BB-absorbable requests routed to the direct
  /// path because a straggling absorb would have blown the deadline.
  Counter* io_straggler_spills = nullptr;
  /// core.invariant_checks — full from-scratch InvariantChecker sweeps.
  Counter* invariant_checks = nullptr;
  /// sched.passes — batch-scheduler Schedule() invocations.
  Counter* sched_passes = nullptr;
  /// sched.backfill_starts — jobs started by EASY backfill (behind a
  /// blocked head).
  Counter* backfill_starts = nullptr;
  /// sched.jobs_* — lifecycle counts from the engine's event emit point.
  Counter* jobs_submitted = nullptr;
  Counter* jobs_started = nullptr;
  Counter* jobs_completed = nullptr;
  Counter* jobs_killed = nullptr;
  Counter* jobs_fault_killed = nullptr;
  Counter* jobs_requeued = nullptr;
  Counter* jobs_abandoned = nullptr;
  /// sched.queue_depth — wait-queue depth at each scheduling pass.
  Gauge* queue_depth = nullptr;
  Histogram* queue_depth_hist = nullptr;
  /// core.io_request_gb — request volume distribution.
  Histogram* io_request_gb = nullptr;

 private:
  Options options_;
  Registry registry_;
  Tracer tracer_;
  TimeSeriesSampler sampler_;
};

}  // namespace iosched::obs
