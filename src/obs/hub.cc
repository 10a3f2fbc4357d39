#include "obs/hub.h"

namespace iosched::obs {

Hub::Hub(const Options& options)
    : options_(options),
      tracer_(options.trace_capacity),
      // The sampler object always exists; a non-positive dt only disables
      // the engine's tick events, so substitute a benign cadence here.
      sampler_(options.sample_dt_seconds > 0 ? options.sample_dt_seconds
                                             : 600.0) {
  events_processed = registry_.AddCounter("sim.events_processed");
  io_cycles = registry_.AddCounter("core.io_cycles");
  forced_reschedules = registry_.AddCounter("core.forced_reschedules");
  io_requests = registry_.AddCounter("core.io_requests");
  congested_cycles = registry_.AddCounter("core.congested_cycles");
  throttled_grants = registry_.AddCounter("core.throttled_grants");
  knapsack_invocations = registry_.AddCounter("core.knapsack_invocations");
  waterfill_iterations =
      registry_.AddCounter("storage.waterfill_iterations");
  bb_absorbed_requests = registry_.AddCounter("storage.bb_absorbed_requests");
  bb_spilled_requests = registry_.AddCounter("storage.bb_spilled_requests");
  bb_congested_cycles = registry_.AddCounter("storage.bb_congested_cycles");
  bb_reflushed_requests =
      registry_.AddCounter("storage.bb_reflushed_requests");
  io_transfer_timeouts = registry_.AddCounter("core.io_transfer_timeouts");
  io_transfer_retries = registry_.AddCounter("core.io_transfer_retries");
  io_straggler_spills = registry_.AddCounter("core.io_straggler_spills");
  invariant_checks = registry_.AddCounter("core.invariant_checks");
  sched_passes = registry_.AddCounter("sched.passes");
  backfill_starts = registry_.AddCounter("sched.backfill_starts");
  jobs_submitted = registry_.AddCounter("sched.jobs_submitted");
  jobs_started = registry_.AddCounter("sched.jobs_started");
  jobs_completed = registry_.AddCounter("sched.jobs_completed");
  jobs_killed = registry_.AddCounter("sched.jobs_killed");
  jobs_fault_killed = registry_.AddCounter("sched.jobs_fault_killed");
  jobs_requeued = registry_.AddCounter("sched.jobs_requeued");
  jobs_abandoned = registry_.AddCounter("sched.jobs_abandoned");
  queue_depth = registry_.AddGauge("sched.queue_depth");
  queue_depth_hist = registry_.AddHistogram(
      "sched.queue_depth_hist",
      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  io_request_gb = registry_.AddHistogram(
      "core.io_request_gb", {1.0, 10.0, 100.0, 1e3, 1e4, 1e5});
}

}  // namespace iosched::obs
