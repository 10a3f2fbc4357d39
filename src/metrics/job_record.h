// Per-job outcome record produced by a simulation run.
#pragma once

#include <vector>

#include "workload/job.h"

namespace iosched::metrics {

/// The doubles come first and the ints and flags after them, so the record
/// packs into 104 bytes (a year replay keeps a million). Digests and
/// checkpoints visit the fields by name, not in declaration order.
struct JobRecord {
  workload::JobId id = 0;
  double submit_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;
  /// Runtime the job would have had with zero I/O congestion.
  double uncongested_runtime = 0.0;
  double requested_walltime = 0.0;
  /// Seconds actually spent inside I/O requests (incl. suspension).
  double io_time_actual = 0.0;
  /// Seconds I/O would have taken at full rate b*N.
  double io_time_uncongested = 0.0;
  /// Machine time burned by failed attempts (start-to-kill, summed).
  double lost_seconds = 0.0;
  /// Simulated seconds of progress discarded by failures — per failed
  /// attempt, the span from the attempt's last restart anchor (job start,
  /// last completed phase, or last durable flush, by restart mode) to the
  /// kill, summed. The work a restart must redo.
  double rework_seconds = 0.0;
  int requested_nodes = 0;
  /// Nodes in the granted partition (>= requested: internal fragmentation).
  int allocated_nodes = 0;
  int io_phase_count = 0;
  /// Execution attempts consumed (1 = no fault kill; >1 = requeued after
  /// fault kills). start/end/io times describe the final attempt.
  int attempts = 1;
  /// Checkpoint flushes completed across all attempts (checkpoint-traffic
  /// workloads only; 0 otherwise).
  int flush_count = 0;
  /// True when the scheduler killed the job at its requested walltime
  /// (enforce_walltime mode) instead of the job completing its phases.
  bool killed = false;
  /// True when the job exhausted its retry budget and never completed; the
  /// record then describes the last failed attempt.
  bool abandoned = false;

  double WaitTime() const { return start_time - submit_time; }
  double ResponseTime() const { return end_time - submit_time; }
  double Runtime() const { return end_time - start_time; }
  /// Runtime stretch caused by I/O congestion (>= 1 up to float noise).
  double RuntimeExpansion() const {
    return uncongested_runtime > 0 ? Runtime() / uncongested_runtime : 1.0;
  }
  /// I/O slowdown over the whole job (>= 1 when congested).
  double IoSlowdown() const {
    return io_time_uncongested > 0 ? io_time_actual / io_time_uncongested
                                   : 1.0;
  }
};
static_assert(sizeof(void*) != 8 || sizeof(JobRecord) == 104);

using JobRecords = std::vector<JobRecord>;

}  // namespace iosched::metrics
