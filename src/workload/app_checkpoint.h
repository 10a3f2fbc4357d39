// Application checkpoint-traffic generator (DESIGN.md §11).
//
// Real petascale PFS traffic is dominated by *defensive* I/O: applications
// periodically flush a checkpoint so that an MTBF-driven failure costs only
// the compute since the last flush. This transform rewrites a workload so
// each job emits that traffic: it draws a per-job application class (the
// checkpoint footprint in GB per node), computes the Young/Daly-optimal
// checkpoint interval
//
//     tau = sqrt(2 * C * MTBF),   C = flush volume / full I/O rate,
//
// and splits the job's compute phases at every tau seconds of accumulated
// compute, inserting a flush I/O phase (Phase::is_flush = true) at each
// boundary. Original I/O phases are preserved untouched, so the transform
// composes with SWF-paired and synthetic workloads alike.
//
// Deterministic: class draws come from a dedicated RNG stream (47) seeded by
// `seed`, one draw per job in workload order, independent of whether the job
// ends up receiving flushes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace iosched::workload {

/// One application class: a checkpoint footprint drawn with `weight`.
struct AppCheckpointClass {
  /// Checkpoint footprint per allocated node (GB). A 2048-node job of a
  /// 2 GB/node class flushes 4 TB per checkpoint.
  double gb_per_node = 1.0;
  /// Relative draw weight (weights need not sum to 1).
  double weight = 1.0;
};

struct AppCheckpointConfig {
  bool enabled = false;

  /// Per-application mean time between failures (seconds) used both for the
  /// Young/Daly interval here and (via the driver) for the MTBF failure
  /// process in src/faults. Must be > 0 when enabled.
  double mtbf_seconds = 4.0 * 3600.0;

  /// Class menu: mix of light/medium/heavy checkpointers (memory-fraction
  /// style footprints; Mira nodes hold 16 GB).
  std::vector<AppCheckpointClass> classes = {
      {0.5, 0.45},   // light: solver state only
      {2.0, 0.40},   // medium: a fraction of node memory
      {8.0, 0.15}};  // heavy: near-full memory image

  /// Young/Daly intervals are clamped below to this (seconds), so a tiny
  /// MTBF cannot make flush count explode.
  double min_interval_seconds = 120.0;

  /// Jobs whose total compute is below this never receive flushes (too
  /// short to fail meaningfully; also keeps micro-jobs cheap).
  double min_compute_seconds = 300.0;

  /// Seed for the class-draw stream (47).
  std::uint64_t seed = 1;

  /// Returns an error description, or "" when valid.
  std::string Validate() const;
};

/// The Young/Daly first-order optimal checkpoint interval (seconds):
/// sqrt(2 * flush_seconds * mtbf_seconds). `flush_seconds` is the time one
/// flush takes at the job's full (uncongested) I/O rate.
double YoungDalyInterval(double flush_seconds, double mtbf_seconds);

/// Rewrite `workload` in place, inserting periodic flush phases per the
/// config. `node_bandwidth_gbps` is the per-node link bandwidth b (flush
/// cost C uses the job's full rate b * efficiency * nodes). No-op when
/// config.enabled is false. Throws std::invalid_argument on bad config.
void ApplyCheckpointTraffic(Workload& workload,
                            const AppCheckpointConfig& config,
                            double node_bandwidth_gbps);

}  // namespace iosched::workload
