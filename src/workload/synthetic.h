// Synthetic Mira-like workload generator.
//
// Substitute for the proprietary 2014 Mira job trace + Darshan logs (see
// DESIGN.md §2). The generator reproduces the published characteristics the
// scheduling policies are sensitive to:
//   * capability-class job sizes: power-of-two node counts from 512 (the
//     smallest production partition) up to the full machine, with 8K/16K
//     jobs "common" (paper Section II-A);
//   * log-normal runtimes clipped to [min_runtime, max_runtime];
//   * user walltime requests that over-estimate the runtime (as real users
//     do), which is what WFP and backfilling consume;
//   * a diurnally modulated Poisson arrival process;
//   * a light/medium/heavy I/O-intensity mixture with checkpoint-style
//     periodic I/O phases (Darshan-like behaviour).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "workload/workload.h"

namespace iosched::workload {

/// Floor on the synthetic inter-arrival gap (seconds). An exponential draw
/// can return exactly 0; the generator clamps every gap to at least this so
/// no seed can emit two jobs at the same instant or a non-advancing clock.
/// Far below any realistic draw, so existing seeds are unaffected.
inline constexpr double kMinInterArrivalSeconds = 1e-6;

/// Mixture component for I/O intensity: a fraction of jobs whose I/O time
/// fraction (of uncongested runtime) is uniform in [lo, hi].
struct IoIntensityBand {
  double weight = 1.0;
  double fraction_lo = 0.0;
  double fraction_hi = 0.0;
};

struct SyntheticConfig {
  /// Trace duration in days (the paper simulates one-month workloads).
  double duration_days = 30.0;
  /// Mean arrivals per day before diurnal modulation.
  double jobs_per_day = 220.0;
  /// Diurnal modulation depth in [0,1): arrival rate swings between
  /// (1-depth) and (1+depth) of the mean over a 24h period.
  double diurnal_depth = 0.35;

  /// Job size menu (nodes) and weights; defaults mirror Mira's mix.
  std::vector<int> size_menu = {512, 1024, 2048, 4096, 8192, 16384, 32768};
  std::vector<double> size_weights = {0.32, 0.24, 0.16, 0.12, 0.10, 0.045,
                                      0.015};

  /// Runtime distribution: log-normal in log-seconds.
  double runtime_log_mean = 8.6;   // exp(8.6) ~ 5,432 s ~ 90 min
  double runtime_log_sigma = 0.85;
  double min_runtime_seconds = 600.0;     // 10 min
  double max_runtime_seconds = 86400.0;   // 24 h

  /// Walltime request = runtime * Uniform(lo, hi), clipped to max_runtime.
  double walltime_factor_lo = 1.15;
  double walltime_factor_hi = 2.2;

  /// I/O intensity mixture (weights need not sum to 1).
  std::vector<IoIntensityBand> io_bands = {
      {0.55, 0.02, 0.10},   // light: occasional output dumps
      {0.30, 0.10, 0.30},   // medium: regular checkpointing
      {0.15, 0.30, 0.60}};  // heavy: data-intensive / analysis

  /// Mean compute-seconds between I/O phases (checkpoint period); the
  /// number of I/O phases is derived from runtime / period, in
  /// [1, max_io_phases].
  double checkpoint_period_seconds = 1800.0;
  int max_io_phases = 60;

  /// Cap on a job's total I/O volume (GB). Bounds the pathological tail
  /// (a day-long 8K-node job at a heavy I/O fraction would otherwise move
  /// petabytes, which no real Darshan log shows). <= 0 disables the cap.
  double max_io_volume_gb = 131072.0;  // 128 TB

  /// Per-job application I/O efficiency (fraction of the link bandwidth the
  /// code actually drives), uniform in [lo, hi]. Defaults model perfectly
  /// efficient I/O; the Mira evaluation months use Darshan-like 0.15-0.75.
  double io_efficiency_lo = 1.0;
  double io_efficiency_hi = 1.0;

  /// Probability that a job starts with a restart read (it resumes from a
  /// checkpoint written by a predecessor): the job's phase list then begins
  /// with an I/O phase of one checkpoint's volume. 0 disables.
  double restart_read_probability = 0.0;

  /// Per-node bandwidth used to convert I/O-time fraction into volume.
  double node_bandwidth_gbps = 1536.0 / 49152.0;

  /// Number of distinct synthetic users/projects.
  int user_count = 64;
  int project_count = 24;

  /// First job id to assign (ids are sequential).
  JobId first_job_id = 1;
};

/// Generate a workload. Deterministic in (config, seed).
Workload GenerateWorkload(const SyntheticConfig& config, std::uint64_t seed);

/// The three one-month evaluation workloads (WL1..WL3). Distinct seeds and
/// slightly different load/IO-intensity mixes stand in for the paper's three
/// calendar months "with different characteristics". `index` is 1-based.
SyntheticConfig EvaluationMonthConfig(int index);

}  // namespace iosched::workload
