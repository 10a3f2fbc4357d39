// Workload assembly: pairing the SWF job trace with the Darshan-lite I/O
// trace (paper Section IV-B), plus workload-level transforms and statistics.
#pragma once

#include <string>
#include <vector>

#include "workload/iotrace.h"
#include "workload/job.h"
#include "workload/swf.h"

namespace iosched::workload {

using Workload = std::vector<Job>;

/// Options controlling the SWF+I/O pairing.
struct PairingOptions {
  /// Per-node link bandwidth (GB/s), needed to convert I/O volume into
  /// uncongested I/O time when deriving compute time from SWF run time.
  double node_bandwidth_gbps = 1536.0 / 49152.0;
  /// Keep only completed jobs (SWF status == 1) when true.
  bool completed_only = false;
  /// A job's uncongested I/O time is capped at this fraction of its SWF run
  /// time; volumes implying more I/O than the job's whole runtime would be
  /// inconsistent, so they are scaled down to the cap.
  double max_io_fraction = 0.95;
};

/// Join the job trace with the I/O trace on job id. SWF `run_time` is
/// interpreted as the *uncongested* runtime; total compute time is run_time
/// minus the uncongested I/O time of the paired volume. Jobs with no I/O
/// record become pure-compute jobs. Throws std::runtime_error on duplicate
/// I/O records for one job id.
Workload PairTraces(const SwfTrace& jobs, const IoTrace& io,
                    const PairingOptions& options);

/// Scale every job's I/O volume by `expansion_factor` (the paper's EF knob:
/// 0.3 compresses I/O time to 30%, 1.5 expands it by 50%).
void ApplyExpansionFactor(Workload& workload, double expansion_factor);

/// Sort by submit time (stable), which every consumer expects.
void SortBySubmitTime(Workload& workload);

/// Aggregate demand statistics for calibration and reporting.
struct WorkloadStats {
  std::size_t job_count = 0;
  double makespan_seconds = 0.0;  // last submit - first submit
  double total_node_seconds = 0.0;
  double mean_nodes = 0.0;
  double mean_runtime_seconds = 0.0;
  double mean_io_fraction = 0.0;
  double total_io_gb = 0.0;
  /// Offered load vs a machine of `machine_nodes`: node-seconds demanded /
  /// (machine_nodes * makespan).
  double offered_load = 0.0;
};

WorkloadStats ComputeStats(const Workload& workload, int machine_nodes,
                           double node_bandwidth_gbps);

/// Decompose a workload back into its SWF + I/O trace halves (round-trip
/// support: generate -> write -> read -> pair must reproduce the workload).
SwfTrace ToSwf(const Workload& workload, double node_bandwidth_gbps);
IoTrace ToIoTrace(const Workload& workload, double node_bandwidth_gbps);

/// Validate every job; returns human-readable errors (empty when clean).
std::vector<std::string> ValidateWorkload(const Workload& workload);

/// Bit-exact fingerprint over every semantic field of every job, in workload
/// order (ids, times, phases with their flush flags, efficiencies,
/// provenance ids — floats hashed by bit pattern, not text). Each field is
/// one 64-bit word (a phase is two: kind|flush, then its amount), hashed in
/// four independent multiply-rotate lanes that are folded at the end. Feeds the
/// checkpoint config hash: a checkpoint resumed against a workload with any
/// differing field must be rejected, because the restored engine holds raw
/// pointers into the job vector and replays the remaining phases from it.
std::uint64_t WorkloadFingerprint(const Workload& workload);

}  // namespace iosched::workload
