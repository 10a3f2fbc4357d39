// Job and phase abstraction (paper Section III-A.1, Figures 2-3).
//
// A job alternates computation/communication phases (fixed duration, because
// the partition's compute and network resources are dedicated) with I/O
// phases (a data volume whose transfer time depends on the bandwidth the
// storage system grants). A run of consecutive I/O calls is modeled as one
// I/O request, as in the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iosched::workload {

using JobId = std::int64_t;

enum class PhaseKind { kCompute, kIo };

/// One phase of a job's lifecycle.
struct Phase {
  PhaseKind kind = PhaseKind::kCompute;
  /// Duration in seconds (compute phases only).
  double compute_seconds = 0.0;
  /// Data to transfer in GB (I/O phases only).
  double io_volume_gb = 0.0;
  /// True for defensive checkpoint flushes emitted by the checkpoint-traffic
  /// generator (see workload/app_checkpoint.h). Flush phases are I/O phases
  /// the scheduler may defer under congestion and that establish restart
  /// points under RESTART_FROM_APP_CHECKPOINT; plain I/O phases never set
  /// this. The workload fingerprint always mixes it.
  bool is_flush = false;

  static Phase Compute(double seconds) {
    return Phase{PhaseKind::kCompute, seconds, 0.0};
  }
  static Phase Io(double volume_gb) {
    return Phase{PhaseKind::kIo, 0.0, volume_gb};
  }
  static Phase Flush(double volume_gb) {
    return Phase{PhaseKind::kIo, 0.0, volume_gb, /*is_flush=*/true};
  }
};

/// A batch job as it appears in the paired (job + I/O) trace.
struct Job {
  JobId id = 0;
  /// Submission time, seconds since the trace epoch.
  double submit_time = 0.0;
  /// Requested compute nodes (N_i).
  int nodes = 0;
  /// User's requested walltime in seconds (scheduling estimate only).
  double requested_walltime = 0.0;
  /// Alternating compute/I/O phases; never empty for a valid job.
  std::vector<Phase> phases;
  /// Application I/O efficiency in (0, 1]: the fraction of the per-node
  /// link bandwidth b the job actually drives when transferring (Darshan
  /// reports effective aggregate rates far below the link bound; few codes
  /// saturate their injection links). The job's full I/O rate is
  /// b * io_efficiency * N_i.
  double io_efficiency = 1.0;
  /// Optional provenance (trace user and project/group ids).
  std::string user;
  std::string project;

  /// Sum of compute-phase durations.
  double TotalComputeSeconds() const;
  /// Sum of I/O-phase volumes (GB).
  double TotalIoVolumeGb() const;
  /// Number of I/O phases (n_i in the paper).
  int IoPhaseCount() const;
  /// I/O time with zero congestion: each phase at full rate b*N_i.
  double UncongestedIoSeconds(double node_bandwidth_gbps) const;
  /// Runtime with zero congestion: compute + uncongested I/O.
  double UncongestedRuntime(double node_bandwidth_gbps) const;
  /// Fraction of the uncongested runtime spent in I/O ([0,1]).
  double IoFraction(double node_bandwidth_gbps) const;
  /// Full I/O rate of this job's partition: b * io_efficiency * N_i (GB/s).
  double FullIoRate(double node_bandwidth_gbps) const {
    return node_bandwidth_gbps * io_efficiency * nodes;
  }
  /// Scale every I/O phase volume by `factor` (sensitivity-study EF knob).
  void ScaleIoVolume(double factor);

  /// Validate invariants (positive size, alternating phases, non-negative
  /// durations/volumes); returns an error description or empty string.
  std::string Validate() const;
};

/// Convenience: build the canonical alternating phase list from totals —
/// `io_phases` equal compute chunks each followed by an equal I/O chunk.
std::vector<Phase> MakeUniformPhases(double total_compute_seconds,
                                     double total_io_volume_gb, int io_phases);

}  // namespace iosched::workload
