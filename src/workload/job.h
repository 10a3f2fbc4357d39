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

enum class PhaseKind : std::uint8_t { kCompute, kIo };

/// One phase of a job's lifecycle: an amount (seconds of computation or GB
/// of I/O, by kind) and the flush flag, 16 bytes. Read the amount through
/// compute_seconds()/io_volume_gb(), which return 0 for the other kind.
struct Phase {
  /// Duration in seconds for a compute phase; data to transfer in GB for
  /// an I/O phase.
  double amount = 0.0;
  PhaseKind kind = PhaseKind::kCompute;
  /// True for defensive checkpoint flushes emitted by the checkpoint-traffic
  /// generator (see workload/app_checkpoint.h). Flush phases are I/O phases
  /// the scheduler may defer under congestion and that establish restart
  /// points under RESTART_FROM_APP_CHECKPOINT; plain I/O phases never set
  /// this. The workload fingerprint always mixes it.
  bool is_flush = false;

  double compute_seconds() const {
    return kind == PhaseKind::kCompute ? amount : 0.0;
  }
  double io_volume_gb() const { return kind == PhaseKind::kIo ? amount : 0.0; }

  static Phase Compute(double seconds) {
    return Phase{seconds, PhaseKind::kCompute};
  }
  static Phase Io(double volume_gb) { return Phase{volume_gb, PhaseKind::kIo}; }
  static Phase Flush(double volume_gb) {
    return Phase{volume_gb, PhaseKind::kIo, /*is_flush=*/true};
  }
};
static_assert(sizeof(Phase) == 16);

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
  /// Optional provenance: the trace's user and project (SWF group) ids,
  /// -1 when unknown. The simulation never reads them.
  std::int32_t user_id = -1;
  std::int32_t project_id = -1;

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

// The year replay holds a million of these: keep the layout from growing
// unnoticed (LP64).
static_assert(sizeof(void*) != 8 || sizeof(Job) == 72);

}  // namespace iosched::workload
