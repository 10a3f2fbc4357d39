// Trace-driven scheduling simulation (the paper's Qsim substrate, Section
// IV-A), wired with the I/O-aware framework.
//
// Composition: a discrete-event Simulator drives job submissions; the
// Cobalt-like BatchScheduler places jobs onto the partitioned Machine; each
// running job walks its compute/I/O phase list; I/O phases go through the
// IoScheduler, whose policy decides who transfers and how fast against the
// StorageModel. Per-job outcomes and the busy-node step function feed the
// metrics subsystem.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/event_log.h"
#include "core/io_scheduler.h"
#include "faults/fault_plan.h"
#include "machine/machine.h"
#include "metrics/bandwidth.h"
#include "metrics/fault_stats.h"
#include "storage/backend.h"
#include "storage/burst_buffer.h"
#include "metrics/job_record.h"
#include "metrics/report.h"
#include "metrics/utilization.h"
#include "obs/hub.h"
#include "sched/batch_scheduler.h"
#include "storage/storage_model.h"
#include "workload/workload.h"

namespace iosched::core {

/// Shared-state handle between a running simulation and an external monitor
/// (the driver's watchdog). The engine publishes progress after every
/// processed event and polls `abort`; a monitor thread that sees no
/// progress within its budget sets `abort`, and the engine responds by
/// writing an emergency checkpoint (when a checkpoint directory is
/// configured) and throwing SimulationAborted. The struct must outlive the
/// run.
struct RunControl {
  std::atomic<std::uint64_t> progress_events{0};
  std::atomic<double> progress_sim_time{0.0};
  std::atomic<bool> abort{false};
  /// Set by the engine for the duration of a checkpoint write. Event
  /// progress stalls while a snapshot is serialized and fsynced, so a
  /// monitor must not confuse a long checkpoint write with a stuck
  /// simulation (the driver's Watchdog suspends its normal budget while
  /// this flag is up).
  std::atomic<bool> checkpoint_in_progress{false};
};

/// Thrown when a run is stopped via RunControl::abort. Carries the path of
/// the emergency checkpoint, when one could be written ("" otherwise).
class SimulationAborted : public std::runtime_error {
 public:
  SimulationAborted(const std::string& what, std::string checkpoint_path)
      : std::runtime_error(what),
        checkpoint_path_(std::move(checkpoint_path)) {}
  const std::string& checkpoint_path() const { return checkpoint_path_; }

 private:
  std::string checkpoint_path_;
};

/// One problem found by SimulationConfig::Validate — a dotted field path
/// plus a human-readable description of what is wrong with it.
struct ConfigIssue {
  std::string field;
  std::string message;
};

/// Thrown by RunSimulation (and SimulationConfig::Builder::Build) when a
/// config fails validation. Derives from std::invalid_argument so existing
/// "bad config throws invalid_argument" call sites keep working; carries
/// every issue found, not just the first.
class ConfigValidationError : public std::invalid_argument {
 public:
  explicit ConfigValidationError(std::vector<ConfigIssue> issues);
  const std::vector<ConfigIssue>& issues() const { return issues_; }

 private:
  std::vector<ConfigIssue> issues_;
};

struct SimulationConfig {
  machine::MachineConfig machine = machine::MachineConfig::Mira();
  storage::StorageConfig storage;
  sched::BatchScheduler::Options batch;
  /// I/O policy name (see AllPolicyNames()).
  std::string policy = "BASE_LINE";
  /// Stable-window fractions for utilization reporting.
  double warmup_fraction = 0.05;
  double cooldown_fraction = 0.05;
  /// Summarize per-cycle storage demand/grant into the result's
  /// BandwidthSummary (a streaming accumulator of fixed size; on by
  /// default).
  bool track_bandwidth = true;
  /// Also keep the raw per-cycle series and return it in the result (for
  /// timeline rendering). Off by default: the series grows with every cycle
  /// (40 B each, ~3.8M cycles in a year), and checkpoints then carry it in
  /// a `bandwidth_samples` section. Resuming with it set from a file saved
  /// without it throws ckpt::ConfigMismatchError.
  bool keep_bandwidth_samples = false;
  /// Kill jobs at their requested walltime, as the production Cobalt does.
  /// Off by default: the paper lets congestion-stretched jobs run out, and
  /// its metrics assume every job completes.
  bool enforce_walltime = false;
  /// Optional burst-buffer tier (disabled by default; the paper's system
  /// has none — this is the architectural alternative its related work
  /// discusses). drain_gbps must stay below the storage BWmax.
  storage::BurstBufferConfig burst_buffer;
  /// Fault injection (disabled by default = the paper's fault-free model).
  /// Either an explicit plan or seeded generation parameters; killed jobs
  /// requeue with exponential backoff under `batch` retry options.
  faults::FaultOptions faults;
  /// Deadline/timeout semantics for direct PFS transfers (disabled by
  /// default — timeout_seconds 0 leaves every transfer unwatched, exactly
  /// the pre-timeout behavior).
  TransferRetryConfig transfer_retry;
  /// Application-checkpoint semantics (disabled by default — flush phases
  /// then behave as ordinary I/O and restart accounting is untouched).
  /// When enabled, I/O phases marked `is_flush` become deferrable flush
  /// sub-jobs (policies may park them up to `max_defer_seconds` under
  /// congestion) and the engine tracks per-job durability points so
  /// RestartMode::kRestartFromAppCheckpoint can requeue a failed job owing
  /// only the compute since its last fully drained flush.
  FlushDeferralConfig app_checkpoint;
  /// Run the from-scratch InvariantChecker alongside the simulation: every
  /// `invariant_check_every_events` events (and once after the queue
  /// drains) all incremental aggregates are recomputed and any mismatch
  /// throws InvariantViolation. Strictly read-only — enabling it never
  /// changes a run's records or digest. Off by default (the sweep is a
  /// full scan of the active sets).
  bool check_invariants = false;
  std::uint64_t invariant_check_every_events = 64;
  /// Observability settings (counters + tracer + time-series sampler).
  /// Drivers that honor `obs.enabled` construct an obs::Hub from these and
  /// pass it to RunSimulation; the engine itself only sees the Hub pointer.
  /// Callers passing a hub MUST keep it consistent with these settings:
  /// sampler ticks consume event ids.
  obs::Options obs;
  /// Periodic checkpointing + resume (disabled by default). Resume-equiv
  /// guarantee: a run restored from any checkpoint produces records
  /// bit-identical to the uninterrupted run.
  ckpt::Options checkpoint;
  /// Optional watchdog handle (see RunControl); null disables polling.
  RunControl* control = nullptr;

  /// Check every field (core/config_fields.h) and return the full list of
  /// problems (empty = valid). RunSimulation calls this first and throws
  /// ConfigValidationError when anything is wrong, so a bad config fails
  /// before any state is built.
  std::vector<ConfigIssue> Validate() const;

  class Builder;
};

/// Fluent construction with fail-fast validation: setters mirror the struct
/// fields, and Build() returns the config after Validate() passes — or
/// throws ConfigValidationError listing every issue. Start from scratch or
/// from an existing config:
///
///   auto config = core::SimulationConfig::Builder()
///                     .Machine(machine::MachineConfig::Small())
///                     .StorageBandwidth(64.0)
///                     .Policy("ADAPTIVE")
///                     .BurstBuffer({.capacity_gb = 2000, .drain_gbps = 25})
///                     .Build();
class SimulationConfig::Builder {
 public:
  Builder() = default;
  /// Seed the builder from an existing config (sweeps tweak one axis).
  explicit Builder(SimulationConfig base) : config_(std::move(base)) {}

  Builder& Machine(machine::MachineConfig machine) {
    config_.machine = machine;
    return *this;
  }
  Builder& StorageBandwidth(double bwmax_gbps) {
    config_.storage.max_bandwidth_gbps = bwmax_gbps;
    return *this;
  }
  Builder& Batch(sched::BatchScheduler::Options batch) {
    config_.batch = std::move(batch);
    return *this;
  }
  Builder& Policy(std::string name) {
    config_.policy = std::move(name);
    return *this;
  }
  Builder& WarmupCooldown(double warmup_fraction, double cooldown_fraction) {
    config_.warmup_fraction = warmup_fraction;
    config_.cooldown_fraction = cooldown_fraction;
    return *this;
  }
  Builder& EnforceWalltime(bool on) {
    config_.enforce_walltime = on;
    return *this;
  }
  Builder& BurstBuffer(storage::BurstBufferConfig bb) {
    config_.burst_buffer = bb;
    return *this;
  }
  Builder& Faults(faults::FaultOptions faults) {
    config_.faults = std::move(faults);
    return *this;
  }
  Builder& TransferRetry(TransferRetryConfig retry) {
    config_.transfer_retry = retry;
    return *this;
  }
  Builder& AppCheckpoint(FlushDeferralConfig app_checkpoint) {
    config_.app_checkpoint = app_checkpoint;
    return *this;
  }
  Builder& CheckInvariants(bool on, std::uint64_t every_events = 64) {
    config_.check_invariants = on;
    config_.invariant_check_every_events = every_events;
    return *this;
  }
  Builder& Obs(obs::Options options) {
    config_.obs = options;
    return *this;
  }
  Builder& Checkpoint(ckpt::Options options) {
    config_.checkpoint = std::move(options);
    return *this;
  }

  /// Peek at the config without validating (for incremental assembly).
  const SimulationConfig& Peek() const { return config_; }

  /// Validate and return; throws ConfigValidationError on any issue.
  SimulationConfig Build() const;

 private:
  SimulationConfig config_;
};

struct SimulationResult {
  metrics::JobRecords records;
  metrics::Report report;
  /// Storage congestion statistics (empty when track_bandwidth is off).
  metrics::BandwidthSummary bandwidth;
  /// Raw per-cycle samples (only when keep_bandwidth_samples is set).
  std::vector<metrics::BandwidthSample> bandwidth_samples;
  /// Burst-buffer statistics (zero when the buffer is disabled).
  double bb_absorbed_gb = 0.0;
  std::uint64_t bb_absorbed_requests = 0;
  /// Requests that did not fit the buffer and fell back to the direct path.
  std::uint64_t bb_spilled_requests = 0;
  /// Volume drained to the PFS (GB) and the deepest backlog seen (GB).
  double bb_drained_gb = 0.0;
  double bb_peak_queued_gb = 0.0;
  /// Time-averaged occupancy fraction (0..1) over the run.
  double bb_mean_occupancy = 0.0;
  /// Fault accounting (empty when fault injection is disabled).
  metrics::FaultStats faults;
  /// Robustness accounting (all zero when timeouts/fault injection are
  /// disabled).
  std::uint64_t transfer_timeouts = 0;
  std::uint64_t transfer_retries = 0;
  std::uint64_t straggler_spills = 0;
  /// Absorbed requests re-flushed over the direct path after a lossy
  /// burst-buffer fault, and the staged volume those faults dropped.
  std::uint64_t bb_reflushed_requests = 0;
  double bb_lost_gb = 0.0;
  /// Checkpoint-flush scheduling (all zero when app_checkpoint is off):
  /// flushes parked by the policy, and parked flushes the scheduler
  /// force-released at their deferral deadline.
  std::uint64_t flush_deferrals = 0;
  std::uint64_t forced_flush_releases = 0;
  /// Full InvariantChecker sweeps executed (0 unless check_invariants).
  std::uint64_t invariant_checks = 0;
  /// Engine statistics.
  std::uint64_t io_requests = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t io_scheduling_cycles = 0;
  std::string policy_name;
  /// Checkpoints written during this run (periodic + emergency).
  std::uint64_t checkpoints_written = 0;
  /// Checkpoint file the run resumed from ("" for a fresh run).
  std::string resumed_from;
};

/// FNV-1a fingerprint over every field the field table
/// (core/config_fields.h) does not exclude, mixed with
/// workload::WorkloadFingerprint. Stamped into checkpoints; a resume whose
/// recomputed hash differs is rejected with ckpt::ConfigMismatchError
/// instead of silently diverging. A run computes it once (a resume_latest
/// lookup, the restore check and every save share the value).
std::uint64_t SimulationConfigHash(const SimulationConfig& config,
                                   const workload::Workload& jobs);

/// Run the workload to completion under `config`. The workload must be
/// valid (ValidateWorkload empty) and is not modified. Deterministic.
/// When `event_log` is non-null every scheduling event (submit, start, I/O
/// request/complete, end, kill) is appended to it in time order.
/// When `hub` is non-null the run feeds its counters, tracer, and sampler;
/// the schedule of decisions is unaffected (obs never mutates simulation
/// state), so records and report are identical with and without a hub —
/// only `events_processed` grows by the sampler's tick events.
/// When `config.checkpoint` enables saving, state snapshots land in the
/// checkpoint directory; `resume_from`/`resume_latest` restore one before
/// running (throws ckpt::CheckpointError subclasses on damaged or
/// mismatched files; resume_latest quietly starts fresh when the directory
/// holds no usable checkpoint).
SimulationResult RunSimulation(const SimulationConfig& config,
                               const workload::Workload& jobs,
                               EventLog* event_log = nullptr,
                               obs::Hub* hub = nullptr);

}  // namespace iosched::core
