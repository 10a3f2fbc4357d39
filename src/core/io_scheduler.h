// Runtime I/O coordination (paper Section III-B, Figure 6).
//
// The IoScheduler is the framework piece that makes the batch scheduler
// "I/O-aware": it monitors every in-flight I/O request (the blue arrow in
// Figure 6) and, on each scheduling cycle — an I/O request arriving or
// completing — asks the configured policy for a bandwidth assignment and
// imposes it on the storage model (the yellow arrow: dynamic control of
// running jobs, i.e. suspending/resuming their I/O).
//
// It also maintains the per-job accounting the slowdown metrics need
// (completed compute seconds, completed uncongested I/O seconds) and drives
// the single pending completion event on the simulator. Its events are
// plain data under its own owner tag; OnEvent dispatches them.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/io_policy.h"
#include "core/job_store.h"
#include "metrics/bandwidth.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/burst_buffer.h"
#include "storage/storage_model.h"
#include "util/field_table.h"
#include "util/rng.h"
#include "workload/job.h"

namespace iosched::obs {
class Hub;
}  // namespace iosched::obs

namespace iosched::core {

/// Deadline/timeout semantics for direct PFS transfers (the graceful-
/// degradation response to straggling storage). A transfer still in flight
/// `timeout_seconds` after submission is aborted (its progress is kept) and
/// the remaining volume is resubmitted after a jittered exponential backoff;
/// after `max_retries` resubmissions the transfer runs unwatched to
/// completion, so a pathological straggler degrades throughput but can never
/// wedge a job.
/// Each member's meaning and range is its row in VisitFields below.
struct TransferRetryConfig {
  double timeout_seconds = 0.0;
  int max_retries = 3;
  double backoff_base_seconds = 30.0;
  double backoff_max_seconds = 600.0;
  double backoff_jitter_fraction = 0.0;
  std::uint64_t jitter_seed = 1;

  bool enabled() const { return timeout_seconds > 0; }
  /// The first rule a member breaks, or "" (the rules are the rows below).
  std::string Validate() const;
};

template <util::MaybeConst<TransferRetryConfig> C, class V>
void VisitFields(C& c, V& v) {
  using util::kAny, util::kFraction, util::kNonNegative, util::kPositive;
  constexpr auto kSchedule = util::HashClass::kSchedule;
  v(c.timeout_seconds,
    {"timeout_seconds", "transfer_retry.timeout_seconds", kNonNegative,
     kSchedule, "per-attempt deadline (s); 0 = unwatched"});
  v(c.max_retries, {"max_retries", "transfer_retry.max_retries", kNonNegative,
                    kSchedule, "resubmissions before running unwatched"});
  v(c.backoff_base_seconds,
    {"backoff_base_seconds", "transfer_retry.backoff_base_seconds", kPositive,
     kSchedule, "first retry delay (s), doubled per retry"});
  v(c.backoff_max_seconds,
    {"backoff_max_seconds", "transfer_retry.backoff_max_seconds", kAny,
     kSchedule, "retry delay cap (s)"},
    {.rule = [&c] {
      return c.backoff_max_seconds < c.backoff_base_seconds
                 ? "must be >= backoff_base_seconds"
                 : "";
    }});
  v(c.backoff_jitter_fraction,
    {"backoff_jitter_fraction", "transfer_retry.backoff_jitter_fraction",
     kFraction, kSchedule, "delays scale by U[1 - f, 1 + f]; 0 = no draws"});
  v(c.jitter_seed, {"jitter_seed", "transfer_retry.jitter_seed", kAny,
                    kSchedule, "seed of the retry scatter"});
}

/// Checkpoint-flush-aware scheduling (application checkpoint traffic). When
/// enabled, I/O requests submitted with the flush flag become *deferrable*:
/// a policy may park a direct-path flush while it reports congestion, and
/// the scheduler force-releases it `max_defer_seconds` after submission —
/// the durability of an application checkpoint may be delayed, never
/// denied. Disabled (the default), flush requests behave exactly like
/// ordinary I/O and no flush state exists.
struct FlushDeferralConfig {
  bool enabled = false;
  /// Longest a policy may hold a ready flush (seconds). 0 = flushes are
  /// never parked even when the feature is enabled.
  double max_defer_seconds = 0.0;
};

/// How a completed I/O request reached (or will reach) the PFS — delivered
/// with every completion callback. A direct-path request is durable on the
/// PFS the instant it completes. A burst-buffer-absorbed request is only
/// *staged* at completion: its bytes are durable once the buffer's
/// cumulative drained volume passes `durable_drain_gb` (captured when the
/// request was absorbed, FIFO drain order makes the threshold exact).
struct IoCompletionInfo {
  bool absorbed = false;
  double durable_drain_gb = 0.0;
};

class IoScheduler : private sim::EventHandler {
 public:
  /// Called when a job's current I/O request has fully transferred.
  using CompletionCallback = std::function<void(
      workload::JobId, sim::SimTime, const IoCompletionInfo&)>;

  /// All references must outlive the IoScheduler. `node_bandwidth_gbps` is
  /// the per-node link speed b used to derive each job's full I/O rate.
  /// The scheduler registers itself as the storage model's bandwidth-change
  /// listener, so a runtime SetMaxBandwidth (degradation/repair) re-runs
  /// water-filling immediately — no caller-side ForceReschedule needed.
  IoScheduler(sim::Simulator& simulator, storage::StorageModel& storage,
              double node_bandwidth_gbps, std::unique_ptr<IoPolicy> policy,
              CompletionCallback on_complete);

  /// Convenience: construct against a storage backend — the PFS tier is
  /// `backend.model()` and the absorbing tier (when the backend has one) is
  /// attached automatically.
  IoScheduler(sim::Simulator& simulator, storage::StorageBackend& backend,
              double node_bandwidth_gbps, std::unique_ptr<IoPolicy> policy,
              CompletionCallback on_complete)
      : IoScheduler(simulator, backend.model(), node_bandwidth_gbps,
                    std::move(policy), std::move(on_complete)) {
    AttachBurstBuffer(backend.burst_buffer());
  }

  /// Detaches the bandwidth-change listener and the event handler (the
  /// storage model may outlive the scheduler, e.g. in test fixtures).
  ~IoScheduler();

  /// Owner tag of the scheduler's events on the simulator.
  static constexpr sim::Owner kEventOwner = 2;

  /// Register a job when it starts running (t_start for AggrSld).
  void RegisterJob(const workload::Job& job, sim::SimTime start_time);

  /// Remove a finished job's context. Its transfer must already be done.
  void UnregisterJob(workload::JobId id);

  /// Account a finished compute phase (feeds AggrSld's denominator).
  void AddCompletedCompute(workload::JobId id, double seconds);

  /// A job issues its next I/O request of `volume_gb`; triggers a
  /// scheduling cycle. Volume must be > 0 (callers skip empty phases).
  /// `is_flush` marks a checkpoint flush: with flush-aware scheduling
  /// enabled the request becomes deferrable on the direct path (see
  /// FlushDeferralConfig); otherwise the flag is ignored.
  void SubmitRequest(workload::JobId id, double volume_gb, sim::SimTime now,
                     bool is_flush = false);

  /// Abort a job's in-flight request without completing it (walltime or
  /// fault kill). No completion callback fires; a scheduling cycle
  /// redistributes the freed bandwidth. Also cancels a pending burst-buffer
  /// absorbed completion. No-op if the job has no request in flight.
  void AbortRequest(workload::JobId id, sim::SimTime now);

  /// Force an immediate scheduling cycle outside the normal request
  /// arrival/completion triggers — used when the storage capacity changes
  /// under the policy (degradation/repair), so conservative policies
  /// instantly produce assignments feasible against the new BWmax.
  void ForceReschedule(sim::SimTime now);

  /// Attach observability (null detaches); also rebinds the policy's
  /// instruments. The hub must outlive the scheduler or be detached first.
  void SetObs(obs::Hub* hub);

  /// Close the open congestion episode, if any, at `now`. Call once after
  /// the simulation drains so the trace's last span has an end.
  void FlushObs(sim::SimTime now);

  /// Number of jobs currently performing/awaiting I/O.
  std::size_t active_requests() const { return storage_.active_count(); }

  const IoPolicy& policy() const { return *policy_; }

  /// Scheduling cycles executed (policy invocations).
  std::uint64_t cycles() const { return cycles_; }

  /// Attach a bandwidth tracker; every scheduling cycle records a sample
  /// (demand, grant, suspended count). Pass nullptr to detach. The tracker
  /// must outlive the scheduler or be detached first.
  void SetBandwidthTracker(metrics::BandwidthTracker* tracker) {
    bandwidth_tracker_ = tracker;
  }

  /// Attach a burst buffer (nullptr detaches). Requests that fit its free
  /// space (and the job's quota) are absorbed at the absorb-tier rate
  /// (bypassing the policy); the drain reserves its bandwidth out of BWmax,
  /// shrinking what the policy can grant to direct traffic. Tier-aware
  /// policies receive a TierState each cycle while a buffer is attached.
  /// The buffer must outlive the scheduler.
  void AttachBurstBuffer(storage::BurstBuffer* burst_buffer) {
    burst_buffer_ = burst_buffer;
  }

  /// Total I/O requests submitted (absorbed + direct).
  std::uint64_t submitted_requests() const { return submitted_requests_; }

  /// Configure transfer deadlines/retries (call before the run starts).
  /// Throws std::invalid_argument on invalid fields.
  void SetRetryConfig(const TransferRetryConfig& config);

  /// Configure checkpoint-flush-aware scheduling (call before the run
  /// starts). Throws std::invalid_argument on a negative deferral bound.
  void ConfigureFlushScheduling(const FlushDeferralConfig& config);

  /// Cumulative volume the burst buffer has drained to the PFS by `now`
  /// (0 without a buffer). Settles the drain to `now` first, so callers can
  /// compare it against IoCompletionInfo::durable_drain_gb thresholds.
  double TotalDrainedGb(sim::SimTime now);

  /// Flush-deferral counters (for reports).
  std::uint64_t flush_deferrals() const { return flush_deferrals_; }
  std::uint64_t forced_flush_releases() const {
    return forced_flush_releases_;
  }
  /// Parked flushes right now (GB / count).
  double deferred_flush_gb() const { return deferred_backlog_gb_; }
  std::size_t deferred_flush_count() const {
    return deferred_flushes_.size();
  }

  /// Enumerate parked flushes in job-id order (invariant checking): the
  /// callback receives (job, volume_gb, submit_time, release_deadline).
  template <typename Fn>
  void ForEachDeferredFlush(Fn&& fn) const {
    for (const auto& [id, flush] : deferred_flushes_) {
      fn(id, flush.volume_gb, flush.submit_time, flush.fire_time);
    }
  }

  /// Install the seeded per-transfer straggler draw (fault injection): the
  /// callback returns the effective-rate multiplier for the next direct
  /// submission (1.0 = nominal). Null detaches — with no draw installed,
  /// submissions never consume RNG state, keeping fault-free runs
  /// digest-identical.
  void SetStragglerDraw(std::function<double()> draw) {
    straggler_draw_ = std::move(draw);
  }

  /// Burst-buffer fault edge (fault injection). On fault the buffer stops
  /// absorbing; with `lose_data` the staged data is dropped and every
  /// in-flight absorbed request re-flushes its full volume over the direct
  /// path. On repair the buffer absorbs again. Requires an attached buffer.
  void OnBurstBufferFault(bool faulted, bool lose_data, sim::SimTime now);

  /// Drain-rate degradation edge (fault injection): settle the drain at the
  /// old rate, apply the factor, and run a cycle. Requires an attached
  /// buffer.
  void OnDrainFactorChange(double factor, sim::SimTime now);

  /// Robustness counters (for reports).
  std::uint64_t transfer_timeouts() const { return transfer_timeouts_; }
  std::uint64_t transfer_retries() const { return transfer_retries_; }
  std::uint64_t straggler_spills() const { return straggler_spills_; }
  std::uint64_t reflushed_requests() const { return reflushed_requests_; }

  /// Build the policy view of the active set at `now` (exposed for tests).
  std::vector<IoJobView> BuildViews(sim::SimTime now) const;

  /// Save or load per-job accounting, cycle counters, congestion-span
  /// state, and the ids of the scheduler's pending events (the events
  /// themselves are in the simulator's state). The storage model saves its
  /// own transfer set. Load onto a freshly built scheduler, after the
  /// simulator and the storage model: job ids resolve through the reader's
  /// job lookup, and a saved event id that is not pending throws
  /// ckpt::FormatError.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  /// The scheduler's event kinds (sim::Event::kind under kEventOwner).
  enum EventKind : sim::Kind {
    kCompletion,    // next direct-transfer completion
    kDrain,         // burst-buffer drain empties
    kAbsorbed,      // key job, arg duration: absorbed request lands
    kFlushRelease,  // key job: deferred flush's forced release
    kDeadline,      // key job: transfer deadline
    kRetry,         // key job: retry backoff elapsed
    kEventKinds
  };
  void OnEvent(const sim::Event& event) override;

  /// Run one scheduling cycle: advance progress, re-assign rates, and
  /// reschedule the completion event.
  void Reschedule(sim::SimTime now);

  /// Refill `views` (cleared first) with the policy view of the active set.
  void FillViews(std::vector<IoJobView>& views) const;

  /// Refresh cycle_inputs_ for this cycle: tiers while a buffer is
  /// attached, flush backlog while flush-aware scheduling is on. Fields of
  /// disabled features keep their defaults.
  void RefreshCycleInputs();

  /// Completion event handler: finish every complete transfer, then cycle.
  void OnCompletionEvent();

  /// Storage bandwidth-change listener body: emit the obs instant and run a
  /// cycle so grants are feasible against the new cap before time advances.
  void OnBandwidthChange(double new_bwmax_gbps, sim::SimTime now);

  /// A burst-buffer-absorbed request finished landing after `duration`.
  void OnAbsorbedComplete(workload::JobId id, double duration);

  /// A deferred flush reached its forced-release deadline.
  void OnFlushDeadline(workload::JobId id);
  /// Park a ready direct-path flush on the deferral bench.
  void ParkFlush(workload::JobId id, double volume_gb, sim::SimTime now);
  /// End-of-cycle sweep: release every parked flush that is past its
  /// deadline or that the policy no longer defers.
  void ReleaseDeferredFlushes(sim::SimTime now);

  /// Begin a direct PFS transfer for `id` (drawing a straggler factor when
  /// one is installed) and arm its deadline when timeouts are enabled and
  /// the retry budget allows.
  void BeginDirectTransfer(workload::JobId id, double volume_gb,
                           sim::SimTime now, int retries);
  /// Deadline fired: abort the straggling transfer (progress kept) and
  /// schedule the resubmission after a jittered exponential backoff.
  void OnTransferDeadline(workload::JobId id);
  /// Backoff elapsed: resubmit the remaining volume as a fresh transfer.
  void OnTransferRetry(workload::JobId id);
  /// Clamped, optionally jittered exponential backoff for retry `retries`.
  double BackoffDelay(int retries);

  sim::Simulator& simulator_;
  storage::StorageModel& storage_;
  double node_bandwidth_gbps_;
  std::unique_ptr<IoPolicy> policy_;
  CompletionCallback on_complete_;
  /// Slot-stable per-job accounting: each active transfer caches its job's
  /// slot on the storage model (SetUserSlot), so the per-cycle view build
  /// is pure array indexing — no hash probes on the hot path.
  JobStore jobs_;
  /// Pending completion and drain events (0 when none is armed).
  sim::EventId pending_event_ = 0;
  sim::EventId drain_event_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t submitted_requests_ = 0;
  /// A pending completion of a burst-buffer-absorbed request: the event, so
  /// kills can cancel it.
  struct AbsorbedEvent {
    sim::EventId event = 0;
    /// Request volume — needed to re-flush when a lossy BB fault drops the
    /// staged data out from under the pending completion.
    double volume_gb = 0.0;
    /// Durability threshold delivered with the completion: the buffer's
    /// cumulative drained volume at which this request's bytes are on the
    /// PFS (captured at absorb time; see IoCompletionInfo).
    double durable_gb = 0.0;
  };
  /// Keyed by job; one request per job at a time.
  std::unordered_map<workload::JobId, AbsorbedEvent> absorbed_events_;
  /// An armed per-transfer deadline: cancelled on completion/abort; on fire
  /// the transfer is aborted and resubmitted after backoff.
  struct DeadlineEvent {
    sim::EventId event = 0;
    /// Retries already consumed by this job's current request.
    int retries = 0;
  };
  std::unordered_map<workload::JobId, DeadlineEvent> deadline_events_;
  /// A resubmission waiting out its backoff (the job holds no transfer).
  struct PendingRetry {
    sim::EventId event = 0;
    double remaining_gb = 0.0;
    /// Retries consumed including the upcoming resubmission.
    int retries = 0;
  };
  std::unordered_map<workload::JobId, PendingRetry> pending_retries_;
  /// A checkpoint flush parked by the policy: its forced-release event,
  /// that event's firing time (= the deferral deadline), the submit time,
  /// and the flush volume. std::map: deterministic release order and
  /// checkpoint bytes.
  struct DeferredFlush {
    sim::EventId event = 0;
    sim::SimTime fire_time = 0.0;
    sim::SimTime submit_time = 0.0;
    double volume_gb = 0.0;
  };
  std::map<workload::JobId, DeferredFlush> deferred_flushes_;
  FlushDeferralConfig flush_config_;
  /// Sum of parked volumes (maintained incrementally; the per-cycle policy
  /// observation).
  double deferred_backlog_gb_ = 0.0;
  std::uint64_t flush_deferrals_ = 0;
  std::uint64_t forced_flush_releases_ = 0;
  /// Guards the release sweep against re-entering itself through the
  /// nested Reschedule a release triggers.
  bool releasing_flushes_ = false;
  TransferRetryConfig retry_config_;
  util::Rng jitter_rng_{1, /*stream=*/31};
  std::function<double()> straggler_draw_;
  std::uint64_t transfer_timeouts_ = 0;
  std::uint64_t transfer_retries_ = 0;
  std::uint64_t straggler_spills_ = 0;
  std::uint64_t reflushed_requests_ = 0;
  metrics::BandwidthTracker* bandwidth_tracker_ = nullptr;
  storage::BurstBuffer* burst_buffer_ = nullptr;
  obs::Hub* hub_ = nullptr;
  /// Congestion-episode span state (demand above usable bandwidth).
  bool congested_ = false;
  sim::SimTime congestion_start_ = 0.0;
  /// Burst-buffer-tier congestion episode (occupancy above the watermark).
  bool bb_congested_ = false;
  sim::SimTime bb_congestion_start_ = 0.0;
  /// Per-cycle policy observations, bound to the policy at construction.
  /// Member (not stack) so the policy's pointer stays valid between cycles
  /// (DeferFlush reads the previous cycle's snapshot).
  CycleInputs cycle_inputs_;
  /// Cycle-scratch buffers (capacity reused across the ~1 cycle per event
  /// of a month-long replay; cleared each use).
  std::vector<IoJobView> views_scratch_;
  std::vector<workload::JobId> done_scratch_;
};

}  // namespace iosched::core
