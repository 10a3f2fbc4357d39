// Cobalt-like batch scheduler: wait-queue management, WFP/FCFS ordering,
// partition allocation, and EASY backfilling.
//
// The scheduler is a pure decision component: it holds the queue and the
// running set, and Schedule(now) returns the jobs to launch at `now`. The
// simulation loop (src/core/simulation.*) invokes it on every job submission
// and completion. Predicted end times come from requested walltimes — the
// same information the real Cobalt has; jobs whose runtime stretches past
// the estimate (I/O congestion!) simply hold their partitions longer, which
// is exactly the coupling the paper exploits.
//
// EASY's reservation probe runs on every blocked pass, so the running set
// is kept in predicted-end order with a cached release mask per prefix: a
// probe is O(log R) allocator searches over `occupied & ~mask`, with no
// machine copy, release replay or sort.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "machine/machine.h"
#include "sched/queue_policy.h"
#include "sched/wait_queue.h"
#include "sim/time.h"
#include "util/field_table.h"
#include "util/rng.h"
#include "workload/job.h"

namespace iosched::obs {
class Hub;
}  // namespace iosched::obs

namespace iosched::sched {

/// A job holding a partition.
struct RunningJob {
  const workload::Job* job = nullptr;
  machine::Partition partition;
  sim::SimTime start_time = 0.0;
  /// start + requested walltime; scheduling estimate only.
  sim::SimTime predicted_end = 0.0;
};

/// A launch decision returned by Schedule().
struct StartDecision {
  const workload::Job* job = nullptr;
  machine::Partition partition;
};

class BatchScheduler {
 public:
  struct Options {
    QueueOrder order = QueueOrder::kWfp;
    /// EASY backfilling: reserve for the queue head, backfill jobs that do
    /// not delay the reservation. Off = plain first-fit in queue order that
    /// stops at the first blocked job.
    bool easy_backfill = true;
    /// Retry budget for failed (fault-killed) jobs: how many requeues one
    /// job may consume before it is abandoned. 0 = never requeue.
    int max_retries = 3;
    /// Base backoff before a requeued job becomes eligible again; doubles
    /// with each retry of the same job, capped at `max_backoff_seconds`.
    double requeue_backoff_seconds = 300.0;
    double max_backoff_seconds = 4.0 * 3600.0;
    /// Optional seeded jitter: each backoff is scaled by a uniform factor
    /// in [1 - f, 1 + f], decorrelating the requeue herd after a midplane
    /// outage. 0 disables (no RNG draws, bit-identical to the unjittered
    /// schedule).
    double backoff_jitter_fraction = 0.0;
    std::uint64_t backoff_jitter_seed = 1;
  };

  /// `machine` must outlive the scheduler. Throws std::invalid_argument
  /// when `options` breaks a row of its table (VisitFields below).
  BatchScheduler(machine::Machine& machine, Options options);

  /// Add a job to the wait queue. The job must be valid (Job::Validate;
  /// the engine validates every job once before the run); throws
  /// std::invalid_argument when it is larger than the machine.
  void Submit(const workload::Job& job);

  /// Decide which queued jobs start at `now`; partitions are allocated as a
  /// side effect. Call on every submission/completion event.
  std::vector<StartDecision> Schedule(sim::SimTime now);

  /// Release the partition of a finished job. Throws on unknown id.
  void OnJobEnd(workload::JobId id, sim::SimTime now);

  /// Outcome of a mid-run failure.
  struct RequeueDecision {
    /// False when the retry budget is exhausted: the job is abandoned and
    /// is no longer queued or running.
    bool requeued = false;
    /// Retry attempts consumed so far (1 after the first failure).
    int retries = 0;
    /// When the requeued job becomes eligible to start again (exponential
    /// backoff from the failure time); meaningless when !requeued.
    sim::SimTime eligible_time = 0.0;
  };

  /// A running job failed (fault kill): release its partition and either
  /// requeue it with exponential backoff or abandon it once the budget is
  /// spent. The caller owns restart semantics (which phases re-run). The
  /// caller must arm a scheduling pass at `eligible_time` — a backoff
  /// expiry wakes nobody by itself. Throws on unknown id.
  RequeueDecision OnJobFailed(workload::JobId id, sim::SimTime now);

  /// Earliest backoff expiry among queued-but-ineligible jobs, strictly
  /// after `now`; kTimeInfinity when every queued job is already eligible.
  sim::SimTime NextEligibleTime(sim::SimTime now) const;

  /// Attach observability (null detaches). The hub must outlive the
  /// scheduler or be detached first.
  void SetObs(obs::Hub* hub) { hub_ = hub; }

  /// Observer called for each backfill candidate the geometric EASY probe
  /// passed, with (job, now, shadow_time), just before the job starts: the
  /// candidate's partition is allocated but the job is not yet in the
  /// running set. It cannot veto the start. Tests use it to check the
  /// probes from inside a pass; null (the default) observes nothing.
  using BackfillAdmission = std::function<void(
      const workload::Job&, sim::SimTime, sim::SimTime)>;
  void SetBackfillAdmission(BackfillAdmission admission) {
    backfill_admission_ = std::move(admission);
  }

  std::size_t queue_size() const { return queue_.size(); }
  std::size_t running_count() const { return running_.size(); }
  /// Comparator invocations consumed by the most recent incremental-order
  /// dispatch pass (0 until Schedule runs; see WaitQueue).
  std::uint64_t last_order_comparisons() const {
    return wait_queue_.last_pass_comparisons();
  }
  /// The running set in EASY's release order, (predicted_end, job id).
  std::span<const RunningJob> running() const { return running_; }
  bool IsRunning(workload::JobId id) const;
  const Options& options() const { return options_; }

  /// Save or load queue order, running set, retry counters, and backoff
  /// gates (job pointers become ids, resolved on load by the reader's job
  /// lookup). The machine's occupancy is saved by the Machine itself —
  /// loading does NOT re-allocate partitions. Load onto a scheduler built
  /// with the same machine/options.
  template <class Ar>
  void Serialize(Ar& ar);

  /// Earliest time `head`'s block could be allocated, assuming running
  /// jobs end at their predicted ends: `now` when it fits already, else the
  /// predicted end (clamped to `now`: an overrun job is treated as ending
  /// now, the stale estimate the real Cobalt sees too) of the shortest
  /// prefix of the release order whose release lets it in. Public so tests
  /// can check it against a from-scratch reference.
  sim::SimTime ShadowTime(const workload::Job& head, sim::SimTime now) const;

  /// True if starting `candidate` now cannot delay the reserved head job:
  /// either it finishes (per its walltime) before the shadow time, or the
  /// head job's block still fits at shadow time with the candidate's
  /// partition occupied. The caller has allocated that partition on the
  /// machine already (tentatively); it is not yet in the running set.
  bool BackfillOk(const workload::Job& candidate, const workload::Job& head,
                  sim::SimTime now, sim::SimTime shadow) const;

 private:
  static bool EndsBefore(const RunningJob& a, const RunningJob& b) {
    if (a.predicted_end != b.predicted_end) {
      return a.predicted_end < b.predicted_end;
    }
    return a.job->id < b.job->id;
  }

  /// Add a started job to the running set.
  void StartRunning(const workload::Job& job,
                    const machine::Partition& partition, sim::SimTime now);
  /// Remove a running job, releasing its partition; throws logic_error
  /// naming `caller` when `id` is not running.
  const workload::Job* StopRunning(workload::JobId id, const char* caller);
  /// Release mask of the first `k` running jobs (k <= running_count()),
  /// built on demand from the longest still-valid prefix mask.
  std::span<const std::uint64_t> ReleaseMask(std::size_t k) const;

  /// One eligible queue entry in service order, with the allocation block
  /// size cached so the backfill loop never re-derives machine geometry.
  struct Candidate {
    const workload::Job* job = nullptr;
    int block_nodes = 0;
  };

  /// True when `id` is still inside its requeue backoff at `now`.
  bool InBackoff(workload::JobId id, sim::SimTime now) const;

  machine::Machine& machine_;
  Options options_;
  /// Submission-order view of the wait queue: checkpoint layout and the
  /// NextEligibleTime scan key off it. The service order lives in
  /// wait_queue_ and is maintained incrementally.
  std::vector<const workload::Job*> queue_;
  WaitQueue wait_queue_;
  /// The running set in (predicted_end, id) order: EASY releases
  /// partitions in this order. Ends are not clamped to `now`; clamping only
  /// reorders the overdue block, and any prefix ending inside that block
  /// yields the shadow time `now` whatever its order. It holds at most one
  /// job per midplane, so lookups by id scan it.
  std::vector<RunningJob> running_;
  /// Release masks of running_'s prefixes, machine_.mask_words() words
  /// each: mask k frees the first k running jobs. Masks [0, masks_built_)
  /// are current; a running-set change at position p keeps masks [0, p],
  /// and mask 0 (all zero) is always current.
  mutable std::vector<std::uint64_t> release_masks_;
  mutable std::size_t masks_built_ = 1;
  /// Per-pass scratch for the ordered eligible candidates.
  std::vector<Candidate> candidates_;
  /// Overflow-safe clamped exponential backoff for retry attempt `retries`
  /// (1-based), with the optional seeded jitter applied.
  double BackoffDelay(int retries);

  /// Retry attempts consumed per job (erased on successful completion).
  std::unordered_map<workload::JobId, int> retries_;
  /// Backoff gate: queued jobs absent from this map are always eligible.
  std::unordered_map<workload::JobId, sim::SimTime> eligible_after_;
  util::Rng jitter_rng_;
  BackfillAdmission backfill_admission_;
  obs::Hub* hub_ = nullptr;
};

/// BatchScheduler::Options' rows of the SimulationConfig field table
/// (util/field_table.h); the scheduler's constructor checks the same rules.
template <util::MaybeConst<BatchScheduler::Options> C, class V>
void VisitFields(C& c, V& v) {
  using util::kAny, util::kFraction, util::kNonNegative;
  using enum util::HashClass;
  v(c.order, {"order", "batch.order", kAny, kSchedule, "wfp or fcfs"});
  v(c.easy_backfill, {"easy_backfill", "batch.easy_backfill", kAny, kSchedule,
                      "EASY backfilling"});
  v(c.max_retries, {"max_retries", "faults.max_retries", kNonNegative,
                    kSchedule, "requeues before a job is abandoned"});
  v(c.requeue_backoff_seconds,
    {"requeue_backoff_seconds", "faults.backoff_seconds", kNonNegative,
     kSchedule, "base requeue delay (s), doubled per retry"});
  v(c.max_backoff_seconds,
    {"max_backoff_seconds", "faults.max_backoff_seconds", kNonNegative,
     kSchedule, "requeue delay cap (s)"});
  v(c.backoff_jitter_fraction,
    {"backoff_jitter_fraction", "faults.backoff_jitter_fraction", kFraction,
     kSchedule, "seeded +/- scatter on requeue delays"});
  v(c.backoff_jitter_seed,
    {"backoff_jitter_seed", "faults.backoff_jitter_seed", kAny, kSchedule,
     "seed of the requeue scatter"});
}

}  // namespace iosched::sched
