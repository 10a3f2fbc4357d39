// From-scratch invariant checking for the chaos harness.
//
// The simulation keeps most of its aggregates incrementally: the storage
// model's total demand/grant/node sums, the machine's busy-node and
// busy-midplane counters, the burst buffer's queued volume and occupancy
// integral. Incremental bookkeeping is exactly what a fault path corrupts
// silently — an abort that forgets to unwind a sum never crashes, it just
// mis-accounts forever after. The InvariantChecker recomputes every such
// aggregate from first principles (scanning the live transfer set, the
// running-job partitions, the FIFO segments) and throws InvariantViolation
// on any mismatch, so a chaos run fails loudly at the first corrupted
// event instead of producing a subtly wrong report.
//
// The checker is strictly read-only: it never advances, mutates, or
// re-orders simulation state, so enabling it cannot change a run's digest.
// It plugs in twice: as a SchedEventSink it validates every job lifecycle
// transition as it happens, and CheckNow() (called by the engine every N
// events and once after the queue drains) runs the full recompute sweep.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/event_log.h"
#include "machine/machine.h"
#include "sched/batch_scheduler.h"
#include "sim/time.h"
#include "storage/burst_buffer.h"
#include "storage/storage_model.h"
#include "workload/job.h"

namespace iosched::core {

class IoScheduler;

/// A broken simulation invariant. Derives from std::logic_error: a
/// violation is always a bug in the engine (or the checker), never a
/// property of the workload or the fault schedule.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class InvariantChecker : public SchedEventSink {
 public:
  /// All references must outlive the checker. `burst_buffer` may be null
  /// (single-tier runs).
  InvariantChecker(const machine::Machine& machine,
                   const storage::StorageModel& storage,
                   const sched::BatchScheduler& batch,
                   const storage::BurstBuffer* burst_buffer);

  /// Attach the I/O scheduler to extend the sweep with the checkpoint-flush
  /// lifecycle checks (parked-flush backlog conservation, parked jobs not
  /// simultaneously transferring, deadlines ordered after submission).
  /// Nullptr detaches. The scheduler must outlive the checker.
  void AttachIoScheduler(const IoScheduler* io_scheduler) {
    io_scheduler_ = io_scheduler;
  }

  /// Call when the checker observes the run from event zero (a fresh, not
  /// resumed, engine): enables the strict lifecycle census — every
  /// batch-scheduler queued/running job must be accounted for by the event
  /// stream. Without it, jobs already in flight at resume time are exempt.
  void MarkCompleteHistory() { complete_history_ = true; }

  /// Lifecycle-transition legality (e.g. kStart requires kQueued, kEnd
  /// requires running-and-not-mid-I/O). Throws InvariantViolation on an
  /// illegal transition; events for jobs first seen mid-stream (resumed
  /// runs) initialize state without judgement.
  void OnSchedEvent(const SchedEvent& event) override;

  /// The full recompute sweep; throws InvariantViolation on any mismatch.
  void CheckNow(sim::SimTime now);

  std::uint64_t checks_run() const { return checks_; }
  std::uint64_t events_seen() const { return events_; }

 private:
  /// Tracked job state, driven purely by the event stream.
  enum class JobPhase {
    kQueued,      // submitted or requeued, waiting to start
    kRunning,     // on a partition, in a compute phase
    kRunningIo,   // on a partition, blocked in an I/O request
    kFaultKilled, // fault-kill emitted; awaiting kRequeue or kAbandon
    kDone,        // ended, walltime-killed, or abandoned
  };

  void CheckStorage() const;
  void CheckMachine() const;
  void CheckBurstBuffer(sim::SimTime now);
  void CheckLifecycle() const;
  void CheckDeferredFlushes() const;

  [[noreturn]] void Fail(sim::SimTime now, const std::string& what) const;

  const machine::Machine& machine_;
  const storage::StorageModel& storage_;
  const sched::BatchScheduler& batch_;
  const storage::BurstBuffer* burst_buffer_;
  const IoScheduler* io_scheduler_ = nullptr;

  std::unordered_map<workload::JobId, JobPhase> lifecycle_;
  bool complete_history_ = false;
  /// The occupancy integral is monotone non-decreasing; remember the last
  /// observed value to catch a fault path winding it backwards.
  double last_occupancy_integral_ = 0.0;
  sim::SimTime last_check_time_ = 0.0;
  std::uint64_t checks_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace iosched::core
