#include "core/invariants.h"

#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/io_scheduler.h"
#include "util/units.h"

namespace iosched::core {

namespace {

/// Scale-aware closeness: the incremental aggregates accumulate one
/// round-off per mutation, so the tolerance grows with the magnitude of the
/// quantity (but a genuine mis-accounting — a forgotten transfer, an
/// un-unwound rate — is off by a whole term, orders of magnitude above
/// this).
bool Close(double incremental, double recomputed) {
  double scale = std::max({1.0, std::abs(incremental), std::abs(recomputed)});
  return std::abs(incremental - recomputed) <= 1e-6 * scale;
}

std::string Num(double v) { return std::to_string(v); }

/// Ids of the jobs `batch` is running, gathered once per check: the running
/// set is a vector ordered by predicted end, so IsRunning is a linear scan.
std::unordered_set<workload::JobId> RunningIds(
    const sched::BatchScheduler& batch) {
  std::unordered_set<workload::JobId> ids;
  for (const sched::RunningJob& r : batch.running()) ids.insert(r.job->id);
  return ids;
}

}  // namespace

InvariantChecker::InvariantChecker(const machine::Machine& machine,
                                   const storage::StorageModel& storage,
                                   const sched::BatchScheduler& batch,
                                   const storage::BurstBuffer* burst_buffer)
    : machine_(machine),
      storage_(storage),
      batch_(batch),
      burst_buffer_(burst_buffer) {}

void InvariantChecker::Fail(sim::SimTime now, const std::string& what) const {
  throw InvariantViolation("invariant violated at t=" + Num(now) + ": " +
                           what);
}

void InvariantChecker::OnSchedEvent(const SchedEvent& event) {
  ++events_;
  auto it = lifecycle_.find(event.job);
  const bool known = it != lifecycle_.end();
  auto expect = [&](bool legal, const char* requirement) {
    // Jobs first seen mid-stream (resumed runs) initialize without
    // judgement; everything they do afterwards is checked normally.
    if (known && !legal) {
      Fail(event.time, std::string(ToString(event.kind)) + " for job " +
                           std::to_string(event.job) + " requires " +
                           requirement);
    }
  };
  JobPhase phase = known ? it->second : JobPhase::kDone;
  switch (event.kind) {
    case SchedEventKind::kSubmit:
      if (known) {
        Fail(event.time,
             "duplicate submit for job " + std::to_string(event.job));
      }
      lifecycle_[event.job] = JobPhase::kQueued;
      return;
    case SchedEventKind::kStart:
      expect(phase == JobPhase::kQueued, "a queued job");
      lifecycle_[event.job] = JobPhase::kRunning;
      return;
    case SchedEventKind::kIoRequest:
      expect(phase == JobPhase::kRunning, "a running job outside I/O");
      lifecycle_[event.job] = JobPhase::kRunningIo;
      return;
    case SchedEventKind::kIoComplete:
      expect(phase == JobPhase::kRunningIo, "a job blocked in I/O");
      lifecycle_[event.job] = JobPhase::kRunning;
      return;
    case SchedEventKind::kEnd:
      // A job ends only from a compute phase: the final I/O completion is
      // logged before the phase walk discovers the end.
      expect(phase == JobPhase::kRunning, "a running job outside I/O");
      lifecycle_[event.job] = JobPhase::kDone;
      return;
    case SchedEventKind::kKill:
    case SchedEventKind::kFaultKill:
      // Kills interrupt jobs anywhere, including mid-I/O.
      expect(phase == JobPhase::kRunning || phase == JobPhase::kRunningIo,
             "a running job");
      lifecycle_[event.job] = event.kind == SchedEventKind::kKill
                                  ? JobPhase::kDone
                                  : JobPhase::kFaultKilled;
      return;
    case SchedEventKind::kRequeue:
      expect(phase == JobPhase::kFaultKilled, "a fault-killed job");
      lifecycle_[event.job] = JobPhase::kQueued;
      return;
    case SchedEventKind::kAbandon:
      expect(phase == JobPhase::kFaultKilled, "a fault-killed job");
      lifecycle_[event.job] = JobPhase::kDone;
      return;
  }
}

void InvariantChecker::CheckNow(sim::SimTime now) {
  if (now < last_check_time_ - util::kTimeEpsilon) {
    Fail(now, "time went backwards (previous check at t=" +
                  Num(last_check_time_) + ")");
  }
  last_check_time_ = now;
  CheckStorage();
  CheckMachine();
  if (burst_buffer_ != nullptr) CheckBurstBuffer(now);
  CheckLifecycle();
  if (io_scheduler_ != nullptr) {
    CheckDeferredFlushes();
  }
  ++checks_;
}

void InvariantChecker::CheckStorage() const {
  sim::SimTime now = storage_.last_update();
  double sum_rate = 0.0;
  double sum_demand = 0.0;
  long long sum_nodes = 0;
  for (const storage::Transfer* t : storage_.ActiveByArrival()) {
    if (t->nodes <= 0) {
      Fail(now, "transfer of job " + std::to_string(t->job_id) +
                    " has non-positive node count");
    }
    if (t->full_rate_gbps <= 0) {
      Fail(now, "transfer of job " + std::to_string(t->job_id) +
                    " has non-positive full rate");
    }
    if (t->rate_gbps < 0 ||
        t->rate_gbps > util::MaxGrantableRate(t->full_rate_gbps)) {
      Fail(now, "transfer of job " + std::to_string(t->job_id) +
                    " granted " + Num(t->rate_gbps) + " GB/s outside [0, " +
                    Num(t->full_rate_gbps) + "]");
    }
    if (t->efficiency <= 0 || t->efficiency > 1.0) {
      Fail(now, "transfer of job " + std::to_string(t->job_id) +
                    " has efficiency " + Num(t->efficiency) +
                    " outside (0, 1]");
    }
    if (t->transferred_gb < -util::kVolumeEpsilon ||
        t->transferred_gb >
            t->volume_gb * (1.0 + util::kCapacityRelSlack) + 1e-6) {
      Fail(now, "transfer of job " + std::to_string(t->job_id) + " moved " +
                    Num(t->transferred_gb) + " of " + Num(t->volume_gb) +
                    " GB");
    }
    sum_rate += t->rate_gbps;
    sum_demand += t->full_rate_gbps;
    sum_nodes += t->nodes;
  }
  if (!Close(storage_.TotalAssignedRate(), sum_rate)) {
    Fail(now, "incremental assigned-rate sum " +
                  Num(storage_.TotalAssignedRate()) +
                  " != recomputed " + Num(sum_rate));
  }
  if (!Close(storage_.TotalDemand(), sum_demand)) {
    Fail(now, "incremental demand sum " + Num(storage_.TotalDemand()) +
                  " != recomputed " + Num(sum_demand));
  }
  if (storage_.TotalActiveNodes() != sum_nodes) {
    Fail(now, "incremental active-node sum " +
                  std::to_string(storage_.TotalActiveNodes()) +
                  " != recomputed " + std::to_string(sum_nodes));
  }
  if (storage_.config().enforce_capacity &&
      sum_rate > storage_.config().max_bandwidth_gbps *
                     (1.0 + util::kCapacityRelSlack)) {
    Fail(now, "granted rates sum to " + Num(sum_rate) + " GB/s above BWmax " +
                  Num(storage_.config().max_bandwidth_gbps));
  }
}

void InvariantChecker::CheckMachine() const {
  sim::SimTime now = last_check_time_;
  const int total_midplanes = machine_.config().total_midplanes();
  std::vector<bool> occupied(static_cast<std::size_t>(total_midplanes),
                             false);
  int busy_nodes = 0;
  int busy_midplanes = 0;
  for (const sched::RunningJob& running : batch_.running()) {
    const workload::JobId id = running.job->id;
    const machine::Partition& p = running.partition;
    if (!p.valid() || p.first_midplane < 0 ||
        p.first_midplane + p.midplane_count > total_midplanes) {
      Fail(now, "job " + std::to_string(id) + " holds an invalid partition");
    }
    for (int m = p.first_midplane; m < p.first_midplane + p.midplane_count;
         ++m) {
      if (occupied[static_cast<std::size_t>(m)]) {
        Fail(now, "midplane " + std::to_string(m) +
                      " allocated to two jobs (job " + std::to_string(id) +
                      " among them)");
      }
      occupied[static_cast<std::size_t>(m)] = true;
    }
    busy_nodes += p.nodes;
    busy_midplanes += p.midplane_count;
  }
  if (machine_.occupancy() != occupied) {
    Fail(now,
         "machine occupancy bitmap disagrees with the running-job "
         "partitions");
  }
  if (machine_.busy_nodes() != busy_nodes) {
    Fail(now, "machine busy_nodes " + std::to_string(machine_.busy_nodes()) +
                  " != recomputed " + std::to_string(busy_nodes));
  }
  if (machine_.busy_midplanes() != busy_midplanes) {
    Fail(now, "machine busy_midplanes " +
                  std::to_string(machine_.busy_midplanes()) +
                  " != recomputed " + std::to_string(busy_midplanes));
  }
}

void InvariantChecker::CheckBurstBuffer(sim::SimTime now) {
  const storage::BurstBuffer& bb = *burst_buffer_;
  if (bb.queued_gb() < -util::kVolumeEpsilon) {
    Fail(now, "burst-buffer backlog is negative: " + Num(bb.queued_gb()));
  }
  if (bb.queued_gb() >
      bb.config().capacity_gb * (1.0 + util::kCapacityRelSlack) + 1e-6) {
    Fail(now, "burst-buffer backlog " + Num(bb.queued_gb()) +
                  " GB exceeds capacity " + Num(bb.config().capacity_gb));
  }
  if (!Close(bb.queued_gb(), bb.FifoTotalGb())) {
    Fail(now, "burst-buffer backlog " + Num(bb.queued_gb()) +
                  " != sum of FIFO segments " + Num(bb.FifoTotalGb()));
  }
  if (!Close(bb.queued_gb(), bb.UsageTotalGb())) {
    Fail(now, "burst-buffer backlog " + Num(bb.queued_gb()) +
                  " != sum of per-job usage " + Num(bb.UsageTotalGb()));
  }
  // Conservation: everything absorbed either drained, is still queued, or
  // was dropped by a lossy fault.
  double accounted =
      bb.total_drained_gb() + bb.queued_gb() + bb.total_lost_gb();
  if (!Close(bb.total_absorbed_gb(), accounted)) {
    Fail(now, "burst-buffer conservation: absorbed " +
                  Num(bb.total_absorbed_gb()) + " GB != drained " +
                  Num(bb.total_drained_gb()) + " + queued " +
                  Num(bb.queued_gb()) + " + lost " + Num(bb.total_lost_gb()));
  }
  if (bb.peak_queued_gb() <
      bb.queued_gb() - 1e-6 * std::max(1.0, bb.queued_gb())) {
    Fail(now, "burst-buffer peak backlog " + Num(bb.peak_queued_gb()) +
                  " below the current backlog " + Num(bb.queued_gb()));
  }
  if (bb.occupancy_integral_gbs() <
      last_occupancy_integral_ -
          1e-6 * std::max(1.0, last_occupancy_integral_)) {
    Fail(now, "burst-buffer occupancy integral went backwards: " +
                  Num(bb.occupancy_integral_gbs()) + " after " +
                  Num(last_occupancy_integral_));
  }
  last_occupancy_integral_ = bb.occupancy_integral_gbs();
  if (bb.drain_factor() <= 0 || bb.drain_factor() > 1.0) {
    Fail(now, "burst-buffer drain factor " + Num(bb.drain_factor()) +
                  " outside (0, 1]");
  }
}

void InvariantChecker::CheckDeferredFlushes() const {
  sim::SimTime now = last_check_time_;
  const IoScheduler& io = *io_scheduler_;
  const std::unordered_set<workload::JobId> running = RunningIds(batch_);
  std::unordered_set<workload::JobId> transferring;
  for (const storage::Transfer* t : storage_.ActiveByArrival()) {
    transferring.insert(t->job_id);
  }
  double sum_gb = 0.0;
  io.ForEachDeferredFlush([&](workload::JobId id, double volume_gb,
                              sim::SimTime submit_time,
                              sim::SimTime deadline) {
    if (volume_gb <= 0) {
      Fail(now, "deferred flush of job " + std::to_string(id) +
                    " has non-positive volume " + Num(volume_gb));
    }
    if (deadline < submit_time - util::kTimeEpsilon) {
      Fail(now, "deferred flush of job " + std::to_string(id) +
                    " has release deadline " + Num(deadline) +
                    " before its submission at " + Num(submit_time));
    }
    // A parked flush means the job's I/O request never reached the storage
    // model: a job both parked and transferring is double-submitted.
    if (transferring.count(id) != 0) {
      Fail(now, "job " + std::to_string(id) +
                    " holds a deferred flush and an active transfer");
    }
    if (running.count(id) == 0) {
      Fail(now, "job " + std::to_string(id) +
                    " holds a deferred flush but is not running");
    }
    sum_gb += volume_gb;
  });
  if (!Close(io.deferred_flush_gb(), sum_gb)) {
    Fail(now, "incremental deferred-flush backlog " +
                  Num(io.deferred_flush_gb()) + " != recomputed " +
                  Num(sum_gb));
  }
}

void InvariantChecker::CheckLifecycle() const {
  sim::SimTime now = last_check_time_;
  // Every job the batch scheduler is running must be in a running phase per
  // the event stream, and with complete history the counts must agree
  // exactly.
  const std::unordered_set<workload::JobId> running = RunningIds(batch_);
  std::size_t tracked_running = 0;
  std::size_t tracked_queued = 0;
  for (const auto& [id, phase] : lifecycle_) {
    if (phase == JobPhase::kRunning || phase == JobPhase::kRunningIo) {
      ++tracked_running;
      if (running.count(id) == 0) {
        Fail(now, "job " + std::to_string(id) +
                      " is running per the event stream but unknown to the "
                      "batch scheduler");
      }
    } else if (phase == JobPhase::kQueued) {
      ++tracked_queued;
    } else if (running.count(id) != 0) {
      Fail(now, "job " + std::to_string(id) +
                    " holds a partition but is not running per the event "
                    "stream");
    }
  }
  if (complete_history_) {
    if (tracked_running != batch_.running_count()) {
      Fail(now, "event stream counts " + std::to_string(tracked_running) +
                    " running jobs, batch scheduler has " +
                    std::to_string(batch_.running_count()));
    }
    if (tracked_queued != batch_.queue_size()) {
      Fail(now, "event stream counts " + std::to_string(tracked_queued) +
                    " queued jobs, batch scheduler has " +
                    std::to_string(batch_.queue_size()));
    }
  }
}

}  // namespace iosched::core
