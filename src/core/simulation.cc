#include "core/simulation.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/serializer.h"
#include "core/config_fields.h"
#include "core/invariants.h"
#include "core/io_scheduler.h"
#include "core/policy_factory.h"
#include "core/trace_adapter.h"
#include "faults/fault_injector.h"
#include "metrics/digest.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace iosched::core {

namespace {

/// A burst-buffer-absorbed checkpoint flush awaiting drain: the restart
/// point it will establish once the buffer's cumulative drained volume
/// passes `threshold_gb`. The threshold is captured at absorb time as
/// (total drained + queued), which the FIFO drain makes exact: the flush's
/// bytes are on the PFS precisely when the cumulative counter passes it.
struct DurableMarker {
  std::size_t resume_phase = 0;
  /// When the application finished writing the flush (work after this
  /// instant is rework if the job restarts from this marker).
  sim::SimTime completion_time = 0.0;
  double threshold_gb = 0.0;
};

/// Per-running-job execution state: walks the phase list.
struct ExecState {
  const workload::Job* job = nullptr;
  machine::Partition partition;
  sim::SimTime start_time = 0.0;
  std::size_t next_phase = 0;
  /// Time the current I/O request was issued (for io_time_actual).
  sim::SimTime io_request_start = 0.0;
  double io_time_actual = 0.0;
  /// Whether the job is currently blocked in an I/O request.
  bool in_io = false;
  /// Pending walltime-kill event (enforce_walltime mode only; 0 = none).
  sim::EventId kill_event = 0;
  /// Pending compute-phase-completion event, cancelled on kill (0 = none).
  sim::EventId compute_event = 0;
  /// App-checkpoint durability (app_checkpoint runs only; all dormant
  /// otherwise). `durable_phase` is the first phase a restart would
  /// re-execute given the flushes durably on the PFS; `durable_anchor_time`
  /// is when that durability point was established (work after it is
  /// rework on failure). Starts at the attempt's own resume point.
  std::size_t durable_phase = 0;
  sim::SimTime durable_anchor_time = 0.0;
  /// Checkpoint flushes completed during this attempt.
  int flush_count = 0;
  /// Absorbed flushes not yet drained, in completion order (thresholds are
  /// monotone because the cumulative drained volume is).
  std::vector<DurableMarker> pending_durables;
};

/// Bookkeeping for a fault-killed job across its attempts.
struct RetryContext {
  /// Failed attempts so far (== the scheduler's retry count).
  int failures = 0;
  /// Machine time burned by failed attempts.
  double lost_seconds = 0.0;
  /// First phase the next attempt executes (restart-mode dependent).
  std::size_t resume_phase = 0;
  /// Checkpoint flushes completed across failed attempts.
  int flush_count = 0;
  /// Machine time re-executed because it postdated the last durable flush
  /// (kRestartFromAppCheckpoint only; 0 under the other modes).
  double rework_seconds = 0.0;
};

std::uint64_t MixStr(std::uint64_t hash, const std::string& value) {
  hash = metrics::FnvMix(hash, static_cast<std::uint64_t>(value.size()));
  for (char c : value) {
    hash ^= static_cast<unsigned char>(c);
    hash *= metrics::kFnvPrime;
  }
  return hash;
}

class Engine : private sim::EventHandler {
 public:
  Engine(const SimulationConfig& config, const workload::Workload& jobs,
         EventLog* event_log, obs::Hub* hub)
      : config_(config),
        jobs_(jobs),
        event_log_(event_log),
        hub_(hub),
        machine_(config.machine),
        backend_(storage::MakeBackend(config.storage, config.burst_buffer)),
        storage_(backend_->model()),
        batch_(machine_, config.batch),
        utilization_(config.machine.total_nodes()),
        bandwidth_tracker_(config.storage.max_bandwidth_gbps,
                           config.keep_bandwidth_samples),
        io_scheduler_(simulator_, *backend_,
                      config.machine.node_bandwidth_gbps,
                      MakePolicy(config.policy),
                      [this](workload::JobId id, sim::SimTime now,
                             const IoCompletionInfo& info) {
                        OnIoComplete(id, now, info);
                      }),
        base_bwmax_(config.storage.max_bandwidth_gbps) {
    burst_buffer_ = backend_->burst_buffer();
    simulator_.SetHandler(kEventOwner, this, kEventKinds);
    io_scheduler_.SetRetryConfig(config.transfer_retry);
    io_scheduler_.ConfigureFlushScheduling(config.app_checkpoint);
    if (config_.track_bandwidth) {
      io_scheduler_.SetBandwidthTracker(&bandwidth_tracker_);
    }
    if (event_log_ != nullptr) sinks_.push_back(event_log_);
    if (config_.check_invariants) {
      checker_.emplace(machine_, storage_, batch_, burst_buffer_);
      checker_->AttachIoScheduler(&io_scheduler_);
      sinks_.push_back(&*checker_);
    }
    if (hub_ != nullptr) {
      trace_adapter_.emplace(&hub_->tracer());
      sinks_.push_back(&*trace_adapter_);
      simulator_.SetEventCounter(hub_->events_processed);
      io_scheduler_.SetObs(hub_);
      batch_.SetObs(hub_);
    }
    if (config_.faults.enabled()) {
      faults::FaultPlan plan = config_.faults.explicit_plan;
      if (plan.Empty() && config_.faults.plan_config.enabled) {
        plan = faults::BuildFaultPlan(config_.faults.plan_config,
                                      PlanHorizon(),
                                      config_.machine.total_midplanes());
      }
      faults::FaultHooks hooks;
      hooks.set_bandwidth_factor = [this](double factor, sim::SimTime now) {
        // Re-accrue in-flight transfers at the old rates up to `now`, then
        // swap the cap. The IoScheduler listens for bandwidth changes and
        // runs a cycle immediately, so every policy re-plans against the
        // new BWmax before any further event (the validator only runs
        // post-cycle, so a shrink can never look like an over-assignment).
        storage_.SetMaxBandwidth(base_bwmax_ * factor, now);
      };
      hooks.set_midplane_faulted = [this](int midplane, bool faulted,
                                          sim::SimTime now) {
        OnMidplaneEdge(midplane, faulted, now);
      };
      hooks.kill_job = [this](workload::JobId id, sim::SimTime now) {
        return FailJob(id, now);
      };
      hooks.set_bb_faulted = [this](bool faulted, bool lose_data,
                                    sim::SimTime now) {
        // A lossy buffer fault drops staged flush data. Settle durability
        // markers against what actually reached the PFS first, then
        // invalidate whatever was still queued — those flushes are gone.
        const bool ckpt_markers = config_.app_checkpoint.enabled;
        if (ckpt_markers && faulted && lose_data) SettleAllMarkers(now);
        io_scheduler_.OnBurstBufferFault(faulted, lose_data, now);
        if (ckpt_markers && faulted && lose_data) {
          for (auto& [id, state] : running_) state.pending_durables.clear();
        }
      };
      hooks.set_drain_factor = [this](double factor, sim::SimTime now) {
        io_scheduler_.OnDrainFactorChange(factor, now);
      };
      const bool stragglers = plan.straggler_probability > 0;
      injector_.emplace(simulator_, std::move(plan), std::move(hooks),
                        &fault_stats_);
      if (stragglers) {
        // Only installed when the plan can actually produce stragglers:
        // with no draw attached, submissions never touch the RNG and a
        // straggler-free run stays digest-identical to pre-straggler
        // builds.
        io_scheduler_.SetStragglerDraw(
            [this] { return injector_->DrawStragglerFactor(); });
      }
    }
  }

  /// Load `path` and restore the full engine state from it. Must run
  /// before Run(), on a freshly constructed engine.
  void RestoreFromFile(const std::string& path) {
    RestoreFrom(ckpt::CheckpointFile::Load(path), path);
  }

  /// SimulationConfigHash of this run, computed once: the resume lookup,
  /// the restore check and every save share it.
  std::uint64_t ConfigHash() {
    if (!config_hash_.has_value()) {
      config_hash_ = SimulationConfigHash(config_, jobs_);
    }
    return *config_hash_;
  }

  SimulationResult Run() {
    for (const workload::Job& job : jobs_) {
      std::string err = job.Validate();
      if (!err.empty()) {
        throw std::invalid_argument("RunSimulation: job " +
                                    std::to_string(job.id) + ": " + err);
      }
    }
    if (!restored_) {
      if (checker_.has_value()) checker_->MarkCompleteHistory();
      records_.reserve(jobs_.size());
      // One id per job, in workload order: the ids an immediate push of
      // every submit would get, so arming them one at a time below keeps
      // the (time, id) pop order, and every later id, unchanged.
      first_arrival_id_ = simulator_.ReserveEventIds(jobs_.size());
      BuildArrivalOrder();
      ArmNextArrival();
      if (injector_.has_value()) injector_->Arm();
      if (hub_ != nullptr && hub_->options().sample_dt_seconds > 0) {
        // The engine owns the tick cadence: the first sample lands at t=0
        // and each tick re-arms only while real work remains, so sampling
        // cannot keep an otherwise-drained queue alive.
        ArmSampleTick(0.0);
      }
    }
    RunLoop();
    if (!running_.empty() || batch_.queue_size() != 0) {
      throw std::logic_error(
          "RunSimulation: event queue drained with unfinished jobs");
    }
    if (checker_.has_value()) RunInvariantCheck();
    if (hub_ != nullptr) {
      sim::SimTime end = simulator_.Now();
      io_scheduler_.FlushObs(end);
      trace_adapter_->Flush(end);
      if (hub_->options().sample_dt_seconds > 0) RecordSample(end);
    }

    SimulationResult result;
    std::sort(records_.begin(), records_.end(),
              [](const metrics::JobRecord& a, const metrics::JobRecord& b) {
                return a.id < b.id;
              });
    result.records = std::move(records_);
    result.report =
        metrics::Summarize(result.records, utilization_,
                           config_.warmup_fraction, config_.cooldown_fraction);
    result.bandwidth = bandwidth_tracker_.Summarize();
    result.bandwidth_samples = bandwidth_tracker_.TakeSamples();
    if (burst_buffer_ != nullptr) {
      // Close the occupancy integral at the end of the run (all drains have
      // completed by now, so this only accrues the final idle stretch).
      burst_buffer_->AdvanceTo(simulator_.Now());
      result.bb_absorbed_gb = burst_buffer_->total_absorbed_gb();
      result.bb_absorbed_requests = burst_buffer_->absorbed_requests();
      result.bb_spilled_requests = burst_buffer_->spilled_requests();
      result.bb_drained_gb = burst_buffer_->total_drained_gb();
      result.bb_peak_queued_gb = burst_buffer_->peak_queued_gb();
      double span = simulator_.Now() * config_.burst_buffer.capacity_gb;
      result.bb_mean_occupancy =
          span > 0 ? burst_buffer_->occupancy_integral_gbs() / span : 0.0;
    }
    if (injector_.has_value()) injector_->FinalizeStats(simulator_.Now());
    result.faults = std::move(fault_stats_);
    result.transfer_timeouts = io_scheduler_.transfer_timeouts();
    result.transfer_retries = io_scheduler_.transfer_retries();
    result.straggler_spills = io_scheduler_.straggler_spills();
    result.bb_reflushed_requests = io_scheduler_.reflushed_requests();
    result.flush_deferrals = io_scheduler_.flush_deferrals();
    result.forced_flush_releases = io_scheduler_.forced_flush_releases();
    if (burst_buffer_ != nullptr) {
      result.bb_lost_gb = burst_buffer_->total_lost_gb();
    }
    if (checker_.has_value()) {
      result.invariant_checks = checker_->checks_run();
    }
    result.io_requests = io_scheduler_.submitted_requests();
    result.events_processed = simulator_.processed_events();
    result.io_scheduling_cycles = io_scheduler_.cycles();
    result.policy_name = io_scheduler_.policy().name();
    result.checkpoints_written = checkpoints_written_;
    result.resumed_from = resumed_from_;
    return result;
  }

 private:
  // --- Events --------------------------------------------------------------
  /// Owner tag of the engine's events on the simulator.
  static constexpr sim::Owner kEventOwner = 1;
  /// The engine's event kinds (sim::Event::kind under kEventOwner).
  enum EventKind : sim::Kind {
    kArrival,        // key: workload index of the arriving job
    kPass,           // backoff expiry: run a scheduling pass
    kWalltimeKill,   // key: job id
    kComputeDone,    // key: job id, arg: phase duration
    kSampleTick,     // obs sampler cadence
    kEventKinds
  };

  void OnEvent(const sim::Event& event) override {
    const workload::JobId id = event.key;
    switch (static_cast<EventKind>(event.kind)) {
      case kArrival: {
        // Arm the next arrival before submitting this one: only the next
        // arrival ever sits in the event queue.
        const workload::Job& job = jobs_[arrival_order_[next_arrival_++]];
        ArmNextArrival();
        OnSubmit(job);
        break;
      }
      case kPass: RunSchedulingPass(); break;
      case kWalltimeKill: KillJob(id); break;
      case kComputeDone:
        running_.at(id).compute_event = 0;
        io_scheduler_.AddCompletedCompute(id, event.arg);
        AdvancePhase(id);
        break;
      case kSampleTick: SampleTick(); break;
      case kEventKinds: break;  // restore rejects unknown kinds
    }
  }

  void ArmNextArrival() {
    if (next_arrival_ == arrival_order_.size()) return;
    std::uint32_t index = arrival_order_[next_arrival_];
    simulator_.ScheduleReserved(sim::Event{jobs_[index].submit_time,
                                           first_arrival_id_ + index,
                                           kEventOwner, kArrival, index});
  }

  /// Workload indices in firing order, (submit_time, index): the order the
  /// queue pops submits pushed in workload order.
  void BuildArrivalOrder() {
    if (jobs_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("RunSimulation: workload too large");
    }
    arrival_order_.resize(jobs_.size());
    std::iota(arrival_order_.begin(), arrival_order_.end(), 0u);
    std::stable_sort(arrival_order_.begin(), arrival_order_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return jobs_[a].submit_time < jobs_[b].submit_time;
                     });
  }

  void ArmSampleTick(sim::SimTime t) {
    simulator_.ScheduleAt(t, kEventOwner, kSampleTick);
  }

  void OnSubmit(const workload::Job& job) {
    Log(SchedEventKind::kSubmit, job.id, static_cast<double>(job.nodes));
    batch_.Submit(job);
    RunSchedulingPass();
  }

  /// The single emit point of the scheduling-event stream: every consumer
  /// (CSV log, trace adapter, lifecycle counters) hangs off this call.
  void Log(SchedEventKind kind, workload::JobId id, double detail = 0.0) {
    if (sinks_.empty() && hub_ == nullptr) return;
    SchedEvent event{simulator_.Now(), kind, id, detail};
    for (SchedEventSink* sink : sinks_) sink->OnSchedEvent(event);
    CountSchedEvent(kind);
  }

  void CountSchedEvent(SchedEventKind kind) {
    if (hub_ == nullptr) return;
    switch (kind) {
      case SchedEventKind::kSubmit: hub_->jobs_submitted->Inc(); break;
      case SchedEventKind::kStart: hub_->jobs_started->Inc(); break;
      case SchedEventKind::kEnd: hub_->jobs_completed->Inc(); break;
      case SchedEventKind::kKill: hub_->jobs_killed->Inc(); break;
      case SchedEventKind::kFaultKill: hub_->jobs_fault_killed->Inc(); break;
      case SchedEventKind::kRequeue: hub_->jobs_requeued->Inc(); break;
      case SchedEventKind::kAbandon: hub_->jobs_abandoned->Inc(); break;
      case SchedEventKind::kIoRequest:
      case SchedEventKind::kIoComplete:
        break;  // counted at the IoScheduler, which also sees absorbed I/O
    }
  }

  void SampleTick() {
    RecordSample(simulator_.Now());
    if (simulator_.pending_events() > 0) {
      ArmSampleTick(simulator_.Now() + hub_->options().sample_dt_seconds);
    }
  }

  void RecordSample(sim::SimTime now) {
    obs::SamplePoint p;
    p.time = now;
    p.demand_gbps = storage_.TotalDemand();
    p.granted_gbps = storage_.TotalAssignedRate();
    p.active_requests = static_cast<int>(storage_.active_count());
    storage_.ActiveByArrival(sample_scratch_);
    for (const storage::Transfer* t : sample_scratch_) {
      if (t->rate_gbps <= 0) ++p.suspended_requests;
    }
    p.busy_nodes = machine_.busy_nodes();
    int total_nodes = config_.machine.total_nodes();
    p.utilization = total_nodes > 0
                        ? static_cast<double>(p.busy_nodes) / total_nodes
                        : 0.0;
    p.queue_depth = batch_.queue_size();
    p.running_jobs = running_.size();
    if (burst_buffer_ != nullptr) {
      // Backlog as of the last storage event. Deliberately no AdvanceTo:
      // sampling must never mutate simulation state.
      p.bb_queued_gb = burst_buffer_->queued_gb();
    }
    hub_->sampler().Record(p);
  }

  void RunSchedulingPass() {
    sim::SimTime now = simulator_.Now();
    for (const sched::StartDecision& d : batch_.Schedule(now)) {
      StartJob(*d.job, d.partition, now);
    }
    utilization_.Record(now, machine_.busy_nodes());
    if (hub_ != nullptr) {
      hub_->tracer().Counter(obs::kSchedulerTrack, "queue_depth", now,
                             static_cast<double>(batch_.queue_size()));
    }
  }

  void StartJob(const workload::Job& job, const machine::Partition& partition,
                sim::SimTime now) {
    ExecState state;
    state.job = &job;
    state.partition = partition;
    state.start_time = now;
    auto rit = retry_.find(job.id);
    if (rit != retry_.end()) state.next_phase = rit->second.resume_phase;
    // Until a flush drains, a failure rolls back to the attempt's own
    // starting point — everything since `now` would be rework.
    state.durable_phase = state.next_phase;
    state.durable_anchor_time = now;
    Log(SchedEventKind::kStart, job.id, static_cast<double>(partition.nodes));
    if (config_.enforce_walltime) {
      state.kill_event = simulator_.ScheduleAt(
          now + job.requested_walltime, kEventOwner, kWalltimeKill, job.id);
    }
    running_.emplace(job.id, state);
    io_scheduler_.RegisterJob(job, now);
    if (injector_.has_value()) {
      injector_->OnJobStart(
          job.id, job.UncongestedRuntime(config_.machine.node_bandwidth_gbps));
    }
    AdvancePhase(job.id);
  }

  /// Walltime expired: terminate the job wherever it is in its phase list.
  void KillJob(workload::JobId id) {
    auto it = running_.find(id);
    if (it == running_.end()) return;  // finished at the same instant
    ExecState& state = it->second;
    state.kill_event = 0;
    sim::SimTime now = simulator_.Now();
    simulator_.Cancel(std::exchange(state.compute_event, 0));
    if (state.in_io) {
      state.io_time_actual += now - state.io_request_start;
      io_scheduler_.AbortRequest(id, now);
      state.in_io = false;
    }
    FinishJob(id, now, /*killed=*/true);
  }

  /// Fault-kill a running job (injector hook): tear down its execution
  /// state, then requeue it with backoff or abandon it once the retry
  /// budget is spent. Returns false when the job is not running (it ended
  /// at the same instant the kill fired).
  bool FailJob(workload::JobId id, sim::SimTime now) {
    auto it = running_.find(id);
    if (it == running_.end()) return false;
    ExecState state = it->second;
    simulator_.Cancel(state.compute_event);
    simulator_.Cancel(state.kill_event);
    if (state.in_io) {
      state.io_time_actual += now - state.io_request_start;
      io_scheduler_.AbortRequest(id, now);
    }
    running_.erase(it);
    io_scheduler_.UnregisterJob(id);
    if (injector_.has_value()) injector_->OnJobStop(id);

    const bool app_ckpt = config_.faults.restart_mode ==
                          faults::RestartMode::kRestartFromAppCheckpoint;
    if (app_ckpt) {
      // Late flushes may have drained since the last settlement; count
      // them before deciding how far back this failure rolls the job.
      SettleJobMarkers(state, io_scheduler_.TotalDrainedGb(now));
    }
    sched::BatchScheduler::RequeueDecision decision =
        batch_.OnJobFailed(id, now);
    RetryContext& rc = retry_[id];
    rc.failures = decision.retries;
    rc.lost_seconds += now - state.start_time;
    if (app_ckpt) {
      rc.resume_phase = state.durable_phase;
      rc.rework_seconds += now - state.durable_anchor_time;
    } else {
      rc.resume_phase = config_.faults.restart_mode ==
                                faults::RestartMode::kResumeFromLastPhase
                            ? (state.next_phase > 0 ? state.next_phase - 1 : 0)
                            : 0;
    }
    rc.flush_count += state.flush_count;
    Log(SchedEventKind::kFaultKill, id, static_cast<double>(decision.retries));

    if (decision.requeued) {
      fault_stats_.Add(now, metrics::FaultEventKind::kRequeue, id,
                       decision.eligible_time);
      Log(SchedEventKind::kRequeue, id, decision.eligible_time);
      // A backoff expiry wakes nobody by itself: arm a scheduling pass at
      // the eligibility time (idempotent if anything else runs one first).
      simulator_.ScheduleAt(decision.eligible_time, kEventOwner, kPass);
    } else {
      fault_stats_.Add(now, metrics::FaultEventKind::kAbandon, id);
      Log(SchedEventKind::kAbandon, id);
      metrics::JobRecord record = MakeRecord(state, now, /*killed=*/false);
      record.abandoned = true;
      record.attempts = rc.failures;
      record.lost_seconds = rc.lost_seconds;
      // rc already folded this attempt's flushes in above.
      record.flush_count = rc.flush_count;
      record.rework_seconds = rc.rework_seconds;
      records_.push_back(record);
      retry_.erase(id);
    }
    RunSchedulingPass();
    return true;
  }

  /// Midplane outage edge (injector hook). On fault: mark the midplane
  /// unallocatable *first* (so the scheduling passes triggered by the kills
  /// cannot hand it out again), then kill every job whose partition covers
  /// it, in job-id order for determinism. On repair: the freed midplane may
  /// unblock the queue.
  void OnMidplaneEdge(int midplane, bool faulted, sim::SimTime now) {
    machine_.SetFaulted(midplane, faulted);
    if (faulted) {
      std::vector<workload::JobId> victims;
      for (const auto& [id, state] : running_) {
        if (machine::Machine::Covers(state.partition, midplane)) {
          victims.push_back(id);
        }
      }
      std::sort(victims.begin(), victims.end());
      for (workload::JobId id : victims) {
        if (FailJob(id, now)) {
          fault_stats_.Add(now, metrics::FaultEventKind::kJobKill, id,
                           static_cast<double>(midplane));
        }
      }
    }
    RunSchedulingPass();
  }

  /// Horizon for generated fault plans: the latest time any job could still
  /// be running if every job consumed its full requested walltime.
  double PlanHorizon() const {
    double horizon = 0.0;
    for (const workload::Job& job : jobs_) {
      horizon = std::max(horizon, job.submit_time + job.requested_walltime);
    }
    return horizon;
  }

  /// Enter the next phase of a job (or finish it).
  void AdvancePhase(workload::JobId id) {
    ExecState& state = running_.at(id);
    sim::SimTime now = simulator_.Now();
    for (;;) {
      if (state.next_phase >= state.job->phases.size()) {
        FinishJob(id, now, /*killed=*/false);
        return;
      }
      const workload::Phase& phase = state.job->phases[state.next_phase];
      ++state.next_phase;
      if (phase.kind == workload::PhaseKind::kCompute) {
        if (phase.amount <= 0) continue;  // empty phase: skip
        state.compute_event =
            simulator_.ScheduleAt(now + phase.amount, kEventOwner,
                                  kComputeDone, id, phase.amount);
        return;
      }
      // I/O phase.
      if (phase.amount <= util::kVolumeEpsilon) continue;
      state.io_request_start = now;
      state.in_io = true;
      Log(SchedEventKind::kIoRequest, id, phase.amount);
      io_scheduler_.SubmitRequest(id, phase.amount, now, phase.is_flush);
      return;
    }
  }

  void OnIoComplete(workload::JobId id, sim::SimTime now,
                    const IoCompletionInfo& info) {
    ExecState& state = running_.at(id);
    state.io_time_actual += now - state.io_request_start;
    state.in_io = false;
    Log(SchedEventKind::kIoComplete, id);
    if (config_.app_checkpoint.enabled && state.next_phase > 0 &&
        state.job->phases[state.next_phase - 1].is_flush) {
      ++state.flush_count;
      if (info.absorbed) {
        // Staged in the burst buffer: durable only once the drain has
        // pushed the flush's bytes to the PFS.
        state.pending_durables.push_back(
            DurableMarker{state.next_phase, now, info.durable_drain_gb});
      } else {
        // Direct path: durable now. This point postdates every pending
        // marker, so they are superseded.
        state.durable_phase = state.next_phase;
        state.durable_anchor_time = now;
        state.pending_durables.clear();
      }
      SettleJobMarkers(state, io_scheduler_.TotalDrainedGb(now));
    }
    AdvancePhase(id);
  }

  /// Promote every pending marker the drain has caught up with into the
  /// job's durable restart point. Markers are in completion order with
  /// monotone thresholds, so a prefix settles.
  static void SettleJobMarkers(ExecState& state, double drained_gb) {
    std::size_t settled = 0;
    for (const DurableMarker& m : state.pending_durables) {
      if (m.threshold_gb > drained_gb + util::kVolumeEpsilon) break;
      state.durable_phase = m.resume_phase;
      state.durable_anchor_time = m.completion_time;
      ++settled;
    }
    if (settled > 0) {
      state.pending_durables.erase(state.pending_durables.begin(),
                                   state.pending_durables.begin() + settled);
    }
  }

  void SettleAllMarkers(sim::SimTime now) {
    double drained = io_scheduler_.TotalDrainedGb(now);
    for (auto& [id, state] : running_) SettleJobMarkers(state, drained);
  }

  /// The record fields the workload alone determines. The checkpoint
  /// leaves them out of finished-job records and rebuilds them on restore
  /// from the same job (the config hash pins the workload).
  metrics::JobRecord StaticRecord(const workload::Job& job) const {
    metrics::JobRecord record;
    record.id = job.id;
    record.requested_nodes = job.nodes;
    record.submit_time = job.submit_time;
    record.uncongested_runtime =
        job.UncongestedRuntime(config_.machine.node_bandwidth_gbps);
    record.requested_walltime = job.requested_walltime;
    record.io_time_uncongested =
        job.UncongestedIoSeconds(config_.machine.node_bandwidth_gbps);
    record.io_phase_count = job.IoPhaseCount();
    return record;
  }

  metrics::JobRecord MakeRecord(const ExecState& state, sim::SimTime now,
                                bool killed) const {
    metrics::JobRecord record = StaticRecord(*state.job);
    record.allocated_nodes = state.partition.nodes;
    record.start_time = state.start_time;
    record.end_time = now;
    record.io_time_actual = state.io_time_actual;
    record.killed = killed;
    record.flush_count = state.flush_count;
    return record;
  }

  void FinishJob(workload::JobId id, sim::SimTime now, bool killed) {
    Log(killed ? SchedEventKind::kKill : SchedEventKind::kEnd, id);
    ExecState state = running_.at(id);
    running_.erase(id);
    simulator_.Cancel(state.kill_event);
    io_scheduler_.UnregisterJob(id);
    if (injector_.has_value()) injector_->OnJobStop(id);
    batch_.OnJobEnd(id, now);

    metrics::JobRecord record = MakeRecord(state, now, killed);
    auto rit = retry_.find(id);
    if (rit != retry_.end()) {
      record.attempts = rit->second.failures + 1;
      record.lost_seconds = rit->second.lost_seconds;
      record.flush_count += rit->second.flush_count;
      record.rework_seconds = rit->second.rework_seconds;
      retry_.erase(rit);
    }
    records_.push_back(record);

    RunSchedulingPass();
  }

  // --- Checkpoint orchestration --------------------------------------------

  /// Event loop with checkpoint triggers and watchdog polling. Checkpoints
  /// are taken strictly *between* events, so the saved state is always a
  /// consistent between-events frontier.
  void RunLoop() {
    const ckpt::Options& opt = config_.checkpoint;
    const bool saving = opt.SavingEnabled();
    RunControl* control = config_.control;
    using Clock = std::chrono::steady_clock;
    auto wall_period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            opt.every_wall_seconds > 0 ? opt.every_wall_seconds : 0.0));
    double next_sim_save = opt.every_sim_seconds > 0
                               ? simulator_.Now() + opt.every_sim_seconds
                               : 0.0;
    std::uint64_t next_event_save =
        opt.every_events > 0
            ? simulator_.processed_events() + opt.every_events
            : 0;
    Clock::time_point next_wall_save = Clock::now() + wall_period;
    const std::uint64_t check_every =
        checker_.has_value() ? config_.invariant_check_every_events : 0;
    std::uint64_t next_invariant_check =
        check_every > 0 ? simulator_.processed_events() + check_every : 0;

    while (simulator_.RunOne()) {
      if (check_every > 0 &&
          simulator_.processed_events() >= next_invariant_check) {
        RunInvariantCheck();
        next_invariant_check = simulator_.processed_events() + check_every;
      }
      if (control != nullptr) {
        control->progress_events.store(simulator_.processed_events(),
                                       std::memory_order_relaxed);
        control->progress_sim_time.store(simulator_.Now(),
                                         std::memory_order_relaxed);
        if (control->abort.load(std::memory_order_relaxed)) {
          std::string path;
          if (!opt.directory.empty()) path = SaveCheckpointNow();
          throw SimulationAborted(
              "simulation aborted by watchdog at t=" +
                  std::to_string(simulator_.Now()) + " after " +
                  std::to_string(simulator_.processed_events()) + " events" +
                  (path.empty() ? "" : "; emergency checkpoint " + path),
              path);
        }
      }
      if (!saving || simulator_.pending_events() == 0) continue;
      bool due = false;
      if (opt.every_events > 0 &&
          simulator_.processed_events() >= next_event_save) {
        due = true;
      }
      if (opt.every_sim_seconds > 0 && simulator_.Now() >= next_sim_save) {
        due = true;
      }
      // The wall trigger checks the clock only every 1024 events to keep
      // the hot loop free of syscalls.
      if (opt.every_wall_seconds > 0 &&
          (simulator_.processed_events() & 1023u) == 0 &&
          Clock::now() >= next_wall_save) {
        due = true;
      }
      if (!due) continue;
      SaveCheckpointNow();
      if (opt.every_events > 0) {
        next_event_save = simulator_.processed_events() + opt.every_events;
      }
      if (opt.every_sim_seconds > 0) {
        next_sim_save = simulator_.Now() + opt.every_sim_seconds;
      }
      if (opt.every_wall_seconds > 0) {
        next_wall_save = Clock::now() + wall_period;
      }
    }
  }

  /// One full InvariantChecker sweep, counted on the hub when one is
  /// attached. Strictly read-only with respect to simulation state.
  void RunInvariantCheck() {
    checker_->CheckNow(simulator_.Now());
    if (hub_ != nullptr) hub_->invariant_checks->Inc();
  }

  /// Snapshot the complete engine state and atomically publish it under the
  /// next sequence number, pruning old checkpoints. Returns the path.
  std::string SaveCheckpointNow() {
    const ckpt::Options& opt = config_.checkpoint;
    // Flag the write on the control handle so a watchdog can tell "long
    // checkpoint write" apart from "stuck simulation"; cleared on every
    // exit path (WriteAtomic can throw on a full disk).
    struct CkptFlag {
      RunControl* control;
      explicit CkptFlag(RunControl* c) : control(c) {
        if (control != nullptr) {
          control->checkpoint_in_progress.store(true,
                                                std::memory_order_relaxed);
        }
      }
      ~CkptFlag() {
        if (control != nullptr) {
          control->checkpoint_in_progress.store(false,
                                                std::memory_order_relaxed);
        }
      }
    } flag(config_.control);
    std::filesystem::create_directories(std::filesystem::path(opt.directory));
    ckpt::CheckpointFile file = BuildCheckpoint();
    std::string path = ckpt::CheckpointFileName(
        opt.directory, ckpt::NextSequence(opt.directory));
    file.WriteAtomic(path);
    ++checkpoints_written_;
    ckpt::PruneOld(opt.directory, opt.keep_last);
    return path;
  }

  /// Id → workload entry, built on first use. Checkpointing requires
  /// unique job ids (the restore path keys everything by id).
  const workload::Job* FindJob(workload::JobId id) {
    if (job_index_.empty() && !jobs_.empty()) {
      job_index_.reserve(jobs_.size());
      for (std::uint32_t i = 0; i < jobs_.size(); ++i) {
        job_index_.emplace_back(jobs_[i].id, i);
      }
      std::sort(job_index_.begin(), job_index_.end());
      auto dup = std::adjacent_find(
          job_index_.begin(), job_index_.end(),
          [](const auto& a, const auto& b) { return a.first == b.first; });
      if (dup != job_index_.end()) {
        throw std::invalid_argument(
            "checkpoint: workload has duplicate job id " +
            std::to_string(dup->first));
      }
    }
    auto it = std::lower_bound(job_index_.begin(), job_index_.end(), id,
                               [](const auto& entry, workload::JobId key) {
                                 return entry.first < key;
                               });
    if (it == job_index_.end() || it->first != id) return nullptr;
    return &jobs_[it->second];
  }

  /// Every checkpoint section in file order: its name, whether this run
  /// holds the state, whether it is report-only, and the one description
  /// that saves and loads it. Report-only state (a kept bandwidth series,
  /// the event log) is outside the config hash, so a file may hold it or
  /// not whatever the resuming run keeps; every other section is in a file
  /// exactly when the run holds it.
  template <class Fn>
  void ForEachSection(Fn&& section) {
    const bool kState = false;
    const bool kReport = true;
    section("sim", true, kState,
            [this](auto& ar) { simulator_.Serialize(ar); });
    section("machine", true, kState,
            [this](auto& ar) { machine_.Serialize(ar); });
    section("storage", true, kState,
            [this](auto& ar) { storage_.Serialize(ar); });
    section("burst_buffer", burst_buffer_ != nullptr, kState,
            [this](auto& ar) { burst_buffer_->Serialize(ar); });
    section("batch", true, kState, [this](auto& ar) { batch_.Serialize(ar); });
    section("iosched", true, kState,
            [this](auto& ar) { io_scheduler_.Serialize(ar); });
    section("engine", true, kState,
            [this](auto& ar) { SerializeEngine(ar); });
    section("faults", injector_.has_value(), kState,
            [this](auto& ar) { injector_->Serialize(ar); });
    section("fault_stats", true, kState,
            [this](auto& ar) { fault_stats_.Serialize(ar); });
    section("utilization", true, kState,
            [this](auto& ar) { utilization_.Serialize(ar); });
    section("bandwidth", true, kState,
            [this](auto& ar) { bandwidth_tracker_.Serialize(ar); });
    section("bandwidth_samples", bandwidth_tracker_.keeps_samples(), kReport,
            [this](auto& ar) { bandwidth_tracker_.SerializeSamples(ar); });
    section("event_log", event_log_ != nullptr, kReport,
            [this](auto& ar) { event_log_->Serialize(ar); });
  }

  ckpt::CheckpointFile BuildCheckpoint() {
    ckpt::CheckpointFile file;
    file.SetConfigHash(ConfigHash());
    ForEachSection([&file](const char* name, bool held, bool /*report*/,
                           auto serialize) {
      if (held) file.AddSection(name, ckpt::EncodeExact(serialize));
    });
    return file;
  }

  template <class Ar>
  void SerializeEngine(Ar& ar) {
    // Running jobs and retry contexts, sorted by id for deterministic
    // bytes.
    ar.SortedMap(running_, [&ar](workload::JobId id, ExecState& s) {
      if constexpr (Ar::kLoading) s.job = ar.FindJob(id);
      ar.I64(s.partition.first_midplane);
      ar.I64(s.partition.midplane_count);
      ar.I64(s.partition.nodes);
      ar.F64(s.start_time);
      ar.U64(s.next_phase);
      ar.F64(s.io_request_start);
      ar.F64(s.io_time_actual);
      ar.Bool(s.in_io);
      ar.PendingEvent(s.kill_event);
      ar.PendingEvent(s.compute_event);
      ar.U64(s.durable_phase);
      ar.F64(s.durable_anchor_time);
      ar.I64(s.flush_count);
      ar.Seq(s.pending_durables, [&ar](DurableMarker& m) {
        ar.U64(m.resume_phase);
        ar.F64(m.completion_time);
        ar.F64(m.threshold_gb);
      });
    });
    ar.SortedMap(retry_, [&ar](workload::JobId, RetryContext& rc) {
      ar.I64(rc.failures);
      ar.F64(rc.lost_seconds);
      ar.U64(rc.resume_phase);
      ar.I64(rc.flush_count);
      ar.F64(rc.rework_seconds);
    });
    // Finished-job records, in completion order (sorted by id only at the
    // end of Run, so the order must be preserved across a resume). Only the
    // run-dependent fields: a load rebuilds the rest with StaticRecord.
    if constexpr (Ar::kLoading) records_.reserve(jobs_.size());
    ar.Seq(records_, [this, &ar](metrics::JobRecord& rec) {
      ar.I64(rec.id);
      if constexpr (Ar::kLoading) rec = StaticRecord(*ar.FindJob(rec.id));
      ar.I64(rec.allocated_nodes);
      ar.F64(rec.start_time);
      ar.F64(rec.end_time);
      ar.F64(rec.io_time_actual);
      ar.Bool(rec.killed);
      ar.I64(rec.attempts);
      ar.Bool(rec.abandoned);
      ar.F64(rec.lost_seconds);
      ar.I64(rec.flush_count);
      ar.F64(rec.rework_seconds);
    });
    // Arrival cursor: the rest of the arrivals follow from the workload.
    ar.U64(first_arrival_id_);
    ar.U64(next_arrival_);
    if constexpr (Ar::kLoading) {
      if (next_arrival_ > jobs_.size()) {
        ar.Fail("arrival cursor " + std::to_string(next_arrival_) +
                " is past the workload's " + std::to_string(jobs_.size()) +
                " jobs");
      }
      // The simulator restored the armed arrival: it must be the cursor's.
      BuildArrivalOrder();
      if (next_arrival_ < arrival_order_.size()) {
        simulator_.RequirePending(
            first_arrival_id_ + arrival_order_[next_arrival_],
            "engine arrival");
      }
      const bool sampling =
          hub_ != nullptr && hub_->options().sample_dt_seconds > 0;
      for (const sim::Event& e : simulator_.PendingEvents()) {
        if (e.owner == kEventOwner && e.kind == kSampleTick && !sampling) {
          throw ckpt::ConfigMismatchError(
              "checkpoint engine: a sampler tick is pending but the resumed "
              "run has no sampler (pass a hub built from the same obs "
              "options)");
        }
      }
    }
  }

  void RestoreFrom(const ckpt::CheckpointFile& file,
                   const std::string& context) {
    if (restored_) {
      throw std::logic_error("checkpoint: engine already restored");
    }
    if (simulator_.processed_events() != 0 ||
        simulator_.pending_events() != 0) {
      throw std::logic_error("checkpoint: restore requires a fresh engine");
    }
    if (file.config_hash() != ConfigHash()) {
      throw ckpt::ConfigMismatchError(
          "checkpoint " + context +
          ": configuration/workload hash mismatch (the file was written "
          "under a different run setup)");
    }
    ForEachSection([&](const char* name, bool held, bool report, auto) {
      if (!held && !report && file.HasSection(name)) {
        throw ckpt::ConfigMismatchError(
            "checkpoint " + context + ": the file holds section '" + name +
            "', which this run does not");
      }
    });
    const ckpt::Reader::Links links{
        [this](std::int64_t id) { return FindJob(id); },
        [this](std::uint64_t id) { return simulator_.IsPending(id); }};
    ForEachSection(
        [&](const char* name, bool held, bool report, auto serialize) {
          if (!held || (report && !file.HasSection(name))) return;
          ckpt::Reader r(file.Section(name), name, links);
          serialize(r);
          r.ExpectEnd();
        });
    // keep_bandwidth_samples is report-only, so a file saved without the
    // series can meet a run that wants it. Resuming would return a series
    // missing everything before the checkpoint. (An event log, output
    // only, may resume from a file saved without one.)
    if (bandwidth_tracker_.keeps_samples() &&
        bandwidth_tracker_.samples().size() !=
            bandwidth_tracker_.sample_count()) {
      throw ckpt::ConfigMismatchError(
          "checkpoint " + context +
          ": keep_bandwidth_samples is set but the file was saved without "
          "the bandwidth series");
    }
    restored_ = true;
    resumed_from_ = context;
  }

  const SimulationConfig& config_;
  const workload::Workload& jobs_;
  EventLog* event_log_;
  obs::Hub* hub_;
  /// Consumers of the Log() emit point (event_log_, then trace_adapter_).
  std::vector<SchedEventSink*> sinks_;
  std::optional<SchedTraceAdapter> trace_adapter_;
  sim::Simulator simulator_;
  machine::Machine machine_;
  /// Storage subsystem: single-tier PFS or PFS + burst-buffer tier,
  /// selected by config. Declared before the members that hold references
  /// into it.
  std::unique_ptr<storage::StorageBackend> backend_;
  /// The PFS fair-share model inside the backend (checkpoint section
  /// "storage" and every grant computation go through this alias, keeping
  /// the on-disk layout identical to the pre-backend engine).
  storage::StorageModel& storage_;
  sched::BatchScheduler batch_;
  metrics::UtilizationTracker utilization_;
  metrics::BandwidthTracker bandwidth_tracker_;
  /// backend_->burst_buffer(); null when the tier is disabled.
  storage::BurstBuffer* burst_buffer_ = nullptr;
  IoScheduler io_scheduler_;
  /// Nominal BWmax; degradation scales it (the storage model holds the
  /// currently effective value).
  double base_bwmax_ = 0.0;
  metrics::FaultStats fault_stats_;
  std::optional<faults::FaultInjector> injector_;
  /// The chaos-harness invariant checker (config.check_invariants only);
  /// registered as a sink for lifecycle legality and swept periodically by
  /// RunLoop.
  std::optional<InvariantChecker> checker_;
  std::unordered_map<workload::JobId, ExecState> running_;
  std::unordered_map<workload::JobId, RetryContext> retry_;
  metrics::JobRecords records_;
  /// Scratch for RecordSample's suspended-transfer count.
  std::vector<const storage::Transfer*> sample_scratch_;
  // --- Arrival stream ------------------------------------------------------
  /// Workload indices in firing order (BuildArrivalOrder).
  std::vector<std::uint32_t> arrival_order_;
  /// Id reserved for the arrival of workload index 0; index i fires under
  /// first_arrival_id_ + i.
  sim::EventId first_arrival_id_ = 0;
  /// Position in arrival_order_ of the armed, not yet fired arrival
  /// (== size once every job has arrived).
  std::size_t next_arrival_ = 0;
  // --- Checkpoint bookkeeping ----------------------------------------------
  /// Lazily built (job id, workload index), sorted by id (restore +
  /// duplicate-id validation).
  std::vector<std::pair<workload::JobId, std::uint32_t>> job_index_;
  std::optional<std::uint64_t> config_hash_;
  bool restored_ = false;
  std::string resumed_from_;
  std::uint64_t checkpoints_written_ = 0;
};

std::string FormatIssues(const std::vector<ConfigIssue>& issues) {
  std::string msg = "SimulationConfig validation failed (" +
                    std::to_string(issues.size()) +
                    (issues.size() == 1 ? " issue)" : " issues)");
  for (const ConfigIssue& issue : issues) {
    msg += "\n  " + issue.field + ": " + issue.message;
  }
  return msg;
}

}  // namespace

ConfigValidationError::ConfigValidationError(std::vector<ConfigIssue> issues)
    : std::invalid_argument(FormatIssues(issues)),
      issues_(std::move(issues)) {}

std::vector<ConfigIssue> SimulationConfig::Validate() const {
  std::vector<ConfigIssue> issues;
  auto add = [&issues](const char* field, std::string message) {
    issues.push_back({field, std::move(message)});
  };
  util::IssueVisitor rows;
  VisitFields(*this, rows);
  for (auto& [field, message] : rows.issues) issues.push_back({field, message});

  // Cross-field rules.
  if (warmup_fraction >= 0 && cooldown_fraction >= 0 &&
      warmup_fraction + cooldown_fraction >= 1) {
    add("warmup_fraction", "warmup + cooldown must leave a stable window");
  }
  if (faults.restart_mode == faults::RestartMode::kRestartFromAppCheckpoint &&
      !app_checkpoint.enabled) {
    add("faults.restart_mode",
        "restart mode app_checkpoint requires app_checkpoint.enabled (the "
        "engine must track flush durability to know where to restart)");
  }

  const storage::BurstBufferConfig& bb = burst_buffer;
  if ((bb.capacity_gb > 0) != (bb.drain_gbps > 0)) {
    add("burst_buffer",
        "capacity_gb and drain_gbps must both be positive to enable the "
        "tier (set both to 0 to disable it)");
  }
  if (bb.enabled() && storage.max_bandwidth_gbps > 0 &&
      bb.drain_gbps >= storage.max_bandwidth_gbps) {
    add("burst_buffer.drain_gbps",
        "drain must stay below storage.max_bandwidth_gbps (the drain is "
        "carved out of the PFS budget)");
  }
  {
    // Burst-buffer fault windows are meaningless without the tier.
    const faults::FaultPlanConfig& fp = faults.plan_config;
    const bool wants_bb_faults =
        (fp.enabled &&
         (fp.bb_faults > 0 || fp.drain_degraded_fraction > 0)) ||
        !faults.explicit_plan.bb_faults.empty() ||
        !faults.explicit_plan.drain_degradations.empty();
    if (wants_bb_faults && !bb.enabled()) {
      add("faults",
          "burst-buffer fault / drain-degradation windows require the "
          "burst-buffer tier to be enabled");
    }
  }

  if (checkpoint.directory.empty() &&
      (checkpoint.every_sim_seconds > 0 || checkpoint.every_events > 0 ||
       checkpoint.every_wall_seconds > 0)) {
    add("checkpoint.directory",
        "a save trigger is set but no checkpoint directory is configured");
  }
  if (!checkpoint.resume_from.empty() && checkpoint.resume_latest) {
    add("checkpoint.resume_from",
        "resume_from and resume_latest are mutually exclusive");
  }

  return issues;
}

SimulationConfig SimulationConfig::Builder::Build() const {
  std::vector<ConfigIssue> issues = config_.Validate();
  if (!issues.empty()) throw ConfigValidationError(std::move(issues));
  return config_;
}

namespace {

/// Mixes every hashed row, in table order.
struct HashVisitor : util::FieldVisitor {
  std::uint64_t h = metrics::kFnvOffset;

  template <class T>
  void operator()(const T& value, const util::Field& field,
                  const util::RowExtra& extra = {}) {
    if (!hashed || field.hash == util::HashClass::kExcluded) return;
    if (extra.hash_as) {
      h = metrics::FnvMix(h, *extra.hash_as);
    } else if constexpr (std::is_same_v<T, std::string>) {
      h = MixStr(h, value);
    } else if constexpr (std::is_same_v<T, faults::FaultPlan>) {
      MixExplicitPlan(value);
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      Mix(value);
    } else {
      throw std::logic_error("no hash term for " + Path(field));
    }
  }

  template <class T>
  void Mix(const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
      h = metrics::FnvMix(h, value);
    } else {
      h = metrics::FnvMix(h, static_cast<std::uint64_t>(value));
    }
  }

  void MixExplicitPlan(const faults::FaultPlan& plan) {
    // A window list mixes its length, then each window's start, end and
    // payload.
    auto windows = [this](const auto& list, auto payload) {
      Mix(list.size());
      for (const auto& window : list) {
        Mix(window.start);
        Mix(window.end);
        Mix(window.*payload);
      }
    };
    windows(plan.degradations, &faults::StorageDegradation::bandwidth_factor);
    windows(plan.outages, &faults::MidplaneOutage::midplane);
    Mix(plan.job_kill_probability);
    Mix(plan.kill_seed);
    windows(plan.bb_faults, &faults::BurstBufferFault::lose_data);
    windows(plan.drain_degradations, &faults::DrainDegradation::drain_factor);
    Mix(plan.straggler_probability);
    Mix(plan.straggler_factor);
    Mix(plan.straggler_seed);
    Mix(plan.job_mtbf_seconds);
    Mix(plan.mtbf_seed);
  }
};

}  // namespace

std::uint64_t SimulationConfigHash(const SimulationConfig& config,
                                   const workload::Workload& jobs) {
  HashVisitor visitor;
  VisitFields(config, visitor);
  return metrics::FnvMix(visitor.h, workload::WorkloadFingerprint(jobs));
}

SimulationResult RunSimulation(const SimulationConfig& config,
                               const workload::Workload& jobs,
                               EventLog* event_log, obs::Hub* hub) {
  std::vector<ConfigIssue> issues = config.Validate();
  if (!issues.empty()) throw ConfigValidationError(std::move(issues));
  Engine engine(config, jobs, event_log, hub);
  const ckpt::Options& opt = config.checkpoint;
  std::string resume_path = opt.resume_from;
  if (resume_path.empty() && opt.resume_latest && !opt.directory.empty()) {
    resume_path =
        ckpt::FindLatestValid(opt.directory, engine.ConfigHash(), nullptr);
  }
  if (!resume_path.empty()) {
    engine.RestoreFromFile(resume_path);
  }
  return engine.Run();
}

}  // namespace iosched::core
