// Fault injection over the discrete-event simulator.
//
// The injector owns no model state: it schedules the plan's fault and repair
// events on the Simulator (plain data under its own owner tag, dispatched
// by OnEvent) and applies them through hook callbacks provided by the
// engine (scale storage bandwidth, fault/repair a midplane, kill a
// running job). Probabilistic mid-run kills are drawn per job attempt from a
// dedicated PCG stream, so a (plan, workload) pair replays bit-identically:
// the draw order is the deterministic job-start order of the simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "faults/fault_plan.h"
#include "metrics/fault_stats.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/job.h"

namespace iosched::faults {

/// Engine-side effects of a fault event. All hooks are required when the
/// corresponding plan component is non-empty.
struct FaultHooks {
  /// Storage bandwidth factor changed (1.0 = nominal). Called at most once
  /// per distinct factor transition; the receiver must rescale BWmax and
  /// force an I/O re-planning cycle.
  std::function<void(double factor, sim::SimTime now)> set_bandwidth_factor;
  /// A midplane went down (`faulted`) or came back. On fault, the receiver
  /// must kill any job whose partition covers the midplane and exclude it
  /// from future allocations; on repair, return it to the free pool.
  std::function<void(int midplane, bool faulted, sim::SimTime now)>
      set_midplane_faulted;
  /// Kill a running job (fault-kill path, distinct from the walltime kill).
  /// Must be a no-op returning false when the job is no longer running.
  std::function<bool(workload::JobId id, sim::SimTime now)> kill_job;
  /// The burst buffer went down (`faulted`) or came back. On fault with
  /// `lose_data`, the receiver must drop all buffered data and re-flush
  /// in-flight absorbed requests over the direct path.
  std::function<void(bool faulted, bool lose_data, sim::SimTime now)>
      set_bb_faulted;
  /// BB drain-rate factor changed (1.0 = nominal). Called at most once per
  /// distinct factor transition.
  std::function<void(double factor, sim::SimTime now)> set_drain_factor;
};

class FaultInjector : private sim::EventHandler {
 public:
  /// `simulator` must outlive the injector; `stats` may be null. Throws
  /// std::invalid_argument when the plan fails Validate() or a hook needed
  /// by the plan is missing.
  FaultInjector(sim::Simulator& simulator, FaultPlan plan, FaultHooks hooks,
                metrics::FaultStats* stats = nullptr);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Owner tag of the injector's events on the simulator.
  static constexpr sim::Owner kEventOwner = 3;

  /// Schedule every planned fault/repair event. Call once, before Run().
  void Arm();

  /// Notify that a job attempt started now; draws the (seeded) kill
  /// decision and schedules the kill event inside (5%, 95%) of
  /// `expected_runtime`. Each retry attempt draws independently.
  void OnJobStart(workload::JobId id, double expected_runtime);

  /// Notify that a job left the machine (finished, walltime-killed, or
  /// fault-killed); cancels its pending kill event, if any.
  void OnJobStop(workload::JobId id);

  /// Smallest active degradation factor (1.0 when storage is nominal).
  double current_bandwidth_factor() const { return current_factor_; }

  /// Smallest active drain factor (1.0 when the BB drain is nominal).
  double current_drain_factor() const { return current_drain_factor_; }

  /// True while at least one burst-buffer fault window is active.
  bool bb_faulted() const { return active_bb_faults_ > 0; }

  /// Seeded per-transfer straggler draw: the effective-rate multiplier for
  /// the next direct PFS transfer (1.0 = nominal, `straggler_factor` when
  /// the Bernoulli draw straggles). Call exactly once per direct-transfer
  /// submission, in deterministic event order. Returns 1.0 without drawing
  /// when the plan has no stragglers.
  double DrawStragglerFactor();

  /// Close the degraded-seconds accounting at the end of the run.
  void FinalizeStats(sim::SimTime end);

  const FaultPlan& plan() const { return plan_; }

  /// Save or load runtime state: RNG stream positions, active windows,
  /// and the ids of pending kill events (the events themselves, plan edges
  /// included, are in the simulator's state). The plan itself is NOT saved
  /// — it is rebuilt deterministically from the run config, which the
  /// checkpoint's config hash pins. A load goes onto a freshly constructed
  /// (un-armed) injector built from the identical plan, after the
  /// simulator restored its pending events, and replaces the Arm() call
  /// for a resumed run. It throws ckpt::FormatError for a saved kill id
  /// that is not pending or a pending plan edge the plan does not have.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  /// The injector's event kinds (sim::Event::kind under kEventOwner).
  enum EventKind : sim::Kind {
    kEdge,         // key: canonical plan-edge index
    kRandomKill,   // key: job id (probabilistic mid-run kill)
    kMtbfFailure,  // key: job id (MTBF failure process)
    kEventKinds
  };
  void OnEvent(const sim::Event& event) override;

  void OnDegradationEdge(double factor, bool begin);
  void OnOutageEdge(int midplane, bool begin);
  void OnBbFaultEdge(bool lose_data, bool begin);
  void OnDrainEdge(double factor, bool begin);
  /// Recompute the effective factor from active windows and fire the hook
  /// on transitions.
  void ApplyFactor();
  void ApplyDrainFactor();
  void AccrueDegradedTime(sim::SimTime now);

  /// Plan edges are enumerated canonically: index 2i / 2i+1 are
  /// degradation i's start/end, then outage edges follow at offset
  /// 2 * degradations.size(), then burst-buffer fault edges, then
  /// drain-degradation edges. Firing time and effect are derived from the
  /// plan, so an edge event carries only its index.
  std::size_t EdgeCount() const;
  sim::SimTime EdgeTime(std::size_t edge) const;
  void FireEdge(std::size_t edge);

  sim::Simulator& simulator_;
  FaultPlan plan_;
  FaultHooks hooks_;
  metrics::FaultStats* stats_;
  util::Rng kill_rng_;
  util::Rng straggler_rng_;
  /// MTBF time-to-failure draws (stream 43, independent of the kill and
  /// straggler streams so enabling MTBF never perturbs their sequences).
  util::Rng mtbf_rng_;
  /// Multiset of active degradation factors (value -> active count).
  std::unordered_map<double, int> active_factors_;
  double current_factor_ = 1.0;
  /// Multiset of active drain-degradation factors (value -> active count).
  std::unordered_map<double, int> active_drain_factors_;
  double current_drain_factor_ = 1.0;
  /// Number of currently active burst-buffer fault windows.
  int active_bb_faults_ = 0;
  /// Active outage count per midplane (overlapping outages must not
  /// double-repair).
  std::unordered_map<int, int> active_outages_;
  /// Pending probabilistic kill event per job.
  std::unordered_map<workload::JobId, sim::EventId> pending_kills_;
  /// Pending MTBF failures (one per running attempt while the MTBF process
  /// is enabled; the event may outlive the attempt's expected runtime and
  /// is cancelled by OnJobStop).
  std::unordered_map<workload::JobId, sim::EventId> pending_failures_;
  sim::SimTime last_factor_change_ = 0.0;
  bool armed_ = false;
};

}  // namespace iosched::faults
