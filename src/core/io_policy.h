// The I/O-aware scheduling policy interface (paper Section III-C), as a
// two-phase plan/execute contract.
//
// Whenever the set of in-flight I/O requests changes (a request arrives or
// completes — one "scheduling cycle"), the framework asks the policy for a
// bandwidth grant per request: rate 0 suspends a job's I/O, a positive rate
// lets it transfer. The contract splits that decision in two:
//
//   Plan(PlanContext)            — build (or rebuild) a plan. Called on the
//                                  replan cadence (plan expiry, churn past
//                                  the configured threshold, or the policy
//                                  invalidating its own plan), NOT every
//                                  cycle, so planning may be expensive.
//   Execute(PlanContext, cursor) — the per-cycle dispatch: translate the
//                                  standing plan into grants for the active
//                                  set. Must be cheap and deterministic.
//
// Greedy policies (the paper's whole family) have no cross-cycle plan: they
// derive from GreedyAdapter below, whose Plan never expires and whose
// Execute delegates to the classic Assign(active, BWmax, now) body —
// grant-for-grant identical to the single-phase interface this replaced.
//
// Planning policies (PERIODIC per Aupy et al., "Periodic I/O scheduling for
// super-computers"; PLAN_BF per Kopanski & Rzadca, "Plan-based Job
// Scheduling for Supercomputers with Shared Burst Buffers") return a finite
// IoPlan::valid_until, publish future bandwidth/burst-buffer reservations
// for auditing, and may ask the framework for a wakeup at the next plan
// boundary (NextPlanEvent), so rates can change at slice edges even when no
// request arrives or completes there.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/serializer.h"
#include "sim/time.h"
#include "workload/job.h"

namespace iosched::obs {
class Hub;
}  // namespace iosched::obs

namespace iosched::core {

/// The policy-visible state of one job's current I/O request.
struct IoJobView {
  workload::JobId id = 0;
  /// Partition size N_i.
  int nodes = 0;
  /// Full-speed demand b*N_i (GB/s).
  double full_rate_gbps = 0.0;
  /// Total volume of the current request, Vol_{i,k} (GB).
  double volume_gb = 0.0;
  /// Transferred so far within this request, W_{i,k} (GB).
  double transferred_gb = 0.0;
  /// Start time of the current request, t^{I/O}_{i,k}.
  sim::SimTime request_arrival = 0.0;
  /// Job start time t^{start}_i.
  sim::SimTime job_start = 0.0;
  /// Sum of compute durations of the job's completed compute phases
  /// (sum_{j<=k} T^{com}_{i,j}).
  double completed_compute_seconds = 0.0;
  /// Sum of *uncongested* I/O times of completed I/O phases
  /// (sum_{j<k} T^{I/O}_{i,j}).
  double completed_io_seconds = 0.0;

  double RemainingGb() const { return volume_gb - transferred_gb; }
};

/// One bandwidth grant.
struct RateGrant {
  workload::JobId id = 0;
  double rate_gbps = 0.0;
};

/// A checkpoint flush waiting on the deferral bench: ready to take the
/// direct PFS path but held back while the policy reports congestion. The
/// scheduler re-queries the policy every cycle and force-releases the flush
/// at `deadline` regardless of the answer.
struct FlushView {
  workload::JobId id = 0;
  /// Remaining flush volume (GB).
  double volume_gb = 0.0;
  /// Full-speed demand the flush would add if released (GB/s).
  double full_rate_gbps = 0.0;
  /// When the flush became ready.
  sim::SimTime submitted = 0.0;
  /// Forced-release time (submitted + the configured deferral bound).
  sim::SimTime deadline = 0.0;
};

/// Storage-tier snapshot refreshed once per scheduling cycle when a burst
/// buffer is attached (all-default otherwise). The `max_bandwidth_gbps`
/// that Execute receives already has the drain reservation subtracted, so
/// conservative policies cannot oversubscribe the PFS drain by
/// construction; this struct lets a policy additionally shape its behavior
/// on the backlog itself (e.g. ADAPTIVE defers over-admission while the
/// drain is far behind).
struct TierState {
  bool bb_enabled = false;
  double bb_capacity_gb = 0.0;
  /// Data staged and awaiting drain (GB).
  double bb_queued_gb = 0.0;
  /// Drain reservation active right now (GB/s).
  double drain_gbps = 0.0;
  /// The buffer is down (absorbing nothing) — fault injection.
  bool bb_faulted = false;
  /// Drain-rate multiplier from fault injection (1.0 = nominal; below 1 the
  /// backlog clears slower than the capacity planning assumed).
  double drain_factor = 1.0;
};

/// One job's predicted next I/O burst, derived by the scheduler from the
/// configured predictor (learned / oracle / null).
struct PredictedBurst {
  workload::JobId id = 0;
  /// Seconds until the burst is expected to start (0 = due now).
  sim::SimTime eta_seconds = 0.0;
  /// Expected transfer rate once it starts (GB/s, efficiency-adjusted).
  double rate_gbps = 0.0;
  /// Expected volume of the burst (GB).
  double volume_gb = 0.0;
  /// Evidence behind the prediction (IoPrediction::support).
  std::size_t support = 0;
};

/// Prediction snapshot refreshed once per scheduling cycle when prediction
/// is enabled (all-default otherwise). Jobs whose prediction has support 0
/// ("no signal") are omitted entirely, so an unseen-project job never
/// biases a consumer toward treating it as I/O-free.
struct PredictionState {
  bool enabled = false;
  /// Look-ahead window the scheduler used to classify bursts as imminent.
  double horizon_seconds = 0.0;
  /// Predicted bursts of currently computing jobs, sorted by job id.
  std::vector<PredictedBurst> upcoming;
  /// Aggregate demand rate of bursts due within the horizon (GB/s).
  double imminent_rate_gbps = 0.0;
  /// Aggregate volume of bursts due within the horizon (GB).
  double imminent_volume_gb = 0.0;
};

/// Everything the framework observes for the policy, refreshed once per
/// scheduling cycle before Plan/Execute. This replaces the former
/// ObserveTiers/ObservePrediction/ObserveFlushBacklog hook sprawl: a policy
/// reads what it cares about and ignores the rest, and the defaults keep
/// feature-off runs indistinguishable from builds without the feature.
/// The instance handed out through PlanContext is owned by the scheduler
/// and stable for the policy's lifetime, so latching the pointer (as
/// GreedyAdapter does) is safe and matches the stale-snapshot semantics of
/// the old per-cycle observer delivery exactly.
struct CycleInputs {
  /// Tier snapshot (default = no burst buffer attached).
  TierState tiers;
  /// Prediction snapshot (default = prediction disabled).
  PredictionState prediction;
  /// Deferred checkpoint-flush backlog: total parked volume and count
  /// (0 unless flush-aware scheduling is enabled and flushes are parked).
  double flush_backlog_gb = 0.0;
  std::size_t flush_backlog_count = 0;
};

/// The framework-side context for one Plan or Execute call.
struct PlanContext {
  /// Active I/O requests, ordered by (request_arrival, id) — FCFS order.
  std::span<const IoJobView> active;
  /// Per-cycle observations; never null when called by the framework.
  const CycleInputs* inputs = nullptr;
  /// Bandwidth the policy may grant this cycle (BWmax minus the burst-
  /// buffer drain reservation).
  double max_bandwidth_gbps = 0.0;
  sim::SimTime now = 0.0;
  /// Configured planning-window length (PlanConfig::window_seconds).
  double window_seconds = 0.0;
  /// Configured slice length for pattern-building policies
  /// (PlanConfig::slice_seconds).
  double slice_seconds = 0.0;
};

/// What a Plan call produced, as far as the framework is concerned. The
/// plan's content stays inside the policy; the framework only needs to know
/// when to ask for a fresh one.
struct IoPlan {
  /// The framework replans at the first cycle at or after this time.
  /// Infinity (the default) = the plan never expires on its own — greedy
  /// policies re-decide every Execute and need no cadence.
  sim::SimTime valid_until = sim::kTimeInfinity;
  /// Items the plan covers (slices, reservations; informational).
  std::uint64_t planned_items = 0;
};

/// Where the framework stands within the current plan, handed to Execute.
struct PlanCursor {
  /// Plans built so far (monotone; 1 on the first Execute after a Plan).
  std::uint64_t sequence = 0;
  /// When the standing plan was computed.
  sim::SimTime planned_at = 0.0;
  /// Execute calls already dispatched against the standing plan.
  std::uint64_t cycles_in_plan = 0;
};

/// A future resource promise made by a planning policy: bandwidth on the
/// PFS channel and/or absorb capacity in the burst buffer over [start, end).
/// `job` 0 marks an infrastructure reservation (the projected drain).
/// Exposed through IoPolicy::Reservations() so the InvariantChecker can
/// audit the table (well-formed intervals, active rates within BWmax,
/// absorb promises within capacity) every sweep.
struct PlanReservation {
  workload::JobId job = 0;
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  /// PFS bandwidth promised over the interval (GB/s).
  double rate_gbps = 0.0;
  /// Burst-buffer absorb capacity promised at `start` (GB).
  double bb_gb = 0.0;
};

class IoPolicy {
 public:
  virtual ~IoPolicy() = default;

  /// Policy name as it appears in the paper's figures (e.g. "ADAPTIVE").
  virtual const std::string& name() const = 0;

  /// Build a plan for the coming window. Called by the framework on the
  /// replan cadence (see file header); may be expensive. Must be
  /// deterministic in the context.
  virtual IoPlan Plan(const PlanContext& ctx) = 0;

  /// Per-cycle dispatch: produce a grant for *every* view in `ctx.active`
  /// (suspended jobs get 0) from the standing plan. Must be cheap and
  /// deterministic; Plan has always been called at least once before.
  virtual std::vector<RateGrant> Execute(const PlanContext& ctx,
                                         const PlanCursor& cursor) = 0;

  /// Does the standing plan still describe the world? Checked every cycle
  /// before Execute; returning true forces a replan even before
  /// valid_until (e.g. PERIODIC rebuilds when a job outside its rotation
  /// shows up). The default never invalidates.
  virtual bool PlanInvalidated(const PlanContext& ctx) const {
    (void)ctx;
    return false;
  }

  /// Next instant the plan wants a scheduling cycle even if no request
  /// arrives or completes (slice boundary, reservation edge, plan expiry).
  /// kTimeInfinity (the default) = no wakeup. Only honored for policies
  /// with WantsPlanning() — greedy policies never add simulator events, so
  /// their replay digests are untouched by the two-phase machinery.
  virtual sim::SimTime NextPlanEvent(const PlanContext& ctx) const {
    (void)ctx;
    return sim::kTimeInfinity;
  }

  /// True for policies with a real (finite-horizon) plan. Gates the plan
  /// review event, the plan checkpoint section, and the reservation-aware
  /// backfill hook.
  virtual bool WantsPlanning() const { return false; }

  /// The standing reservation table (empty for policies that promise
  /// nothing). Audited by the InvariantChecker; entries must be
  /// well-formed (see PlanReservation).
  virtual std::span<const PlanReservation> Reservations() const { return {}; }

  /// Reservation-aware backfill admission (PLAN_BF): may the batch
  /// scheduler backfill `job` at `now`? `projected_free_bb_gb` is the
  /// storage backend's projected free absorb capacity at start time
  /// (+infinity for single-tier runs). Consulted only after the geometric
  /// EASY probe passed, and only when WantsPlanning(); the default admits
  /// everything, leaving classic EASY untouched.
  virtual bool AdmitBackfill(const workload::Job& job, sim::SimTime now,
                             double projected_free_bb_gb) const {
    (void)job;
    (void)now;
    (void)projected_free_bb_gb;
    return true;
  }

  /// Attach observability instruments (null detaches). Policies that count
  /// anything (knapsack solves, water-filling steps) override; the default
  /// ignores it, so observability stays optional for policy authors.
  virtual void BindObs(obs::Hub* hub) { (void)hub; }

  /// Point the policy at the scheduler-owned cycle inputs outside a cycle.
  /// The scheduler calls it after a checkpoint restore, so reads between
  /// cycles (DeferFlush runs from SubmitRequest) see the restored snapshot
  /// rather than the all-default one. Policies that latch nothing ignore it.
  virtual void BindInputs(const CycleInputs* inputs) { (void)inputs; }

  /// Should `flush` stay parked? Queried when a checkpoint flush becomes
  /// ready for the direct path and again every scheduling cycle while it
  /// waits; the scheduler releases it as soon as this returns false (and
  /// unconditionally at the deadline). `active_demand_gbps` is the summed
  /// full-rate demand of the in-flight direct transfers. Must be
  /// deterministic. The default never defers, so flush phases behave as
  /// ordinary I/O under policies that do not opt in.
  virtual bool DeferFlush(const FlushView& flush, double active_demand_gbps,
                          double max_bandwidth_gbps, sim::SimTime now) {
    (void)flush;
    (void)active_demand_gbps;
    (void)max_bandwidth_gbps;
    (void)now;
    return false;
  }

  /// Checkpoint hooks for cross-cycle plan state. The framework invokes
  /// them (inside the scheduler's plan checkpoint section) only for
  /// policies with WantsPlanning(): a planning policy must serialize
  /// everything Execute reads — pattern anchors, rotations, reservation
  /// tables — or resumed runs diverge from uninterrupted ones. Greedy
  /// policies are stateless across cycles and keep the no-op defaults.
  virtual void SaveState(ckpt::Writer& w) const { (void)w; }
  virtual void RestoreState(ckpt::Reader& r) { (void)r; }
};

/// Adapter that carries the classic greedy policies through the two-phase
/// contract unchanged: Plan latches the cycle-inputs pointer and never
/// expires, Execute delegates to the single-phase Assign body. Because the
/// scheduler refreshes its CycleInputs at exactly the points the old
/// observer hooks fired, the tiers()/prediction()/flush-backlog accessors
/// see byte-identical snapshots to the members the policies used to copy —
/// the whole greedy family is grant-for-grant (and so digest-) identical
/// through this adapter.
class GreedyAdapter : public IoPolicy {
 public:
  IoPlan Plan(const PlanContext& ctx) override {
    inputs_ = ctx.inputs;
    return IoPlan{};  // never expires; greedy policies re-decide per cycle
  }

  std::vector<RateGrant> Execute(const PlanContext& ctx,
                                 const PlanCursor& cursor) override {
    (void)cursor;
    inputs_ = ctx.inputs;
    return Assign(ctx.active, ctx.max_bandwidth_gbps, ctx.now);
  }

  void BindInputs(const CycleInputs* inputs) override { inputs_ = inputs; }

  /// The classic single-phase decision: produce a grant for *every* view in
  /// `active` (suspended jobs get 0), FCFS-ordered input, deterministic.
  virtual std::vector<RateGrant> Assign(std::span<const IoJobView> active,
                                        double max_bandwidth_gbps,
                                        sim::SimTime now) = 0;

 protected:
  /// Current-cycle observations (all-default before the first Plan/Execute,
  /// matching the old observer-member defaults). Valid between cycles too —
  /// DeferFlush is queried from SubmitRequest and reads the previous
  /// cycle's snapshot, exactly as the copied members did.
  const CycleInputs& inputs() const {
    return inputs_ != nullptr ? *inputs_ : NoInputs();
  }
  const TierState& tiers() const { return inputs().tiers; }
  const PredictionState& prediction() const { return inputs().prediction; }
  double flush_backlog_gb() const { return inputs().flush_backlog_gb; }
  std::size_t flush_backlog_count() const {
    return inputs().flush_backlog_count;
  }

 private:
  static const CycleInputs& NoInputs();
  /// Owned by the scheduler, stable for the policy's lifetime.
  const CycleInputs* inputs_ = nullptr;
};

/// Verify a grant vector covers exactly the active set with non-negative
/// rates, each at most the job's full rate; throws std::logic_error
/// otherwise. Used by the framework to catch buggy policies at the boundary.
void ValidateGrants(std::span<const IoJobView> active,
                    std::span<const RateGrant> grants);

/// Verify a reservation table is well-formed against the current instant
/// and resource envelope: finite non-negative rates/volumes, end >= start,
/// the summed rate of reservations active at `now` within
/// `max_bandwidth_gbps` (+epsilon), and the summed absorb promises within
/// `bb_capacity_gb` when a buffer exists. Throws std::logic_error naming
/// the offending entry. Used by the InvariantChecker.
void ValidateReservations(std::span<const PlanReservation> reservations,
                          sim::SimTime now, double max_bandwidth_gbps,
                          double bb_capacity_gb);

}  // namespace iosched::core
