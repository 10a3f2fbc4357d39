// Fault plans: the declarative description of every fault a simulation run
// will experience, fully determined before the run starts (storage-side
// degradation windows and midplane outages) or by a seeded draw during it
// (probabilistic mid-run job kills).
//
// Real petascale systems see exactly these deviations from the paper's
// fault-free model: file servers transiently underperform (RAID rebuilds,
// failover, contention from outside the machine), midplanes are drained for
// service, and jobs die mid-run. A plan is either written explicitly (tests,
// targeted experiments) or generated from a FaultPlanConfig with a seed, so
// the same seed always yields byte-identical fault schedules.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/field_table.h"

namespace iosched::faults {

/// One storage-degradation window: while active, the usable aggregate file
/// server bandwidth is `bandwidth_factor * BWmax`. Overlapping windows do
/// not stack; the smallest active factor wins.
struct StorageDegradation {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  /// Multiplier in (0, 1]; 0.5 halves BWmax for the window.
  double bandwidth_factor = 1.0;
};

/// One midplane outage window: the midplane cannot host new partitions
/// while down, and any job running on it when the outage begins is killed.
struct MidplaneOutage {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  int midplane = 0;
};

/// One burst-buffer fault window: while active, the buffer absorbs nothing
/// (every request takes the direct PFS path). With `lose_data` set, any data
/// buffered at the window start is dropped and the affected in-flight
/// absorbed requests must re-flush over the direct path.
struct BurstBufferFault {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  bool lose_data = false;
};

/// One drain-rate degradation window: while active, the burst buffer drains
/// at `drain_factor * drain_gbps`. Overlapping windows do not stack; the
/// smallest active factor wins.
struct DrainDegradation {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  /// Multiplier in (0, 1]; 0.25 quarters the drain rate for the window.
  double drain_factor = 1.0;
};

/// The full fault schedule for one run.
struct FaultPlan {
  std::vector<StorageDegradation> degradations;
  std::vector<MidplaneOutage> outages;
  std::vector<BurstBufferFault> bb_faults;
  std::vector<DrainDegradation> drain_degradations;
  /// Per-attempt probability that a job is killed mid-run (0 disables).
  double job_kill_probability = 0.0;
  /// Seed for the kill draws (independent of the workload seed).
  std::uint64_t kill_seed = 1;
  /// Per-transfer probability that a direct PFS transfer straggles — its
  /// effective rate collapses to `straggler_factor` of its grant for the
  /// whole attempt (0 disables).
  double straggler_probability = 0.0;
  /// Effective-rate multiplier for straggling transfers, in (0, 1).
  double straggler_factor = 0.25;
  /// Seed for the straggler draws (independent of kill draws).
  std::uint64_t straggler_seed = 1;
  /// MTBF-driven per-job failure process (distinct from the Bernoulli kill
  /// windows above): each attempt draws an exponential time-to-failure with
  /// this mean and is killed if it fires before the attempt finishes. 0
  /// disables. This is the failure process checkpoint traffic defends
  /// against (Young/Daly; see workload/app_checkpoint.h).
  double job_mtbf_seconds = 0.0;
  /// Seed for the MTBF draws (independent of kill and straggler draws).
  std::uint64_t mtbf_seed = 1;

  bool Empty() const {
    return degradations.empty() && outages.empty() && bb_faults.empty() &&
           drain_degradations.empty() && job_kill_probability <= 0.0 &&
           straggler_probability <= 0.0 && job_mtbf_seconds <= 0.0;
  }

  /// Invariant check: windows well-formed (end > start >= 0), factors in
  /// (0, 1], kill probability in [0, 1], midplane indices non-negative.
  /// Returns an error description, or empty when valid.
  std::string Validate() const;
};

/// Parameters for deterministic plan generation.
/// Each member's meaning and range is its row in VisitFields below.
struct FaultPlanConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double degraded_fraction = 0.0;
  double degradation_factor = 0.5;
  double degraded_window_seconds = 3600.0;
  int midplane_outages = 0;
  double midplane_outage_seconds = 4.0 * 3600.0;
  double job_kill_probability = 0.0;
  int bb_faults = 0;
  double bb_fault_seconds = 2.0 * 3600.0;
  bool bb_fault_lose_data = false;
  double drain_degraded_fraction = 0.0;
  double drain_degradation_factor = 0.5;
  double drain_window_seconds = 3600.0;
  double straggler_probability = 0.0;
  double straggler_factor = 0.25;
  double job_mtbf_seconds = 0.0;

  /// The first rule a member breaks, or "" (the rules are the rows below).
  std::string Validate() const;
};

/// FaultPlanConfig's rows of the SimulationConfig field table
/// (util/field_table.h, core/config_fields.h).
template <util::MaybeConst<FaultPlanConfig> C, class V>
void VisitFields(C& c, V& v) {
  using util::kAny, util::kFactor, util::kFraction, util::kNonNegative,
      util::kPositive, util::kProbability;
  constexpr auto kSchedule = util::HashClass::kSchedule;
  v(c.enabled, {"enabled", "faults.enabled", kAny, kSchedule,
                "generate a fault plan from these rows"});
  v(c.seed, {"seed", "faults.seed", kAny, kSchedule, "fault schedule seed"});
  v(c.degraded_fraction,
    {"degraded_fraction", "faults.degraded_fraction", kFraction, kSchedule,
     "fraction of the horizon with degraded storage"});
  v(c.degradation_factor,
    {"degradation_factor", "faults.degradation_factor", kFactor, kSchedule,
     "BWmax multiplier inside a degraded window"});
  v(c.degraded_window_seconds,
    {"degraded_window_seconds", "faults.degraded_window_seconds", kPositive,
     kSchedule, "length of each degraded window (s)"});
  v(c.midplane_outages,
    {"midplane_outages", "faults.midplane_outages", kNonNegative, kSchedule,
     "midplane service windows over the horizon"});
  v(c.midplane_outage_seconds,
    {"midplane_outage_seconds", "faults.midplane_outage_seconds", kPositive,
     kSchedule, "length of each midplane outage (s)"});
  v(c.job_kill_probability,
    {"job_kill_probability", "faults.job_kill_probability", kProbability,
     kSchedule, "per-attempt mid-run kill chance"});
  v(c.bb_faults, {"bb_faults", "faults.bb_faults", kNonNegative, kSchedule,
                  "burst-buffer capacity-loss windows"});
  v(c.bb_fault_seconds,
    {"bb_fault_seconds", "faults.bb_fault_seconds", kPositive, kSchedule,
     "length of each burst-buffer fault window (s)"});
  v(c.bb_fault_lose_data,
    {"bb_fault_lose_data", "faults.bb_fault_lose_data", kAny, kSchedule,
     "drop staged data when a burst-buffer fault opens"});
  v(c.drain_degraded_fraction,
    {"drain_degraded_fraction", "faults.drain_degraded_fraction", kFraction,
     kSchedule, "fraction of the horizon with a slowed drain"});
  v(c.drain_degradation_factor,
    {"drain_degradation_factor", "faults.drain_degradation_factor", kFactor,
     kSchedule, "drain-rate multiplier while slowed"});
  v(c.drain_window_seconds,
    {"drain_window_seconds", "faults.drain_window_seconds", kPositive,
     kSchedule, "length of each slowed-drain window (s)"});
  v(c.straggler_probability,
    {"straggler_probability", "faults.straggler_probability", kProbability,
     kSchedule, "per-transfer chance of a collapsed rate"});
  v(c.straggler_factor,
    {"straggler_factor", "faults.straggler_factor", kAny, kSchedule,
     "effective-rate multiplier of a straggling transfer"},
    {.rule = [&c] {
      const bool bad = c.straggler_factor <= 0 || c.straggler_factor >= 1.0;
      return c.straggler_probability > 0 && bad ? "must be in (0, 1)" : "";
    }});
  v(c.job_mtbf_seconds,
    {"job_mtbf_seconds", "faults.job_mtbf_seconds", kNonNegative, kSchedule,
     "mean time between per-job failures (s); 0 disables"});
}

/// Generate a plan covering `horizon_seconds` from seeded draws: the horizon
/// is tiled into windows of `degraded_window_seconds` and exactly
/// round(degraded_fraction * tiles) of them are degraded (chosen by a seeded
/// shuffle, so the degraded time matches the target as closely as the tiling
/// allows); outages pick a uniform midplane and start time. Deterministic:
/// the same (config, horizon, total_midplanes) triple always produces the
/// same plan. Throws std::invalid_argument on invalid config.
FaultPlan BuildFaultPlan(const FaultPlanConfig& config,
                         double horizon_seconds, int total_midplanes);

/// What a requeued job re-runs after a mid-run kill.
enum class RestartMode {
  /// Lose all progress: the job restarts at its first phase.
  kRestartFromZero,
  /// Approximate checkpointing: completed phases are not re-run; the
  /// interrupted phase restarts from its beginning.
  kResumeFromLastPhase,
  /// Application checkpointing: the job restarts after its last *durable*
  /// checkpoint flush — one whose data reached the PFS (directly, or fully
  /// drained out of the burst buffer) before the failure. Requires
  /// checkpoint-traffic workloads (workload/app_checkpoint.h); jobs without
  /// flush phases restart from zero under this mode.
  kRestartFromAppCheckpoint,
};

/// Parse "zero" / "resume" / "app_checkpoint" (case-insensitive); throws on
/// unknown names.
RestartMode ParseRestartMode(const std::string& name);
const char* ToString(RestartMode mode);
/// ParseRestartMode for field-table rows (util/field_table.h).
inline bool ParseValue(const std::string& name, RestartMode& mode) {
  mode = ParseRestartMode(name);
  return true;
}

/// Everything the engine needs to run with faults: either an explicit plan
/// (which wins when non-empty) or generation parameters, plus the restart
/// semantics for requeued jobs.
struct FaultOptions {
  FaultPlanConfig plan_config;
  FaultPlan explicit_plan;
  RestartMode restart_mode = RestartMode::kResumeFromLastPhase;

  bool enabled() const {
    return plan_config.enabled || !explicit_plan.Empty();
  }
};

}  // namespace iosched::faults
