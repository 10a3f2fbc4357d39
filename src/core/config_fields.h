// The SimulationConfig field table (util/field_table.h): one row per field
// of SimulationConfig and its sub-structs. The rows of MachineConfig,
// StorageConfig, BatchScheduler::Options, FaultPlanConfig,
// TransferRetryConfig and BurstBufferConfig sit next to those structs
// (machine/machine.h, storage/storage_model.h, sched/batch_scheduler.h,
// faults/fault_plan.h, core/io_scheduler.h, storage/burst_buffer.h), where
// their other users reach them.
// Sections are visited in the order the hash mixes them (SimulationConfig's
// own fields fall into three sections to keep that order, and so every
// recorded hash). Cross-field rules stay in SimulationConfig::Validate.
#pragma once

#include <string>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "util/field_table.h"

namespace iosched::core {

template <util::MaybeConst<SimulationConfig> C, class V>
void VisitFields(C& c, V& v) {
  using util::kAny, util::kFraction, util::kNonNegative,
      util::kPositive;
  using enum util::HashClass;

  v.Section("machine.");
  machine::VisitFields(c.machine, v);

  v.Section("storage.");
  storage::VisitFields(c.storage, v);

  v.Section("batch.");
  sched::VisitFields(c.batch, v);

  v.Section("transfer_retry.");
  VisitFields(c.transfer_retry, v);

  v.Section("app_checkpoint.");
  v(c.app_checkpoint.enabled,
    {"enabled", "app_checkpoint.enabled", kAny, kLayout,
     "deferrable flushes and durability tracking"});
  v(c.app_checkpoint.max_defer_seconds,
    {"max_defer_seconds", "app_checkpoint.max_defer_seconds", kNonNegative,
     kSchedule, "longest a ready flush may be parked (s)"});

  v.Section("");
  v(c.policy, {"policy", "policy.name", kAny, kSchedule, "I/O policy name"},
    {.rule = [&c]() -> std::string {
      if (KnownPolicyName(c.policy)) return "";  // the factory registry
      return "unknown policy \"" + c.policy + "\" (known: " +
             PolicyNamesHelp() + ")";
    }});

  v.Section("");
  v(c.track_bandwidth, {"track_bandwidth", nullptr, kAny, kLayout,
                        "bandwidth summary; checkpoints hold it"});
  v(c.enforce_walltime,
    {"enforce_walltime", "simulation.enforce_walltime", kAny, kSchedule,
     "kill jobs at their requested walltime"});

  v.Section("burst_buffer.");
  storage::VisitFields(c.burst_buffer, v);

  v.Section("faults.plan_config.");
  faults::VisitFields(c.faults.plan_config, v);

  v.Section("faults.");
  v(c.faults.explicit_plan,
    {"explicit_plan", nullptr, kAny, kSchedule, "written-out fault windows"},
    {.rule = [&c] {
      const faults::FaultPlan& plan = c.faults.explicit_plan;
      return plan.Empty() ? std::string() : plan.Validate();
    }});
  v(c.faults.restart_mode,
    {"restart_mode", "faults.restart", kAny, kSchedule,
     "what a requeued job re-runs: zero, resume, or app_checkpoint"});

  v.Section("obs.");
  v(c.obs.enabled, {"enabled", "obs.enabled", kAny, kSchedule,
                    "counters, tracer, sampler; ticks take event ids"});
  v(c.obs.sample_dt_seconds,
    {"sample_dt_seconds", "obs.sample_dt_seconds",
     {kNonNegative.holds, "must be >= 0 (0 disables sampling)"}, kSchedule,
     "sampling period (s); hashed as 0 while obs is off"},
    {.hash_as = c.obs.enabled ? c.obs.sample_dt_seconds : 0.0});
  v(c.obs.trace_capacity, {"trace_capacity", "obs.trace_capacity", kPositive,
                           kExcluded, "tracer ring; the tracer only records"});

  v.Section("");
  v(c.warmup_fraction,
    {"warmup_fraction", "simulation.warmup_fraction", kFraction, kExcluded,
     "utilization window; report only"});
  v(c.cooldown_fraction,
    {"cooldown_fraction", "simulation.cooldown_fraction", kFraction,
     kExcluded, "utilization window; report only"});
  v(c.keep_bandwidth_samples, {"keep_bandwidth_samples", nullptr, kAny,
                               kExcluded, "per-cycle series; report only"});
  v(c.check_invariants,
    {"check_invariants", "simulation.check_invariants", kAny, kExcluded,
     "from-scratch audit; the audit is read-only"});
  v(c.invariant_check_every_events,
    {"invariant_check_every_events",
     "simulation.invariant_check_every_events", kPositive, kExcluded,
     "events between audits; the audit is read-only"});
  v(c.control, {"control", nullptr, kAny, kExcluded,
                "watchdog polling never changes the schedule"});

  v.Section("checkpoint.");
  auto& ck = c.checkpoint;
  v(ck.directory,
    {"directory", "checkpoint.directory", kAny, kExcluded,
     "where checkpoints land; saving never changes the schedule"});
  v(ck.every_sim_seconds,
    {"every_sim_seconds", "checkpoint.every_sim_seconds", kNonNegative,
     kExcluded, "save period (simulated s); 0 = off"});
  v(ck.every_events, {"every_events", "checkpoint.every_events", kNonNegative,
                      kExcluded, "save period (events); 0 = off"});
  v(ck.every_wall_seconds,
    {"every_wall_seconds", "checkpoint.every_wall_seconds", kNonNegative,
     kExcluded, "save period (wall s); 0 = off"});
  v(ck.keep_last, {"keep_last", "checkpoint.keep_last", kAny, kExcluded,
                   "checkpoints kept; <= 0 keeps all"});
  v(ck.resume_from, {"resume_from", nullptr, kAny, kExcluded,
                     "checkpoint to restore; a resumed run is bit-identical"});
  v(ck.resume_latest, {"resume_latest", "checkpoint.resume_latest", kAny,
                       kExcluded, "restore the newest valid checkpoint"});
}

}  // namespace iosched::core
