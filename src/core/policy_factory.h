// Construction of I/O policies by their figure names. One registry table is
// the single source of truth for policy names: the CLI's --policy flag, the
// INI [simulation] policy key, driver SweepSpecs, and the bench figures all
// resolve names through it, and an unknown name always fails with the full
// list of valid options. Every function below reads that table.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/io_policy.h"

namespace iosched::core {

/// Policy names exactly as the paper's figures label them, plus the
/// prediction-aware extensions (which have no paper series).
/// {"BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
///  "ADAPTIVE", "PREDICTIVE", "PREDICTIVE_ADAPTIVE"}.
/// The planning family and the extensions BASE_LINE_MAXMIN, SJF and WSJF
/// are deliberately NOT in this list: sweeps, chaos runs, and bench figures
/// that iterate "all policies" mean this family; the others are opted into
/// by name.
const std::vector<std::string>& AllPolicyNames();

/// The planning (two-phase, finite-horizon) policy family:
/// {"PERIODIC", "PLAN_BF"}.
const std::vector<std::string>& PlanningPolicyNames();

/// True when `name` (case-insensitive, including aliases) names a policy
/// MakePolicy can build.
bool KnownPolicyName(const std::string& name);

/// True when `name` builds a planning (WantsPlanning) policy; false for
/// greedy policies and unknown names.
bool IsPlanningPolicyName(const std::string& name);

/// One "NAME|NAME|..." string over every policy MakePolicy builds, for
/// error messages and CLI help text.
std::string PolicyNamesHelp();

/// Build a policy by name (case-insensitive); throws std::invalid_argument
/// listing the valid options for unknown names.
std::unique_ptr<IoPolicy> MakePolicy(const std::string& name);

}  // namespace iosched::core
