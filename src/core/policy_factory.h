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

/// Policy names exactly as the paper's figures label them:
/// {"BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
///  "ADAPTIVE"}. The ablation BASE_LINE_MAXMIN is deliberately NOT in this
/// list: sweeps, chaos runs, and bench figures that iterate "all policies"
/// mean the paper's family; BASE_LINE_MAXMIN is opted into by name.
const std::vector<std::string>& AllPolicyNames();

/// True when `name` (case-insensitive, including aliases) names a policy
/// MakePolicy can build.
bool KnownPolicyName(const std::string& name);

/// One "NAME|NAME|..." string over every policy MakePolicy builds, for
/// error messages and CLI help text.
std::string PolicyNamesHelp();

/// Build a policy by name (case-insensitive); throws std::invalid_argument
/// listing the valid options for unknown names.
std::unique_ptr<IoPolicy> MakePolicy(const std::string& name);

}  // namespace iosched::core
