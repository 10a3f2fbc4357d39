// Shared command-line surface for the tools/ binaries.
//
// Every tool that consumes a workload declares the same flag set through
// AddScenarioFlags/AddBurstBufferFlags and loads it through
// ScenarioFromFlags/ApplyBurstBufferFlags, so flag names, defaults, and
// --help text are defined exactly once. ParseStandardFlags owns the
// parse-error and --help preamble each main() used to hand-roll.
#pragma once

#include <optional>

#include "core/simulation.h"
#include "driver/scenario.h"
#include "util/cli.h"

namespace iosched::driver {

/// Declare the workload-selection flags ScenarioFromFlags reads:
/// --workload/--days (built-in month), --swf/--io (trace pair), --config
/// (INI scenario), --bwmax, and --factor.
void AddScenarioFlags(util::CliParser& cli);

/// Declare the burst-buffer flags ApplyBurstBufferFlags reads:
/// --bb-capacity, --bb-drain, --bb-absorb, --bb-quota, --bb-watermark (all
/// but --bb-drain from the field table, core/config_fields.h).
void AddBurstBufferFlags(util::CliParser& cli);

/// Declare the application-checkpoint flags ApplyAppCheckpointFlags reads:
/// --app-ckpt-mtbf (0 = off), --app-ckpt-defer, --app-ckpt-min-interval,
/// --app-ckpt-seed.
void AddAppCheckpointFlags(util::CliParser& cli);

/// Parse argv and run the standard preamble: a parse error prints the
/// message plus usage to stderr and yields exit code 1; --help (declared
/// here) prints usage to stdout and yields 0. Returns nullopt when the
/// program should continue.
std::optional<int> ParseStandardFlags(util::CliParser& cli, int argc,
                                      const char* const* argv);

/// Build the scenario selected by the AddScenarioFlags flags. --config
/// wins (with --bwmax still honoured as an override); otherwise --swf/--io
/// beats the built-in --workload month, and --factor != 1 applies an
/// expansion factor.
Scenario ScenarioFromFlags(const util::CliParser& cli);

/// Overlay the burst-buffer flags onto `config`. Each explicitly provided
/// flag overrides its field; additionally, providing --bb-capacity alone
/// pulls in the --bb-drain default so a single flag enables the tier.
void ApplyBurstBufferFlags(const util::CliParser& cli,
                           core::SimulationConfig& config);

/// Overlay the app-checkpoint flags onto `scenario`. A positive
/// --app-ckpt-mtbf enables the whole resilience stack in one step: the
/// workload is rewritten with Young/Daly flush phases for that MTBF, flush
/// scheduling is enabled with the --app-ckpt-defer deferral bound, the
/// MTBF-driven failure process is armed, and restart mode switches to
/// app_checkpoint. Mutates both the workload and the config, so it must
/// run after ScenarioFromFlags.
void ApplyAppCheckpointFlags(const util::CliParser& cli, Scenario& scenario);

}  // namespace iosched::driver
