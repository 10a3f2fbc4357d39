// Build a complete scenario (machine + storage + batch + policy + workload)
// from an INI configuration file, so experiments are reproducible from a
// checked-in config instead of code edits.
//
// Each SimulationConfig key is a row of the field table, with its range
// and a one-line doc (core/config_fields.h, which names where every section
// lives); an absent key keeps the member initializer. Read
// here besides the table: [machine] preset (mira | intrepid | small), the
// [workload] generator keys (month, days, seed, expansion_factor and the
// overrides below), and the [app_checkpoint] Young/Daly transform keys.
// configs/example.ini and configs/faults.ini use every section but
// [checkpoint].
#pragma once

#include <string>

#include "driver/scenario.h"
#include "util/config.h"

namespace iosched::driver {

/// Build a scenario from a parsed config. Throws std::runtime_error naming
/// the offending key on an unknown key or an invalid value (an unknown
/// batch.order or faults.restart name throws std::invalid_argument).
Scenario ScenarioFromConfig(const util::Config& config);

/// Convenience: parse the file then build.
Scenario ScenarioFromConfigFile(const std::string& path);

}  // namespace iosched::driver
