// Pinned SimulationConfigHash values. Checkpoints and resumable sweep cells
// are keyed by this hash, so a refactor of how the hash is computed must
// reproduce these numbers exactly. Two deliberate changes re-pin them and
// say why: a change to what the hash covers, and a change to the hash
// algorithm that comes with a checkpoint format-version bump (so files
// stamped with the old values fail as VersionError, not as a mismatch).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/simulation.h"
#include "driver/config_scenario.h"
#include "driver/scenario.h"

namespace iosched::core {
namespace {

std::uint64_t HashOf(const driver::Scenario& scenario) {
  return SimulationConfigHash(scenario.config, scenario.jobs);
}

/// The default config over a one-day WL1 workload.
driver::Scenario DefaultConfigOverWl1Day() {
  driver::Scenario scenario = driver::MakeEvaluationScenario(1, 1.0);
  scenario.config = SimulationConfig();
  return scenario;
}

TEST(ConfigHashPin, DefaultConfig) {
  EXPECT_EQ(HashOf(DefaultConfigOverWl1Day()), 0x71c9b33b1f4a4ce2ULL);
}

TEST(ConfigHashPin, ShippedIniConfigs) {
  EXPECT_EQ(HashOf(driver::ScenarioFromConfigFile(std::string(
                IOSCHED_CONFIG_DIR) + "/example.ini")),
            0xa01fe2f3649a7facULL);
  EXPECT_EQ(HashOf(driver::ScenarioFromConfigFile(std::string(
                IOSCHED_CONFIG_DIR) + "/faults.ini")),
            0xca850b22498e25f9ULL);
}

TEST(ConfigHashPin, EvaluationMonths) {
  const std::uint64_t pins[] = {0xa52a5c2c1155ca98ULL, 0xd8fd97e5f86e4144ULL,
                                0xd3e6b9e77ccc580aULL};
  for (int month = 1; month <= 3; ++month) {
    EXPECT_EQ(HashOf(driver::MakeEvaluationScenario(month)), pins[month - 1])
        << "WL" << month;
  }
}

TEST(ConfigHashPin, ExplicitFaultPlan) {
  driver::Scenario scenario = DefaultConfigOverWl1Day();
  scenario.config.burst_buffer = {.capacity_gb = 5000.0, .drain_gbps = 20.0};
  faults::FaultPlan& plan = scenario.config.faults.explicit_plan;
  plan.degradations.push_back({100.0, 900.0, 0.5});
  plan.outages.push_back({200.0, 4000.0, 3});
  plan.bb_faults.push_back({300.0, 700.0, true});
  plan.drain_degradations.push_back({50.0, 650.0, 0.25});
  plan.job_kill_probability = 0.01;
  plan.kill_seed = 7;
  plan.straggler_probability = 0.05;
  plan.straggler_seed = 9;
  plan.job_mtbf_seconds = 7200.0;
  plan.mtbf_seed = 11;
  scenario.config.faults.restart_mode = faults::RestartMode::kRestartFromZero;
  EXPECT_EQ(HashOf(scenario), 0x1afe497e70456248ULL);
}

TEST(ConfigHashPin, ObsEnabled) {
  driver::Scenario scenario = DefaultConfigOverWl1Day();
  scenario.config.obs.enabled = true;
  scenario.config.obs.sample_dt_seconds = 300.0;
  EXPECT_EQ(HashOf(scenario), 0x3a7644fb7ac61b19ULL);
}

}  // namespace
}  // namespace iosched::core
