// SimulationConfig::Validate, the typed ConfigValidationError, and the
// fluent Builder — the fail-fast layer in front of RunSimulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/simulation.h"
#include "driver/scenario.h"

namespace iosched::core {
namespace {

bool HasField(const std::vector<ConfigIssue>& issues,
              const std::string& field) {
  return std::any_of(issues.begin(), issues.end(),
                     [&field](const ConfigIssue& issue) {
                       return issue.field == field;
                     });
}

TEST(ConfigValidation, DefaultConfigIsValid) {
  SimulationConfig config;
  EXPECT_TRUE(config.Validate().empty());
}

TEST(ConfigValidation, CollectsEveryIssueNotJustTheFirst) {
  SimulationConfig config;
  config.storage.max_bandwidth_gbps = -1.0;
  config.policy = "NOT_A_POLICY";
  config.warmup_fraction = 0.8;
  config.cooldown_fraction = 0.5;  // sum >= 1
  auto issues = config.Validate();
  EXPECT_GE(issues.size(), 3u);
  EXPECT_TRUE(HasField(issues, "storage.max_bandwidth_gbps"));
  EXPECT_TRUE(HasField(issues, "policy"));
}

TEST(ConfigValidation, PolicyNamesAreCaseInsensitive) {
  SimulationConfig config;
  config.policy = "adaptive";
  EXPECT_TRUE(config.Validate().empty());
}

TEST(ConfigValidation, BurstBufferFieldsAreChecked) {
  SimulationConfig config;
  config.burst_buffer.capacity_gb = 1000.0;  // capacity without drain
  EXPECT_FALSE(config.Validate().empty());

  config.burst_buffer.drain_gbps = config.storage.max_bandwidth_gbps;
  EXPECT_TRUE(HasField(config.Validate(), "burst_buffer.drain_gbps"));

  config.burst_buffer.drain_gbps = 25.0;
  EXPECT_TRUE(config.Validate().empty());

  config.burst_buffer.congestion_watermark = 1.5;
  EXPECT_TRUE(
      HasField(config.Validate(), "burst_buffer.congestion_watermark"));
}

TEST(ConfigValidation, ErrorIsTypedAndReadable) {
  SimulationConfig config;
  config.policy = "BOGUS";
  config.burst_buffer.capacity_gb = -5.0;
  try {
    throw ConfigValidationError(config.Validate());
  } catch (const std::invalid_argument& e) {  // base-class compatibility
    std::string what = e.what();
    EXPECT_NE(what.find("policy"), std::string::npos);
    EXPECT_NE(what.find("burst_buffer"), std::string::npos);
  }
  try {
    throw ConfigValidationError(config.Validate());
  } catch (const ConfigValidationError& e) {
    EXPECT_EQ(e.issues().size(), config.Validate().size());
  }
}

TEST(ConfigValidation, RunSimulationRejectsInvalidConfigUpFront) {
  driver::Scenario scenario = driver::MakeTestScenario(3, 0.05, 100.0);
  scenario.config.policy = "NOT_A_POLICY";
  scenario.config.burst_buffer.capacity_gb = 10.0;  // and no drain
  try {
    RunSimulation(scenario.config, scenario.jobs);
    FAIL() << "expected ConfigValidationError";
  } catch (const ConfigValidationError& e) {
    EXPECT_GE(e.issues().size(), 2u);
  }
}

TEST(ConfigValidation, FaultGenerationRulesMatchBuildFaultPlan) {
  // Validate applies the same rows BuildFaultPlan does, so a bad generation
  // parameter fails as a typed issue before the engine is built.
  driver::Scenario scenario = driver::MakeTestScenario(3, 0.05, 100.0);
  scenario.config.faults.plan_config.enabled = true;
  scenario.config.faults.plan_config.degraded_window_seconds = 0.0;
  try {
    RunSimulation(scenario.config, scenario.jobs);
    FAIL() << "expected ConfigValidationError";
  } catch (const ConfigValidationError& e) {
    EXPECT_TRUE(
        HasField(e.issues(), "faults.plan_config.degraded_window_seconds"));
  }
  SimulationConfig mtbf;
  mtbf.faults.plan_config.job_mtbf_seconds = -1.0;
  EXPECT_TRUE(HasField(mtbf.Validate(), "faults.plan_config.job_mtbf_seconds"));
}

TEST(ConfigValidation, InvariantCadenceMustBePositiveEvenWhenOff) {
  SimulationConfig config;
  config.check_invariants = false;
  config.invariant_check_every_events = 0;
  EXPECT_TRUE(HasField(config.Validate(), "invariant_check_every_events"));
}

TEST(ConfigBuilder, BuildsAndValidates) {
  SimulationConfig config = SimulationConfig::Builder()
                                .Machine(machine::MachineConfig::Small())
                                .StorageBandwidth(21.0)
                                .Policy("ADAPTIVE")
                                .BurstBuffer({500.0, 5.0})
                                .EnforceWalltime(true)
                                .Build();
  EXPECT_EQ(config.policy, "ADAPTIVE");
  EXPECT_DOUBLE_EQ(config.storage.max_bandwidth_gbps, 21.0);
  EXPECT_TRUE(config.burst_buffer.enabled());
  EXPECT_TRUE(config.enforce_walltime);

  EXPECT_THROW(SimulationConfig::Builder().Policy("BOGUS").Build(),
               ConfigValidationError);
  // Peek never validates.
  EXPECT_EQ(SimulationConfig::Builder().Policy("BOGUS").Peek().policy,
            "BOGUS");
}

TEST(ConfigBuilder, SeedsFromAnExistingConfig) {
  driver::Scenario scenario = driver::MakeTestScenario(3, 0.05, 100.0);
  SimulationConfig tweaked = SimulationConfig::Builder(scenario.config)
                                 .Policy("MAX_UTIL")
                                 .Build();
  EXPECT_EQ(tweaked.policy, "MAX_UTIL");
  EXPECT_DOUBLE_EQ(tweaked.storage.max_bandwidth_gbps,
                   scenario.config.storage.max_bandwidth_gbps);
}

}  // namespace
}  // namespace iosched::core
