#include "driver/cli_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace iosched::driver {
namespace {

/// Parse `args` against a parser pre-loaded with the shared flag sets.
util::CliParser Parse(const std::vector<const char*>& args) {
  util::CliParser cli("test");
  AddScenarioFlags(cli);
  AddBurstBufferFlags(cli);
  cli.AddBoolFlag("help", "show usage");
  EXPECT_TRUE(cli.Parse(static_cast<int>(args.size()), args.data()))
      << cli.error();
  return cli;
}

TEST(CliFlags, ScenarioFlagsSelectBuiltInWorkload) {
  util::CliParser cli =
      Parse({"--workload", "2", "--days", "0.2", "--bwmax", "30"});
  Scenario scenario = ScenarioFromFlags(cli);
  EXPECT_EQ(scenario.name, "WL2");
  EXPECT_DOUBLE_EQ(scenario.config.storage.max_bandwidth_gbps, 30.0);
  EXPECT_GT(scenario.jobs.size(), 0u);
}

TEST(CliFlags, FactorRenamesAndScalesTheScenario) {
  util::CliParser cli =
      Parse({"--workload", "1", "--days", "0.2", "--factor", "0.5"});
  Scenario scenario = ScenarioFromFlags(cli);
  EXPECT_NE(scenario.name.find("EF=50%"), std::string::npos);
}

TEST(CliFlags, BurstBufferFlagsDefaultToNoBuffer) {
  util::CliParser cli = Parse({"--workload", "1", "--days", "0.2"});
  core::SimulationConfig config;
  ApplyBurstBufferFlags(cli, config);
  EXPECT_FALSE(config.burst_buffer.enabled());
}

TEST(CliFlags, CapacityAlonePullsInTheDrainDefault) {
  util::CliParser cli = Parse({"--bb-capacity", "4000"});
  core::SimulationConfig config;
  ApplyBurstBufferFlags(cli, config);
  EXPECT_TRUE(config.burst_buffer.enabled());
  EXPECT_DOUBLE_EQ(config.burst_buffer.capacity_gb, 4000.0);
  EXPECT_DOUBLE_EQ(config.burst_buffer.drain_gbps, 25.0);
}

TEST(CliFlags, EveryBurstBufferFlagOverridesItsField) {
  util::CliParser cli =
      Parse({"--bb-capacity", "2000", "--bb-drain", "8", "--bb-absorb", "12",
             "--bb-quota", "250", "--bb-watermark", "0.75"});
  core::SimulationConfig config;
  ApplyBurstBufferFlags(cli, config);
  EXPECT_DOUBLE_EQ(config.burst_buffer.capacity_gb, 2000.0);
  EXPECT_DOUBLE_EQ(config.burst_buffer.drain_gbps, 8.0);
  EXPECT_DOUBLE_EQ(config.burst_buffer.absorb_gbps, 12.0);
  EXPECT_DOUBLE_EQ(config.burst_buffer.per_job_quota_gb, 250.0);
  EXPECT_DOUBLE_EQ(config.burst_buffer.congestion_watermark, 0.75);
}

TEST(CliFlags, UnprovidedFlagsPreserveAConfiguredBuffer) {
  util::CliParser cli = Parse({"--bb-quota", "100"});
  core::SimulationConfig config;
  config.burst_buffer.capacity_gb = 512.0;
  config.burst_buffer.drain_gbps = 4.0;
  ApplyBurstBufferFlags(cli, config);
  EXPECT_DOUBLE_EQ(config.burst_buffer.capacity_gb, 512.0);
  EXPECT_DOUBLE_EQ(config.burst_buffer.drain_gbps, 4.0);
  EXPECT_DOUBLE_EQ(config.burst_buffer.per_job_quota_gb, 100.0);
}

TEST(CliFlags, HelpListsTheSharedFlagsOnce) {
  util::CliParser cli("test");
  AddScenarioFlags(cli);
  AddBurstBufferFlags(cli);
  std::string help = cli.Help();
  // Each declaration renders as "\n  --name "; flag names mentioned inside
  // another flag's help prose don't match this pattern.
  for (const char* flag : {"workload", "swf", "bb-capacity", "bb-drain",
                           "bb-absorb", "bb-quota", "bb-watermark"}) {
    std::string decl = std::string("\n  --") + flag + " ";
    std::size_t first = help.find(decl);
    EXPECT_NE(first, std::string::npos) << flag;
    EXPECT_EQ(help.find(decl, first + 1), std::string::npos)
        << flag << " listed twice";
  }
}

}  // namespace
}  // namespace iosched::driver
