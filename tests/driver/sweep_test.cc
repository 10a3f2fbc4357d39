#include "driver/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/scenario.h"
#include "util/thread_pool.h"

namespace iosched::driver {
namespace {

namespace fs = std::filesystem;

Scenario SmallScenario() {
  return MakeTestScenario(/*seed=*/11, /*duration_days=*/0.15,
                          /*jobs_per_day=*/160.0);
}

/// Field names of every issue, for order-insensitive membership checks.
std::vector<std::string> Fields(const std::vector<core::ConfigIssue>& issues) {
  std::vector<std::string> fields;
  for (const auto& issue : issues) fields.push_back(issue.field);
  return fields;
}

TEST(SweepSpec, ValidateReportsEveryProblem) {
  SweepSpec spec;  // no scenario, no policies
  spec.expansion_factors = {0.5, -1.0};
  spec.bb_capacities_gb = {0.0, -2.0};
  auto fields = Fields(spec.Validate());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "scenario"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "policies"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "expansion_factors"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "bb_capacities_gb"),
            fields.end());
}

TEST(SweepSpec, ValidateChecksPolicyNamesAndBbKnobs) {
  Scenario scenario = SmallScenario();
  SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = {"ADAPTIVE", "NOT_A_POLICY"};
  spec.bb_capacities_gb = {500.0};
  spec.bb_drain_gbps = 0.0;  // required when a capacity is enabled
  spec.bb_congestion_watermark = 1.5;
  auto fields = Fields(spec.Validate());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "policies"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "bb_drain_gbps"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(),
                      "bb_congestion_watermark"),
            fields.end());

  // A drain at/above the scenario's BWmax is also rejected.
  spec.bb_drain_gbps = scenario.config.storage.max_bandwidth_gbps;
  spec.bb_congestion_watermark = 0.9;
  fields = Fields(spec.Validate());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "bb_drain_gbps"),
            fields.end());
}

TEST(SweepSpec, ValidateNamesTheSpecFieldOfEachBrokenBbRow) {
  Scenario scenario = SmallScenario();
  SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = {"ADAPTIVE"};
  spec.bb_capacities_gb = {500.0};
  spec.bb_drain_gbps = 5.0;
  spec.bb_absorb_gbps = -1.0;
  spec.bb_per_job_quota_gb = -2.0;
  spec.bb_congestion_watermark = 0.0;
  std::vector<core::ConfigIssue> issues = spec.Validate();
  ASSERT_EQ(issues.size(), 3u);
  EXPECT_EQ(issues[0].field, "bb_absorb_gbps");
  EXPECT_EQ(issues[0].message, "must be >= 0");
  EXPECT_EQ(issues[1].field, "bb_per_job_quota_gb");
  EXPECT_EQ(issues[2].field, "bb_congestion_watermark");
  EXPECT_EQ(issues[2].message, "must be in (0, 1]");

  // With every capacity off the knobs are unused and not checked.
  spec.bb_capacities_gb = {0.0};
  EXPECT_TRUE(spec.Validate().empty());
}

TEST(RunSweep, InvalidSpecThrowsTypedError) {
  SweepSpec spec;
  try {
    RunSweep(spec);
    FAIL() << "expected ConfigValidationError";
  } catch (const core::ConfigValidationError& e) {
    EXPECT_FALSE(e.issues().empty());
  }
}

TEST(RunSweep, MinimalSpecIsOneRun) {
  Scenario scenario = SmallScenario();
  SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = {"FCFS"};
  SweepResult result = RunSweep(spec);
  EXPECT_EQ(result.ef_count(), 1u);
  EXPECT_EQ(result.bb_count(), 1u);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].policy, "FCFS");
  EXPECT_EQ(result.runs[0].scenario, scenario.name);  // axis collapsed
  EXPECT_GT(result.runs[0].report.job_count, 0u);
}

TEST(RunSweep, BbAxisIsRowMajorAndNamed) {
  Scenario scenario = SmallScenario();
  SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = {"BASE_LINE", "ADAPTIVE"};
  spec.bb_capacities_gb = {0.0, 400.0};
  spec.bb_drain_gbps = 5.0;
  util::ThreadPool pool;
  spec.pool = &pool;
  SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.At(0, 0, 0).scenario, scenario.name + "/BB=off");
  EXPECT_EQ(result.At(0, 1, 1).scenario, scenario.name + "/BB=400GB");
  EXPECT_EQ(result.At(0, 1, 1).policy, "ADAPTIVE");
  EXPECT_DOUBLE_EQ(result.At(0, 0, 0).bb_capacity_gb, 0.0);
  EXPECT_DOUBLE_EQ(result.At(0, 1, 0).bb_capacity_gb, 400.0);
  // The disabled variant reports no buffer activity; the enabled one
  // absorbs something on this congested workload.
  EXPECT_EQ(result.At(0, 0, 0).bb_absorbed_requests, 0u);
  EXPECT_GT(result.At(0, 1, 0).bb_absorbed_requests, 0u);
  EXPECT_THROW(result.At(0, 2, 0), std::out_of_range);
  EXPECT_THROW(result.At(1, 0, 0), std::out_of_range);

  util::Table table = BbCapacityTable(result);
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("off"), std::string::npos);
  EXPECT_NE(rendered.find("400GB"), std::string::npos);
  EXPECT_NE(rendered.find("ADAPTIVE"), std::string::npos);
}

TEST(RunSweep, MatchesPerCellRunSingle) {
  // A one-axis sweep is exactly RunSingle per cell, in policy order.
  Scenario scenario = SmallScenario();
  std::vector<std::string> policies = {"FCFS", "MAX_UTIL"};
  SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = policies;
  SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.runs.size(), policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    PolicyRun single = RunSingle(scenario, policies[i]);
    EXPECT_EQ(result.runs[i].policy, single.policy);
    EXPECT_EQ(result.runs[i].scenario, single.scenario);
    EXPECT_DOUBLE_EQ(result.runs[i].report.avg_wait_seconds,
                     single.report.avg_wait_seconds);
  }
}

TEST(RunSweep, ResumableBbSweepReloadsBbStatistics) {
  Scenario scenario = SmallScenario();
  fs::path root = fs::path(testing::TempDir()) / "sweep_resumable_bb";
  fs::remove_all(root);

  SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = {"ADAPTIVE"};
  spec.bb_capacities_gb = {400.0};
  spec.bb_drain_gbps = 5.0;
  ResumableRunner::Options options;
  options.root_directory = root.string();
  spec.resumable = options;

  SweepResult first = RunSweep(spec);
  ASSERT_EQ(first.runs.size(), 1u);
  EXPECT_GT(first.runs[0].bb_absorbed_requests, 0u);
  EXPECT_GT(first.runs[0].wall_seconds, 0.0);

  // Second invocation reuses the stored outcome (wall_seconds == 0) and
  // must reproduce the burst-buffer statistics from the outcome file.
  SweepResult second = RunSweep(spec);
  ASSERT_EQ(second.runs.size(), 1u);
  EXPECT_DOUBLE_EQ(second.runs[0].wall_seconds, 0.0);
  EXPECT_EQ(second.runs[0].bb_absorbed_requests,
            first.runs[0].bb_absorbed_requests);
  EXPECT_EQ(second.runs[0].bb_spilled_requests,
            first.runs[0].bb_spilled_requests);
  EXPECT_DOUBLE_EQ(second.runs[0].bb_absorbed_gb,
                   first.runs[0].bb_absorbed_gb);
  EXPECT_DOUBLE_EQ(second.runs[0].bb_peak_queued_gb,
                   first.runs[0].bb_peak_queued_gb);
  EXPECT_DOUBLE_EQ(second.runs[0].bb_mean_occupancy,
                   first.runs[0].bb_mean_occupancy);
  fs::remove_all(root);
}

TEST(BbCapacityTable, RejectsEmptyResult) {
  SweepResult empty;
  EXPECT_THROW(BbCapacityTable(empty), std::invalid_argument);
}

}  // namespace
}  // namespace iosched::driver
