// Cross-module accounting consistency: the utilization the simulation
// reports must agree with an independent reconstruction from the per-job
// records, and per-job time decompositions must add up.
#include <gtest/gtest.h>

#include "core/simulation.h"
#include "driver/scenario.h"
#include "metrics/timeline.h"

namespace iosched {
namespace {

TEST(Accounting, UtilizationMatchesRecordReconstruction) {
  driver::Scenario scenario =
      driver::MakeTestScenario(21, /*duration_days=*/1.0,
                               /*jobs_per_day=*/200.0);
  for (const char* policy : {"BASE_LINE", "ADAPTIVE", "MAX_UTIL"}) {
    core::SimulationConfig config = scenario.config;
    config.policy = policy;
    config.warmup_fraction = 0.0;
    config.cooldown_fraction = 0.0;
    core::SimulationResult result =
        core::RunSimulation(config, scenario.jobs);

    // Reconstruct busy node-seconds from the records.
    double node_seconds = 0.0;
    double first = result.records.front().start_time;
    double last = result.records.front().end_time;
    for (const metrics::JobRecord& r : result.records) {
      node_seconds += static_cast<double>(r.allocated_nodes) * r.Runtime();
      first = std::min(first, r.start_time);
      last = std::max(last, r.end_time);
    }
    double reconstructed =
        node_seconds /
        (static_cast<double>(config.machine.total_nodes()) * (last - first));
    // The tracker's window starts at the first scheduling pass (the first
    // submission), slightly before the first start; tolerate a few percent.
    EXPECT_NEAR(result.report.utilization, reconstructed,
                reconstructed * 0.05)
        << policy;
  }
}

TEST(Accounting, PerJobTimeDecompositionAddsUp) {
  driver::Scenario scenario =
      driver::MakeTestScenario(22, /*duration_days=*/0.5,
                               /*jobs_per_day=*/180.0);
  core::SimulationConfig config = scenario.config;
  config.policy = "MIN_AGGR_SLD";
  core::SimulationResult result = core::RunSimulation(config, scenario.jobs);
  std::map<workload::JobId, const workload::Job*> by_id;
  for (const workload::Job& j : scenario.jobs) by_id[j.id] = &j;
  for (const metrics::JobRecord& r : result.records) {
    const workload::Job& j = *by_id.at(r.id);
    // runtime == compute + actual I/O time (phases are sequential).
    EXPECT_NEAR(r.Runtime(),
                j.TotalComputeSeconds() + r.io_time_actual, 1e-6);
    // Reported uncongested time matches the job's own definition.
    EXPECT_NEAR(r.uncongested_runtime,
                j.UncongestedRuntime(config.machine.node_bandwidth_gbps),
                1e-9);
  }
}

TEST(Accounting, OccupancyTimelineAgreesWithUtilization) {
  driver::Scenario scenario =
      driver::MakeTestScenario(23, /*duration_days=*/0.5,
                               /*jobs_per_day=*/200.0);
  core::SimulationConfig config = scenario.config;
  config.policy = "BASE_LINE";
  config.warmup_fraction = 0.0;
  config.cooldown_fraction = 0.0;
  core::SimulationResult result = core::RunSimulation(config, scenario.jobs);
  metrics::TimelineSeries series = metrics::OccupancyTimeline(
      result.records, config.machine.total_nodes(), 600.0);
  double mean = 0.0;
  for (double v : series.values) mean += v;
  mean /= static_cast<double>(series.values.size());
  EXPECT_NEAR(mean, result.report.utilization, 0.06);
}

}  // namespace
}  // namespace iosched
