// The year replay holds about a million jobs, so their layout sets most of
// its memory. The footprint is pinned by count — struct sizes and phase
// vector capacities — rather than by RSS, so a regression fails the same
// way on every host.
#include <gtest/gtest.h>

#include <cstddef>

#include "driver/scenario.h"
#include "workload/job.h"

namespace iosched::workload {
namespace {

TEST(WorkloadFootprint, YearMonthStaysWithinBytesPerJob) {
  const driver::Scenario scenario = driver::MakeYearScenario(30.0);
  const Workload& jobs = scenario.jobs;
  ASSERT_GT(jobs.size(), 50000u);
  std::size_t bytes = sizeof(Job) * jobs.size();
  for (const Job& job : jobs) bytes += job.phases.capacity() * sizeof(Phase);
  const double per_job =
      static_cast<double>(bytes) / static_cast<double>(jobs.size());
  EXPECT_LE(per_job, 135.0);
}

}  // namespace
}  // namespace iosched::workload
