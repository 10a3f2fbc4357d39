#include "workload/transforms.h"

#include <gtest/gtest.h>

namespace iosched::workload {
namespace {

Workload MakeJobs() {
  Workload jobs;
  for (int i = 0; i < 10; ++i) {
    Job j;
    j.id = 100 + i;
    j.submit_time = i * 100.0;
    j.nodes = (i % 2) ? 512 : 4096;
    j.requested_walltime = 1000;
    j.phases = {Phase::Compute(500)};
    jobs.push_back(j);
  }
  return jobs;
}

TEST(TimeSliceTest, KeepsWindowAndRebases) {
  Workload sliced = TimeSlice(MakeJobs(), 250.0, 650.0);
  ASSERT_EQ(sliced.size(), 4u);  // submits at 300,400,500,600
  EXPECT_EQ(sliced[0].id, 103);
  EXPECT_DOUBLE_EQ(sliced[0].submit_time, 0.0);
  EXPECT_DOUBLE_EQ(sliced[3].submit_time, 300.0);
}

TEST(TimeSliceTest, EmptyWindowAndNoMatches) {
  EXPECT_THROW(TimeSlice(MakeJobs(), 100.0, 100.0), std::invalid_argument);
  EXPECT_TRUE(TimeSlice(MakeJobs(), 5000.0, 6000.0).empty());
}

TEST(ScaleLoadTest, CompressesArrivals) {
  Workload scaled = ScaleLoad(MakeJobs(), 2.0);
  ASSERT_EQ(scaled.size(), 10u);
  EXPECT_DOUBLE_EQ(scaled[1].submit_time, 50.0);
  EXPECT_DOUBLE_EQ(scaled[9].submit_time, 450.0);
  // Runtimes untouched.
  EXPECT_DOUBLE_EQ(scaled[1].TotalComputeSeconds(), 500.0);
  EXPECT_THROW(ScaleLoad(MakeJobs(), 0.0), std::invalid_argument);
}

TEST(ScaleLoadTest, DoublesOfferedLoad) {
  Workload base = MakeJobs();
  Workload scaled = ScaleLoad(base, 2.0);
  WorkloadStats before = ComputeStats(base, 8192, 0.03125);
  WorkloadStats after = ComputeStats(scaled, 8192, 0.03125);
  EXPECT_NEAR(after.offered_load, before.offered_load * 2.0,
              before.offered_load * 1e-9);
}

TEST(FilterBySizeTest, KeepsRange) {
  Workload small = FilterBySize(MakeJobs(), 1, 1024);
  ASSERT_EQ(small.size(), 5u);
  for (const Job& j : small) EXPECT_EQ(j.nodes, 512);
  EXPECT_THROW(FilterBySize(MakeJobs(), 10, 5), std::invalid_argument);
  EXPECT_TRUE(FilterBySize(MakeJobs(), 100000, 200000).empty());
}

TEST(RenumberTest, DenseIdsInSubmitOrder) {
  Workload jobs = MakeJobs();
  std::reverse(jobs.begin(), jobs.end());
  Workload renumbered = Renumber(jobs);
  for (std::size_t i = 0; i < renumbered.size(); ++i) {
    EXPECT_EQ(renumbered[i].id, static_cast<JobId>(i + 1));
    EXPECT_DOUBLE_EQ(renumbered[i].submit_time,
                     static_cast<double>(i) * 100.0);
  }
  // Input untouched.
  EXPECT_EQ(jobs.front().id, 109);
}

}  // namespace
}  // namespace iosched::workload
