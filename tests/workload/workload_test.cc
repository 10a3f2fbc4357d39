#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace iosched::workload {
namespace {

constexpr double kNodeBw = 0.03125;  // Mira per-node GB/s

SwfRecord MakeRecord(JobId id, double submit, double runtime, int nodes,
                     double walltime) {
  SwfRecord r;
  r.job_number = id;
  r.submit_time = submit;
  r.run_time = runtime;
  r.allocated_procs = nodes;
  r.requested_procs = nodes;
  r.requested_time = walltime;
  r.status = 1;
  r.user_id = 3;
  r.group_id = 11;
  return r;
}

PairingOptions Opts() {
  PairingOptions o;
  o.node_bandwidth_gbps = kNodeBw;
  return o;
}

TEST(PairTraces, JoinsOnJobId) {
  SwfTrace jobs;
  jobs.records = {MakeRecord(1, 0, 3600, 1024, 7200),
                  MakeRecord(2, 60, 1800, 512, 3600)};
  IoTrace io = {{1, 4, 64.0, 0.0, 0.5}};
  Workload w = PairTraces(jobs, io, Opts());
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].id, 1);
  EXPECT_EQ(w[0].IoPhaseCount(), 4);
  EXPECT_DOUBLE_EQ(w[0].TotalIoVolumeGb(), 64.0);
  // Uncongested runtime must equal the SWF run time.
  EXPECT_NEAR(w[0].UncongestedRuntime(kNodeBw), 3600.0, 1e-9);
  // Job 2 has no I/O record: pure compute.
  EXPECT_EQ(w[1].IoPhaseCount(), 0);
  EXPECT_NEAR(w[1].UncongestedRuntime(kNodeBw), 1800.0, 1e-9);
}

TEST(PairTraces, PreservesProvenance) {
  SwfTrace jobs;
  jobs.records = {MakeRecord(1, 0, 3600, 1024, 7200)};
  Workload w = PairTraces(jobs, {}, Opts());
  EXPECT_EQ(w[0].user_id, 3);
  EXPECT_EQ(w[0].project_id, 11);

  // SWF's -1 ("missing") is an unknown id.
  jobs.records[0].user_id = -1;
  jobs.records[0].group_id = -1;
  w = PairTraces(jobs, {}, Opts());
  EXPECT_EQ(w[0].user_id, -1);
  EXPECT_EQ(w[0].project_id, -1);
}

TEST(PairTraces, RejectsIdsOutsideInt32) {
  SwfTrace jobs;
  jobs.records = {MakeRecord(1, 0, 3600, 1024, 7200)};
  jobs.records[0].user_id = std::int64_t{1} << 31;
  EXPECT_THROW(PairTraces(jobs, {}, Opts()), std::runtime_error);
  jobs.records[0].user_id = 3;
  jobs.records[0].group_id = -(std::int64_t{1} << 31) - 1;
  EXPECT_THROW(PairTraces(jobs, {}, Opts()), std::runtime_error);
  jobs.records[0].group_id = (std::int64_t{1} << 31) - 1;
  EXPECT_EQ(PairTraces(jobs, {}, Opts())[0].project_id, 2147483647);
}

TEST(PairTraces, ClampsInconsistentVolume) {
  SwfTrace jobs;
  // 512 nodes -> full rate 16 GB/s; runtime 100 s; claimed volume 10,000 GB
  // would need 625 s of I/O. Must be clamped to max_io_fraction * runtime.
  jobs.records = {MakeRecord(1, 0, 100, 512, 200)};
  IoTrace io = {{1, 2, 10000.0, 0.0, 0.5}};
  PairingOptions opts = Opts();
  opts.max_io_fraction = 0.9;
  Workload w = PairTraces(jobs, io, opts);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_NEAR(w[0].UncongestedIoSeconds(kNodeBw), 90.0, 1e-9);
  EXPECT_NEAR(w[0].UncongestedRuntime(kNodeBw), 100.0, 1e-9);
  EXPECT_EQ(w[0].Validate(), "");
}

TEST(PairTraces, DuplicateIoRecordThrows) {
  SwfTrace jobs;
  jobs.records = {MakeRecord(1, 0, 100, 512, 200)};
  IoTrace io = {{1, 2, 10.0, 0.0, 0.5}, {1, 3, 20.0, 0.0, 0.5}};
  EXPECT_THROW(PairTraces(jobs, io, Opts()), std::runtime_error);
}

TEST(PairTraces, FiltersInvalidRecords) {
  SwfTrace jobs;
  jobs.records = {MakeRecord(1, 0, 100, 512, 200)};
  jobs.records.push_back(MakeRecord(2, 0, -1, 512, 200));   // no runtime
  jobs.records.push_back(MakeRecord(3, -5, 100, 512, 200)); // bad submit
  SwfRecord no_procs = MakeRecord(4, 0, 100, 512, 200);
  no_procs.allocated_procs = -1;
  no_procs.requested_procs = -1;
  jobs.records.push_back(no_procs);
  Workload w = PairTraces(jobs, {}, Opts());
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].id, 1);
}

TEST(PairTraces, CompletedOnlyFilter) {
  SwfTrace jobs;
  jobs.records = {MakeRecord(1, 0, 100, 512, 200)};
  SwfRecord failed = MakeRecord(2, 0, 100, 512, 200);
  failed.status = 0;
  jobs.records.push_back(failed);
  PairingOptions opts = Opts();
  opts.completed_only = true;
  Workload w = PairTraces(jobs, {}, opts);
  ASSERT_EQ(w.size(), 1u);
}

TEST(PairTraces, SortsBySubmitTime) {
  SwfTrace jobs;
  jobs.records = {MakeRecord(1, 500, 100, 512, 200),
                  MakeRecord(2, 100, 100, 512, 200)};
  Workload w = PairTraces(jobs, {}, Opts());
  EXPECT_EQ(w[0].id, 2);
  EXPECT_EQ(w[1].id, 1);
}

TEST(ApplyExpansionFactorTest, ScalesVolumes) {
  Workload w;
  Job j;
  j.id = 1;
  j.submit_time = 0;
  j.nodes = 512;
  j.requested_walltime = 100;
  j.phases = MakeUniformPhases(90, 32.0, 2);
  w.push_back(j);
  ApplyExpansionFactor(w, 1.5);
  EXPECT_DOUBLE_EQ(w[0].TotalIoVolumeGb(), 48.0);
  ApplyExpansionFactor(w, 0.5);
  EXPECT_DOUBLE_EQ(w[0].TotalIoVolumeGb(), 24.0);
  EXPECT_THROW(ApplyExpansionFactor(w, -0.1), std::invalid_argument);
}

TEST(ComputeStatsTest, AggregatesDemand) {
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Job j;
    j.id = i + 1;
    j.submit_time = i * 1000.0;
    j.nodes = 512;
    j.requested_walltime = 4000;
    j.phases = MakeUniformPhases(3600, 0.0, 0);
    w.push_back(j);
  }
  WorkloadStats stats = ComputeStats(w, 1024, kNodeBw);
  EXPECT_EQ(stats.job_count, 2u);
  EXPECT_DOUBLE_EQ(stats.makespan_seconds, 1000.0);
  EXPECT_DOUBLE_EQ(stats.mean_nodes, 512.0);
  EXPECT_DOUBLE_EQ(stats.mean_runtime_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(stats.total_node_seconds, 2 * 512 * 3600.0);
  EXPECT_DOUBLE_EQ(stats.offered_load, 2 * 512 * 3600.0 / (1024.0 * 1000.0));
}

TEST(ComputeStatsTest, EmptyWorkload) {
  WorkloadStats stats = ComputeStats({}, 1024, kNodeBw);
  EXPECT_EQ(stats.job_count, 0u);
  EXPECT_DOUBLE_EQ(stats.offered_load, 0.0);
}

TEST(RoundTrip, WorkloadToTracesAndBack) {
  Workload original;
  for (int i = 1; i <= 5; ++i) {
    Job j;
    j.id = i;
    j.submit_time = i * 100.0;
    j.nodes = 512 * i;
    j.requested_walltime = 5000;
    j.phases = MakeUniformPhases(3000, i % 2 == 0 ? 64.0 : 0.0, i % 2 == 0 ? 4 : 0);
    j.user_id = 3 + i;
    j.project_id = i % 2 == 0 ? 20 + i : -1;
    original.push_back(j);
  }
  SwfTrace swf = ToSwf(original, kNodeBw);
  IoTrace io = ToIoTrace(original, kNodeBw);
  Workload rebuilt = PairTraces(swf, io, Opts());
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rebuilt[i].id, original[i].id);
    EXPECT_EQ(rebuilt[i].nodes, original[i].nodes);
    EXPECT_NEAR(rebuilt[i].UncongestedRuntime(kNodeBw),
                original[i].UncongestedRuntime(kNodeBw), 1e-6);
    EXPECT_NEAR(rebuilt[i].TotalIoVolumeGb(), original[i].TotalIoVolumeGb(),
                1e-9);
    EXPECT_EQ(rebuilt[i].IoPhaseCount(), original[i].IoPhaseCount());
    EXPECT_EQ(rebuilt[i].user_id, original[i].user_id);
    EXPECT_EQ(rebuilt[i].project_id, original[i].project_id);
  }
}

TEST(ValidateWorkloadTest, ReportsPerJobErrors) {
  Workload w;
  Job good;
  good.id = 1;
  good.submit_time = 0;
  good.nodes = 512;
  good.requested_walltime = 100;
  good.phases = MakeUniformPhases(90, 0, 0);
  Job bad = good;
  bad.id = 2;
  bad.nodes = 0;
  w.push_back(good);
  w.push_back(bad);
  auto errors = ValidateWorkload(w);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("job 2"), std::string::npos);
}

}  // namespace
}  // namespace iosched::workload
