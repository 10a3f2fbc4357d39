#include "workload/app_checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/job.h"
#include "workload/workload.h"

namespace iosched::workload {
namespace {

constexpr double kNodeBandwidth = 0.5;  // GB/s per node

Job MakeJob(JobId id, int nodes, double compute_seconds, double io_gb,
            int io_phases = 1) {
  Job job;
  job.id = id;
  job.nodes = nodes;
  job.requested_walltime = compute_seconds * 2.0;
  job.io_efficiency = 1.0;
  job.phases = MakeUniformPhases(compute_seconds, io_gb, io_phases);
  return job;
}

AppCheckpointConfig OneClassConfig(double gb_per_node) {
  AppCheckpointConfig config;
  config.enabled = true;
  config.mtbf_seconds = 4.0 * 3600.0;
  config.classes = {{gb_per_node, 1.0}};
  config.min_interval_seconds = 120.0;
  config.min_compute_seconds = 300.0;
  return config;
}

std::size_t FlushCount(const Job& job) {
  std::size_t flushes = 0;
  for (const Phase& phase : job.phases) {
    if (phase.is_flush) ++flushes;
  }
  return flushes;
}

TEST(YoungDalyIntervalTest, MatchesClosedForm) {
  // tau = sqrt(2 * C * MTBF).
  EXPECT_DOUBLE_EQ(YoungDalyInterval(50.0, 14400.0),
                   std::sqrt(2.0 * 50.0 * 14400.0));
  EXPECT_DOUBLE_EQ(YoungDalyInterval(0.0, 14400.0), 0.0);
  EXPECT_DOUBLE_EQ(YoungDalyInterval(50.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(YoungDalyInterval(-1.0, 14400.0), 0.0);
}

TEST(ApplyCheckpointTrafficTest, DisabledConfigIsNoOp) {
  Workload workload = {MakeJob(1, 64, 7200.0, 100.0)};
  Workload original = workload;
  AppCheckpointConfig config;  // enabled = false
  ApplyCheckpointTraffic(workload, config, kNodeBandwidth);
  ASSERT_EQ(workload.size(), original.size());
  ASSERT_EQ(workload[0].phases.size(), original[0].phases.size());
  for (std::size_t i = 0; i < workload[0].phases.size(); ++i) {
    EXPECT_FALSE(workload[0].phases[i].is_flush);
    EXPECT_DOUBLE_EQ(workload[0].phases[i].compute_seconds(),
                     original[0].phases[i].compute_seconds());
    EXPECT_DOUBLE_EQ(workload[0].phases[i].io_volume_gb(),
                     original[0].phases[i].io_volume_gb());
  }
}

TEST(ApplyCheckpointTrafficTest, InsertsFlushesAtYoungDalyIntervals) {
  // 64 nodes * 2 GB/node = 128 GB per flush at 32 GB/s full rate -> C = 4 s;
  // tau = sqrt(2 * 4 * 14400) = 339.4 s over 7200 s of compute -> 21
  // interior boundaries.
  Workload workload = {MakeJob(1, 64, 7200.0, 100.0)};
  AppCheckpointConfig config = OneClassConfig(2.0);
  ApplyCheckpointTraffic(workload, config, kNodeBandwidth);

  const Job& job = workload[0];
  double flush_gb = 2.0 * 64;
  double tau = YoungDalyInterval(flush_gb / job.FullIoRate(kNodeBandwidth),
                                 config.mtbf_seconds);
  auto expected =
      static_cast<std::size_t>(std::floor(7200.0 / tau - 1e-9));
  EXPECT_EQ(FlushCount(job), expected);
  for (const Phase& phase : job.phases) {
    if (phase.is_flush) {
      EXPECT_DOUBLE_EQ(phase.io_volume_gb(), flush_gb);
    }
  }
  // The rewrite conserves work: total compute unchanged, original I/O
  // volume still present underneath the added flush volume.
  EXPECT_NEAR(job.TotalComputeSeconds(), 7200.0, 1e-6);
  EXPECT_NEAR(job.TotalIoVolumeGb(),
              100.0 + static_cast<double>(expected) * flush_gb, 1e-6);
  EXPECT_TRUE(job.Validate().empty()) << job.Validate();
}

TEST(ApplyCheckpointTrafficTest, IntervalClampedBelow) {
  // A tiny MTBF would give tau ~ 34 s; the clamp keeps it at 120 s, so a
  // 1200 s job gets at most floor(1200/120) boundaries instead of ~35.
  Workload workload = {MakeJob(1, 64, 1200.0, 10.0)};
  AppCheckpointConfig config = OneClassConfig(2.0);
  config.mtbf_seconds = 36.0;
  ApplyCheckpointTraffic(workload, config, kNodeBandwidth);
  EXPECT_GE(FlushCount(workload[0]), 8u);
  EXPECT_LE(FlushCount(workload[0]), 10u);
  EXPECT_TRUE(workload[0].Validate().empty());
}

TEST(ApplyCheckpointTrafficTest, ShortJobsSkipped) {
  Workload workload = {MakeJob(1, 64, 200.0, 10.0),     // below min_compute
                       MakeJob(2, 64, 7200.0, 10.0)};   // long enough
  AppCheckpointConfig config = OneClassConfig(2.0);
  ApplyCheckpointTraffic(workload, config, kNodeBandwidth);
  EXPECT_EQ(FlushCount(workload[0]), 0u);
  EXPECT_GT(FlushCount(workload[1]), 0u);
}

TEST(ApplyCheckpointTrafficTest, NoRoomForBoundaryLeavesJobAlone) {
  // tau >= total compute: the job would flush only at its natural end.
  Workload workload = {MakeJob(1, 64, 400.0, 10.0)};
  AppCheckpointConfig config = OneClassConfig(2.0);
  config.min_interval_seconds = 500.0;
  config.min_compute_seconds = 300.0;
  ApplyCheckpointTraffic(workload, config, kNodeBandwidth);
  EXPECT_EQ(FlushCount(workload[0]), 0u);
  ASSERT_EQ(workload[0].phases.size(), 2u);
}

TEST(ApplyCheckpointTrafficTest, PhasesKeepAlternatingAroundOriginalIo) {
  // Multiple original I/O phases: flush boundaries that land at a phase
  // seam are carried into the next compute phase, so the rewritten list
  // still validates (strict compute/I/O alternation).
  Workload workload = {MakeJob(1, 128, 10800.0, 600.0, /*io_phases=*/6)};
  AppCheckpointConfig config = OneClassConfig(8.0);
  ApplyCheckpointTraffic(workload, config, kNodeBandwidth);
  const Job& job = workload[0];
  EXPECT_GT(FlushCount(job), 0u);
  EXPECT_TRUE(job.Validate().empty()) << job.Validate();
  EXPECT_NEAR(job.TotalComputeSeconds(), 10800.0, 1e-6);
}

TEST(ApplyCheckpointTrafficTest, DeterministicAcrossRuns) {
  auto build = [] {
    Workload workload;
    for (JobId id = 1; id <= 40; ++id) {
      workload.push_back(
          MakeJob(id, 32 + static_cast<int>(id) * 8,
                  3600.0 + 100.0 * static_cast<double>(id), 50.0));
    }
    AppCheckpointConfig config;
    config.enabled = true;
    config.seed = 7;
    ApplyCheckpointTraffic(workload, config, kNodeBandwidth);
    return workload;
  };
  Workload a = build();
  Workload b = build();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].phases.size(), b[i].phases.size()) << "job " << a[i].id;
    for (std::size_t p = 0; p < a[i].phases.size(); ++p) {
      EXPECT_EQ(a[i].phases[p].is_flush, b[i].phases[p].is_flush);
      EXPECT_DOUBLE_EQ(a[i].phases[p].io_volume_gb(),
                       b[i].phases[p].io_volume_gb());
    }
  }
}

TEST(ApplyCheckpointTrafficTest, SkippedJobsDoNotShiftLaterClassDraws) {
  // One RNG draw per job, unconditionally: making job 1 too short to flush
  // must not change which class job 2 draws. With a multi-class menu, job
  // 2's flush volume is the fingerprint of its draw.
  AppCheckpointConfig config;
  config.enabled = true;
  config.seed = 3;
  config.classes = {{0.5, 1.0}, {2.0, 1.0}, {8.0, 1.0}};

  auto second_job_flush_gb = [&config](double first_compute) {
    Workload workload = {MakeJob(1, 64, first_compute, 10.0),
                        MakeJob(2, 64, 7200.0, 10.0)};
    ApplyCheckpointTraffic(workload, config, kNodeBandwidth);
    for (const Phase& phase : workload[1].phases) {
      if (phase.is_flush) return phase.io_volume_gb();
    }
    return 0.0;
  };

  double with_long_first = second_job_flush_gb(7200.0);
  double with_short_first = second_job_flush_gb(60.0);
  EXPECT_GT(with_long_first, 0.0);
  EXPECT_DOUBLE_EQ(with_long_first, with_short_first);
}

TEST(ApplyCheckpointTrafficTest, InvalidConfigThrows) {
  Workload workload = {MakeJob(1, 64, 7200.0, 10.0)};
  AppCheckpointConfig config = OneClassConfig(2.0);
  config.mtbf_seconds = 0.0;
  EXPECT_THROW(ApplyCheckpointTraffic(workload, config, kNodeBandwidth),
               std::invalid_argument);
  config = OneClassConfig(2.0);
  config.classes.clear();
  EXPECT_THROW(ApplyCheckpointTraffic(workload, config, kNodeBandwidth),
               std::invalid_argument);
  config = OneClassConfig(-2.0);
  EXPECT_THROW(ApplyCheckpointTraffic(workload, config, kNodeBandwidth),
               std::invalid_argument);
  config = OneClassConfig(2.0);
  EXPECT_THROW(ApplyCheckpointTraffic(workload, config, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace iosched::workload
