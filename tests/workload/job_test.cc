#include "workload/job.h"

#include <gtest/gtest.h>

namespace iosched::workload {
namespace {

Job MakeJob() {
  Job j;
  j.id = 1;
  j.submit_time = 100.0;
  j.nodes = 1024;
  j.requested_walltime = 3600.0;
  j.phases = {Phase::Compute(600.0), Phase::Io(64.0), Phase::Compute(600.0),
              Phase::Io(64.0)};
  return j;
}

TEST(Job, Totals) {
  Job j = MakeJob();
  EXPECT_DOUBLE_EQ(j.TotalComputeSeconds(), 1200.0);
  EXPECT_DOUBLE_EQ(j.TotalIoVolumeGb(), 128.0);
  EXPECT_EQ(j.IoPhaseCount(), 2);
}

TEST(Phase, AccessorsReadOnlyTheirKind) {
  const Phase compute = Phase::Compute(600.0);
  EXPECT_DOUBLE_EQ(compute.compute_seconds(), 600.0);
  EXPECT_EQ(compute.io_volume_gb(), 0.0);
  const Phase io = Phase::Io(64.0);
  EXPECT_EQ(io.compute_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(io.io_volume_gb(), 64.0);
  EXPECT_FALSE(io.is_flush);
  const Phase flush = Phase::Flush(8.0);
  EXPECT_EQ(flush.kind, PhaseKind::kIo);
  EXPECT_TRUE(flush.is_flush);
  EXPECT_EQ(flush.compute_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(flush.io_volume_gb(), 8.0);
}

TEST(Job, ScaleIoVolumeScalesOnlyIo) {
  Job j = MakeJob();
  j.phases.push_back(Phase::Flush(16.0));
  j.ScaleIoVolume(0.25);
  EXPECT_DOUBLE_EQ(j.phases[0].compute_seconds(), 600.0);
  EXPECT_DOUBLE_EQ(j.phases[1].io_volume_gb(), 16.0);
  EXPECT_DOUBLE_EQ(j.phases[2].compute_seconds(), 600.0);
  EXPECT_DOUBLE_EQ(j.phases[3].io_volume_gb(), 16.0);
  EXPECT_DOUBLE_EQ(j.phases[4].io_volume_gb(), 4.0);
  EXPECT_TRUE(j.phases[4].is_flush);
  EXPECT_DOUBLE_EQ(j.TotalComputeSeconds(), 1200.0);
}

TEST(Job, UncongestedTimes) {
  Job j = MakeJob();
  const double b = 0.03125;  // GB/s per node -> full rate 32 GB/s
  EXPECT_DOUBLE_EQ(j.FullIoRate(b), 32.0);
  EXPECT_DOUBLE_EQ(j.UncongestedIoSeconds(b), 4.0);
  EXPECT_DOUBLE_EQ(j.UncongestedRuntime(b), 1204.0);
  EXPECT_NEAR(j.IoFraction(b), 4.0 / 1204.0, 1e-12);
}

TEST(Job, ScaleIoVolume) {
  Job j = MakeJob();
  j.ScaleIoVolume(1.5);
  EXPECT_DOUBLE_EQ(j.TotalIoVolumeGb(), 192.0);
  j.ScaleIoVolume(0.0);
  EXPECT_DOUBLE_EQ(j.TotalIoVolumeGb(), 0.0);
  EXPECT_THROW(j.ScaleIoVolume(-1.0), std::invalid_argument);
}

TEST(Job, ValidateAcceptsGoodJob) {
  EXPECT_EQ(MakeJob().Validate(), "");
}

TEST(Job, ValidateRejectsBadFields) {
  Job j = MakeJob();
  j.nodes = 0;
  EXPECT_NE(j.Validate(), "");

  j = MakeJob();
  j.submit_time = -1;
  EXPECT_NE(j.Validate(), "");

  j = MakeJob();
  j.requested_walltime = 0;
  EXPECT_NE(j.Validate(), "");

  j = MakeJob();
  j.phases.clear();
  EXPECT_NE(j.Validate(), "");

  j = MakeJob();
  j.phases[1].amount = -5;
  EXPECT_NE(j.Validate(), "");

  j = MakeJob();
  j.phases[0].amount = -5;
  EXPECT_NE(j.Validate(), "");
}

TEST(Job, ValidateRejectsNonAlternatingPhases) {
  Job j = MakeJob();
  j.phases = {Phase::Compute(10), Phase::Compute(10)};
  EXPECT_NE(j.Validate(), "");
  j.phases = {Phase::Io(10), Phase::Io(10)};
  EXPECT_NE(j.Validate(), "");
  j.phases = {Phase::Io(10), Phase::Compute(10), Phase::Io(5)};
  EXPECT_EQ(j.Validate(), "");  // alternation can start with I/O
}

TEST(MakeUniformPhasesTest, EvenSplit) {
  auto phases = MakeUniformPhases(1000.0, 50.0, 5);
  ASSERT_EQ(phases.size(), 10u);
  for (std::size_t i = 0; i < phases.size(); i += 2) {
    EXPECT_EQ(phases[i].kind, PhaseKind::kCompute);
    EXPECT_DOUBLE_EQ(phases[i].compute_seconds(), 200.0);
    EXPECT_EQ(phases[i + 1].kind, PhaseKind::kIo);
    EXPECT_DOUBLE_EQ(phases[i + 1].io_volume_gb(), 10.0);
  }
}

TEST(MakeUniformPhasesTest, NoIoBecomesPureCompute) {
  auto phases = MakeUniformPhases(500.0, 0.0, 3);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].kind, PhaseKind::kCompute);
  EXPECT_DOUBLE_EQ(phases[0].compute_seconds(), 500.0);

  auto phases2 = MakeUniformPhases(500.0, 10.0, 0);
  ASSERT_EQ(phases2.size(), 1u);
}

TEST(MakeUniformPhasesTest, NegativeTotalsThrow) {
  EXPECT_THROW(MakeUniformPhases(-1.0, 10.0, 2), std::invalid_argument);
  EXPECT_THROW(MakeUniformPhases(10.0, -1.0, 2), std::invalid_argument);
}

TEST(MakeUniformPhasesTest, TotalsPreserved) {
  for (int n : {1, 2, 7, 33}) {
    auto phases = MakeUniformPhases(977.5, 123.25, n);
    double compute = 0;
    double io = 0;
    for (const Phase& p : phases) {
      compute += p.compute_seconds();
      io += p.io_volume_gb();
    }
    EXPECT_NEAR(compute, 977.5, 1e-9);
    EXPECT_NEAR(io, 123.25, 1e-9);
  }
}

}  // namespace
}  // namespace iosched::workload
