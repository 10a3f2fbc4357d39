// WorkloadFingerprint covers every semantic field of every job, in workload
// order: a checkpoint resumed against a workload that differs anywhere must
// see a different fingerprint (and so a different config hash).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload.h"

namespace iosched::workload {
namespace {

/// Three hand-built jobs: a plain compute/I/O job, one with a flush phase,
/// and one with unknown provenance (-1 ids).
Workload ThreeJobs() {
  Workload jobs(3);
  Job& a = jobs[0];
  a.id = 1;
  a.submit_time = 0.0;
  a.nodes = 512;
  a.requested_walltime = 3600.0;
  a.io_efficiency = 0.5;
  a.user_id = 1;
  a.project_id = 1;
  a.phases = {Phase::Compute(600.0), Phase::Io(40.0), Phase::Compute(300.0)};

  Job& b = jobs[1];
  b.id = 2;
  b.submit_time = 120.5;
  b.nodes = 1024;
  b.requested_walltime = 7200.0;
  b.io_efficiency = 0.25;
  b.user_id = 2;
  b.project_id = 1;
  b.phases = {Phase::Compute(900.0), Phase::Flush(80.0),
              Phase::Compute(900.0), Phase::Io(10.0)};

  Job& c = jobs[2];
  c.id = 7;
  c.submit_time = 4000.0;
  c.nodes = 2048;
  c.requested_walltime = 1800.0;
  c.io_efficiency = 1.0;
  c.user_id = -1;
  c.project_id = -1;
  c.phases = {Phase::Compute(1200.0)};
  return jobs;
}

/// One edit per semantic field, each applied to every job in turn.
std::vector<std::pair<std::string, std::function<void(Job&)>>> FieldEdits() {
  return {
      {"id", [](Job& j) { j.id += 100; }},
      {"submit_time", [](Job& j) { j.submit_time += 1.0; }},
      {"nodes", [](Job& j) { j.nodes *= 2; }},
      {"requested_walltime", [](Job& j) { j.requested_walltime += 60.0; }},
      {"io_efficiency", [](Job& j) { j.io_efficiency *= 0.5; }},
      {"user_id", [](Job& j) { j.user_id += 1; }},
      {"project_id", [](Job& j) { j.project_id ^= 0x40000000; }},
      {"phase kind",
       [](Job& j) {
         Phase& p = j.phases[0];
         p.kind = p.kind == PhaseKind::kIo ? PhaseKind::kCompute
                                           : PhaseKind::kIo;
       }},
      {"is_flush",
       [](Job& j) { j.phases.back().is_flush = !j.phases.back().is_flush; }},
      {"first amount", [](Job& j) { j.phases[0].amount += 1.0; }},
      {"last amount", [](Job& j) { j.phases.back().amount += 1.0; }},
      {"phase count", [](Job& j) { j.phases.push_back(Phase::Io(0.0)); }},
  };
}

TEST(WorkloadFingerprint, EveryFieldOfEveryJobChangesTheValue) {
  const Workload base = ThreeJobs();
  const std::uint64_t reference = WorkloadFingerprint(base);
  for (const auto& [name, edit] : FieldEdits()) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      Workload changed = base;
      edit(changed[i]);
      EXPECT_NE(WorkloadFingerprint(changed), reference)
          << name << " of job " << i;
    }
  }
}

TEST(WorkloadFingerprint, EveryBitOfTheProvenanceIdsCounts) {
  const Workload base = ThreeJobs();
  const std::uint64_t reference = WorkloadFingerprint(base);
  for (std::int32_t Job::*id : {&Job::user_id, &Job::project_id}) {
    for (int bit = 0; bit < 32; ++bit) {
      Workload changed = base;
      changed[0].*id = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(changed[0].*id) ^ (1u << bit));
      EXPECT_NE(WorkloadFingerprint(changed), reference) << "bit " << bit;
    }
  }
}

/// The fingerprint of ThreeJobs() with job 0's `*id` replaced.
std::uint64_t WithId(std::int32_t Job::*id, std::int32_t value) {
  Workload jobs = ThreeJobs();
  jobs[0].*id = value;
  return WorkloadFingerprint(jobs);
}

TEST(WorkloadFingerprint, UnknownIdDiffersFromZero) {
  for (std::int32_t Job::*id : {&Job::user_id, &Job::project_id}) {
    EXPECT_NE(WithId(id, -1), WithId(id, 0));
  }
}

TEST(WorkloadFingerprint, UserAndProjectIdsAreNotInterchangeable) {
  auto with_ids = [](std::int32_t user, std::int32_t project) {
    Workload jobs = ThreeJobs();
    jobs[0].user_id = user;
    jobs[0].project_id = project;
    return WorkloadFingerprint(jobs);
  };
  EXPECT_NE(with_ids(5, 9), with_ids(9, 5));
}

TEST(WorkloadFingerprint, JobOrderCounts) {
  const Workload base = ThreeJobs();
  Workload swapped = base;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(WorkloadFingerprint(swapped), WorkloadFingerprint(base));
}

TEST(WorkloadFingerprint, DoublesAreMixedByBitPattern) {
  Workload positive = ThreeJobs();
  Workload negative = positive;
  positive[0].submit_time = 0.0;
  negative[0].submit_time = -0.0;
  EXPECT_NE(WorkloadFingerprint(positive), WorkloadFingerprint(negative));
}

TEST(WorkloadFingerprint, EqualWorkloadsAgree) {
  EXPECT_EQ(WorkloadFingerprint(ThreeJobs()), WorkloadFingerprint(ThreeJobs()));
  EXPECT_NE(WorkloadFingerprint({}), WorkloadFingerprint(ThreeJobs()));
}

// Checkpoints carry this value inside their config hash, so a change to it
// must come with a checkpoint format bump.
TEST(WorkloadFingerprint, PinnedForAHandBuiltWorkload) {
  EXPECT_EQ(WorkloadFingerprint(ThreeJobs()), 0x6a1e5e96f08fb9f9ULL);
}

}  // namespace
}  // namespace iosched::workload
