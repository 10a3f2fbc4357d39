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
/// and one with long provenance strings (more than one 8-byte chunk).
Workload ThreeJobs() {
  Workload jobs(3);
  Job& a = jobs[0];
  a.id = 1;
  a.submit_time = 0.0;
  a.nodes = 512;
  a.requested_walltime = 3600.0;
  a.io_efficiency = 0.5;
  a.user = "u1";
  a.project = "p1";
  a.phases = {Phase::Compute(600.0), Phase::Io(40.0), Phase::Compute(300.0)};

  Job& b = jobs[1];
  b.id = 2;
  b.submit_time = 120.5;
  b.nodes = 1024;
  b.requested_walltime = 7200.0;
  b.io_efficiency = 0.25;
  b.user = "u2";
  b.project = "p1";
  b.phases = {Phase::Compute(900.0), Phase::Flush(80.0),
              Phase::Compute(900.0), Phase::Io(10.0)};

  Job& c = jobs[2];
  c.id = 7;
  c.submit_time = 4000.0;
  c.nodes = 2048;
  c.requested_walltime = 1800.0;
  c.io_efficiency = 1.0;
  c.user = "climate_modeling_user";
  c.project = "exascale_project";
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
      {"user", [](Job& j) { j.user.push_back('x'); }},
      {"project", [](Job& j) { j.project[0] = 'q'; }},
      {"phase kind",
       [](Job& j) {
         Phase& p = j.phases[0];
         p.kind = p.kind == PhaseKind::kIo ? PhaseKind::kCompute
                                           : PhaseKind::kIo;
       }},
      {"is_flush",
       [](Job& j) { j.phases.back().is_flush = !j.phases.back().is_flush; }},
      {"compute_seconds", [](Job& j) { j.phases[0].compute_seconds += 1.0; }},
      {"io_volume_gb", [](Job& j) { j.phases.back().io_volume_gb += 1.0; }},
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

TEST(WorkloadFingerprint, EveryByteOfTheProvenanceStringsCounts) {
  const Workload base = ThreeJobs();
  const std::uint64_t reference = WorkloadFingerprint(base);
  for (std::string Job::*text : {&Job::user, &Job::project}) {
    const std::string& original = base[2].*text;
    ASSERT_GT(original.size(), 8u);
    for (std::size_t at = 0; at < original.size(); ++at) {
      Workload changed = base;
      (changed[2].*text)[at] ^= 0x20;
      EXPECT_NE(WorkloadFingerprint(changed), reference) << "byte " << at;
    }
  }
}

/// The fingerprint of ThreeJobs() with job 0's `*text` replaced.
std::uint64_t WithText(std::string Job::*text, std::string value) {
  Workload jobs = ThreeJobs();
  jobs[0].*text = std::move(value);
  return WorkloadFingerprint(jobs);
}

TEST(WorkloadFingerprint, EmptyTextDiffersFromOneCharacter) {
  for (std::string Job::*text : {&Job::user, &Job::project}) {
    EXPECT_NE(WithText(text, ""), WithText(text, "u"));
  }
}

TEST(WorkloadFingerprint, TrailingNulDiffersFromChunkPadding) {
  // "a" and "a\0" fill the same zero-padded chunk; the length word parts
  // them.
  for (std::string Job::*text : {&Job::user, &Job::project}) {
    EXPECT_NE(WithText(text, "a"), WithText(text, std::string("a\0", 2)));
  }
}

TEST(WorkloadFingerprint, TextBoundaryBetweenUserAndProjectCounts) {
  auto with_text = [](std::string user, std::string project) {
    Workload jobs = ThreeJobs();
    jobs[0].user = std::move(user);
    jobs[0].project = std::move(project);
    return WorkloadFingerprint(jobs);
  };
  EXPECT_NE(with_text("ab", "c"), with_text("a", "bc"));
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
  EXPECT_EQ(WorkloadFingerprint(ThreeJobs()), 0x7203aba2a9f26de3ULL);
}

}  // namespace
}  // namespace iosched::workload
