#include "workload/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "util/units.h"

namespace iosched::workload {
namespace {

SyntheticConfig QuickConfig() {
  SyntheticConfig cfg;
  cfg.duration_days = 3.0;
  cfg.jobs_per_day = 150.0;
  return cfg;
}

TEST(Synthetic, DeterministicForSameSeed) {
  Workload a = GenerateWorkload(QuickConfig(), 42);
  Workload b = GenerateWorkload(QuickConfig(), 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_DOUBLE_EQ(a[i].TotalIoVolumeGb(), b[i].TotalIoVolumeGb());
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  Workload a = GenerateWorkload(QuickConfig(), 1);
  Workload b = GenerateWorkload(QuickConfig(), 2);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].submit_time != b[i].submit_time;
  }
  EXPECT_TRUE(differs);
}

TEST(Synthetic, JobCountNearExpectation) {
  SyntheticConfig cfg = QuickConfig();
  Workload w = GenerateWorkload(cfg, 7);
  double expected = cfg.duration_days * cfg.jobs_per_day;
  EXPECT_GT(static_cast<double>(w.size()), expected * 0.8);
  EXPECT_LT(static_cast<double>(w.size()), expected * 1.2);
}

TEST(Synthetic, AllJobsValid) {
  Workload w = GenerateWorkload(QuickConfig(), 11);
  auto errors = ValidateWorkload(w);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(Synthetic, SubmitTimesSortedWithinHorizon) {
  SyntheticConfig cfg = QuickConfig();
  Workload w = GenerateWorkload(cfg, 13);
  double horizon = cfg.duration_days * util::kSecondsPerDay;
  double prev = 0.0;
  for (const Job& j : w) {
    EXPECT_GE(j.submit_time, prev);
    EXPECT_LT(j.submit_time, horizon);
    prev = j.submit_time;
  }
}

TEST(Synthetic, InterArrivalGapsStrictlyPositiveAcrossSeeds) {
  // Property test over 1000 seeds: the arrival clock must advance by a
  // strictly positive amount between consecutive jobs. An exponential draw
  // can land exactly on zero (u = 0 in -log(1-u)/rate); without the
  // generator's clamp, two jobs would share a submit instant — or the
  // clock would stall — and downstream consumers that assume strictly
  // increasing submit times (incremental queue maintenance, the SWF
  // round-trip) would quietly misbehave.
  SyntheticConfig cfg = QuickConfig();
  cfg.duration_days = 1.0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Workload w = GenerateWorkload(cfg, seed);
    ASSERT_FALSE(w.empty()) << "seed " << seed;
    EXPECT_GT(w.front().submit_time, 0.0) << "seed " << seed;
    for (std::size_t i = 1; i < w.size(); ++i) {
      ASSERT_GT(w[i].submit_time, w[i - 1].submit_time)
          << "seed " << seed << " jobs " << w[i - 1].id << "," << w[i].id;
    }
  }
}

TEST(Synthetic, SizesComeFromMenu) {
  SyntheticConfig cfg = QuickConfig();
  Workload w = GenerateWorkload(cfg, 17);
  std::set<int> menu(cfg.size_menu.begin(), cfg.size_menu.end());
  for (const Job& j : w) {
    EXPECT_TRUE(menu.count(j.nodes)) << j.nodes;
  }
}

TEST(Synthetic, RuntimesAndWalltimesWithinBounds) {
  SyntheticConfig cfg = QuickConfig();
  Workload w = GenerateWorkload(cfg, 19);
  for (const Job& j : w) {
    double runtime = j.UncongestedRuntime(cfg.node_bandwidth_gbps);
    EXPECT_GE(runtime, cfg.min_runtime_seconds * 0.999);
    EXPECT_LE(runtime, cfg.max_runtime_seconds * 1.001);
    // Users over-request: walltime strictly above the uncongested runtime.
    EXPECT_GT(j.requested_walltime, runtime * (cfg.walltime_factor_lo - 1e-9));
  }
}

TEST(Synthetic, IoFractionsWithinConfiguredBands) {
  SyntheticConfig cfg = QuickConfig();
  Workload w = GenerateWorkload(cfg, 23);
  double lo = 1.0;
  double hi = 0.0;
  for (const Job& j : w) {
    double f = j.IoFraction(cfg.node_bandwidth_gbps);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 0.62 + 1e-9);  // widest configured band edge
  }
  // Mixture should produce both light and heavy jobs.
  EXPECT_LT(lo, 0.10);
  EXPECT_GT(hi, 0.25);
}

TEST(Synthetic, PhaseCountsBounded) {
  SyntheticConfig cfg = QuickConfig();
  Workload w = GenerateWorkload(cfg, 29);
  for (const Job& j : w) {
    EXPECT_GE(j.IoPhaseCount(), 1);
    EXPECT_LE(j.IoPhaseCount(), cfg.max_io_phases);
  }
}

TEST(Synthetic, SequentialIdsFromFirstId) {
  SyntheticConfig cfg = QuickConfig();
  cfg.first_job_id = 1000;
  Workload w = GenerateWorkload(cfg, 31);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i].id, static_cast<JobId>(1000 + i));
  }
}

TEST(Synthetic, UsersAndProjectsAssigned) {
  Workload w = GenerateWorkload(QuickConfig(), 37);
  const SyntheticConfig cfg = QuickConfig();
  std::set<std::int32_t> users;
  std::set<std::int32_t> projects;
  for (const Job& j : w) {
    EXPECT_GE(j.user_id, 0);
    EXPECT_LT(j.user_id, cfg.user_count);
    EXPECT_GE(j.project_id, 0);
    EXPECT_LT(j.project_id, cfg.project_count);
    users.insert(j.user_id);
    projects.insert(j.project_id);
  }
  EXPECT_GT(users.size(), 10u);
  EXPECT_GT(projects.size(), 5u);
}

TEST(Synthetic, ProjectsHaveConsistentIoBands) {
  // Jobs of the same project must draw from one intensity band, so the
  // spread of I/O fractions within a project stays within a band's width.
  // The volume cap is disabled: it legitimately pulls large heavy jobs
  // below their band's floor.
  SyntheticConfig cfg = QuickConfig();
  cfg.duration_days = 6.0;
  cfg.max_io_volume_gb = 0.0;
  Workload w = GenerateWorkload(cfg, 41);
  std::map<std::int32_t, std::pair<double, double>> range;
  for (const Job& j : w) {
    double f = j.IoFraction(cfg.node_bandwidth_gbps);
    auto [it, inserted] = range.try_emplace(j.project_id, f, f);
    it->second.first = std::min(it->second.first, f);
    it->second.second = std::max(it->second.second, f);
  }
  for (const auto& [project, mm] : range) {
    EXPECT_LE(mm.second - mm.first, 0.32)
        << project << " spans " << mm.first << ".." << mm.second;
  }
}

TEST(Synthetic, InvalidConfigsThrow) {
  SyntheticConfig cfg = QuickConfig();
  cfg.size_weights.pop_back();
  EXPECT_THROW(GenerateWorkload(cfg, 1), std::invalid_argument);

  cfg = QuickConfig();
  cfg.io_bands.clear();
  EXPECT_THROW(GenerateWorkload(cfg, 1), std::invalid_argument);

  cfg = QuickConfig();
  cfg.duration_days = 0;
  EXPECT_THROW(GenerateWorkload(cfg, 1), std::invalid_argument);

  cfg = QuickConfig();
  cfg.diurnal_depth = 1.0;
  EXPECT_THROW(GenerateWorkload(cfg, 1), std::invalid_argument);

  cfg = QuickConfig();
  cfg.io_bands[0].fraction_hi = 0.99;
  EXPECT_THROW(GenerateWorkload(cfg, 1), std::invalid_argument);
}

TEST(Synthetic, RestartReadsPrependIoPhase) {
  SyntheticConfig cfg = QuickConfig();
  cfg.restart_read_probability = 1.0;
  Workload w = GenerateWorkload(cfg, 47);
  ASSERT_FALSE(w.empty());
  for (const Job& j : w) {
    ASSERT_FALSE(j.phases.empty());
    EXPECT_EQ(j.phases.front().kind, PhaseKind::kIo);
    EXPECT_EQ(j.Validate(), "");
  }
  // Off by default: jobs start with compute.
  Workload plain = GenerateWorkload(QuickConfig(), 47);
  for (const Job& j : plain) {
    EXPECT_EQ(j.phases.front().kind, PhaseKind::kCompute);
  }
}

TEST(Synthetic, RestartReadProbabilityIsFractional) {
  SyntheticConfig cfg = QuickConfig();
  cfg.restart_read_probability = 0.5;
  Workload w = GenerateWorkload(cfg, 53);
  std::size_t with_restart = 0;
  for (const Job& j : w) {
    if (j.phases.front().kind == PhaseKind::kIo) ++with_restart;
  }
  double share = static_cast<double>(with_restart) /
                 static_cast<double>(w.size());
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.65);
}

TEST(EvaluationMonthConfigTest, ThreeDistinctMonths) {
  SyntheticConfig m1 = EvaluationMonthConfig(1);
  SyntheticConfig m2 = EvaluationMonthConfig(2);
  SyntheticConfig m3 = EvaluationMonthConfig(3);
  EXPECT_NE(m1.jobs_per_day, m2.jobs_per_day);
  EXPECT_NE(m2.jobs_per_day, m3.jobs_per_day);
  EXPECT_THROW(EvaluationMonthConfig(0), std::invalid_argument);
  EXPECT_THROW(EvaluationMonthConfig(4), std::invalid_argument);
}

}  // namespace
}  // namespace iosched::workload
