#include "faults/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serializer.h"
#include "faults/fault_plan.h"
#include "metrics/fault_stats.h"
#include "sim/simulator.h"

namespace iosched::faults {
namespace {

// ---------------------------------------------------------------- plans --

TEST(FaultPlanTest, ValidateCatchesBadWindows) {
  FaultPlan plan;
  plan.degradations.push_back({100.0, 50.0, 0.5});
  EXPECT_FALSE(plan.Validate().empty());
  plan.degradations = {{0.0, 100.0, 1.5}};
  EXPECT_FALSE(plan.Validate().empty());
  plan.degradations = {{0.0, 100.0, 0.5}};
  EXPECT_TRUE(plan.Validate().empty());
  plan.job_kill_probability = 2.0;
  EXPECT_FALSE(plan.Validate().empty());
}

TEST(FaultPlanTest, EmptyDetectsAnyComponent) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Empty());
  plan.job_kill_probability = 0.01;
  EXPECT_FALSE(plan.Empty());
}

TEST(BuildFaultPlanTest, SameSeedYieldsIdenticalPlan) {
  FaultPlanConfig config;
  config.enabled = true;
  config.seed = 42;
  config.degraded_fraction = 0.2;
  config.degraded_window_seconds = 600.0;
  config.midplane_outages = 3;
  config.job_kill_probability = 0.01;

  FaultPlan a = BuildFaultPlan(config, 86400.0, 8);
  FaultPlan b = BuildFaultPlan(config, 86400.0, 8);
  ASSERT_EQ(a.degradations.size(), b.degradations.size());
  for (std::size_t i = 0; i < a.degradations.size(); ++i) {
    EXPECT_EQ(a.degradations[i].start, b.degradations[i].start);
    EXPECT_EQ(a.degradations[i].end, b.degradations[i].end);
  }
  ASSERT_EQ(a.outages.size(), b.outages.size());
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].start, b.outages[i].start);
    EXPECT_EQ(a.outages[i].midplane, b.outages[i].midplane);
  }
  EXPECT_EQ(a.kill_seed, b.kill_seed);

  config.seed = 43;
  FaultPlan c = BuildFaultPlan(config, 86400.0, 8);
  bool differs = c.degradations.size() != a.degradations.size();
  for (std::size_t i = 0; !differs && i < a.degradations.size(); ++i) {
    differs = c.degradations[i].start != a.degradations[i].start;
  }
  EXPECT_TRUE(differs) << "different seed should move the degraded tiles";
}

TEST(BuildFaultPlanTest, DegradedTimeMatchesRequestedFraction) {
  FaultPlanConfig config;
  config.enabled = true;
  config.degraded_fraction = 0.25;
  config.degraded_window_seconds = 3600.0;
  const double horizon = 40.0 * 3600.0;  // 40 tiles

  FaultPlan plan = BuildFaultPlan(config, horizon, 0);
  double degraded = 0.0;
  for (const StorageDegradation& d : plan.degradations) {
    EXPECT_GE(d.start, 0.0);
    EXPECT_LE(d.end, horizon);
    degraded += d.end - d.start;
  }
  EXPECT_DOUBLE_EQ(degraded, 0.25 * horizon);
}

TEST(BuildFaultPlanTest, RejectsInvalidConfig) {
  FaultPlanConfig config;
  config.degraded_fraction = 1.5;
  EXPECT_THROW(BuildFaultPlan(config, 3600.0, 8), std::invalid_argument);
  config.degraded_fraction = 0.0;
  EXPECT_THROW(BuildFaultPlan(config, -1.0, 8), std::invalid_argument);
  config.midplane_outages = 1;
  EXPECT_THROW(BuildFaultPlan(config, 3600.0, 0), std::invalid_argument);
}

TEST(RestartModeTest, ParseAndRoundTrip) {
  EXPECT_EQ(ParseRestartMode("zero"), RestartMode::kRestartFromZero);
  EXPECT_EQ(ParseRestartMode("RESUME"), RestartMode::kResumeFromLastPhase);
  EXPECT_EQ(ParseRestartMode("checkpoint"), RestartMode::kResumeFromLastPhase);
  EXPECT_THROW(ParseRestartMode("bogus"), std::invalid_argument);
  EXPECT_STREQ(ToString(RestartMode::kRestartFromZero), "zero");
  EXPECT_STREQ(ToString(RestartMode::kResumeFromLastPhase), "resume");
}

// ------------------------------------------------------------- injector --

struct FactorChange {
  double factor;
  sim::SimTime time;
};

/// A faults-section reader whose event ids must be pending in `sim`.
ckpt::Reader FaultsReader(const std::string& bytes,
                          const sim::Simulator& sim) {
  return ckpt::Reader(
      bytes, "faults",
      {.find_job = nullptr,
       .is_pending = [&sim](std::uint64_t id) { return sim.IsPending(id); }});
}

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultHooks RecordingHooks() {
    FaultHooks hooks;
    hooks.set_bandwidth_factor = [this](double factor, sim::SimTime now) {
      factor_changes_.push_back({factor, now});
    };
    hooks.set_midplane_faulted = [this](int midplane, bool faulted,
                                        sim::SimTime now) {
      midplane_changes_.push_back({faulted ? midplane : -midplane, now});
    };
    hooks.kill_job = [this](workload::JobId id, sim::SimTime now) {
      kills_.push_back({static_cast<double>(id), now});
      return true;
    };
    return hooks;
  }

  sim::Simulator simulator_;
  metrics::FaultStats stats_;
  std::vector<FactorChange> factor_changes_;
  std::vector<std::pair<int, sim::SimTime>> midplane_changes_;
  std::vector<FactorChange> kills_;
};

TEST_F(FaultInjectorTest, OverlappingDegradationsTakeMinFactor) {
  FaultPlan plan;
  plan.degradations.push_back({100.0, 400.0, 0.5});
  plan.degradations.push_back({200.0, 300.0, 0.25});
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  simulator_.Run();
  injector.FinalizeStats(simulator_.Now());

  ASSERT_EQ(factor_changes_.size(), 4u);
  EXPECT_DOUBLE_EQ(factor_changes_[0].factor, 0.5);   // t=100
  EXPECT_DOUBLE_EQ(factor_changes_[1].factor, 0.25);  // t=200
  EXPECT_DOUBLE_EQ(factor_changes_[2].factor, 0.5);   // t=300
  EXPECT_DOUBLE_EQ(factor_changes_[3].factor, 1.0);   // t=400
  EXPECT_DOUBLE_EQ(injector.current_bandwidth_factor(), 1.0);
  EXPECT_DOUBLE_EQ(stats_.degraded_seconds, 300.0);
  EXPECT_DOUBLE_EQ(stats_.min_bandwidth_factor, 0.25);
  EXPECT_EQ(stats_.storage_degradations, 2u);
}

TEST_F(FaultInjectorTest, IdenticalFactorWindowsCoalesce) {
  // Two back-to-back windows at the same factor: no hook call at the seam.
  FaultPlan plan;
  plan.degradations.push_back({100.0, 200.0, 0.5});
  plan.degradations.push_back({150.0, 300.0, 0.5});
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  simulator_.Run();

  ASSERT_EQ(factor_changes_.size(), 2u);
  EXPECT_DOUBLE_EQ(factor_changes_[0].factor, 0.5);
  EXPECT_DOUBLE_EQ(factor_changes_[0].time, 100.0);
  EXPECT_DOUBLE_EQ(factor_changes_[1].factor, 1.0);
  EXPECT_DOUBLE_EQ(factor_changes_[1].time, 300.0);
}

TEST_F(FaultInjectorTest, AdjacentWindowBoundaryKeepsMostRestrictiveFactor) {
  // Two windows sharing the t=200 boundary. The first window's end edge
  // must not transiently restore full bandwidth before the second window's
  // start edge fires at the same timestamp: the hook would see 1.0 and the
  // scheduler would re-plan against a cap that never really existed.
  FaultPlan plan;
  plan.degradations.push_back({100.0, 200.0, 0.5});
  plan.degradations.push_back({200.0, 300.0, 0.25});
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  simulator_.Run();
  injector.FinalizeStats(simulator_.Now());

  ASSERT_EQ(factor_changes_.size(), 3u);
  EXPECT_DOUBLE_EQ(factor_changes_[0].factor, 0.5);
  EXPECT_DOUBLE_EQ(factor_changes_[0].time, 100.0);
  EXPECT_DOUBLE_EQ(factor_changes_[1].factor, 0.25);
  EXPECT_DOUBLE_EQ(factor_changes_[1].time, 200.0);
  EXPECT_DOUBLE_EQ(factor_changes_[2].factor, 1.0);
  EXPECT_DOUBLE_EQ(factor_changes_[2].time, 300.0);
  EXPECT_DOUBLE_EQ(stats_.degraded_seconds, 200.0);
  EXPECT_EQ(stats_.storage_degradations, 2u);
}

TEST_F(FaultInjectorTest, AdjacentSameFactorWindowsHaveNoSeam) {
  // BuildFaultPlan's tiling emits back-to-back degraded tiles as separate
  // windows sharing a boundary timestamp; they must behave as one window —
  // no restore/degrade pulse (and no extra stat events) at the seam.
  FaultPlan plan;
  plan.degradations.push_back({100.0, 200.0, 0.5});
  plan.degradations.push_back({200.0, 300.0, 0.5});
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  simulator_.Run();
  injector.FinalizeStats(simulator_.Now());

  ASSERT_EQ(factor_changes_.size(), 2u);
  EXPECT_DOUBLE_EQ(factor_changes_[0].factor, 0.5);
  EXPECT_DOUBLE_EQ(factor_changes_[0].time, 100.0);
  EXPECT_DOUBLE_EQ(factor_changes_[1].factor, 1.0);
  EXPECT_DOUBLE_EQ(factor_changes_[1].time, 300.0);
  EXPECT_DOUBLE_EQ(stats_.degraded_seconds, 200.0);
  EXPECT_EQ(stats_.storage_degradations, 1u);
}

TEST_F(FaultInjectorTest, AdjacentOutageWindowsHaveNoSeam) {
  // Back-to-back outages of the same midplane sharing a boundary: the
  // repair edge must not fire before the adjacent fault edge, or the
  // midplane flaps (and jobs could be placed on it) at the seam.
  FaultPlan plan;
  plan.outages.push_back({100.0, 200.0, 3});
  plan.outages.push_back({200.0, 300.0, 3});
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  simulator_.Run();

  ASSERT_EQ(midplane_changes_.size(), 2u);
  EXPECT_EQ(midplane_changes_[0].first, 3);
  EXPECT_DOUBLE_EQ(midplane_changes_[0].second, 100.0);
  EXPECT_EQ(midplane_changes_[1].first, -3);
  EXPECT_DOUBLE_EQ(midplane_changes_[1].second, 300.0);
  EXPECT_EQ(stats_.midplane_outages, 1u);
}

TEST_F(FaultInjectorTest, MidOverlapCheckpointRestoresFactorTimeline) {
  // Checkpoint while two windows overlap (and a third, boundary-adjacent
  // one is still pending); the restored injector must replay the exact
  // factor timeline the uninterrupted run produces.
  FaultPlan plan;
  plan.degradations.push_back({100.0, 400.0, 0.5});
  plan.degradations.push_back({200.0, 300.0, 0.25});
  plan.degradations.push_back({400.0, 500.0, 0.5});

  // Uninterrupted reference run.
  FaultInjector reference(simulator_, plan, RecordingHooks(), &stats_);
  reference.Arm();
  simulator_.Run();
  std::vector<FactorChange> expected = factor_changes_;
  ASSERT_EQ(expected.size(), 4u);

  // Victim run: stop mid-overlap at t=250, checkpoint, restore into a
  // fresh simulator + injector, and finish.
  factor_changes_.clear();
  sim::Simulator victim_sim;
  FaultInjector victim(victim_sim, plan, RecordingHooks());
  victim.Arm();
  victim_sim.Run(250.0);
  ckpt::Writer sim_state;
  victim_sim.Serialize(sim_state);
  ckpt::Writer w;
  victim.Serialize(w);
  std::vector<FactorChange> prefix = factor_changes_;

  factor_changes_.clear();
  sim::Simulator resumed_sim;
  FaultInjector resumed(resumed_sim, plan, RecordingHooks());
  ckpt::Reader sim_reader(sim_state.buffer());
  resumed_sim.Serialize(sim_reader);
  ckpt::Reader r = FaultsReader(w.buffer(), resumed_sim);
  resumed.Serialize(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_DOUBLE_EQ(resumed.current_bandwidth_factor(), 0.25);
  resumed_sim.Run();

  std::vector<FactorChange> stitched = prefix;
  stitched.insert(stitched.end(), factor_changes_.begin(),
                  factor_changes_.end());
  ASSERT_EQ(stitched.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(stitched[i].factor, expected[i].factor) << "entry " << i;
    EXPECT_DOUBLE_EQ(stitched[i].time, expected[i].time) << "entry " << i;
  }
}

TEST_F(FaultInjectorTest, OverlappingOutagesFireOnce) {
  FaultPlan plan;
  plan.outages.push_back({100.0, 300.0, 2});
  plan.outages.push_back({200.0, 400.0, 2});
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  simulator_.Run();

  // One fault at t=100 and one repair at t=400 despite the overlap.
  ASSERT_EQ(midplane_changes_.size(), 2u);
  EXPECT_EQ(midplane_changes_[0].first, 2);
  EXPECT_DOUBLE_EQ(midplane_changes_[0].second, 100.0);
  EXPECT_EQ(midplane_changes_[1].first, -2);
  EXPECT_DOUBLE_EQ(midplane_changes_[1].second, 400.0);
  EXPECT_EQ(stats_.midplane_outages, 1u);
}

TEST_F(FaultInjectorTest, CertainKillFiresWithinRuntimeWindow) {
  FaultPlan plan;
  plan.job_kill_probability = 1.0;
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  injector.OnJobStart(7, 1000.0);
  simulator_.Run();

  ASSERT_EQ(kills_.size(), 1u);
  EXPECT_EQ(static_cast<workload::JobId>(kills_[0].factor), 7);
  EXPECT_GT(kills_[0].time, 0.0);
  EXPECT_LT(kills_[0].time, 1000.0);
  EXPECT_EQ(stats_.fault_kills, 1u);
}

TEST_F(FaultInjectorTest, OnJobStopCancelsPendingKill) {
  FaultPlan plan;
  plan.job_kill_probability = 1.0;
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  injector.OnJobStart(7, 1000.0);
  injector.OnJobStop(7);
  simulator_.Run();
  EXPECT_TRUE(kills_.empty());
  EXPECT_EQ(stats_.fault_kills, 0u);
}

TEST_F(FaultInjectorTest, KillScheduleIsSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator simulator;
    std::vector<FactorChange> kills;
    FaultPlan plan;
    plan.job_kill_probability = 0.5;
    plan.kill_seed = seed;
    FaultHooks hooks;
    hooks.kill_job = [&kills](workload::JobId id, sim::SimTime now) {
      kills.push_back({static_cast<double>(id), now});
      return true;
    };
    FaultInjector injector(simulator, plan, hooks);
    injector.Arm();
    for (workload::JobId id = 1; id <= 50; ++id) {
      injector.OnJobStart(id, 500.0 + static_cast<double>(id));
    }
    simulator.Run();
    return kills;
  };

  std::vector<FactorChange> a = run_once(11);
  std::vector<FactorChange> b = run_once(11);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  ASSERT_LT(a.size(), 50u) << "p=0.5 should spare some jobs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].factor, b[i].factor);
    EXPECT_EQ(a[i].time, b[i].time);
  }

  std::vector<FactorChange> c = run_once(12);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = c[i].factor != a[i].factor || c[i].time != a[i].time;
  }
  EXPECT_TRUE(differs);
}

TEST_F(FaultInjectorTest, MtbfFailureProcessFiresExponentialDraws) {
  // With MTBF = 1000 s, 200 independent attempts see roughly
  // 1 - exp(-5) = 99.3% failures within a 5000 s exposure each. Check the
  // draws actually spread out (not degenerate) and land after start.
  FaultPlan plan;
  plan.job_mtbf_seconds = 1000.0;
  plan.mtbf_seed = 5;
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  for (workload::JobId id = 1; id <= 200; ++id) {
    injector.OnJobStart(id, 5000.0);
  }
  simulator_.Run();

  ASSERT_GT(kills_.size(), 150u);
  EXPECT_EQ(stats_.mtbf_failures, kills_.size());
  EXPECT_EQ(stats_.fault_kills, kills_.size());
  double sum = 0.0;
  double longest = 0.0;
  for (const FactorChange& kill : kills_) {
    EXPECT_GT(kill.time, 0.0);
    sum += kill.time;
    longest = std::max(longest, kill.time);
  }
  // Mean time-to-failure within a factor of 2 of the MTBF; some draw far
  // out in the tail (an exponential, not a constant).
  double mean = sum / static_cast<double>(kills_.size());
  EXPECT_GT(mean, 500.0);
  EXPECT_LT(mean, 2000.0);
  EXPECT_GT(longest, 2.0 * mean);
}

TEST_F(FaultInjectorTest, OnJobStopCancelsPendingMtbfFailure) {
  FaultPlan plan;
  plan.job_mtbf_seconds = 1000.0;
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  injector.OnJobStart(7, 5000.0);
  injector.OnJobStop(7);
  simulator_.Run();
  EXPECT_TRUE(kills_.empty());
  EXPECT_EQ(stats_.mtbf_failures, 0u);
}

TEST_F(FaultInjectorTest, MtbfStateSurvivesCheckpointRoundTrip) {
  // Two jobs with pending failures; checkpoint before either fires,
  // restore into a fresh injector, and require the same failures at the
  // same times — the pending events and the RNG stream both round-trip.
  FaultPlan plan;
  plan.job_mtbf_seconds = 1000.0;
  plan.mtbf_seed = 9;

  auto run_reference = [&plan] {
    sim::Simulator simulator;
    std::vector<FactorChange> kills;
    FaultHooks hooks;
    hooks.kill_job = [&kills](workload::JobId id, sim::SimTime now) {
      kills.push_back({static_cast<double>(id), now});
      return true;
    };
    FaultInjector injector(simulator, plan, hooks);
    injector.Arm();
    injector.OnJobStart(1, 5000.0);
    injector.OnJobStart(2, 5000.0);
    simulator.Run();
    // A third job started later consumes the next RNG draw.
    injector.OnJobStart(3, 5000.0);
    simulator.Run();
    return kills;
  };
  std::vector<FactorChange> expected = run_reference();
  ASSERT_EQ(expected.size(), 3u);

  std::vector<FactorChange> kills;
  FaultHooks hooks;
  hooks.kill_job = [&kills](workload::JobId id, sim::SimTime now) {
    kills.push_back({static_cast<double>(id), now});
    return true;
  };
  sim::Simulator victim_sim;
  FaultInjector victim(victim_sim, plan, hooks);
  victim.Arm();
  victim.OnJobStart(1, 5000.0);
  victim.OnJobStart(2, 5000.0);
  ckpt::Writer sim_state;
  victim_sim.Serialize(sim_state);
  ckpt::Writer w;
  victim.Serialize(w);

  sim::Simulator resumed_sim;
  FaultInjector resumed(resumed_sim, plan, hooks);
  ckpt::Reader sim_reader(sim_state.buffer());
  resumed_sim.Serialize(sim_reader);
  ckpt::Reader r = FaultsReader(w.buffer(), resumed_sim);
  resumed.Serialize(r);
  EXPECT_TRUE(r.AtEnd());
  resumed_sim.Run();
  resumed.OnJobStart(3, 5000.0);
  resumed_sim.Run();

  ASSERT_EQ(kills.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(kills[i].factor, expected[i].factor) << "kill " << i;
    EXPECT_DOUBLE_EQ(kills[i].time, expected[i].time) << "kill " << i;
  }
}

TEST_F(FaultInjectorTest, RestoreRejectsKillThatIsNotPending) {
  // The injector saves only the ids of its pending kills; the events are in
  // the simulator's state. A kill id with no pending event there means a
  // damaged checkpoint.
  FaultPlan plan;
  plan.job_kill_probability = 1.0;
  sim::Simulator victim_sim;
  FaultInjector victim(victim_sim, plan, RecordingHooks());
  victim.Arm();
  sim::EventId kill = victim_sim.NextEventId();
  victim.OnJobStart(7, 1000.0);
  ASSERT_NO_THROW(victim_sim.RequirePending(kill, "test"));
  ckpt::Writer w;
  victim.Serialize(w);
  victim_sim.Cancel(kill);  // the sim section loses the event
  ckpt::Writer sim_state;
  victim_sim.Serialize(sim_state);

  sim::Simulator resumed_sim;
  FaultInjector resumed(resumed_sim, plan, RecordingHooks());
  ckpt::Reader sim_reader(sim_state.buffer());
  resumed_sim.Serialize(sim_reader);
  ckpt::Reader r = FaultsReader(w.buffer(), resumed_sim);
  EXPECT_THROW(resumed.Serialize(r), ckpt::FormatError);
}

TEST_F(FaultInjectorTest, RestoreRejectsEdgeOutsideThePlan) {
  FaultPlan plan;
  plan.degradations.push_back({100.0, 200.0, 0.5});
  sim::Simulator victim_sim;
  FaultInjector victim(victim_sim, plan, RecordingHooks());
  victim.Arm();
  ckpt::Writer sim_state;
  victim_sim.Serialize(sim_state);
  ckpt::Writer w;
  victim.Serialize(w);

  // Restored against a plan without that window, the pending edges point
  // past the plan's end.
  sim::Simulator resumed_sim;
  FaultInjector resumed(resumed_sim, FaultPlan{}, RecordingHooks());
  ckpt::Reader sim_reader(sim_state.buffer());
  resumed_sim.Serialize(sim_reader);
  ckpt::Reader r = FaultsReader(w.buffer(), resumed_sim);
  EXPECT_THROW(resumed.Serialize(r), ckpt::FormatError);
}

TEST_F(FaultInjectorTest, MissingHooksThrow) {
  FaultPlan degrade;
  degrade.degradations.push_back({0.0, 10.0, 0.5});
  EXPECT_THROW(FaultInjector(simulator_, degrade, FaultHooks{}),
               std::invalid_argument);

  FaultPlan kill;
  kill.job_kill_probability = 0.5;
  EXPECT_THROW(FaultInjector(simulator_, kill, FaultHooks{}),
               std::invalid_argument);
}

TEST_F(FaultInjectorTest, InvalidPlanThrows) {
  FaultPlan plan;
  plan.degradations.push_back({10.0, 5.0, 0.5});
  EXPECT_THROW(FaultInjector(simulator_, plan, RecordingHooks()),
               std::invalid_argument);
}

TEST_F(FaultInjectorTest, TimelineCsvHasHeaderAndRows) {
  FaultPlan plan;
  plan.degradations.push_back({100.0, 200.0, 0.5});
  FaultInjector injector(simulator_, plan, RecordingHooks(), &stats_);
  injector.Arm();
  simulator_.Run();

  std::ostringstream os;
  stats_.WriteTimelineCsv(os);
  std::string csv = os.str();
  EXPECT_NE(csv.find("time,event,job,detail"), std::string::npos);
  EXPECT_NE(csv.find("storage_degrade"), std::string::npos);
  EXPECT_NE(csv.find("storage_restore"), std::string::npos);
}

}  // namespace
}  // namespace iosched::faults
