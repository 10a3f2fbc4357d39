// Chaos harness: a small soak must come back clean, deterministic, and
// with every cell accounted for; bad configurations fail fast.
#include "driver/chaos.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/policy_factory.h"

namespace iosched::driver {
namespace {

ChaosOptions SmallSoak() {
  ChaosOptions options;
  options.schedules = 2;
  options.duration_days = 0.1;
  options.jobs_per_day = 120.0;
  options.watchdog_seconds = 60.0;
  return options;
}

TEST(ChaosTest, SmallSoakIsCleanAndCoversEveryCell) {
  ChaosOptions options = SmallSoak();
  ChaosSummary summary = RunChaos(options);
  EXPECT_EQ(summary.cells.size(),
            2 * core::AllPolicyNames().size());
  EXPECT_EQ(summary.failures, 0);
  EXPECT_TRUE(summary.ok());
  for (const ChaosCell& cell : summary.cells) {
    EXPECT_TRUE(cell.ok()) << cell.policy << " schedule " << cell.schedule
                           << ": " << cell.error;
    EXPECT_GT(cell.jobs, 0u);
    EXPECT_GT(cell.events, 0u);
    EXPECT_GT(cell.invariant_checks, 0u);
    EXPECT_NE(cell.digest, 0u);
    // Every cell also resumed from one of its own checkpoints.
    EXPECT_GT(cell.resume_checkpoint, 0u) << cell.policy;
  }
}

TEST(ChaosTest, SoakIsDeterministic) {
  ChaosOptions options = SmallSoak();
  options.verify_reproducible = false;  // the outer comparison covers it
  ChaosSummary a = RunChaos(options);
  ChaosSummary b = RunChaos(options);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].digest, b.cells[i].digest);
    EXPECT_EQ(a.cells[i].events, b.cells[i].events);
  }
}

TEST(ChaosTest, DistinctSeedsGiveDistinctSchedules) {
  ChaosOptions options = SmallSoak();
  options.schedules = 1;
  options.verify_reproducible = false;
  ChaosSummary a = RunChaos(options);
  options.base_seed = 1234;
  ChaosSummary b = RunChaos(options);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  bool any_differ = false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    any_differ = any_differ || a.cells[i].digest != b.cells[i].digest;
  }
  EXPECT_TRUE(any_differ);
}

TEST(ChaosTest, CsvHasHeaderAndOneRowPerCell) {
  ChaosOptions options = SmallSoak();
  options.schedules = 1;
  options.verify_reproducible = false;
  ChaosSummary summary = RunChaos(options);
  std::string csv = ChaosCsv(summary);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, summary.cells.size() + 1);
  EXPECT_EQ(csv.rfind("schedule,seed,policy,ok,", 0), 0u);
}

TEST(ChaosTest, RejectsBadOptions) {
  ChaosOptions options = SmallSoak();
  options.schedules = 0;
  EXPECT_THROW(RunChaos(options), std::invalid_argument);
  options = SmallSoak();
  options.policies = {"NO_SUCH_POLICY"};
  EXPECT_THROW(RunChaos(options), std::invalid_argument);
}

}  // namespace
}  // namespace iosched::driver
