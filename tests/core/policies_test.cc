#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/adaptive_policy.h"
#include "core/baseline_policy.h"
#include "core/conservative_policy.h"
#include "core/policy_factory.h"
#include "util/strings.h"

namespace iosched::core {
namespace {

constexpr double kBwMax = 250.0;
constexpr double kNodeBw = 0.03125;

IoJobView MakeView(workload::JobId id, int nodes, double volume_gb,
                   double arrival, double transferred = 0.0) {
  IoJobView v;
  v.id = id;
  v.nodes = nodes;
  v.full_rate_gbps = nodes * kNodeBw;
  v.volume_gb = volume_gb;
  v.transferred_gb = transferred;
  v.request_arrival = arrival;
  v.job_start = 0.0;
  v.completed_compute_seconds = arrival;  // plausible default
  v.completed_io_seconds = 0.0;
  return v;
}

std::map<workload::JobId, double> AsMap(const std::vector<RateGrant>& grants) {
  std::map<workload::JobId, double> m;
  for (const RateGrant& g : grants) m[g.id] = g.rate_gbps;
  return m;
}

double TotalRate(const std::vector<RateGrant>& grants) {
  double t = 0.0;
  for (const RateGrant& g : grants) t += g.rate_gbps;
  return t;
}

// ---------------------------------------------------------------- baseline

TEST(BaselinePolicy, FullRatesWithoutCongestion) {
  BaselinePolicy p;
  std::vector<IoJobView> active = {MakeView(1, 2048, 100, 0),
                                   MakeView(2, 4096, 100, 1)};
  auto grants = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(grants[1], 64.0);
  EXPECT_DOUBLE_EQ(grants[2], 128.0);
}

TEST(BaselinePolicy, EvenPerApplicationSplitUnderCongestion) {
  BaselinePolicy p;
  // 4096 + 8192 nodes demand 384 GB/s > 250. Round-robin splits evenly per
  // application: both get 125 regardless of size.
  std::vector<IoJobView> active = {MakeView(1, 4096, 100, 0),
                                   MakeView(2, 8192, 100, 1)};
  auto grants = p.Assign(active, kBwMax, 10);
  auto m = AsMap(grants);
  EXPECT_NEAR(m[1], 125.0, 1e-9);
  EXPECT_NEAR(m[2], 125.0, 1e-9);
  EXPECT_NEAR(TotalRate(grants), kBwMax, 1e-9);
}

TEST(BaselinePolicy, EvenSplitIsNotWorkConserving) {
  BaselinePolicy p;
  // Demands 16 and 256: the small app uses 16 of its 125 slice; the rest of
  // that slice is wasted (static even split), the big app keeps only 125.
  std::vector<IoJobView> active = {MakeView(1, 512, 100, 0),
                                   MakeView(2, 8192, 100, 1)};
  auto grants = p.Assign(active, kBwMax, 10);
  auto m = AsMap(grants);
  EXPECT_NEAR(m[1], 16.0, 1e-9);
  EXPECT_NEAR(m[2], 125.0, 1e-9);
  EXPECT_LT(TotalRate(grants), kBwMax);
}

TEST(MaxMinPolicyTest, LeftoverFlowsToBigJobs) {
  MaxMinPolicy p;
  // The ablation variant is work-conserving: the small app's unused slack
  // flows to the big one.
  std::vector<IoJobView> active = {MakeView(1, 512, 100, 0),
                                   MakeView(2, 8192, 100, 1)};
  auto grants = p.Assign(active, kBwMax, 10);
  auto m = AsMap(grants);
  EXPECT_NEAR(m[1], 16.0, 1e-9);
  EXPECT_NEAR(m[2], 234.0, 1e-9);
  EXPECT_NEAR(TotalRate(grants), kBwMax, 1e-9);
}

TEST(MaxMinPolicyTest, UncongestedGrantsFullRates) {
  MaxMinPolicy p;
  std::vector<IoJobView> active = {MakeView(1, 2048, 100, 0)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], 64.0);
  EXPECT_EQ(MakePolicy("BASE_LINE_MAXMIN")->name(), "BASE_LINE_MAXMIN");
}

TEST(BaselinePolicy, LargeJobSqueezedByManySmall) {
  BaselinePolicy p;
  // Nine 2048-node jobs (64 each) + one 8192-node job (256): even split
  // gives everyone 25; small jobs are barely congested while the big one
  // crawls at a tenth of its demand.
  std::vector<IoJobView> active;
  for (int i = 0; i < 9; ++i) active.push_back(MakeView(i + 1, 2048, 100, i));
  active.push_back(MakeView(10, 8192, 100, 9));
  auto m = AsMap(p.Assign(active, kBwMax, 20));
  EXPECT_NEAR(m[1], 25.0, 1e-9);
  EXPECT_NEAR(m[10], 25.0, 1e-9);
}

TEST(BaselinePolicy, EveryoneTransfersSomething) {
  BaselinePolicy p;
  std::vector<IoJobView> active;
  for (int i = 0; i < 10; ++i) {
    active.push_back(MakeView(i + 1, 4096, 100, i));
  }
  for (const RateGrant& g : p.Assign(active, kBwMax, 20)) {
    EXPECT_GT(g.rate_gbps, 0.0);
  }
}

TEST(BaselinePolicy, Name) {
  EXPECT_EQ(BaselinePolicy().name(), "BASE_LINE");
}

// ------------------------------------------------------------ conservative

TEST(ConsFcfs, AdmitsInArrivalOrderUnderCap) {
  ConservativePolicy p(ConservativeOrder::kFcfs);
  // Demands: 128, 128, 64 -> first two fill 256 > 250, so second is skipped
  // but the third (64) still fits after the first (128+64=192).
  std::vector<IoJobView> active = {MakeView(1, 4096, 100, 0),
                                   MakeView(2, 4096, 100, 1),
                                   MakeView(3, 2048, 100, 2)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], 128.0);
  EXPECT_DOUBLE_EQ(m[2], 0.0);  // would exceed the cap
  EXPECT_DOUBLE_EQ(m[3], 64.0);
}

TEST(ConsFcfs, NeverExceedsBwMax) {
  ConservativePolicy p(ConservativeOrder::kFcfs);
  std::vector<IoJobView> active;
  for (int i = 0; i < 20; ++i) {
    active.push_back(MakeView(i + 1, 2048 << (i % 3), 100, i));
  }
  auto grants = p.Assign(active, kBwMax, 30);
  EXPECT_LE(TotalRate(grants), kBwMax + 1e-9);
}

TEST(ConsFcfs, AdmittedRunAtFullRate) {
  ConservativePolicy p(ConservativeOrder::kFcfs);
  std::vector<IoJobView> active = {MakeView(1, 2048, 100, 0),
                                   MakeView(2, 2048, 100, 1)};
  for (const RateGrant& g : p.Assign(active, kBwMax, 10)) {
    EXPECT_DOUBLE_EQ(g.rate_gbps, 64.0);
  }
}

TEST(ConsFcfs, StarvationGuardCapsHugeJob) {
  ConservativePolicy p(ConservativeOrder::kFcfs);
  // 16384 nodes demand 512 GB/s > BWmax; alone it must still run at BWmax.
  std::vector<IoJobView> active = {MakeView(1, 16384, 1000, 0)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], kBwMax);
}

TEST(ConsFcfs, HugeJobAtHeadServedCappedNotStarved) {
  ConservativePolicy p(ConservativeOrder::kFcfs);
  // Job 1's solo demand (512 GB/s) exceeds BWmax; its demand counts as
  // BWmax so at the head of the FCFS order it runs capped and nothing
  // shares with it — FIFO fairness instead of permanent starvation.
  std::vector<IoJobView> active = {MakeView(1, 16384, 1000, 0),
                                   MakeView(2, 512, 10, 1)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], kBwMax);
  EXPECT_DOUBLE_EQ(m[2], 0.0);
}

TEST(ConsFcfs, HugeJobBehindOthersWaits) {
  ConservativePolicy p(ConservativeOrder::kFcfs);
  std::vector<IoJobView> active = {MakeView(1, 512, 10, 0),
                                   MakeView(2, 16384, 1000, 1)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], 16.0);
  EXPECT_DOUBLE_EQ(m[2], 0.0);  // 250-16 left, capped demand 250 > 234
}

TEST(ConsMaxUtil, MaximizesNodesNotFcfs) {
  ConservativePolicy p(ConservativeOrder::kMaxUtil);
  // FCFS would admit job1 (7000 nodes, 218.75 GB/s) and nothing else.
  // MaxUtil prefers jobs 2+3 (4096+4096 = 8192 nodes, 256... too big).
  // Use demands that force a real choice:
  //   job1: 6144 nodes -> 192 GB/s ; job2: 4096 -> 128 ; job3: 2048 -> 64.
  // Best subset under 250: job1+job3 = 256?? -> 192+64 = 256 > 250. So
  // options: {j1} = 6144, {j2,j3} = 6144, {j1 alone} ... {j2,j3} weight 192.
  // Add job4: 1024 -> 32: {j2,j3,j4} = 7168 nodes, weight 224. MaxUtil must
  // pick that over FCFS's {j1, j4} = 7168?? weight 192+32=224 nodes 7168.
  // Make j1 5120 nodes (160 GB/s): FCFS {j1,j3,j4} no: 160+64+32=256>250 ->
  // {j1,j3}=224: 7168 nodes? 5120+2048=7168. {j2,j3,j4}=224: 7168. Tie.
  // Simplest decisive case: j1=3072 (96), j2=4096 (128), j3=4096 (128).
  // FCFS: j1+j2 = 224, j3 skipped -> 7168 nodes. MaxUtil: j2+j3 = 256 no.
  // j1+j2 = 224 is also max. Use weights where skipping the head wins:
  // j1=4608 (144), j2=4096 (128), j3=3584 (112): FCFS j1 then j2? 272 no ->
  // j1+j3 = 256 no -> j1 only = 4608. MaxUtil: j2+j3 = 240 <= 250 -> 7680.
  std::vector<IoJobView> active = {MakeView(1, 4608, 100, 0),
                                   MakeView(2, 4096, 100, 1),
                                   MakeView(3, 3584, 100, 2)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], 0.0);
  EXPECT_GT(m[2], 0.0);
  EXPECT_GT(m[3], 0.0);
}

TEST(ConsMaxUtil, RespectsCap) {
  ConservativePolicy p(ConservativeOrder::kMaxUtil);
  std::vector<IoJobView> active;
  for (int i = 0; i < 15; ++i) {
    active.push_back(MakeView(i + 1, 1024 * (1 + i % 5), 100, i));
  }
  EXPECT_LE(TotalRate(p.Assign(active, kBwMax, 20)), kBwMax + 1e-9);
}

TEST(ConsMinInstSld, ServesMostSlowedDownFirst) {
  ConservativePolicy p(ConservativeOrder::kMinInstSld);
  // Job 1 has transferred at full speed (InstSld 1); job 2 is starved
  // (InstSld capped). Serving the most-slowed request first minimizes the
  // slowdown; only one fits (128+128 > 250).
  IoJobView fast = MakeView(1, 4096, 1000, 0, /*transferred=*/1280);
  IoJobView starved = MakeView(2, 4096, 1000, 0, /*transferred=*/0);
  std::vector<IoJobView> active = {starved, fast};
  auto m = AsMap(p.Assign(active, kBwMax, 10.0));
  EXPECT_DOUBLE_EQ(m[2], 128.0);  // starved request resumes first
  EXPECT_DOUBLE_EQ(m[1], 0.0);
}

TEST(ConsMinInstSld, DegeneratesToFcfsAmongStarved) {
  ConservativePolicy p(ConservativeOrder::kMinInstSld);
  // Two starved requests (both capped InstSld): FCFS tie-break applies.
  IoJobView a = MakeView(1, 4096, 1000, 5.0);
  IoJobView b = MakeView(2, 4096, 1000, 3.0);  // earlier arrival
  std::vector<IoJobView> active = {a, b};
  auto m = AsMap(p.Assign(active, kBwMax, 10.0));
  EXPECT_DOUBLE_EQ(m[2], 128.0);
  EXPECT_DOUBLE_EQ(m[1], 0.0);
}

TEST(ConsMinAggrSld, ServesMostDelayedJobFirst) {
  ConservativePolicy p(ConservativeOrder::kMinAggrSld);
  IoJobView on_track = MakeView(1, 4096, 1000, 50);
  on_track.job_start = 0;
  on_track.completed_compute_seconds = 50;  // AggrSld(t=60) = 60/50 = 1.2
  IoJobView delayed = MakeView(2, 4096, 1000, 50);
  delayed.job_start = 0;
  delayed.completed_compute_seconds = 20;   // AggrSld(t=60) = 3.0
  std::vector<IoJobView> active = {delayed, on_track};
  auto m = AsMap(p.Assign(active, kBwMax, 60.0));
  EXPECT_DOUBLE_EQ(m[2], 128.0);  // the delayed job catches up
  EXPECT_DOUBLE_EQ(m[1], 0.0);
}

TEST(ConservativeNames, MatchFigureLabels) {
  EXPECT_EQ(ConservativePolicy(ConservativeOrder::kFcfs).name(), "FCFS");
  EXPECT_EQ(ConservativePolicy(ConservativeOrder::kMaxUtil).name(),
            "MAX_UTIL");
  EXPECT_EQ(ConservativePolicy(ConservativeOrder::kMinInstSld).name(),
            "MIN_INST_SLD");
  EXPECT_EQ(ConservativePolicy(ConservativeOrder::kMinAggrSld).name(),
            "MIN_AGGR_SLD");
}

// ---------------------------------------------------------------- adaptive

TEST(Adaptive, BehavesLikeFcfsWithoutOverflow) {
  AdaptivePolicy p;
  std::vector<IoJobView> active = {MakeView(1, 2048, 100, 0),
                                   MakeView(2, 2048, 100, 1)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], 64.0);
  EXPECT_DOUBLE_EQ(m[2], 64.0);
}

TEST(Adaptive, AdmitsOverflowJobWhenSharingIsCheaper) {
  AdaptivePolicy p;
  // Job 1: huge remaining volume at 128 GB/s -> finishes far in the future.
  // Job 2: demand 128+128 = 256 > 250. Deferring job 2 until job 1 finishes
  // costs much more than sharing, so the adaptive test must admit it.
  std::vector<IoJobView> active = {MakeView(1, 4096, 100000, 0),
                                   MakeView(2, 4096, 100, 1)};
  auto grants = p.Assign(active, kBwMax, 10);
  auto m = AsMap(grants);
  EXPECT_GT(m[2], 0.0);
  // Under sharing both jobs get the per-node share.
  double per_node = kBwMax / 8192;
  EXPECT_NEAR(m[1], per_node * 4096, 1e-9);
  EXPECT_NEAR(TotalRate(grants), kBwMax, 1e-9);
}

TEST(Adaptive, DefersOverflowJobWhenWaitingIsCheaper) {
  AdaptivePolicy p;
  // Job 1 has a sliver left (finishes almost immediately at full rate);
  // job 2 is huge. Sharing would slow job 1 for no benefit: T_FCFS beats
  // T_Adaptive, so job 2 must wait.
  std::vector<IoJobView> active = {MakeView(1, 4096, 1000, 0, /*tx=*/999.9),
                                   MakeView(2, 4096, 100000, 1)};
  auto m = AsMap(p.Assign(active, kBwMax, 10));
  EXPECT_DOUBLE_EQ(m[1], 128.0);
  EXPECT_DOUBLE_EQ(m[2], 0.0);
}

TEST(Adaptive, GrantsNeverExceedBwMax) {
  AdaptivePolicy p;
  std::vector<IoJobView> active;
  for (int i = 0; i < 12; ++i) {
    active.push_back(MakeView(i + 1, 4096, 500.0 * (i + 1), i));
  }
  EXPECT_LE(TotalRate(p.Assign(active, kBwMax, 20)), kBwMax + 1e-9);
}

TEST(Adaptive, StarvationGuardForHugeFirstJob) {
  AdaptivePolicy p;
  std::vector<IoJobView> active = {MakeView(1, 16384, 1000, 0)};
  auto m = AsMap(p.Assign(active, kBwMax, 5));
  EXPECT_DOUBLE_EQ(m[1], kBwMax);
}

TEST(EarliestStartIfDeferredTest, ComputesReleaseTime) {
  std::vector<IoJobView> active = {MakeView(1, 4096, 1280, 0),   // 10 s @128
                                   MakeView(2, 4096, 2560, 1),   // 20 s @128
                                   MakeView(3, 4096, 100, 2)};   // candidate
  std::vector<std::uint8_t> admitted = {1, 1, 0};
  std::vector<double> rates = {128.0, 64.0, 0.0};  // job2 at half rate: 40 s
  // Candidate needs 128; available = 250-192 = 58. Job 1 releases 128 at
  // t = now + 1280/128 = now+10 -> available 186 >= 128.
  double t = EarliestStartIfDeferred(active, admitted, rates, 2, kBwMax, 100);
  EXPECT_DOUBLE_EQ(t, 110.0);
}

TEST(EarliestStartIfDeferredTest, ImmediateWhenFits) {
  std::vector<IoJobView> active = {MakeView(1, 2048, 100, 0),
                                   MakeView(2, 2048, 100, 1)};
  std::vector<std::uint8_t> admitted = {1, 0};
  std::vector<double> rates = {64.0, 0.0};
  EXPECT_DOUBLE_EQ(
      EarliestStartIfDeferred(active, admitted, rates, 1, kBwMax, 50), 50.0);
}

// ----------------------------------------------------------------- factory

TEST(PolicyFactory, BuildsEveryFigureName) {
  for (const std::string& name : AllPolicyNames()) {
    auto p = MakePolicy(name);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), name);
  }
}

TEST(PolicyFactory, CaseInsensitiveAndAliases) {
  EXPECT_EQ(MakePolicy("baseline")->name(), "BASE_LINE");
  EXPECT_EQ(MakePolicy("adaptive")->name(), "ADAPTIVE");
  EXPECT_EQ(MakePolicy("cons_fcfs")->name(), "FCFS");
}

TEST(PolicyFactory, BuildsExtensionPolicies) {
  EXPECT_EQ(MakePolicy("BASE_LINE_MAXMIN")->name(), "BASE_LINE_MAXMIN");
}

TEST(PolicyFactory, HelpListsExactlyTheFactoryNames) {
  // Every name in the help text constructs under that name...
  std::vector<std::string> help = util::Split(PolicyNamesHelp(), '|');
  for (const std::string& name : help) {
    EXPECT_EQ(MakePolicy(name)->name(), name);
    EXPECT_TRUE(KnownPolicyName(name)) << name;
  }
  // ...and every name or alias the factory accepts builds a policy the help
  // text lists.
  std::vector<std::string> accepted = {
      "BASE_LINE_MAXMIN", "maxmin", "baseline", "cons_fcfs", "cons-fcfs",
      "cons_maxutil", "cons-maxutil", "cons_mininstsld", "cons_minaggrsld"};
  accepted.insert(accepted.end(), AllPolicyNames().begin(),
                  AllPolicyNames().end());
  for (const std::string& name : accepted) {
    std::string built = MakePolicy(name)->name();
    EXPECT_NE(std::find(help.begin(), help.end(), built), help.end())
        << name << " builds " << built << ", missing from the help text";
  }
  // The six paper policies plus the BASE_LINE_MAXMIN ablation.
  EXPECT_EQ(help.size(), 7u);
  EXPECT_EQ(AllPolicyNames().size(), 6u);
}

TEST(PolicyFactory, UnknownThrows) {
  EXPECT_THROW(MakePolicy("round_robin"), std::invalid_argument);
  EXPECT_THROW(MakePolicy(""), std::invalid_argument);
}

// ------------------------------------------------------------- validation

TEST(ValidateGrantsTest, AcceptsMatchingGrants) {
  std::vector<IoJobView> active = {MakeView(1, 2048, 100, 0)};
  std::vector<RateGrant> grants = {{1, 32.0}};
  EXPECT_NO_THROW(ValidateGrants(active, grants));
}

TEST(ValidateGrantsTest, RejectsBadGrantSets) {
  std::vector<IoJobView> active = {MakeView(1, 2048, 100, 0),
                                   MakeView(2, 2048, 100, 1)};
  std::vector<RateGrant> missing = {{1, 32.0}};
  EXPECT_THROW(ValidateGrants(active, missing), std::logic_error);
  std::vector<RateGrant> negative = {{1, -1.0}, {2, 0.0}};
  EXPECT_THROW(ValidateGrants(active, negative), std::logic_error);
  std::vector<RateGrant> too_fast = {{1, 65.0}, {2, 0.0}};
  EXPECT_THROW(ValidateGrants(active, too_fast), std::logic_error);
  std::vector<RateGrant> duplicate = {{1, 1.0}, {1, 1.0}};
  EXPECT_THROW(ValidateGrants(active, duplicate), std::logic_error);
}

// Property: every policy produces valid grants within BWmax on random
// active sets (the adaptive/baseline share; conservatives pack).
class PolicyPropertySweep
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyPropertySweep, GrantsAlwaysFeasible) {
  auto policy = MakePolicy(GetParam());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<IoJobView> active;
    // Deterministic pseudo-random set construction.
    std::uint64_t x = seed * 2654435761u;
    int count = 1 + static_cast<int>(x % 14);
    for (int i = 0; i < count; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      int nodes = 512 << (x % 6);  // 512..16384
      double volume = 10.0 + static_cast<double>(x % 5000);
      double arrival = static_cast<double>(i);
      auto v = MakeView(i + 1, nodes, volume, arrival);
      v.transferred_gb = (x % 3 == 0) ? volume * 0.25 : 0.0;
      active.push_back(v);
    }
    auto grants = policy->Assign(active, kBwMax, 100.0);
    EXPECT_NO_THROW(ValidateGrants(active, grants));
    EXPECT_LE(TotalRate(grants), kBwMax + 1e-6);
    // At least one job must make progress (no deadlock).
    EXPECT_GT(TotalRate(grants), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyPropertySweep,
                         ::testing::Values("BASE_LINE", "FCFS", "MAX_UTIL",
                                           "MIN_INST_SLD", "MIN_AGGR_SLD",
                                           "ADAPTIVE"));

}  // namespace
}  // namespace iosched::core
