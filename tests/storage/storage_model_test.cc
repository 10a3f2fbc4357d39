#include "storage/storage_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/serializer.h"

namespace iosched::storage {
namespace {

StorageConfig Cfg(double bwmax = 100.0) {
  StorageConfig cfg;
  cfg.max_bandwidth_gbps = bwmax;
  return cfg;
}

TEST(StorageModel, BeginAndQuery) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  EXPECT_TRUE(sm.Has(1));
  EXPECT_FALSE(sm.Has(2));
  const Transfer& t = sm.Get(1);
  EXPECT_EQ(t.nodes, 512);
  EXPECT_DOUBLE_EQ(t.volume_gb, 100.0);
  EXPECT_DOUBLE_EQ(t.rate_gbps, 0.0);  // starts suspended
  EXPECT_EQ(sm.active_count(), 1u);
}

TEST(StorageModel, DuplicateBeginThrows) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  EXPECT_THROW(sm.Begin(1, 512, 16.0, 50.0, 1.0), std::logic_error);
}

TEST(StorageModel, BadParamsThrow) {
  StorageModel sm(Cfg());
  EXPECT_THROW(sm.Begin(1, 0, 16.0, 100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(sm.Begin(1, 512, 0.0, 100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(sm.Begin(1, 512, 16.0, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(StorageModel(Cfg(0.0)), std::invalid_argument);
}

TEST(StorageModel, ProgressAccruesUnderRate) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.SetRate(1, 10.0);
  sm.AdvanceTo(4.0);
  EXPECT_DOUBLE_EQ(sm.Get(1).transferred_gb, 40.0);
  EXPECT_DOUBLE_EQ(sm.Get(1).RemainingGb(), 60.0);
  EXPECT_FALSE(sm.Get(1).Complete());
}

TEST(StorageModel, SuspendedMakesNoProgress) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.AdvanceTo(50.0);
  EXPECT_DOUBLE_EQ(sm.Get(1).transferred_gb, 0.0);
}

TEST(StorageModel, ProgressClampedAtVolume) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 10.0, 0.0);
  sm.SetRate(1, 16.0);
  sm.AdvanceTo(100.0);
  EXPECT_DOUBLE_EQ(sm.Get(1).transferred_gb, 10.0);
  EXPECT_TRUE(sm.Get(1).Complete());
}

TEST(StorageModel, RateValidation) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  EXPECT_THROW(sm.SetRate(1, -1.0), std::invalid_argument);
  EXPECT_THROW(sm.SetRate(1, 17.0), std::invalid_argument);  // > full rate
  EXPECT_THROW(sm.SetRate(2, 1.0), std::logic_error);        // unknown job
  sm.SetRate(1, 16.0);
  EXPECT_DOUBLE_EQ(sm.Get(1).rate_gbps, 16.0);
}

TEST(StorageModel, TimeBackwardsThrows) {
  StorageModel sm(Cfg());
  sm.AdvanceTo(10.0);
  EXPECT_THROW(sm.AdvanceTo(5.0), std::logic_error);
}

TEST(StorageModel, EndRequiresCompletion) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  EXPECT_THROW(sm.End(1), std::logic_error);
  sm.SetRate(1, 10.0);
  sm.AdvanceTo(10.0);
  EXPECT_NO_THROW(sm.End(1));
  EXPECT_FALSE(sm.Has(1));
}

TEST(StorageModel, AbortRemovesIncomplete) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.Abort(1);
  EXPECT_FALSE(sm.Has(1));
  EXPECT_THROW(sm.Abort(1), std::logic_error);
}

TEST(StorageModel, AbortMissingJobReportsTransferCount) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.Begin(2, 512, 16.0, 100.0, 0.0);
  try {
    sm.Abort(7);
    FAIL() << "Abort of a missing job must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("job 7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2 active transfers"),
              std::string::npos);
  }
}

TEST(StorageModel, EndReturnsFinalTransferState) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.SetRate(1, 10.0);
  sm.AdvanceTo(10.0);
  Transfer t = sm.End(1);
  EXPECT_EQ(t.job_id, 1);
  EXPECT_DOUBLE_EQ(t.volume_gb, 100.0);
  EXPECT_DOUBLE_EQ(t.transferred_gb, 100.0);
  EXPECT_FALSE(sm.Has(1));
}

TEST(StorageModel, TryGetFindsOrReturnsNull) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  ASSERT_TRUE(sm.TryGet(1).has_value());
  EXPECT_EQ(sm.TryGet(1)->job_id, 1);
  EXPECT_FALSE(sm.TryGet(2).has_value());
}

TEST(StorageModel, IncrementalAggregatesTrackActiveSet) {
  StorageModel sm(Cfg());
  EXPECT_DOUBLE_EQ(sm.TotalDemand(), 0.0);
  EXPECT_EQ(sm.TotalActiveNodes(), 0);
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.Begin(2, 1024, 32.0, 50.0, 0.0);
  EXPECT_DOUBLE_EQ(sm.TotalDemand(), 48.0);
  EXPECT_EQ(sm.TotalActiveNodes(), 1536);
  sm.SetRate(1, 10.0);
  sm.SetRate(2, 20.0);
  EXPECT_DOUBLE_EQ(sm.TotalAssignedRate(), 30.0);
  sm.Abort(2);
  EXPECT_DOUBLE_EQ(sm.TotalDemand(), 16.0);
  EXPECT_EQ(sm.TotalActiveNodes(), 512);
  EXPECT_DOUBLE_EQ(sm.TotalAssignedRate(), 10.0);
  sm.Abort(1);
  EXPECT_DOUBLE_EQ(sm.TotalDemand(), 0.0);
  EXPECT_EQ(sm.TotalActiveNodes(), 0);
  EXPECT_DOUBLE_EQ(sm.TotalAssignedRate(), 0.0);
}

TEST(StorageModel, IndexSurvivesSwapEraseChurn) {
  // End/Abort swap-erase dense slots; every surviving job must stay
  // reachable with its own data through heavy churn.
  StorageModel sm(Cfg(1e9));
  for (int round = 0; round < 5; ++round) {
    for (int j = 0; j < 40; ++j) {
      workload::JobId id = round * 100 + j;
      if (!sm.Has(id)) sm.Begin(id, 512, 16.0, 10.0 + j, sm.last_update());
    }
    // Abort every third job of this round.
    for (int j = 0; j < 40; j += 3) sm.Abort(round * 100 + j);
    for (int j = 0; j < 40; ++j) {
      workload::JobId id = round * 100 + j;
      if (j % 3 == 0) {
        EXPECT_FALSE(sm.Has(id));
      } else {
        ASSERT_TRUE(sm.Has(id));
        EXPECT_DOUBLE_EQ(sm.Get(id).volume_gb, 10.0 + j);
      }
    }
  }
  auto active = sm.ActiveByArrival();
  EXPECT_EQ(active.size(), sm.active_count());
  EXPECT_TRUE(std::is_sorted(
      active.begin(), active.end(),
      [](const Transfer* a, const Transfer* b) {
        if (a->request_arrival != b->request_arrival) {
          return a->request_arrival < b->request_arrival;
        }
        return a->job_id < b->job_id;
      }));
}

TEST(StorageModel, ActiveByArrivalOrdersFcfs) {
  StorageModel sm(Cfg());
  sm.Begin(3, 512, 16.0, 10.0, 0.0);
  sm.AdvanceTo(1.0);
  sm.Begin(1, 512, 16.0, 10.0, 1.0);
  sm.Begin(2, 512, 16.0, 10.0, 1.0);  // same time as job 1: id tie-break
  auto active = sm.ActiveByArrival();
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0]->job_id, 3);
  EXPECT_EQ(active[1]->job_id, 1);
  EXPECT_EQ(active[2]->job_id, 2);
}

TEST(StorageModel, NextCompletionPicksEarliest) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);  // at 10 GB/s -> 10 s
  sm.Begin(2, 512, 16.0, 30.0, 0.0);   // at 10 GB/s -> 3 s
  sm.SetRate(1, 10.0);
  sm.SetRate(2, 10.0);
  auto next = sm.NextCompletion();
  ASSERT_TRUE(next.has_value());
  EXPECT_DOUBLE_EQ(next->first, 3.0);
  EXPECT_EQ(next->second, 2);
}

TEST(StorageModel, NextCompletionIgnoresSuspended) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  EXPECT_FALSE(sm.NextCompletion().has_value());
  sm.SetRate(1, 10.0);
  EXPECT_TRUE(sm.NextCompletion().has_value());
}

TEST(StorageModel, NextCompletionAfterPartialProgress) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.SetRate(1, 10.0);
  sm.AdvanceTo(5.0);   // 50 GB left
  sm.SetRate(1, 5.0);  // new rate
  auto next = sm.NextCompletion();
  ASSERT_TRUE(next.has_value());
  EXPECT_DOUBLE_EQ(next->first, 15.0);  // 5 + 50/5
}

TEST(StorageModel, ValidateAssignmentEnforcesCap) {
  StorageModel sm(Cfg(20.0));
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.Begin(2, 512, 16.0, 100.0, 0.0);
  sm.SetRate(1, 16.0);
  sm.SetRate(2, 16.0);  // 32 > 20
  EXPECT_THROW(sm.ValidateAssignment(), std::logic_error);
  sm.SetRate(2, 4.0);
  EXPECT_NO_THROW(sm.ValidateAssignment());
}

TEST(StorageModel, ValidateAssignmentCanBeDisabled) {
  StorageConfig cfg = Cfg(20.0);
  cfg.enforce_capacity = false;
  StorageModel sm(cfg);
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.Begin(2, 512, 16.0, 100.0, 0.0);
  sm.SetRate(1, 16.0);
  sm.SetRate(2, 16.0);
  EXPECT_NO_THROW(sm.ValidateAssignment());
}

TEST(StorageModel, ForceCompleteWritesOffSliver) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.SetRate(1, 10.0);
  sm.AdvanceTo(9.9999999);  // ~1e-6 GB sliver remains
  EXPECT_FALSE(sm.Get(1).Complete());
  sm.ForceComplete(1, /*max_sliver_gb=*/0.01);
  EXPECT_TRUE(sm.Get(1).Complete());
  EXPECT_NO_THROW(sm.End(1));
}

TEST(StorageModel, ForceCompleteRejectsLargeRemainder) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.SetRate(1, 10.0);
  sm.AdvanceTo(5.0);  // 50 GB left
  EXPECT_THROW(sm.ForceComplete(1, 0.01), std::logic_error);
  EXPECT_THROW(sm.ForceComplete(2, 0.01), std::logic_error);  // unknown
}

TEST(FairShareRatesTest, NoCongestionFullRates) {
  StorageModel sm(Cfg(100.0));
  sm.Begin(1, 1024, 32.0, 10.0, 0.0);
  sm.Begin(2, 1024, 32.0, 10.0, 0.0);
  auto rates = FairShareRates(sm.ActiveByArrival(), 100.0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0].second, 32.0);
  EXPECT_DOUBLE_EQ(rates[1].second, 32.0);
}

TEST(FairShareRatesTest, CongestionSharesPerNode) {
  StorageModel sm(Cfg(48.0));
  sm.Begin(1, 1024, 32.0, 10.0, 0.0);  // 1024 nodes
  sm.Begin(2, 2048, 64.0, 10.0, 0.0);  // 2048 nodes
  auto rates = FairShareRates(sm.ActiveByArrival(), 48.0);
  // per-node share = 48 / 3072 = 0.015625 GB/s
  EXPECT_NEAR(rates[0].second, 16.0, 1e-9);
  EXPECT_NEAR(rates[1].second, 32.0, 1e-9);
  EXPECT_NEAR(rates[0].second + rates[1].second, 48.0, 1e-9);
}

TEST(FairShareRatesTest, EmptyActiveSet) {
  auto rates = FairShareRates({}, 100.0);
  EXPECT_TRUE(rates.empty());
}

TEST(FairShareRatesTest, WaterFillsSlackFromCappedJobs) {
  // Job 1's full rate (2 GB/s) is far below its proportional share of
  // BWmax; before the water-filling fix its unused share was stranded and
  // the total assigned rate fell short of BWmax.
  StorageModel sm(Cfg(48.0));
  sm.Begin(1, 1024, 2.0, 10.0, 0.0);   // demand-capped at 2 GB/s
  sm.Begin(2, 2048, 64.0, 10.0, 0.0);  // wants far more than its share
  auto rates = FairShareRates(sm.ActiveByArrival(), 48.0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0].second, 2.0);
  // The remaining 46 GB/s all flows to job 2 (still below its 64 demand).
  EXPECT_NEAR(rates[1].second, 46.0, 1e-9);
  double total = rates[0].second + rates[1].second;
  double total_demand = 2.0 + 64.0;
  EXPECT_NEAR(total, std::min(total_demand, 48.0), 1e-9);
}

TEST(FairShareRatesTest, WaterFillingRedistributesIteratively) {
  // Two successive capping levels: job 1 caps first, then job 2 caps at the
  // raised level, and job 3 absorbs the rest.
  StorageModel sm(Cfg(90.0));
  sm.Begin(1, 1024, 5.0, 10.0, 0.0);    // per-node demand far below share
  sm.Begin(2, 1024, 30.0, 10.0, 0.0);   // caps only after job 1's slack
  sm.Begin(3, 1024, 100.0, 10.0, 0.0);  // never satisfied
  auto rates = FairShareRates(sm.ActiveByArrival(), 90.0);
  ASSERT_EQ(rates.size(), 3u);
  // Proportional share would be 30 each; job 1 takes 5, freeing 25. The
  // raised level gives jobs 2 and 3 up to 42.5 each; job 2 caps at 30 and
  // job 3 gets the remaining 55.
  EXPECT_DOUBLE_EQ(rates[0].second, 5.0);
  EXPECT_DOUBLE_EQ(rates[1].second, 30.0);
  EXPECT_NEAR(rates[2].second, 55.0, 1e-9);
  double total = rates[0].second + rates[1].second + rates[2].second;
  EXPECT_NEAR(total, 90.0, 1e-9);  // min(total_demand=135, BWmax=90)
}

TEST(WaterFillRatesTest, UncongestedGrantsFullDemands) {
  std::vector<double> demands{10.0, 20.0};
  std::vector<int> nodes{512, 1024};
  std::vector<double> rates(2);
  WaterFillRates(demands, nodes, 100.0, rates);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 20.0);
}

TEST(WaterFillRatesTest, SaturatesBwmaxUnderCongestion) {
  std::vector<double> demands{1.0, 50.0, 80.0};
  std::vector<int> nodes{512, 512, 1024};
  std::vector<double> rates(3);
  WaterFillRates(demands, nodes, 60.0, rates);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_NEAR(rates[0] + rates[1] + rates[2], 60.0, 1e-9);
  // Uncapped transfers split the remainder in proportion to nodes.
  EXPECT_NEAR(rates[2], rates[1] * 2.0, 1e-6);
}

TEST(StorageModel, SetMaxBandwidthAccruesInFlightAtOldRate) {
  StorageModel sm(Cfg(100.0));
  sm.Begin(1, 1024, 32.0, 100.0, 0.0);
  sm.SetRate(1, 20.0);
  // Shrink at t=3: the transfer must have moved 60 GB at the old rate
  // before the cap changes.
  sm.SetMaxBandwidth(50.0, 3.0);
  EXPECT_DOUBLE_EQ(sm.Get(1).transferred_gb, 60.0);
  EXPECT_DOUBLE_EQ(sm.config().max_bandwidth_gbps, 50.0);
  // The grant is not rescaled by the model; the caller's next cycle must
  // produce a feasible assignment.
  EXPECT_DOUBLE_EQ(sm.Get(1).rate_gbps, 20.0);
  sm.SetRate(1, 10.0);
  EXPECT_NO_THROW(sm.ValidateAssignment());
  // Restore mid-flight: progress again attributed at the pre-change rate.
  sm.SetMaxBandwidth(100.0, 5.0);
  EXPECT_DOUBLE_EQ(sm.Get(1).transferred_gb, 80.0);
}

TEST(StorageModel, SetMaxBandwidthRejectsNonPositive) {
  StorageModel sm(Cfg(100.0));
  EXPECT_THROW(sm.SetMaxBandwidth(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(sm.SetMaxBandwidth(-5.0, 0.0), std::invalid_argument);
}

TEST(StorageModel, ShrinkMovesNextCompletionLater) {
  StorageModel sm(Cfg(100.0));
  sm.Begin(1, 1024, 32.0, 100.0, 0.0);
  sm.SetRate(1, 20.0);
  auto before = sm.NextCompletion();
  ASSERT_TRUE(before.has_value());
  EXPECT_DOUBLE_EQ(before->first, 5.0);
  sm.SetMaxBandwidth(10.0, 2.0);  // 40 GB moved, 60 left
  sm.SetRate(1, 10.0);            // the forced cycle's new feasible grant
  auto after = sm.NextCompletion();
  ASSERT_TRUE(after.has_value());
  EXPECT_DOUBLE_EQ(after->first, 8.0);  // 2 + 60/10
}

TEST(StorageModel, CheckpointRejectsAnArrivalSlotPastTheTransfers) {
  StorageModel sm(Cfg());
  sm.Begin(1, 512, 16.0, 100.0, 0.0);
  sm.Begin(2, 512, 16.0, 100.0, 1.0);
  sm.SetRate(2, 8.0);
  ckpt::Writer w;
  sm.Serialize(w);
  StorageModel copy(Cfg());
  ckpt::Reader r(w.buffer(), "storage");
  copy.Serialize(r);
  r.ExpectEnd();
  EXPECT_DOUBLE_EQ(copy.Get(2).rate_gbps, 8.0);  // the id index is rebuilt
  EXPECT_DOUBLE_EQ(copy.TotalAssignedRate(), sm.TotalAssignedRate());

  // The file ends with the arrival order's dense slots, one u32 each.
  std::string bytes = w.buffer();
  bytes[bytes.size() - 4] = 2;  // slot 2 of 2 transfers
  StorageModel damaged(Cfg());
  ckpt::Reader bad(bytes, "storage");
  EXPECT_THROW(damaged.Serialize(bad), ckpt::FormatError);
}

}  // namespace
}  // namespace iosched::storage
