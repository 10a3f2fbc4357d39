// Direct unit tests of ConservativePriorityOrder for every ordering,
// complementing the policy-level tests (which only observe grants).
#include <gtest/gtest.h>

#include <vector>

#include "core/conservative_policy.h"

namespace iosched::core {
namespace {

IoJobView View(workload::JobId id, double arrival, int nodes = 2048,
               double volume = 100.0, double transferred = 0.0) {
  IoJobView v;
  v.id = id;
  v.nodes = nodes;
  v.full_rate_gbps = nodes * 0.03125;
  v.volume_gb = volume;
  v.transferred_gb = transferred;
  v.request_arrival = arrival;
  v.job_start = 0.0;
  v.completed_compute_seconds = arrival;
  v.completed_io_seconds = 0.0;
  return v;
}

TEST(PriorityOrder, FcfsByArrivalThenId) {
  std::vector<IoJobView> active = {View(3, 5.0), View(1, 2.0), View(2, 5.0)};
  auto order =
      ConservativePriorityOrder(active, ConservativeOrder::kFcfs, 10.0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(active[order[0]].id, 1);
  EXPECT_EQ(active[order[1]].id, 2);  // id tie-break at arrival 5.0
  EXPECT_EQ(active[order[2]].id, 3);
}

TEST(PriorityOrder, MaxUtilFallsBackToFcfs) {
  std::vector<IoJobView> active = {View(2, 9.0), View(1, 1.0)};
  auto order =
      ConservativePriorityOrder(active, ConservativeOrder::kMaxUtil, 10.0);
  EXPECT_EQ(active[order[0]].id, 1);
}

TEST(PriorityOrder, MinInstSldDescending) {
  // Job 1 at full speed (InstSld 1); job 2 at half speed (2); job 3 starved
  // (cap). Expected order: 3, 2, 1.
  std::vector<IoJobView> active = {
      View(1, 0.0, 2048, 1000, /*transferred=*/640.0),   // 64*10 ideal
      View(2, 0.0, 2048, 1000, /*transferred=*/320.0),
      View(3, 0.0, 2048, 1000, /*transferred=*/0.0)};
  auto order = ConservativePriorityOrder(
      active, ConservativeOrder::kMinInstSld, 10.0);
  EXPECT_EQ(active[order[0]].id, 3);
  EXPECT_EQ(active[order[1]].id, 2);
  EXPECT_EQ(active[order[2]].id, 1);
}

TEST(PriorityOrder, MinAggrSldDescending) {
  IoJobView on_track = View(1, 40.0);
  on_track.completed_compute_seconds = 40.0;  // AggrSld(50) = 1.25
  IoJobView delayed = View(2, 40.0);
  delayed.completed_compute_seconds = 10.0;   // AggrSld(50) = 5.0
  std::vector<IoJobView> active = {on_track, delayed};
  auto order = ConservativePriorityOrder(
      active, ConservativeOrder::kMinAggrSld, 50.0);
  EXPECT_EQ(active[order[0]].id, 2);
  EXPECT_EQ(active[order[1]].id, 1);
}

TEST(PriorityOrder, EmptyActiveSet) {
  std::vector<IoJobView> active;
  EXPECT_TRUE(ConservativePriorityOrder(active, ConservativeOrder::kFcfs, 0.0)
                  .empty());
}

}  // namespace
}  // namespace iosched::core
