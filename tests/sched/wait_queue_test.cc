// Property tests for the incrementally maintained wait-queue order: under
// randomized arrivals, completions and requeues, WaitQueue::Ordered must
// yield exactly the sequence a full OrderQueue re-sort produces — element
// for element, including (submit_time, id) tie-breaks — on every pass.
#include "sched/wait_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/queue_policy.h"
#include "util/rng.h"
#include "workload/job.h"

namespace iosched::sched {
namespace {

std::vector<workload::Job> MakeJobPool(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<workload::Job> pool(count);
  for (std::size_t i = 0; i < count; ++i) {
    workload::Job& j = pool[i];
    j.id = static_cast<workload::JobId>(i + 1);
    // Coarse submit times force frequent (submit_time, id) ties; a handful
    // of walltime/node combinations force frequent score ties under WFP.
    j.submit_time = 100.0 * static_cast<double>(rng.UniformInt(0, 40));
    j.nodes = 512 << static_cast<int>(rng.UniformInt(0, 3));
    j.requested_walltime =
        600.0 * static_cast<double>(1 + rng.UniformInt(0, 5));
    j.phases = {workload::Phase::Compute(100.0)};
  }
  return pool;
}

/// Drive random insert/remove/requeue traffic through a WaitQueue and a
/// mirror job list; after every step the incremental order must equal the
/// full re-sort of the mirror.
void RunEquivalence(QueueOrder order, std::uint64_t seed) {
  const std::size_t pool_size = 160;
  std::vector<workload::Job> pool = MakeJobPool(pool_size, seed);
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);

  WaitQueue wq(order);
  std::vector<const workload::Job*> mirror;
  std::vector<bool> queued(pool_size, false);
  double now = 0.0;

  for (int step = 0; step < 600; ++step) {
    now += rng.Uniform(0.0, 300.0);
    int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 5 || mirror.empty()) {
      // Arrival: queue a random job that is not currently waiting.
      std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(pool_size) - 1));
      if (queued[pick]) continue;
      queued[pick] = true;
      wq.Insert(pool[pick], pool[pick].nodes);
      mirror.push_back(&pool[pick]);
    } else {
      // Completion or requeue of a random waiting job. A requeue re-enters
      // with the original submit time, exactly as the scheduler's failure
      // path does, so it reduces to remove + insert.
      std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(mirror.size()) - 1));
      const workload::Job* victim = mirror[pick];
      wq.Remove(victim->id);
      mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(pick));
      if (op >= 8) {
        wq.Insert(*victim, victim->nodes);
        mirror.push_back(victim);
      } else {
        queued[static_cast<std::size_t>(victim->id - 1)] = false;
      }
    }

    std::vector<const workload::Job*> expected =
        OrderQueue(mirror, order, now);
    std::span<const WaitQueue::Entry> got = wq.Ordered(now);
    ASSERT_EQ(got.size(), expected.size()) << "step " << step;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i].job, expected[i])
          << "step " << step << " position " << i << " at now=" << now
          << ": incremental order diverged from full re-sort";
    }
  }
}

TEST(WaitQueueEquivalence, WfpMatchesFullResortEveryPass) {
  for (std::uint64_t seed : {1ull, 17ull, 4242ull}) {
    RunEquivalence(QueueOrder::kWfp, seed);
  }
}

TEST(WaitQueueEquivalence, FcfsMatchesFullResortEveryPass) {
  for (std::uint64_t seed : {3ull, 23ull, 999ull}) {
    RunEquivalence(QueueOrder::kFcfs, seed);
  }
}

TEST(WaitQueueTest, FcfsPassCostsZeroComparisons) {
  std::vector<workload::Job> pool = MakeJobPool(32, 7);
  WaitQueue wq(QueueOrder::kFcfs);
  for (const workload::Job& j : pool) wq.Insert(j, j.nodes);
  wq.Ordered(5000.0);
  EXPECT_EQ(wq.last_pass_comparisons(), 0u);
}

TEST(WaitQueueTest, WfpSteadyQueueCostsLinearComparisons) {
  // With no arrivals between passes the standing order is already sorted
  // (score curves cross at most once, and none cross here because every job
  // shares submit_time ordering); the verify sweep costs exactly n - 1.
  std::vector<workload::Job> pool(16);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].id = static_cast<workload::JobId>(i + 1);
    pool[i].submit_time = 100.0 * static_cast<double>(i);
    pool[i].nodes = 1024;
    pool[i].requested_walltime = 3600.0;
    pool[i].phases = {workload::Phase::Compute(100.0)};
  }
  WaitQueue wq(QueueOrder::kWfp);
  for (const workload::Job& j : pool) wq.Insert(j, j.nodes);
  wq.Ordered(10000.0);
  wq.Ordered(12000.0);
  EXPECT_EQ(wq.last_pass_comparisons(), pool.size() - 1);
}

TEST(WaitQueueTest, FcfsRequeueKeepsOriginalPositionAmongTiedSubmitTimes) {
  // Three jobs submitted at the same instant: the FCFS order is the id
  // tie-break (1, 3, 5) regardless of insertion order, and a requeued job
  // must slot back into exactly its original position — (submit_time, id)
  // is unique, so Insert's upper_bound has only one legal landing spot.
  std::vector<workload::Job> pool(3);
  workload::JobId ids[] = {5, 1, 3};
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].id = ids[i];
    pool[i].submit_time = 1000.0;
    pool[i].nodes = 512;
    pool[i].requested_walltime = 3600.0;
    pool[i].phases = {workload::Phase::Compute(100.0)};
  }
  WaitQueue wq(QueueOrder::kFcfs);
  for (const workload::Job& j : pool) wq.Insert(j, j.nodes);

  auto ordered_ids = [&wq] {
    std::vector<workload::JobId> out;
    for (const WaitQueue::Entry& e : wq.Ordered(2000.0)) out.push_back(e.id);
    return out;
  };
  EXPECT_EQ(ordered_ids(), (std::vector<workload::JobId>{1, 3, 5}));

  wq.Remove(3);
  wq.Insert(pool[2], pool[2].nodes);  // requeue the middle of the tie group
  EXPECT_EQ(ordered_ids(), (std::vector<workload::JobId>{1, 3, 5}));
}

TEST(WaitQueueTest, WfpBudgetExhaustionFallsBackToFullSort) {
  // Insert in descending-score order's mirror image: jobs submitted later
  // sit earlier in the standing vector, so the first WFP pass sees a fully
  // reversed queue. Total displacement is n(n-1)/2 = 2016, far beyond the
  // 4n + 64 = 320 budget, forcing the std::sort fallback — whose output
  // must still match the full re-sort exactly.
  const std::size_t n = 64;
  std::vector<workload::Job> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool[i].id = static_cast<workload::JobId>(i + 1);
    // Later insertions have earlier submit times => higher wait => higher
    // score => belong earlier: every pair is inverted.
    pool[i].submit_time = 100.0 * static_cast<double>(n - i);
    pool[i].nodes = 1024;
    pool[i].requested_walltime = 3600.0;
    pool[i].phases = {workload::Phase::Compute(100.0)};
  }
  WaitQueue wq(QueueOrder::kWfp);
  std::vector<const workload::Job*> mirror;
  for (const workload::Job& j : pool) {
    wq.Insert(j, j.nodes);
    mirror.push_back(&j);
  }

  const double now = 50000.0;
  std::vector<const workload::Job*> expected =
      OrderQueue(mirror, QueueOrder::kWfp, now);
  std::span<const WaitQueue::Entry> got = wq.Ordered(now);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i].job, expected[i]) << "position " << i;
  }
  // The cheap paths cost 0 (FCFS) or n - 1 (already-sorted sweep)
  // comparisons; blowing the displacement budget costs strictly more.
  EXPECT_GT(wq.last_pass_comparisons(), n - 1);
}

TEST(WaitQueueTest, RemoveAbsentIsNoOp) {
  std::vector<workload::Job> pool = MakeJobPool(4, 11);
  WaitQueue wq(QueueOrder::kWfp);
  for (const workload::Job& j : pool) wq.Insert(j, j.nodes);
  wq.Remove(9999);
  EXPECT_EQ(wq.size(), 4u);
}

}  // namespace
}  // namespace iosched::sched
