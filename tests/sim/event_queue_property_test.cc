// Model-based property test: the cancellable event queue must behave like a
// reference multiset of (time, id) pairs under arbitrary interleavings of
// push/cancel/pop.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace iosched::sim {
namespace {

class EventQueueModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModelSweep, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  EventQueue queue;
  // Reference: live events ordered by (time, id) — the queue's contract.
  std::set<std::pair<double, EventId>> model;
  std::vector<EventId> issued;

  for (int step = 0; step < 5000; ++step) {
    double action = rng.Uniform(0, 1);
    if (action < 0.5 || model.empty()) {
      double t = rng.Uniform(0, 1000);
      EventId id = queue.Push(t, 0, 0);
      model.emplace(t, id);
      issued.push_back(id);
    } else if (action < 0.75) {
      // Cancel a random previously issued id (may be dead already).
      EventId id = issued[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<long long>(issued.size()) - 1))];
      bool live = false;
      for (const auto& [t, mid] : model) {
        if (mid == id) {
          live = true;
          break;
        }
      }
      EXPECT_EQ(queue.Cancel(id), live);
      if (live) {
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second == id) {
            model.erase(it);
            break;
          }
        }
      }
    } else {
      Event e = queue.Pop();
      ASSERT_FALSE(model.empty());
      EXPECT_DOUBLE_EQ(e.time, model.begin()->first);
      EXPECT_EQ(e.id, model.begin()->second);
      model.erase(model.begin());
    }
    ASSERT_EQ(queue.Size(), model.size());
    ASSERT_EQ(queue.Empty(), model.empty());
    if (!model.empty()) {
      ASSERT_DOUBLE_EQ(queue.PeekTime(), model.begin()->first);
    }
  }
  // Drain and verify global ordering.
  while (!queue.Empty()) {
    Event e = queue.Pop();
    ASSERT_EQ(e.id, model.begin()->second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelSweep,
                         ::testing::Values(1ull, 77ull, 4242ull, 987654ull));

}  // namespace
}  // namespace iosched::sim
