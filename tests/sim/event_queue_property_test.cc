// Model-based property test: the cancellable event queue must behave like a
// reference multiset of (time, id) pairs under arbitrary interleavings of
// push/cancel/pop.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <utility>
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

// The whole public surface against a std::set model: pushes, cancels of
// live, dead and never-issued ids, pops, reserved ids armed out of order,
// Clear, and SetNextId (which must refuse a queue holding any entry).
class EventQueueFullModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFullModel, MatchesSetModelUnderEveryOperation) {
  util::Rng rng(GetParam());
  EventQueue queue;
  std::set<std::pair<double, EventId>> model;  // live (time, id)
  std::map<EventId, double> time_of;           // live id -> time
  std::vector<EventId> reserved;               // handed out, never armed
  std::vector<EventId> issued;                 // every id ever handed out
  auto pick = [&rng](const std::vector<EventId>& v) {
    return v[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(v.size()) - 1))];
  };
  auto add = [&](double t, EventId id) {
    model.emplace(t, id);
    time_of[id] = t;
  };
  auto remove = [&](EventId id) {
    model.erase({time_of.at(id), id});
    time_of.erase(id);
  };

  for (int step = 0; step < 20000; ++step) {
    double action = rng.Uniform(0, 1);
    // Coarse times so equal timestamps, and the id tie-break, are common.
    double t = static_cast<double>(rng.UniformInt(0, 200));
    if (action < 0.35) {
      EventId id = queue.Push(t, 0, 0);
      add(t, id);
      issued.push_back(id);
    } else if (action < 0.6) {
      if (issued.empty()) continue;
      // Sometimes an id that was never handed out.
      EventId id = rng.Bernoulli(0.1) ? queue.next_id() + 5 : pick(issued);
      bool live = time_of.count(id) != 0;
      ASSERT_EQ(queue.Cancel(id), live) << "id " << id;
      if (live) remove(id);
      // Cancel's compaction keeps the purge backlog within its bound.
      std::size_t cancelled = queue.HeapSize() - queue.Size();
      ASSERT_TRUE(cancelled < EventQueue::kCompactionMinCancelled ||
                  cancelled <= queue.Size())
          << cancelled << " cancelled entries beside " << queue.Size();
    } else if (action < 0.8) {
      if (model.empty()) {
        EXPECT_THROW(queue.Pop(), std::logic_error);
        continue;
      }
      Event e = queue.Pop();
      ASSERT_EQ(e.time, model.begin()->first);
      ASSERT_EQ(e.id, model.begin()->second);
      remove(e.id);
    } else if (action < 0.86) {
      std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 4));
      EventId first = queue.ReserveIds(n);
      for (std::size_t i = 0; i < n; ++i) {
        reserved.push_back(first + i);
        issued.push_back(first + i);
      }
    } else if (action < 0.94) {
      if (reserved.empty()) continue;
      std::size_t at = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(reserved.size()) - 1));
      EventId id = reserved[at];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(at));
      queue.PushReserved(Event{t, id, 0, 0});
      add(t, id);
      ASSERT_THROW(queue.PushReserved(Event{t, id, 0, 0}), std::logic_error);
      ASSERT_THROW(queue.PushReserved(Event{t, queue.next_id(), 0, 0}),
                   std::logic_error);
    } else if (action < 0.97) {
      bool has_entries = queue.HeapSize() != 0;
      EventId next = queue.next_id() + static_cast<EventId>(
                                           rng.UniformInt(0, 70));
      if (has_entries) {
        ASSERT_THROW(queue.SetNextId(next), std::logic_error);
        continue;
      }
      queue.SetNextId(next);
      reserved.clear();
    } else if (action < 0.985) {
      queue.Clear();
      model.clear();
      time_of.clear();
    } else {
      // Drain through Compact so SetNextId becomes legal at times.
      while (!model.empty()) {
        ASSERT_EQ(queue.Pop().id, model.begin()->second);
        remove(model.begin()->second);
      }
      queue.Compact();
      ASSERT_EQ(queue.HeapSize(), 0u);
    }

    ASSERT_EQ(queue.Size(), model.size());
    ASSERT_EQ(queue.Empty(), model.empty());
    ASSERT_GE(queue.HeapSize(), queue.Size());
    if (!model.empty()) {
      ASSERT_EQ(queue.PeekTime(), model.begin()->first);
    }
    if (!issued.empty()) {
      EventId id = pick(issued);
      ASSERT_EQ(queue.Contains(id), time_of.count(id) != 0) << "id " << id;
    }
    ASSERT_FALSE(queue.Contains(queue.next_id()));
    ASSERT_FALSE(queue.Contains(0));
    if (step % 500 == 0) {
      std::vector<Event> pending = queue.Pending();
      ASSERT_EQ(pending.size(), model.size());
      auto it = model.begin();
      for (const Event& e : pending) {
        ASSERT_EQ(e.id, it->second);
        ++it;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFullModel,
                         ::testing::Values(5ull, 1234ull, 99991ull));

}  // namespace
}  // namespace iosched::sim
