#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace iosched::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_THROW(q.Pop(), std::logic_error);
  EXPECT_THROW(q.PeekTime(), std::logic_error);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(3.0, [&] { order.push_back(3); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(2.0, [&] { order.push_back(2); });
  while (!q.Empty()) q.Pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) q.Pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Push(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.Push(1.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelUnknownFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  EventId id = q.Push(1.0, [] {});
  q.Pop();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelledHeadSkipped) {
  EventQueue q;
  EventId first = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  q.Cancel(first);
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
  Event e = q.Pop();
  EXPECT_DOUBLE_EQ(e.time, 2.0);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
  q.Pop();
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueue, ClearRemovesEverything) {
  EventQueue q;
  q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  q.Clear();
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelTwiceAfterCompactFails) {
  EventQueue q;
  EventId id = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  q.Compact();
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueue, CompactPreservesFifoOrderOfEqualTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> cancel_me;
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      q.Push(7.0, [&order, i] { order.push_back(i); });
    } else {
      cancel_me.push_back(q.Push(7.0, [] {}));
    }
  }
  for (EventId id : cancel_me) EXPECT_TRUE(q.Cancel(id));
  q.Compact();
  EXPECT_EQ(q.HeapSize(), q.Size());
  while (!q.Empty()) q.Pop().action();
  // Even-index events must still pop in push order after the rebuild.
  std::vector<int> expected;
  for (int i = 0; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, SizeAndEmptyConsistentAcrossCompaction) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.Push(static_cast<double>(i), [] {}));
  }
  for (int i = 0; i < 10; i += 2) q.Cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(q.Size(), 5u);
  EXPECT_FALSE(q.Empty());
  q.Compact();
  EXPECT_EQ(q.Size(), 5u);
  EXPECT_EQ(q.HeapSize(), 5u);
  EXPECT_FALSE(q.Empty());
  for (int i = 1; i < 10; i += 2) q.Cancel(ids[static_cast<size_t>(i)]);
  q.Compact();
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.HeapSize(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, AutoCompactionBoundsHeapUnderChurn) {
  // Push/cancel churn with only a few live events — the lazily-cancelled
  // entries must not accumulate past the auto-compaction bound.
  EventQueue q;
  std::vector<EventId> live;
  for (int i = 0; i < 20000; ++i) {
    live.push_back(q.Push(1000.0 + i, [] {}));
    if (live.size() > 4) {
      EXPECT_TRUE(q.Cancel(live.front()));
      live.erase(live.begin());
    }
    // Heap never holds more than the live events plus the compaction slack.
    EXPECT_LE(q.HeapSize(),
              q.Size() + 2 * EventQueue::kCompactionMinCancelled);
  }
  EXPECT_EQ(q.Size(), live.size());
  double last = -1.0;
  while (!q.Empty()) {
    Event e = q.Pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, ReservedIdArmedLaterPopsBeforeEarlierPush) {
  EventQueue q;
  EventId first = q.ReserveIds(2);
  std::vector<int> order;
  EventId pushed = q.Push(5.0, [&] { order.push_back(2); });
  EXPECT_EQ(pushed, first + 2);
  // Armed after the push, but under a lower id: it pops first at the tie.
  q.PushReserved(5.0, first + 1, [&] { order.push_back(1); });
  EXPECT_THROW(q.PushReserved(6.0, first + 1, [] {}), std::logic_error);
  EXPECT_THROW(q.PushReserved(6.0, pushed + 1, [] {}), std::logic_error);
  EXPECT_THROW(q.PushReserved(6.0, 0, [] {}), std::logic_error);
  while (!q.Empty()) q.Pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, StressRandomOrderStaysSorted) {
  EventQueue q;
  util::Rng rng(2024);
  for (int i = 0; i < 5000; ++i) {
    q.Push(rng.Uniform(0, 1000), [] {});
  }
  double last = -1.0;
  while (!q.Empty()) {
    Event e = q.Pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, StressWithRandomCancellation) {
  EventQueue q;
  util::Rng rng(99);
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(q.Push(rng.Uniform(0, 100), [] {}));
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (q.Cancel(ids[i])) ++cancelled;
  }
  EXPECT_EQ(q.Size(), ids.size() - cancelled);
  double last = -1.0;
  std::size_t popped = 0;
  while (!q.Empty()) {
    Event e = q.Pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    ++popped;
  }
  EXPECT_EQ(popped, ids.size() - cancelled);
}

}  // namespace
}  // namespace iosched::sim
