#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace iosched::sim {
namespace {

/// Pops every live event, returning their keys in pop order.
std::vector<std::int64_t> DrainKeys(EventQueue& q) {
  std::vector<std::int64_t> keys;
  while (!q.Empty()) keys.push_back(q.Pop().key);
  return keys;
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_THROW(q.Pop(), std::logic_error);
  EXPECT_THROW(q.PeekTime(), std::logic_error);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.Push(3.0, 0, 0, 3);
  q.Push(1.0, 0, 0, 1);
  q.Push(2.0, 0, 0, 2);
  EXPECT_EQ(DrainKeys(q), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinTimestamp) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.Push(5.0, 0, 0, i);
  std::vector<std::int64_t> order = DrainKeys(q);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReturnsThePushedData) {
  EventQueue q;
  EventId id = q.Push(4.5, 7, 3, -42, 1.25);
  Event e = q.Pop();
  EXPECT_DOUBLE_EQ(e.time, 4.5);
  EXPECT_EQ(e.id, id);
  EXPECT_EQ(e.owner, 7);
  EXPECT_EQ(e.kind, 3);
  EXPECT_EQ(e.key, -42);
  EXPECT_DOUBLE_EQ(e.arg, 1.25);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  EventId id = q.Push(1.0, 0, 0);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.Contains(id));
  EXPECT_THROW(q.Pop(), std::logic_error);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.Push(1.0, 0, 0);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelUnknownFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  EventId id = q.Push(1.0, 0, 0);
  q.Pop();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueue, CancelledHeadSkipped) {
  EventQueue q;
  EventId first = q.Push(1.0, 0, 0);
  q.Push(2.0, 0, 0);
  q.Cancel(first);
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
  Event e = q.Pop();
  EXPECT_DOUBLE_EQ(e.time, 2.0);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.Push(1.0, 0, 0);
  q.Push(2.0, 0, 0);
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
  q.Pop();
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueue, ClearRemovesEverything) {
  EventQueue q;
  q.Push(1.0, 0, 0);
  q.Push(2.0, 0, 0);
  q.Clear();
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelTwiceAfterCompactFails) {
  EventQueue q;
  EventId id = q.Push(1.0, 0, 0);
  q.Push(2.0, 0, 0);
  EXPECT_TRUE(q.Cancel(id));
  q.Compact();
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueue, CompactPreservesFifoOrderOfEqualTimeEvents) {
  EventQueue q;
  std::vector<EventId> cancel_me;
  for (int i = 0; i < 20; ++i) {
    EventId id = q.Push(7.0, 0, 0, i);
    if (i % 2 != 0) cancel_me.push_back(id);
  }
  for (EventId id : cancel_me) EXPECT_TRUE(q.Cancel(id));
  q.Compact();
  EXPECT_EQ(q.HeapSize(), q.Size());
  // Even-index events must still pop in push order after the rebuild.
  std::vector<std::int64_t> expected;
  for (int i = 0; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(DrainKeys(q), expected);
}

TEST(EventQueue, SizeAndEmptyConsistentAcrossCompaction) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.Push(static_cast<double>(i), 0, 0));
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
    live.push_back(q.Push(1000.0 + i, 0, 0));
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
  EventId pushed = q.Push(5.0, 0, 0, 2);
  EXPECT_EQ(pushed, first + 2);
  // Armed after the push, but under a lower id: it pops first at the tie.
  q.PushReserved(Event{5.0, first + 1, 0, 0, 1});
  EXPECT_THROW(q.PushReserved(Event{6.0, first + 1}), std::logic_error);
  EXPECT_THROW(q.PushReserved(Event{6.0, pushed + 1}), std::logic_error);
  EXPECT_THROW(q.PushReserved(Event{6.0, 0}), std::logic_error);
  EXPECT_EQ(DrainKeys(q), (std::vector<std::int64_t>{1, 2}));
}

TEST(EventQueue, IdsStopAtTheIdLimit) {
  // Only the counter moves: no event is armed near the limit, so the live
  // bitset stays empty.
  EventQueue q;
  EXPECT_THROW(q.SetNextId(EventQueue::kIdLimit + 1), std::logic_error);
  q.SetNextId(EventQueue::kIdLimit - 1);
  EXPECT_THROW(q.ReserveIds(2), std::length_error);
  EXPECT_EQ(q.ReserveIds(1), EventQueue::kIdLimit - 1);
  EXPECT_EQ(q.next_id(), EventQueue::kIdLimit);
  EXPECT_THROW(q.Push(1.0, 0, 0), std::length_error);
  EXPECT_THROW(q.ReserveIds(1), std::length_error);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.HeapSize(), 0u);
}

TEST(EventQueue, PendingListsLiveEventsInPopOrder) {
  EventQueue q;
  EventId late = q.Push(9.0, 0, 0, 1);
  EventId cancelled = q.Push(1.0, 0, 0, 2);
  EventId tie_a = q.Push(3.0, 0, 0, 3);
  EventId tie_b = q.Push(3.0, 0, 0, 4);
  q.Cancel(cancelled);
  std::vector<EventId> ids;
  for (const Event& e : q.Pending()) ids.push_back(e.id);
  EXPECT_EQ(ids, (std::vector<EventId>{tie_a, tie_b, late}));
  EXPECT_EQ(q.Size(), 3u);  // listing pops nothing
}

TEST(EventQueue, StressRandomOrderStaysSorted) {
  EventQueue q;
  util::Rng rng(2024);
  for (int i = 0; i < 5000; ++i) {
    q.Push(rng.Uniform(0, 1000), 0, 0);
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
    ids.push_back(q.Push(rng.Uniform(0, 100), 0, 0));
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
