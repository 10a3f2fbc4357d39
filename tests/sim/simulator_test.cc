#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace iosched::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  std::vector<double> seen;
  s.ScheduleAt(5.0, [&] { seen.push_back(s.Now()); });
  s.ScheduleAt(2.0, [&] { seen.push_back(s.Now()); });
  s.Run();
  EXPECT_EQ(seen, (std::vector<double>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(s.Now(), 5.0);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  double fired_at = -1;
  s.ScheduleAt(10.0, [&] {
    s.ScheduleAfter(2.5, [&] { fired_at = s.Now(); });
  });
  s.Run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator s;
  s.ScheduleAt(10.0, [&] {
    EXPECT_THROW(s.ScheduleAt(5.0, [] {}), std::logic_error);
    EXPECT_THROW(s.ScheduleAfter(-1.0, [] {}), std::logic_error);
  });
  s.Run();
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(1.0, [&] { ++count; });
  s.ScheduleAt(2.0, [&] { ++count; });
  s.ScheduleAt(3.0, [&] { ++count; });
  std::size_t processed = s.Run(2.0);
  EXPECT_EQ(processed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StopBreaksOut) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.ScheduleAt(i, [&] {
      ++count;
      if (count == 4) s.Stop();
    });
  }
  s.Run();
  EXPECT_EQ(count, 4);
  s.Run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator s;
  bool ran = false;
  EventId id = s.ScheduleAt(1.0, [&] { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  s.Run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunOneStepsSingleEvent) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(1.0, [&] { ++count; });
  s.ScheduleAt(2.0, [&] { ++count; });
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.RunOne());
  EXPECT_FALSE(s.RunOne());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, ProcessedEventsAccumulates) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.ScheduleAt(i, [] {});
  s.Run();
  EXPECT_EQ(s.processed_events(), 7u);
}

TEST(Simulator, CascadingEventsAtSameTime) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(1.0, [&] {
    order.push_back(1);
    s.ScheduleAt(1.0, [&] { order.push_back(2); });  // same timestamp
  });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(s.Now(), 1.0);
}

TEST(Simulator, TinyNegativeSlackClamped) {
  Simulator s;
  s.ScheduleAt(1.0, [&] {
    // Within epsilon of now: clamped instead of throwing.
    EXPECT_NO_THROW(s.ScheduleAt(s.Now() - 1e-9, [] {}));
  });
  EXPECT_NO_THROW(s.Run());
}

TEST(Simulator, ScheduleReservedRefusesThePast) {
  Simulator s;
  EventId first = s.ReserveEventIds(2);
  std::vector<int> order;
  s.ScheduleAt(2.0, [&] {
    order.push_back(1);
    EXPECT_THROW(s.ScheduleReserved(1.0, first, [] {}), std::logic_error);
    s.ScheduleReserved(3.0, first + 1, [&] { order.push_back(2); });
  });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace iosched::sim
