#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serializer.h"
#include "support/scripted_events.h"

namespace iosched::sim {
namespace {

using testing_support::ScriptedEvents;

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  ScriptedEvents script(s);
  std::vector<double> seen;
  script.At(5.0, [&] { seen.push_back(s.Now()); });
  script.At(2.0, [&] { seen.push_back(s.Now()); });
  s.Run();
  EXPECT_EQ(seen, (std::vector<double>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(s.Now(), 5.0);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  ScriptedEvents script(s);
  double fired_at = -1;
  script.At(10.0, [&] {
    script.After(2.5, [&] { fired_at = s.Now(); });
  });
  s.Run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator s;
  ScriptedEvents script(s);
  script.At(10.0, [&] {
    EXPECT_THROW(script.At(5.0, [] {}), std::logic_error);
    EXPECT_THROW(script.After(-1.0, [] {}), std::logic_error);
  });
  s.Run();
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  ScriptedEvents script(s);
  int count = 0;
  script.At(1.0, [&] { ++count; });
  script.At(2.0, [&] { ++count; });
  script.At(3.0, [&] { ++count; });
  std::size_t processed = s.Run(2.0);
  EXPECT_EQ(processed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StopBreaksOut) {
  Simulator s;
  ScriptedEvents script(s);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    script.At(i, [&] {
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
  ScriptedEvents script(s);
  bool ran = false;
  EventId id = script.At(1.0, [&] { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  s.Run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunOneStepsSingleEvent) {
  Simulator s;
  ScriptedEvents script(s);
  int count = 0;
  script.At(1.0, [&] { ++count; });
  script.At(2.0, [&] { ++count; });
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.RunOne());
  EXPECT_FALSE(s.RunOne());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, ProcessedEventsAccumulates) {
  Simulator s;
  ScriptedEvents script(s);
  for (int i = 0; i < 7; ++i) script.At(i, [] {});
  s.Run();
  EXPECT_EQ(s.processed_events(), 7u);
}

TEST(Simulator, CascadingEventsAtSameTime) {
  Simulator s;
  ScriptedEvents script(s);
  std::vector<int> order;
  script.At(1.0, [&] {
    order.push_back(1);
    script.At(1.0, [&] { order.push_back(2); });  // same timestamp
  });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(s.Now(), 1.0);
}

TEST(Simulator, TinyNegativeSlackClamped) {
  Simulator s;
  ScriptedEvents script(s);
  script.At(1.0, [&] {
    // Within epsilon of now: clamped instead of throwing.
    EXPECT_NO_THROW(script.At(s.Now() - 1e-9, [] {}));
  });
  EXPECT_NO_THROW(s.Run());
}

TEST(Simulator, ScheduleReservedRefusesThePast) {
  Simulator s;
  ScriptedEvents script(s);
  EventId first = s.ReserveEventIds(2);
  std::vector<int> order;
  script.At(2.0, [&] {
    order.push_back(1);
    EXPECT_THROW(script.Reserved(1.0, first, [] {}), std::logic_error);
    script.Reserved(3.0, first + 1, [&] { order.push_back(2); });
  });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/// Records every event it receives.
class Recorder : public EventHandler {
 public:
  void OnEvent(const Event& event) override { seen.push_back(event); }
  std::vector<Event> seen;
};

constexpr Owner kRecorderOwner = 9;
constexpr Kind kRecorderKinds = 2;

TEST(Simulator, DispatchesEachEventToItsOwner) {
  Simulator s;
  Recorder a;
  Recorder b;
  s.SetHandler(kRecorderOwner, &a, kRecorderKinds);
  s.SetHandler(kRecorderOwner + 1, &b, kRecorderKinds);
  EXPECT_THROW(s.SetHandler(kRecorderOwner, &b, kRecorderKinds),
               std::logic_error);
  s.ScheduleAt(1.0, kRecorderOwner, 1, 17, 2.5);
  s.ScheduleAt(2.0, kRecorderOwner + 1, 0, 18);
  s.ScheduleAt(3.0, kRecorderOwner + 2, 0);  // nobody handles owner 11
  EXPECT_EQ(s.Run(2.0), 2u);
  ASSERT_EQ(a.seen.size(), 1u);
  EXPECT_EQ(a.seen[0].kind, 1);
  EXPECT_EQ(a.seen[0].key, 17);
  EXPECT_DOUBLE_EQ(a.seen[0].arg, 2.5);
  ASSERT_EQ(b.seen.size(), 1u);
  EXPECT_EQ(b.seen[0].key, 18);
  EXPECT_THROW(s.Run(), std::logic_error);
}

TEST(Simulator, CheckpointRoundTripsPendingEvents) {
  Simulator s;
  Recorder before;
  s.SetHandler(kRecorderOwner, &before, kRecorderKinds);
  s.ScheduleAt(1.0, kRecorderOwner, 0, 1);
  EventId cancelled = s.ScheduleAt(4.0, kRecorderOwner, 0, 2);
  s.ScheduleAt(5.0, kRecorderOwner, 1, 3, 0.5);
  s.ScheduleAt(5.0, kRecorderOwner, 0, 4);
  s.Cancel(cancelled);
  s.Run(2.0);
  ckpt::Writer w;
  s.Serialize(w);

  Simulator restored;
  Recorder after;
  restored.SetHandler(kRecorderOwner, &after, kRecorderKinds);
  ckpt::Reader r(w.buffer(), "sim");
  restored.Serialize(r);
  r.ExpectEnd();
  EXPECT_DOUBLE_EQ(restored.Now(), 1.0);
  EXPECT_EQ(restored.processed_events(), 1u);
  EXPECT_EQ(restored.NextEventId(), s.NextEventId());
  EXPECT_EQ(restored.pending_events(), 2u);
  EXPECT_THROW(restored.RequirePending(cancelled, "test"), ckpt::FormatError);

  // The restored queue saves the same bytes and finishes the same way.
  ckpt::Writer again;
  restored.Serialize(again);
  EXPECT_EQ(again.buffer(), w.buffer());
  s.Run();
  restored.Run();
  ASSERT_EQ(after.seen.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const Event& x = before.seen[i + 1];
    const Event& y = after.seen[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_DOUBLE_EQ(x.time, y.time);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.key, y.key);
    EXPECT_DOUBLE_EQ(x.arg, y.arg);
  }
}

/// A sim section with clock `now`, id counter `next_id` and `events`.
std::string SimSection(SimTime now, EventId next_id,
                       const std::vector<Event>& events) {
  ckpt::Writer w;
  w.F64(now);
  w.U64(0);
  w.U64(next_id);
  w.U32(static_cast<std::uint32_t>(events.size()));
  for (const Event& e : events) {
    w.F64(e.time);
    w.U64(e.id);
    w.U8(e.owner);
    w.U8(e.kind);
    w.I64(e.key);
    w.F64(e.arg);
  }
  return w.TakeBuffer();
}

/// Restores `section` into a simulator where only kRecorderOwner has a
/// handler.
void Restore(const std::string& section) {
  Simulator s;
  Recorder recorder;
  s.SetHandler(kRecorderOwner, &recorder, kRecorderKinds);
  ckpt::Reader r(section, "sim");
  s.Serialize(r);
}

TEST(SimulatorRestore, AcceptsAWellFormedSection) {
  EXPECT_NO_THROW(Restore(SimSection(
      10.0, 5, {Event{10.0, 3, kRecorderOwner, 1}, Event{12.0, 4,
                                                        kRecorderOwner}})));
}

TEST(SimulatorRestore, RejectsUnknownOwner) {
  EXPECT_THROW(Restore(SimSection(10.0, 5, {Event{12.0, 3, 42}})),
               ckpt::FormatError);
}

TEST(SimulatorRestore, RejectsUnknownKind) {
  EXPECT_THROW(Restore(SimSection(
                   10.0, 5, {Event{12.0, 3, kRecorderOwner, kRecorderKinds}})),
               ckpt::FormatError);
}

TEST(SimulatorRestore, RejectsEventBeforeTheClock) {
  EXPECT_THROW(
      Restore(SimSection(10.0, 5, {Event{9.0, 3, kRecorderOwner}})),
      ckpt::FormatError);
}

TEST(SimulatorRestore, RejectsDuplicateId) {
  EXPECT_THROW(Restore(SimSection(10.0, 5,
                                  {Event{12.0, 3, kRecorderOwner},
                                   Event{13.0, 3, kRecorderOwner}})),
               ckpt::FormatError);
}

TEST(SimulatorRestore, RejectsIdNotYetHandedOut) {
  EXPECT_THROW(
      Restore(SimSection(10.0, 5, {Event{12.0, 5, kRecorderOwner}})),
      ckpt::FormatError);
}

TEST(SimulatorRestore, RejectsIdCounterBeyondTheIdLimit) {
  // A corrupt counter is a format error, not a bitset sized from it.
  EXPECT_NO_THROW(Restore(SimSection(10.0, EventQueue::kIdLimit, {})));
  EXPECT_THROW(Restore(SimSection(10.0, EventQueue::kIdLimit + 1, {})),
               ckpt::FormatError);
  EXPECT_THROW(Restore(SimSection(10.0, ~EventId{0}, {})), ckpt::FormatError);
}

TEST(SimulatorRestore, RequirePendingRejectsAbsentIds) {
  Simulator s;
  Recorder recorder;
  s.SetHandler(kRecorderOwner, &recorder, kRecorderKinds);
  EventId id = s.ScheduleAt(1.0, kRecorderOwner, 0);
  EXPECT_NO_THROW(s.RequirePending(id, "test"));
  s.Cancel(id);
  EXPECT_THROW(s.RequirePending(id, "test"), ckpt::FormatError);
}

}  // namespace
}  // namespace iosched::sim
