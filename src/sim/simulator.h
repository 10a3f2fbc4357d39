// Discrete-event simulation engine (the Qsim substrate).
//
// The engine owns the clock and the event queue. Model components register
// a handler for their owner tag and schedule plain-data events (sim::Event)
// under it; the engine pops them in timestamp order, advances the clock, and
// hands each to its owner's OnEvent. Time never moves backwards: scheduling
// in the past is a programming error and throws.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace iosched::obs {
class Counter;
}

namespace iosched::sim {

/// A component that receives the events scheduled under its owner tag.
class EventHandler {
 public:
  virtual void OnEvent(const Event& event) = 0;

 protected:
  ~EventHandler() = default;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Route events of `owner` to `handler`, which defines kinds
  /// [0, kind_count). A null handler detaches. Throws if another handler
  /// already holds the owner tag. The handler must outlive its events or
  /// detach first.
  void SetHandler(Owner owner, EventHandler* handler, Kind kind_count);

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedule an event at absolute time `t` (>= Now(), tolerating a tiny
  /// negative float slack which is clamped to Now()).
  EventId ScheduleAt(SimTime t, Owner owner, Kind kind, std::int64_t key = 0,
                     double arg = 0.0);

  /// Schedule an event after `delay` seconds (>= 0).
  EventId ScheduleAfter(SimTime delay, Owner owner, Kind kind,
                        std::int64_t key = 0, double arg = 0.0);

  /// Cancel a pending event; false if it already fired or was cancelled.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Run until the queue drains, `until` is reached, or Stop() is called.
  /// Returns the number of events processed by this call. Events with
  /// timestamp exactly `until` are processed.
  std::size_t Run(SimTime until = kTimeInfinity);

  /// Process exactly one event if available. Returns false when empty.
  bool RunOne();

  /// Request that Run() return after the current event completes.
  void Stop() { stop_requested_ = true; }

  /// Total number of events processed over the simulator's lifetime.
  std::uint64_t processed_events() const { return processed_; }

  /// Number of pending events.
  std::size_t pending_events() const { return queue_.Size(); }

  /// Every pending event in pop order, (time, id).
  std::vector<Event> PendingEvents() const { return queue_.Pending(); }

  /// Attach an observability counter incremented once per processed event
  /// (nullptr detaches). The counter must outlive the simulator's runs.
  void SetEventCounter(obs::Counter* counter) { event_counter_ = counter; }

  /// The id the next scheduled event will receive (FIFO tie-break state).
  EventId NextEventId() const { return queue_.next_id(); }

  /// Reserve the next `n` event ids for events armed later with
  /// ScheduleReserved; returns the first.
  EventId ReserveEventIds(std::size_t n) { return queue_.ReserveIds(n); }

  /// Arm `event` under the id it carries, handed out earlier by
  /// ReserveEventIds. Its time may not precede Now().
  void ScheduleReserved(Event event);

  // --- Checkpoint ---------------------------------------------------------
  // The clock, lifetime event count, id counter and every pending event are
  // the simulator's own state; components keep only the ids they cancel.

  /// Save or load the clock, counters and the pending events in (time,
  /// id) order (lazily-cancelled entries are not saved). Load onto a fresh
  /// simulator whose handlers are all registered: each event returns under
  /// its saved id, so post-restore scheduling continues the saved id
  /// sequence. Throws ckpt::FormatError for an event whose owner has no
  /// handler, whose kind the owner does not define, whose id was never
  /// handed out or repeats, or which precedes the saved clock.
  template <class Ar>
  void Serialize(Ar& ar);

  /// True when `id` names a pending event.
  bool IsPending(EventId id) const { return queue_.Contains(id); }

  /// Throws ckpt::FormatError naming `holder` unless `id` is pending or 0
  /// (no event): a component restoring an event id it will later cancel
  /// checks it here.
  void RequirePending(EventId id, std::string_view holder) const;

 private:
  struct Registration {
    EventHandler* handler = nullptr;
    Kind kind_count = 0;
  };

  SimTime now_ = 0.0;
  EventQueue queue_;
  std::array<Registration, 256> handlers_{};
  bool stop_requested_ = false;
  std::uint64_t processed_ = 0;
  obs::Counter* event_counter_ = nullptr;
};

}  // namespace iosched::sim
