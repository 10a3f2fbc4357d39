// Discrete-event simulation engine (the Qsim substrate).
//
// The engine owns the clock and the event queue. Model components schedule
// closures; the engine pops them in timestamp order and advances the clock.
// Time never moves backwards: scheduling in the past is a programming error
// and throws.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace iosched::obs {
class Counter;
}

namespace iosched::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedule `action` at absolute time `t` (>= Now(), tolerating a tiny
  /// negative float slack which is clamped to Now()).
  EventId ScheduleAt(SimTime t, std::function<void()> action);

  /// Schedule `action` after `delay` seconds (>= 0).
  EventId ScheduleAfter(SimTime delay, std::function<void()> action);

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

  /// Attach an observability counter incremented once per processed event
  /// (nullptr detaches). The counter must outlive the simulator's runs.
  void SetEventCounter(obs::Counter* counter) { event_counter_ = counter; }

  // --- Reserved ids: pre-planned arrivals and checkpoint restore ----------
  // The queue's closures are unserializable; checkpoints store typed event
  // descriptors owned by each component, which re-arm their closures via
  // ScheduleReserved. The clock, lifetime event count, and the id counter
  // are the simulator's own state.

  /// The id the next scheduled event will receive (FIFO tie-break state).
  EventId NextEventId() const { return queue_.next_id(); }

  /// Reserve the next `n` event ids for events armed later with
  /// ScheduleReserved; returns the first.
  EventId ReserveEventIds(std::size_t n) { return queue_.ReserveIds(n); }

  /// Restore clock + counters on a fresh simulator (no pending events).
  /// `next_event_id` continues the saved id sequence so post-restore
  /// scheduling keeps the same same-timestamp ordering.
  void RestoreClock(SimTime now, std::uint64_t processed_events,
                    EventId next_event_id) {
    queue_.SetNextId(next_event_id);
    now_ = now;
    processed_ = processed_events;
  }

  /// Arm one event under an id handed out earlier (ReserveEventIds, or the
  /// original id of a restored event). `time` may not precede Now().
  void ScheduleReserved(SimTime time, EventId id,
                        std::function<void()> action);

 private:
  SimTime now_ = 0.0;
  EventQueue queue_;
  bool stop_requested_ = false;
  std::uint64_t processed_ = 0;
  obs::Counter* event_counter_ = nullptr;
};

}  // namespace iosched::sim
