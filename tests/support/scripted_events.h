// Test helper: schedule arbitrary callbacks on a sim::Simulator. Each
// callback is kept here and its event carries only the callback's index,
// so tests can script "at t, do X" the way model components schedule their
// own typed events.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/simulator.h"

namespace iosched::testing_support {

class ScriptedEvents : public sim::EventHandler {
 public:
  /// Owner tag for scripted events; far from the model components' tags.
  static constexpr sim::Owner kOwner = 200;

  explicit ScriptedEvents(sim::Simulator& simulator) : simulator_(simulator) {
    simulator_.SetHandler(kOwner, this, 1);
  }
  ~ScriptedEvents() { simulator_.SetHandler(kOwner, nullptr, 0); }
  ScriptedEvents(const ScriptedEvents&) = delete;
  ScriptedEvents& operator=(const ScriptedEvents&) = delete;

  sim::EventId At(sim::SimTime t, std::function<void()> fn) {
    return simulator_.ScheduleAt(t, kOwner, 0, Keep(std::move(fn)));
  }
  sim::EventId After(sim::SimTime delay, std::function<void()> fn) {
    return simulator_.ScheduleAfter(delay, kOwner, 0, Keep(std::move(fn)));
  }
  /// Arm `fn` under an id handed out by ReserveEventIds.
  void Reserved(sim::SimTime t, sim::EventId id, std::function<void()> fn) {
    simulator_.ScheduleReserved(
        sim::Event{t, id, kOwner, 0, Keep(std::move(fn))});
  }

  void OnEvent(const sim::Event& event) override {
    actions_[static_cast<std::size_t>(event.key)]();
  }

 private:
  std::int64_t Keep(std::function<void()> fn) {
    // A deque: callbacks that schedule more callbacks must not move the
    // one that is running.
    actions_.push_back(std::move(fn));
    return static_cast<std::int64_t>(actions_.size() - 1);
  }

  sim::Simulator& simulator_;
  std::deque<std::function<void()>> actions_;
};

}  // namespace iosched::testing_support
