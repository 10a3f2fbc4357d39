#include "sim/simulator.h"

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "util/units.h"

namespace iosched::sim {

EventId Simulator::ScheduleAt(SimTime t, std::function<void()> action) {
  if (t < now_ - util::kTimeEpsilon) {
    throw std::logic_error("Simulator: scheduling in the past (t=" +
                           std::to_string(t) + " now=" + std::to_string(now_) +
                           ")");
  }
  if (t < now_) t = now_;
  return queue_.Push(t, std::move(action));
}

EventId Simulator::ScheduleAfter(SimTime delay, std::function<void()> action) {
  if (delay < 0) {
    throw std::logic_error("Simulator: negative delay");
  }
  return queue_.Push(now_ + delay, std::move(action));
}

std::size_t Simulator::Run(SimTime until) {
  stop_requested_ = false;
  std::size_t count = 0;
  while (!queue_.Empty() && !stop_requested_) {
    if (queue_.PeekTime() > until) break;
    Event ev = queue_.Pop();
    now_ = ev.time;
    ev.action();
    ++processed_;
    if (event_counter_ != nullptr) event_counter_->Inc();
    ++count;
  }
  return count;
}

void Simulator::ScheduleReserved(SimTime time, EventId id,
                                 std::function<void()> action) {
  if (time < now_ - util::kTimeEpsilon) {
    throw std::logic_error("Simulator::ScheduleReserved: event at t=" +
                           std::to_string(time) + " precedes now=" +
                           std::to_string(now_));
  }
  if (time < now_) time = now_;
  queue_.PushReserved(time, id, std::move(action));
}

bool Simulator::RunOne() {
  if (queue_.Empty()) return false;
  Event ev = queue_.Pop();
  now_ = ev.time;
  ev.action();
  ++processed_;
  if (event_counter_ != nullptr) event_counter_->Inc();
  return true;
}

}  // namespace iosched::sim
