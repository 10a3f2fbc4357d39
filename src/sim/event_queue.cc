#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace iosched::sim {

EventId EventQueue::Push(SimTime time, Owner owner, Kind kind,
                         std::int64_t key, double arg) {
  EventId id = next_id_++;
  heap_.push_back(Event{time, id, owner, kind, key, arg});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  live_.insert(id);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  if (live_.erase(id) == 0) return false;
  std::size_t cancelled = heap_.size() - live_.size();
  if (cancelled >= kCompactionMinCancelled && cancelled > live_.size()) {
    Compact();
  }
  return true;
}

void EventQueue::Compact() {
  if (heap_.size() == live_.size()) return;
  std::erase_if(heap_, [this](const Event& e) { return !Contains(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later);
}

void EventQueue::DropCancelledHead() const {
  while (!heap_.empty() && !Contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }
}

SimTime EventQueue::PeekTime() const {
  DropCancelledHead();
  if (heap_.empty()) throw std::logic_error("EventQueue::PeekTime on empty");
  return heap_.front().time;
}

Event EventQueue::Pop() {
  DropCancelledHead();
  if (heap_.empty()) throw std::logic_error("EventQueue::Pop on empty");
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Event top = heap_.back();
  heap_.pop_back();
  live_.erase(top.id);
  return top;
}

std::vector<Event> EventQueue::Pending() const {
  std::vector<Event> pending;
  pending.reserve(live_.size());
  for (const Event& e : heap_) {
    if (Contains(e.id)) pending.push_back(e);
  }
  std::sort(pending.begin(), pending.end(),
            [](const Event& a, const Event& b) { return Later(b, a); });
  return pending;
}

EventId EventQueue::ReserveIds(std::size_t n) {
  EventId first = next_id_;
  next_id_ += n;
  return first;
}

void EventQueue::PushReserved(const Event& event) {
  if (event.id == 0 || event.id >= next_id_) {
    throw std::logic_error(
        "EventQueue::PushReserved: id was never handed out (reserve it or "
        "restore the id counter first)");
  }
  if (!live_.insert(event.id).second) {
    throw std::logic_error("EventQueue::PushReserved: duplicate id");
  }
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

void EventQueue::SetNextId(EventId next_id) {
  if (!live_.empty() || !heap_.empty()) {
    throw std::logic_error("EventQueue::SetNextId on a non-empty queue");
  }
  if (next_id == 0) throw std::logic_error("EventQueue::SetNextId: id 0");
  next_id_ = next_id;
}

void EventQueue::Clear() {
  heap_.clear();
  live_.clear();
}

}  // namespace iosched::sim
