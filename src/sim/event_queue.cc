#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace iosched::sim {

EventId EventQueue::Push(SimTime time, std::function<void()> action) {
  EventId id = next_id_++;
  heap_.push_back(Entry{time, id});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  actions_.emplace(id, std::move(action));
  return id;
}

bool EventQueue::Cancel(EventId id) {
  auto it = actions_.find(id);
  if (it == actions_.end()) return false;
  actions_.erase(it);
  cancelled_.insert(id);
  if (cancelled_.size() >= kCompactionMinCancelled &&
      cancelled_.size() > actions_.size()) {
    Compact();
  }
  return true;
}

void EventQueue::Compact() {
  if (cancelled_.empty()) return;
  std::erase_if(heap_, [this](const Entry& e) {
    return cancelled_.find(e.id) != cancelled_.end();
  });
  std::make_heap(heap_.begin(), heap_.end(), Later);
  cancelled_.clear();
}

void EventQueue::DropCancelledHead() const {
  while (!heap_.empty() && cancelled_.count(heap_.front().id)) {
    cancelled_.erase(heap_.front().id);
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
  Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
  auto it = actions_.find(top.id);
  Event ev{top.time, top.id, std::move(it->second)};
  actions_.erase(it);
  return ev;
}

EventId EventQueue::ReserveIds(std::size_t n) {
  EventId first = next_id_;
  next_id_ += n;
  return first;
}

void EventQueue::PushReserved(SimTime time, EventId id,
                              std::function<void()> action) {
  if (id == 0 || id >= next_id_) {
    throw std::logic_error(
        "EventQueue::PushReserved: id was never handed out (reserve it or "
        "restore the id counter first)");
  }
  if (!actions_.emplace(id, std::move(action)).second) {
    throw std::logic_error("EventQueue::PushReserved: duplicate id");
  }
  heap_.push_back(Entry{time, id});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

void EventQueue::SetNextId(EventId next_id) {
  if (!actions_.empty() || !heap_.empty()) {
    throw std::logic_error("EventQueue::SetNextId on a non-empty queue");
  }
  if (next_id == 0) throw std::logic_error("EventQueue::SetNextId: id 0");
  next_id_ = next_id;
}

void EventQueue::Clear() {
  heap_.clear();
  cancelled_.clear();
  actions_.clear();
}

}  // namespace iosched::sim
