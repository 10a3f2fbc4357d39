#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace iosched::sim {

EventId EventQueue::Push(SimTime time, Owner owner, Kind kind,
                         std::int64_t key, double arg) {
  if (next_id_ >= kIdLimit) {
    throw std::length_error("EventQueue::Push: event ids exhausted");
  }
  EventId id = next_id_++;
  heap_.push_back(Event{time, id, owner, kind, key, arg});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  MarkLive(id);
  return id;
}

bool EventQueue::MarkLive(EventId id) {
  std::size_t word = static_cast<std::size_t>(id >> 6);
  if (word >= live_bits_.size()) live_bits_.resize(word + 1, 0);
  std::uint64_t bit = std::uint64_t{1} << (id & 63);
  if (live_bits_[word] & bit) return false;
  live_bits_[word] |= bit;
  ++live_count_;
  return true;
}

void EventQueue::MarkDead(EventId id) {
  live_bits_[static_cast<std::size_t>(id >> 6)] &=
      ~(std::uint64_t{1} << (id & 63));
  --live_count_;
}

bool EventQueue::Cancel(EventId id) {
  if (!Contains(id)) return false;
  MarkDead(id);
  std::size_t cancelled = heap_.size() - live_count_;
  if (cancelled >= kCompactionMinCancelled && cancelled > live_count_) {
    Compact();
  }
  return true;
}

void EventQueue::Compact() {
  if (heap_.size() == live_count_) return;
  std::erase_if(heap_, [this](const Event& e) { return !Contains(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::DropCancelledHead() const {
  while (!heap_.empty() && !Contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
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
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event top = heap_.back();
  heap_.pop_back();
  MarkDead(top.id);
  return top;
}

std::vector<Event> EventQueue::Pending() const {
  std::vector<Event> pending;
  pending.reserve(live_count_);
  for (const Event& e : heap_) {
    if (Contains(e.id)) pending.push_back(e);
  }
  std::sort(pending.begin(), pending.end(),
            [](const Event& a, const Event& b) { return Later{}(b, a); });
  return pending;
}

EventId EventQueue::ReserveIds(std::size_t n) {
  if (n > kIdLimit - next_id_) {
    throw std::length_error("EventQueue::ReserveIds: event ids exhausted");
  }
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
  if (!MarkLive(event.id)) {
    throw std::logic_error("EventQueue::PushReserved: duplicate id");
  }
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::SetNextId(EventId next_id) {
  if (live_count_ != 0 || !heap_.empty()) {
    throw std::logic_error("EventQueue::SetNextId on a non-empty queue");
  }
  if (next_id == 0) throw std::logic_error("EventQueue::SetNextId: id 0");
  if (next_id > kIdLimit) {
    throw std::logic_error("EventQueue::SetNextId: id " +
                           std::to_string(next_id) + " beyond the id limit");
  }
  next_id_ = next_id;
}

void EventQueue::Clear() {
  heap_.clear();
  live_bits_.clear();
  live_count_ = 0;
}

}  // namespace iosched::sim
