#include "sim/simulator.h"

#include <stdexcept>
#include <string>

#include "ckpt/serializer.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace iosched::sim {

void Simulator::SetHandler(Owner owner, EventHandler* handler,
                           Kind kind_count) {
  Registration& slot = handlers_[owner];
  if (handler != nullptr && slot.handler != nullptr &&
      slot.handler != handler) {
    throw std::logic_error("Simulator: owner " + std::to_string(owner) +
                           " already has a handler");
  }
  slot = Registration{handler, handler != nullptr ? kind_count : Kind{0}};
}

EventId Simulator::ScheduleAt(SimTime t, Owner owner, Kind kind,
                              std::int64_t key, double arg) {
  if (t < now_ - util::kTimeEpsilon) {
    throw std::logic_error("Simulator: scheduling in the past (t=" +
                           std::to_string(t) + " now=" + std::to_string(now_) +
                           ")");
  }
  if (t < now_) t = now_;
  return queue_.Push(t, owner, kind, key, arg);
}

EventId Simulator::ScheduleAfter(SimTime delay, Owner owner, Kind kind,
                                 std::int64_t key, double arg) {
  if (delay < 0) {
    throw std::logic_error("Simulator: negative delay");
  }
  return queue_.Push(now_ + delay, owner, kind, key, arg);
}

std::size_t Simulator::Run(SimTime until) {
  stop_requested_ = false;
  std::size_t count = 0;
  while (!stop_requested_ && !queue_.Empty() && queue_.PeekTime() <= until) {
    RunOne();
    ++count;
  }
  return count;
}

void Simulator::ScheduleReserved(Event event) {
  if (event.time < now_ - util::kTimeEpsilon) {
    throw std::logic_error("Simulator::ScheduleReserved: event at t=" +
                           std::to_string(event.time) + " precedes now=" +
                           std::to_string(now_));
  }
  if (event.time < now_) event.time = now_;
  queue_.PushReserved(event);
}

bool Simulator::RunOne() {
  if (queue_.Empty()) return false;
  Event ev = queue_.Pop();
  now_ = ev.time;
  EventHandler* handler = handlers_[ev.owner].handler;
  if (handler == nullptr) {
    throw std::logic_error("Simulator: no handler for event owner " +
                           std::to_string(ev.owner));
  }
  handler->OnEvent(ev);
  ++processed_;
  if (event_counter_ != nullptr) event_counter_->Inc();
  return true;
}

template <class Ar>
void Simulator::Serialize(Ar& ar) {
  ar.F64(now_);
  ar.U64(processed_);
  EventId next_id = queue_.next_id();
  ar.U64(next_id);
  std::vector<Event> pending;
  if constexpr (Ar::kLoading) {
    try {
      queue_.SetNextId(next_id);
    } catch (const std::logic_error& err) {
      ar.Fail(err.what());
    }
  } else {
    pending = queue_.Pending();
  }
  ar.Seq(pending, [&ar](Event& e) {
    ar.F64(e.time);
    ar.U64(e.id);
    ar.U8(e.owner);
    ar.U8(e.kind);
    ar.I64(e.key);
    ar.F64(e.arg);
  });
  if constexpr (Ar::kLoading) {
    for (const Event& e : pending) {
      try {
        const Registration& slot = handlers_[e.owner];
        if (slot.handler == nullptr) {
          throw std::logic_error("no component handles its owner " +
                                 std::to_string(e.owner));
        }
        if (e.kind >= slot.kind_count) {
          throw std::logic_error("its owner defines no kind " +
                                 std::to_string(e.kind));
        }
        ScheduleReserved(e);
      } catch (const std::logic_error& err) {
        ar.Fail("pending event " + std::to_string(e.id) + ": " + err.what());
      }
    }
  }
}
template void Simulator::Serialize(ckpt::Writer&);
template void Simulator::Serialize(ckpt::Reader&);

void Simulator::RequirePending(EventId id, std::string_view holder) const {
  if (id != 0 && !IsPending(id)) {
    throw ckpt::FormatError("checkpoint " + std::string(holder) +
                            ": event " + std::to_string(id) +
                            " is not pending in the sim section");
  }
}

}  // namespace iosched::sim
