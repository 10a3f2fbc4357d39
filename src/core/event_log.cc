#include "core/event_log.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "util/csv.h"
#include "util/units.h"

namespace iosched::core {

const char* ToString(SchedEventKind kind) {
  switch (kind) {
    case SchedEventKind::kSubmit: return "submit";
    case SchedEventKind::kStart: return "start";
    case SchedEventKind::kIoRequest: return "io_request";
    case SchedEventKind::kIoComplete: return "io_complete";
    case SchedEventKind::kEnd: return "end";
    case SchedEventKind::kKill: return "kill";
    case SchedEventKind::kFaultKill: return "fault_kill";
    case SchedEventKind::kRequeue: return "requeue";
    case SchedEventKind::kAbandon: return "abandon";
  }
  return "?";
}

void EventLog::Append(sim::SimTime time, SchedEventKind kind,
                      workload::JobId job, double detail) {
  if (!events_.empty() && time < events_.back().time - util::kTimeEpsilon) {
    throw std::logic_error("EventLog: time went backwards");
  }
  events_.push_back(SchedEvent{time, kind, job, detail});
}

std::vector<SchedEvent> EventLog::OfKind(SchedEventKind kind) const {
  std::vector<SchedEvent> out;
  for (const SchedEvent& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::vector<SchedEvent> EventLog::Sorted() const {
  std::vector<SchedEvent> out = events_;
  std::stable_sort(out.begin(), out.end(),
                   [](const SchedEvent& a, const SchedEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.kind != b.kind) {
                       return static_cast<int>(a.kind) <
                              static_cast<int>(b.kind);
                     }
                     return a.job < b.job;
                   });
  return out;
}

void EventLog::WriteCsv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.Header({"time", "event", "job", "detail"});
  for (const SchedEvent& e : Sorted()) {
    csv.Row()
        .Add(e.time)
        .Add(std::string_view(ToString(e.kind)))
        .Add(static_cast<long long>(e.job))
        .Add(e.detail);
  }
}

}  // namespace iosched::core
