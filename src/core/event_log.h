// Scheduling event log: the Qsim-style output trace.
//
// Qsim "replays the job scheduling ... and generates a new sequence of
// scheduling events as an output log". This module is that output side: a
// time-ordered record of every externally visible scheduling event, which
// downstream tooling (or a site's accounting pipeline) can consume as CSV.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"
#include "workload/job.h"

namespace iosched::core {

enum class SchedEventKind {
  kSubmit,      // job entered the wait queue
  kStart,       // partition allocated, job began executing
  kIoRequest,   // job issued an I/O request (detail = volume GB)
  kIoComplete,  // the request finished (detail = volume GB)
  kEnd,         // job completed all phases
  kKill,        // job terminated at its walltime limit
  kFaultKill,   // job killed by fault injection (detail = retries so far)
  kRequeue,     // killed job re-queued (detail = backoff eligible time)
  kAbandon,     // retry budget exhausted; job permanently failed
  // Serialized as one byte (EventLog::Serialize): append new kinds after
  // kAbandon and move the bound there.
};

const char* ToString(SchedEventKind kind);

struct SchedEvent {
  sim::SimTime time = 0.0;
  SchedEventKind kind = SchedEventKind::kSubmit;
  workload::JobId job = 0;
  /// Kind-specific payload (I/O volume in GB; nodes for kStart).
  double detail = 0.0;
};

/// Consumer of the engine's scheduling-event stream. The engine emits every
/// event once through a single point; the EventLog, the observability trace
/// adapter, and any future consumer each implement this interface instead
/// of owning a private hook.
class SchedEventSink {
 public:
  virtual ~SchedEventSink() = default;
  virtual void OnSchedEvent(const SchedEvent& event) = 0;
};

class EventLog : public SchedEventSink {
 public:
  void Append(sim::SimTime time, SchedEventKind kind, workload::JobId job,
              double detail = 0.0);

  void OnSchedEvent(const SchedEvent& event) override {
    Append(event.time, event.kind, event.job, event.detail);
  }

  const std::vector<SchedEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Events of one kind, in time order.
  std::vector<SchedEvent> OfKind(SchedEventKind kind) const;

  /// Events in canonical output order: (time, kind, job id). Insertion
  /// order of same-timestamp events depends on event-queue pop order — an
  /// implementation detail that has already changed once (the heap
  /// compaction rework) — so emission sorts with a deterministic tie-break
  /// instead of leaking it.
  std::vector<SchedEvent> Sorted() const;

  /// CSV: time,kind,job,detail — rows in Sorted() order.
  void WriteCsv(std::ostream& out) const;

  /// Save or load the accumulated event stream (insertion order).
  template <class Ar>
  void Serialize(Ar& ar) {
    ar.Seq(events_, [&ar](SchedEvent& e) {
      ar.F64(e.time);
      ar.Enum(e.kind, SchedEventKind::kAbandon);
      ar.I64(e.job);
      ar.F64(e.detail);
    });
  }

 private:
  std::vector<SchedEvent> events_;
};

}  // namespace iosched::core
