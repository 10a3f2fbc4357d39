// Fault accounting for a simulation run: a time-ordered fault timeline
// (storage degradations, midplane outages, fault kills, requeues) plus the
// aggregate counters the robustness benchmarks report (degraded-seconds,
// requeue counts, jobs abandoned after exhausting their retry budget).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/time.h"
#include "workload/job.h"

namespace iosched::metrics {

enum class FaultEventKind {
  kStorageDegrade,  // BWmax scaled down (detail = new bandwidth factor)
  kStorageRestore,  // degradation window ended (detail = new factor)
  kMidplaneFault,   // midplane went down (detail = midplane index)
  kMidplaneRepair,  // midplane came back (detail = midplane index)
  kJobKill,         // a running job was killed by fault injection
  kRequeue,         // a killed job re-entered the queue (detail = eligible t)
  kAbandon,         // retry budget exhausted; job permanently failed
  kBbFault,         // burst buffer went down (detail = 1 if data was lost)
  kBbRepair,        // burst buffer came back
  kDrainDegrade,    // BB drain rate scaled down (detail = new drain factor)
  kDrainRestore,    // drain degradation ended (detail = new factor)
  // Appended (U8 serialization): never reorder the values above, and move
  // FaultStats::Serialize's bound to a value appended below.
  kMtbfFailure,     // MTBF process failed a running job
};

const char* ToString(FaultEventKind kind);

struct FaultEvent {
  sim::SimTime time = 0.0;
  FaultEventKind kind = FaultEventKind::kStorageDegrade;
  /// Affected job, or 0 for system-level events.
  workload::JobId job = 0;
  /// Kind-specific payload (see the enum).
  double detail = 0.0;
};

/// Per-run fault accounting, filled by the fault injector and the engine.
struct FaultStats {
  std::vector<FaultEvent> timeline;

  /// Wall-clock (simulated) seconds with storage bandwidth below nominal.
  double degraded_seconds = 0.0;
  /// Smallest bandwidth factor observed (1.0 = never degraded).
  double min_bandwidth_factor = 1.0;
  std::uint64_t storage_degradations = 0;
  std::uint64_t midplane_outages = 0;
  std::uint64_t fault_kills = 0;
  std::uint64_t requeues = 0;
  std::uint64_t abandoned_jobs = 0;
  std::uint64_t bb_faults = 0;
  std::uint64_t drain_degradations = 0;
  /// Smallest BB drain factor observed (1.0 = never degraded).
  double min_drain_factor = 1.0;
  /// Kills delivered by the MTBF failure process (subset of fault_kills).
  std::uint64_t mtbf_failures = 0;

  bool Empty() const { return timeline.empty(); }

  void Add(sim::SimTime time, FaultEventKind kind, workload::JobId job = 0,
           double detail = 0.0);

  /// CSV: time,event,job,detail — the per-run fault timeline.
  void WriteTimelineCsv(std::ostream& out) const;

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.Seq(timeline, [&ar](FaultEvent& e) {
      ar.F64(e.time);
      ar.Enum(e.kind, FaultEventKind::kMtbfFailure);
      ar.I64(e.job);
      ar.F64(e.detail);
    });
    ar.F64(degraded_seconds);
    ar.F64(min_bandwidth_factor);
    ar.U64(storage_degradations);
    ar.U64(midplane_outages);
    ar.U64(fault_kills);
    ar.U64(requeues);
    ar.U64(abandoned_jobs);
    ar.U64(bb_faults);
    ar.U64(drain_degradations);
    ar.F64(min_drain_factor);
    ar.U64(mtbf_failures);
  }
};

}  // namespace iosched::metrics
