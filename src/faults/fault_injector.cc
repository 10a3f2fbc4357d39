#include "faults/fault_injector.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serializer.h"

namespace iosched::faults {

FaultInjector::FaultInjector(sim::Simulator& simulator, FaultPlan plan,
                             FaultHooks hooks, metrics::FaultStats* stats)
    : simulator_(simulator),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)),
      stats_(stats),
      kill_rng_(plan_.kill_seed, /*stream=*/23),
      straggler_rng_(plan_.straggler_seed, /*stream=*/29),
      mtbf_rng_(plan_.mtbf_seed, /*stream=*/43) {
  std::string err = plan_.Validate();
  if (!err.empty()) throw std::invalid_argument("FaultInjector: " + err);
  if (!plan_.degradations.empty() && !hooks_.set_bandwidth_factor) {
    throw std::invalid_argument(
        "FaultInjector: plan degrades storage but no bandwidth hook");
  }
  if (!plan_.outages.empty() && !hooks_.set_midplane_faulted) {
    throw std::invalid_argument(
        "FaultInjector: plan has outages but no midplane hook");
  }
  if ((plan_.job_kill_probability > 0 || !plan_.outages.empty() ||
       plan_.job_mtbf_seconds > 0) &&
      !hooks_.kill_job) {
    throw std::invalid_argument(
        "FaultInjector: plan kills jobs but no kill hook");
  }
  if (!plan_.bb_faults.empty() && !hooks_.set_bb_faulted) {
    throw std::invalid_argument(
        "FaultInjector: plan faults the burst buffer but no BB hook");
  }
  if (!plan_.drain_degradations.empty() && !hooks_.set_drain_factor) {
    throw std::invalid_argument(
        "FaultInjector: plan degrades the drain but no drain hook");
  }
  simulator_.SetHandler(kEventOwner, this, kEventKinds);
}

FaultInjector::~FaultInjector() {
  simulator_.SetHandler(kEventOwner, nullptr, 0);
}

void FaultInjector::OnEvent(const sim::Event& event) {
  const workload::JobId id = event.key;
  const sim::SimTime now = event.time;
  switch (static_cast<EventKind>(event.kind)) {
    case kEdge:
      FireEdge(static_cast<std::size_t>(event.key));
      break;
    case kRandomKill:
      pending_kills_.erase(id);
      if (hooks_.kill_job(id, now) && stats_ != nullptr) {
        stats_->Add(now, metrics::FaultEventKind::kJobKill, id);
      }
      break;
    case kMtbfFailure:
      pending_failures_.erase(id);
      if (hooks_.kill_job(id, now) && stats_ != nullptr) {
        stats_->Add(now, metrics::FaultEventKind::kMtbfFailure, id);
        stats_->Add(now, metrics::FaultEventKind::kJobKill, id);
      }
      break;
    case kEventKinds: break;  // restore rejects unknown kinds
  }
}

std::size_t FaultInjector::EdgeCount() const {
  return 2 * (plan_.degradations.size() + plan_.outages.size() +
              plan_.bb_faults.size() + plan_.drain_degradations.size());
}

sim::SimTime FaultInjector::EdgeTime(std::size_t edge) const {
  std::size_t degradation_edges = 2 * plan_.degradations.size();
  if (edge < degradation_edges) {
    const StorageDegradation& d = plan_.degradations[edge / 2];
    return (edge % 2 == 0) ? d.start : d.end;
  }
  std::size_t k = edge - degradation_edges;
  std::size_t outage_edges = 2 * plan_.outages.size();
  if (k < outage_edges) {
    const MidplaneOutage& o = plan_.outages[k / 2];
    return (k % 2 == 0) ? o.start : o.end;
  }
  k -= outage_edges;
  std::size_t bb_edges = 2 * plan_.bb_faults.size();
  if (k < bb_edges) {
    const BurstBufferFault& f = plan_.bb_faults[k / 2];
    return (k % 2 == 0) ? f.start : f.end;
  }
  k -= bb_edges;
  const DrainDegradation& d = plan_.drain_degradations[k / 2];
  return (k % 2 == 0) ? d.start : d.end;
}

void FaultInjector::FireEdge(std::size_t edge) {
  // Every edge-kind block has even size, so global parity identifies start
  // edges.
  const bool begin = edge % 2 == 0;
  std::size_t degradation_edges = 2 * plan_.degradations.size();
  if (edge < degradation_edges) {
    OnDegradationEdge(plan_.degradations[edge / 2].bandwidth_factor, begin);
    return;
  }
  std::size_t k = edge - degradation_edges;
  std::size_t outage_edges = 2 * plan_.outages.size();
  if (k < outage_edges) {
    OnOutageEdge(plan_.outages[k / 2].midplane, begin);
    return;
  }
  k -= outage_edges;
  std::size_t bb_edges = 2 * plan_.bb_faults.size();
  if (k < bb_edges) {
    OnBbFaultEdge(plan_.bb_faults[k / 2].lose_data, begin);
    return;
  }
  k -= bb_edges;
  OnDrainEdge(plan_.drain_degradations[k / 2].drain_factor, begin);
}

void FaultInjector::Arm() {
  if (armed_) throw std::logic_error("FaultInjector: already armed");
  armed_ = true;
  // Same-timestamp events pop in scheduling order, so arm start edges
  // before end edges at a shared timestamp. Two windows meeting at a
  // boundary (adjacent degraded tiles, back-to-back outages of one
  // midplane) must hand over without a pulse: firing the end edge first
  // would transiently lift the fault — restore full bandwidth, repair the
  // midplane — and the scheduler would re-plan against state that never
  // really existed. Every edge-kind block has even size, so global parity
  // identifies start edges.
  std::vector<std::size_t> order(EdgeCount());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    double ta = EdgeTime(a);
    double tb = EdgeTime(b);
    if (ta != tb) return ta < tb;
    bool a_start = a % 2 == 0;
    bool b_start = b % 2 == 0;
    if (a_start != b_start) return a_start;
    return a < b;
  });
  for (std::size_t edge : order) {
    simulator_.ScheduleAt(EdgeTime(edge), kEventOwner, kEdge,
                          static_cast<std::int64_t>(edge));
  }
}

void FaultInjector::OnDegradationEdge(double factor, bool begin) {
  int& count = active_factors_[factor];
  count += begin ? 1 : -1;
  if (count <= 0) active_factors_.erase(factor);
  ApplyFactor();
}

void FaultInjector::ApplyFactor() {
  double factor = 1.0;
  for (const auto& [f, count] : active_factors_) {
    factor = std::min(factor, f);
  }
  if (factor == current_factor_) return;
  sim::SimTime now = simulator_.Now();
  AccrueDegradedTime(now);
  bool degrading = factor < current_factor_;
  current_factor_ = factor;
  if (stats_ != nullptr) {
    stats_->Add(now,
                degrading ? metrics::FaultEventKind::kStorageDegrade
                          : metrics::FaultEventKind::kStorageRestore,
                0, factor);
    stats_->min_bandwidth_factor =
        std::min(stats_->min_bandwidth_factor, factor);
  }
  hooks_.set_bandwidth_factor(factor, now);
}

void FaultInjector::AccrueDegradedTime(sim::SimTime now) {
  if (stats_ != nullptr && current_factor_ < 1.0) {
    stats_->degraded_seconds += now - last_factor_change_;
  }
  last_factor_change_ = now;
}

void FaultInjector::OnBbFaultEdge(bool lose_data, bool begin) {
  sim::SimTime now = simulator_.Now();
  if (begin) {
    ++active_bb_faults_;
    if (active_bb_faults_ == 1) {
      if (stats_ != nullptr) {
        stats_->Add(now, metrics::FaultEventKind::kBbFault, 0,
                    lose_data ? 1.0 : 0.0);
      }
      hooks_.set_bb_faulted(/*faulted=*/true, lose_data, now);
    } else if (lose_data) {
      // An overlapping lossy window still drops whatever drained in.
      hooks_.set_bb_faulted(/*faulted=*/true, lose_data, now);
    }
  } else {
    --active_bb_faults_;
    if (active_bb_faults_ <= 0) {
      active_bb_faults_ = 0;
      if (stats_ != nullptr) {
        stats_->Add(now, metrics::FaultEventKind::kBbRepair);
      }
      hooks_.set_bb_faulted(/*faulted=*/false, /*lose_data=*/false, now);
    }
  }
}

void FaultInjector::OnDrainEdge(double factor, bool begin) {
  int& count = active_drain_factors_[factor];
  count += begin ? 1 : -1;
  if (count <= 0) active_drain_factors_.erase(factor);
  ApplyDrainFactor();
}

void FaultInjector::ApplyDrainFactor() {
  double factor = 1.0;
  for (const auto& [f, count] : active_drain_factors_) {
    factor = std::min(factor, f);
  }
  if (factor == current_drain_factor_) return;
  sim::SimTime now = simulator_.Now();
  bool degrading = factor < current_drain_factor_;
  current_drain_factor_ = factor;
  if (stats_ != nullptr) {
    stats_->Add(now,
                degrading ? metrics::FaultEventKind::kDrainDegrade
                          : metrics::FaultEventKind::kDrainRestore,
                0, factor);
    stats_->min_drain_factor = std::min(stats_->min_drain_factor, factor);
  }
  hooks_.set_drain_factor(factor, now);
}

double FaultInjector::DrawStragglerFactor() {
  if (plan_.straggler_probability <= 0) return 1.0;
  return straggler_rng_.Bernoulli(plan_.straggler_probability)
             ? plan_.straggler_factor
             : 1.0;
}

void FaultInjector::OnOutageEdge(int midplane, bool begin) {
  int& count = active_outages_[midplane];
  sim::SimTime now = simulator_.Now();
  if (begin) {
    ++count;
    if (count == 1) {
      if (stats_ != nullptr) {
        stats_->Add(now, metrics::FaultEventKind::kMidplaneFault, 0,
                    static_cast<double>(midplane));
      }
      hooks_.set_midplane_faulted(midplane, /*faulted=*/true, now);
    }
  } else {
    --count;
    if (count <= 0) {
      active_outages_.erase(midplane);
      if (stats_ != nullptr) {
        stats_->Add(now, metrics::FaultEventKind::kMidplaneRepair, 0,
                    static_cast<double>(midplane));
      }
      hooks_.set_midplane_faulted(midplane, /*faulted=*/false, now);
    }
  }
}

void FaultInjector::OnJobStart(workload::JobId id, double expected_runtime) {
  if (plan_.job_mtbf_seconds > 0) {
    // Memoryless per-attempt failure process: exponential time-to-failure
    // with mean MTBF, drawn once per attempt in deterministic job-start
    // order. The event is armed unconditionally — a congested attempt can
    // run far past its uncongested expected runtime and must still be
    // exposed to late failures; OnJobStop cancels the event if the attempt
    // finishes first.
    double ttf = mtbf_rng_.Exponential(1.0 / plan_.job_mtbf_seconds);
    pending_failures_[id] =
        simulator_.ScheduleAfter(ttf, kEventOwner, kMtbfFailure, id);
  }
  if (plan_.job_kill_probability <= 0) return;
  // One Bernoulli per attempt keeps the draw sequence aligned with the
  // deterministic job-start order, so replays are bit-identical.
  if (!kill_rng_.Bernoulli(plan_.job_kill_probability)) return;
  double at = std::max(0.0, expected_runtime) *
              kill_rng_.Uniform(0.05, 0.95);
  // A retry attempt replaces any stale entry (the old event already fired —
  // that is what caused the retry).
  pending_kills_[id] =
      simulator_.ScheduleAfter(at, kEventOwner, kRandomKill, id);
}

void FaultInjector::OnJobStop(workload::JobId id) {
  auto failure = pending_failures_.find(id);
  if (failure != pending_failures_.end()) {
    simulator_.Cancel(failure->second);
    pending_failures_.erase(failure);
  }
  auto it = pending_kills_.find(id);
  if (it == pending_kills_.end()) return;
  simulator_.Cancel(it->second);
  pending_kills_.erase(it);
}

void FaultInjector::FinalizeStats(sim::SimTime end) {
  AccrueDegradedTime(std::max(end, last_factor_change_));
}

template <class Ar>
void FaultInjector::Serialize(Ar& ar) {
  if constexpr (Ar::kLoading) {
    if (armed_) throw std::logic_error("FaultInjector::Serialize after Arm()");
  }
  const auto count = [&ar](auto, int& n) { ar.I64(n); };
  const auto event = [&ar](workload::JobId, sim::EventId& e) {
    ar.PendingEvent(e);
  };
  ar.Bool(armed_);
  ar.Rng(kill_rng_);
  ar.F64(current_factor_);
  ar.F64(last_factor_change_);
  ar.SortedMap(active_factors_, count);
  ar.SortedMap(active_outages_, count);
  ar.SortedMap(pending_kills_, event);
  // Storage-tier fault state (appended so the layout above is unchanged).
  ar.Rng(straggler_rng_);
  ar.F64(current_drain_factor_);
  ar.SortedMap(active_drain_factors_, count);
  ar.I64(active_bb_faults_);
  // MTBF failure-process state (appended; gated on the plan so runs without
  // the process keep the exact section layout they had before it existed).
  if (plan_.job_mtbf_seconds > 0) {
    ar.Rng(mtbf_rng_);
    ar.SortedMap(pending_failures_, event);
  }
  if constexpr (Ar::kLoading) {
    for (const sim::Event& e : simulator_.PendingEvents()) {
      if (e.owner == kEventOwner && e.kind == kEdge &&
          (e.key < 0 || static_cast<std::size_t>(e.key) >= EdgeCount())) {
        ar.Fail(
            "plan edge index out of range (checkpoint does not match this "
            "fault plan)");
      }
    }
  }
}
template void FaultInjector::Serialize(ckpt::Writer&);
template void FaultInjector::Serialize(ckpt::Reader&);

}  // namespace iosched::faults
