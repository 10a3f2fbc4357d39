// Burst-buffer tier (the architectural alternative the paper's related work
// discusses: absorb bursty checkpoint I/O near the compute nodes and drain
// it to the parallel file system in the background — Liu et al., MSST'12;
// Kopanski & Rzadca's shared-burst-buffer scheduling, arXiv:2109.00082).
//
// Model: an I/O request whose volume fits in the buffer's free space (and in
// the job's per-job quota, when one is configured) is absorbed at the
// absorb-tier bandwidth (the job's link rate, optionally capped by
// `absorb_gbps`) and its volume is queued for draining. The drain is
// strictly FIFO over per-job segments and runs whenever data is queued,
// consuming a fixed bandwidth reservation *out of BWmax* — so heavy
// absorption shrinks the bandwidth the I/O policy can grant to direct
// (non-absorbed) traffic; this is the drain backlog the tier-aware policies
// see. Requests that do not fit go the direct path and are scheduled by the
// policy as usual (recorded here as spills).
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "sim/time.h"
#include "util/field_table.h"
#include "workload/job.h"

namespace iosched::storage {

struct BurstBufferConfig {
  /// Total staging capacity (GB). 0 disables the buffer.
  double capacity_gb = 0.0;
  /// Bandwidth reserved from BWmax while draining (GB/s).
  double drain_gbps = 0.0;
  /// Absorb-tier bandwidth cap (GB/s). Requests are absorbed at
  /// min(job link rate, absorb_gbps); 0 means "link rate" (uncapped).
  double absorb_gbps = 0.0;
  /// Largest simultaneous staging footprint per job (GB). 0 = uncapped.
  double per_job_quota_gb = 0.0;
  /// Occupancy fraction above which the tier reports congestion. It feeds
  /// obs episode spans and the bb_congested_cycles count only; ADAPTIVE's
  /// backlog deferral uses its own kBacklogDeferralFraction, which is why
  /// the config hash leaves the watermark out.
  double congestion_watermark = 0.9;

  bool enabled() const { return capacity_gb > 0 && drain_gbps > 0; }
};

/// BurstBufferConfig's rows of the SimulationConfig field table
/// (util/field_table.h, core/config_fields.h). Each row's rule is
/// per-field; the tier's cross-field rules (a capacity needs a drain, the
/// drain stays below BWmax) live with the configs that hold the buffer.
template <util::MaybeConst<BurstBufferConfig> C, class V>
void VisitFields(C& c, V& v) {
  using util::kFactor, util::kNonNegative;
  using enum util::HashClass;
  v(c.capacity_gb,
    {"capacity_gb", "burst_buffer.capacity_gb", kNonNegative, kSchedule,
     "burst-buffer capacity in GB (0 = no buffer; a positive value enables "
     "the tier with the --bb-drain rate)",
     "bb-capacity"});
  v(c.drain_gbps, {"drain_gbps", "burst_buffer.drain_gbps", kNonNegative,
                   kSchedule, "PFS bandwidth reserved for the drain (GB/s)"});
  v(c.absorb_gbps,
    {"absorb_gbps", "burst_buffer.absorb_gbps", kNonNegative, kSchedule,
     "absorb-tier bandwidth cap in GB/s (0 = job link rate)", "bb-absorb"});
  v(c.per_job_quota_gb,
    {"per_job_quota_gb", "burst_buffer.per_job_quota_gb", kNonNegative,
     kSchedule, "per-job burst-buffer staging quota in GB (0 = uncapped)",
     "bb-quota"});
  v(c.congestion_watermark,
    {"congestion_watermark", "burst_buffer.congestion_watermark", kFactor,
     kExcluded,
     "occupancy fraction reported as congestion; feeds obs spans and "
     "bb_congested_cycles only",
     "bb-watermark"});
}

class BurstBuffer {
 public:
  explicit BurstBuffer(BurstBufferConfig config);

  const BurstBufferConfig& config() const { return config_; }

  /// Advance the drain to `now` (piecewise-constant drain rate, FIFO over
  /// the absorbed segments).
  void AdvanceTo(sim::SimTime now);

  /// True when `volume_gb` fits in the free space — and in `job`'s quota,
  /// when one is configured — right now.
  bool CanAbsorb(workload::JobId job, double volume_gb) const;

  /// Stage `volume_gb` for `job`; requires CanAbsorb. Callers AdvanceTo(now)
  /// first.
  void Absorb(workload::JobId job, double volume_gb);

  /// Record a request that did not fit and fell back to the direct path.
  void RecordSpill() { ++spilled_requests_; }

  /// Fault the buffer (CanAbsorb is false while faulted) or repair it.
  /// Draining of already-staged data continues through a non-lossy fault.
  void SetFaulted(bool faulted) { faulted_ = faulted; }
  bool faulted() const { return faulted_; }

  /// Drop everything currently staged (a lossy capacity fault). Callers
  /// AdvanceTo(now) first so the drain is settled. Returns the GB dropped;
  /// the affected jobs' requests must be re-flushed by the caller.
  double DropBufferedData();

  /// Scale the drain rate (fault injection; 1.0 = nominal). Callers
  /// AdvanceTo(now) first so the backlog is settled at the old rate.
  void SetDrainFactor(double factor);
  double drain_factor() const { return drain_factor_; }

  /// Rate at which the absorb tier ingests `full_rate_gbps` worth of
  /// link-level demand (GB/s).
  double AbsorbRate(double full_rate_gbps) const {
    return config_.absorb_gbps > 0
               ? (full_rate_gbps < config_.absorb_gbps ? full_rate_gbps
                                                       : config_.absorb_gbps)
               : full_rate_gbps;
  }

  /// Currently staged data awaiting drain (GB) — the drain backlog.
  double queued_gb() const { return queued_gb_; }
  double free_gb() const { return config_.capacity_gb - queued_gb_; }
  /// Data staged for one job right now (GB).
  double JobUsageGb(workload::JobId job) const;

  /// Occupancy above the configured watermark: the BB-tier congestion
  /// signal.
  bool Congested() const {
    return queued_gb_ >= config_.congestion_watermark * config_.capacity_gb;
  }

  /// Bandwidth the drain is consuming right now (GB/s).
  double CurrentDrainRate() const {
    return queued_gb_ > 0 ? config_.drain_gbps * drain_factor_ : 0.0;
  }

  /// When the queue empties under the current rate (kTimeInfinity when
  /// already empty is never returned — returns last update time instead).
  sim::SimTime DrainEmptyTime() const;

  /// Lifetime counters (for reports).
  double total_absorbed_gb() const { return total_absorbed_gb_; }
  double total_drained_gb() const { return total_drained_gb_; }
  double peak_queued_gb() const { return peak_queued_gb_; }
  std::size_t absorbed_requests() const { return absorbed_requests_; }
  std::size_t spilled_requests() const { return spilled_requests_; }
  /// Data dropped by lossy capacity faults (GB).
  double total_lost_gb() const { return total_lost_gb_; }
  /// Time integral of queued_gb (GB*s): mean occupancy over a run is
  /// integral / (capacity * elapsed).
  double occupancy_integral_gbs() const { return occupancy_integral_gbs_; }

  /// From-scratch recomputations for the invariant checker: the sum of FIFO
  /// segment remainders and of per-job usage entries. Both must equal
  /// queued_gb() up to float tolerance — a divergence means the incremental
  /// bookkeeping lost track of staged data.
  double FifoTotalGb() const;
  double UsageTotalGb() const;
  std::size_t segment_count() const { return fifo_.size(); }

  /// Save or load queue/lifetime state (config comes from the run
  /// config).
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  /// One absorbed request awaiting drain; drained strictly front-first.
  struct Segment {
    workload::JobId job_id = 0;
    double remaining_gb = 0.0;
  };
  struct JobUsage {
    double gb = 0.0;
    std::uint32_t segments = 0;
  };

  void ConsumeFifo(double drained_gb);

  BurstBufferConfig config_;
  double queued_gb_ = 0.0;
  double total_absorbed_gb_ = 0.0;
  double total_drained_gb_ = 0.0;
  double peak_queued_gb_ = 0.0;
  double occupancy_integral_gbs_ = 0.0;
  double total_lost_gb_ = 0.0;
  std::size_t absorbed_requests_ = 0;
  std::size_t spilled_requests_ = 0;
  bool faulted_ = false;
  /// Drain-rate multiplier from fault injection (1.0 = nominal).
  double drain_factor_ = 1.0;
  std::deque<Segment> fifo_;
  std::map<workload::JobId, JobUsage> usage_;
  sim::SimTime last_update_ = 0.0;
};

}  // namespace iosched::storage
