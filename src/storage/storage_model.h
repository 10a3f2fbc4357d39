// Storage-system model (paper Section III-A.2 and III-A.4, Figure 4).
//
// The I/O network is over-provisioned relative to the file servers, so
// congestion happens at the storage side: the disks deliver at most
// `BWmax` GB/s in aggregate. Each compute node can inject at most `b` GB/s,
// so a job J_i transferring with all N_i nodes moves data at up to
// b*N_i GB/s. The model tracks every in-flight I/O request (one per job),
// accrues transferred volume under piecewise-constant rates, and reports the
// earliest completion. *Which* jobs transfer and at what rate is decided
// outside (by the I/O-aware policy in src/core); this module enforces only
// physics: rates are non-negative, capped at the job's full rate, and their
// sum never exceeds BWmax... except that the model itself does not clamp the
// sum — the BASE_LINE fair-share helper and the policies are responsible for
// producing feasible assignments, and the model validates them.
//
// Performance invariants (see DESIGN.md "Performance notes"): the transfer
// set is stored struct-of-arrays — one dense column per field, indexed by
// slot — with a job-id hash index, so Begin/End/Abort/Has/Get/SetRate are
// O(1) (End/Abort swap-erase every column and patch the index of the
// transfer that moved into the hole). The per-cycle hot loops (AdvanceTo,
// NextCompletion, the I/O scheduler's view building and rate imposition) run
// down the columns without touching the hash index; Columns() exposes them
// so the grant cycle can do the same. Aggregates over the active set —
// TotalAssignedRate, total demand, total node count — are maintained
// incrementally on every mutation instead of being recomputed by scans, and
// are reset to exactly zero whenever the active set empties so float drift
// cannot accumulate across a month-long replay. The (request_arrival,
// job_id) FCFS order is kept as a sorted vector of dense slot indices,
// updated on Begin/End/Abort, so arrival-order iteration is a hash-free
// gather and never re-sorts.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/field_table.h"
#include "workload/job.h"

namespace iosched::storage {

struct StorageConfig {
  /// Aggregate file-server bandwidth BWmax (GB/s). Mira: 250.
  double max_bandwidth_gbps = 250.0;
  /// Validate that assigned rates never sum above BWmax (tolerance applied).
  bool enforce_capacity = true;
};

/// StorageConfig's rows of the SimulationConfig field table
/// (util/field_table.h, core/config_fields.h); the model's constructor
/// checks the same rules.
template <util::MaybeConst<StorageConfig> C, class V>
void VisitFields(C& c, V& v) {
  using util::kAny, util::kPositive;
  using enum util::HashClass;
  v(c.max_bandwidth_gbps,
    {"max_bandwidth_gbps", "storage.bwmax_gbps", kPositive, kSchedule,
     "file-server bandwidth BWmax (GB/s)"});
  v(c.enforce_capacity, {"enforce_capacity", nullptr, kAny, kSchedule,
                         "throw on grants above BWmax"});
}

/// Value snapshot of one in-flight I/O request (the k-th I/O of some job).
/// The model stores these fields column-wise; Get/End/ActiveByArrival
/// assemble snapshots on demand.
struct Transfer {
  workload::JobId job_id = 0;
  /// Nodes participating in the transfer (N_i).
  int nodes = 0;
  /// Full-speed rate b*N_i (GB/s).
  double full_rate_gbps = 0.0;
  /// Total volume of this request, Vol_{i,k} (GB).
  double volume_gb = 0.0;
  /// Already-transferred volume W_{i,k} (GB).
  double transferred_gb = 0.0;
  /// When this request was issued (t^{I/O}_{i,k}).
  sim::SimTime request_arrival = 0.0;
  /// Rate currently granted by the policy; 0 means suspended.
  double rate_gbps = 0.0;
  /// Fraction of the granted rate the transfer actually achieves (straggler
  /// injection; 1.0 = nominal). The policy keeps granting — and the
  /// aggregates keep accounting — `rate_gbps`, while volume accrues at
  /// `rate_gbps * efficiency`: that gap is exactly what timeout/retry and
  /// the invariant checker exist to surface.
  double efficiency = 1.0;

  double RemainingGb() const { return volume_gb - transferred_gb; }
  /// Rate at which volume actually accrues (GB/s).
  double EffectiveRate() const { return rate_gbps * efficiency; }
  bool Complete() const;
};

/// The set of in-flight transfers with piecewise-constant-rate progression.
class StorageModel {
 public:
  /// Sentinel for an unset per-transfer user slot (see SetUserSlot).
  static constexpr std::uint32_t kNoUserSlot = 0xffffffffu;

  /// Read-only view of the dense columns plus the FCFS slot permutation.
  /// Spans are invalidated by any mutation (Begin/End/Abort/SetRate keeps
  /// the spans themselves valid but SetRate changes values; Begin/End/Abort
  /// may reallocate or permute slots).
  struct ActiveColumns {
    std::span<const workload::JobId> job_ids;
    std::span<const int> nodes;
    std::span<const double> full_rates;
    std::span<const double> volumes;
    std::span<const double> transferred;
    std::span<const sim::SimTime> arrivals;
    std::span<const double> rates;
    std::span<const double> efficiencies;
    std::span<const std::uint32_t> user_slots;
    /// Dense slot indices sorted by (request_arrival, job_id).
    std::span<const std::size_t> arrival_order;
  };

  explicit StorageModel(StorageConfig config);

  const StorageConfig& config() const { return config_; }

  /// Register a new I/O request. The transfer starts suspended (rate 0);
  /// the policy assigns rates afterwards. `efficiency` in (0, 1] scales the
  /// achieved rate below the grant (straggler injection). Throws if the job
  /// already has an in-flight transfer, volume is negative, or efficiency is
  /// out of range.
  void Begin(workload::JobId job, int nodes, double full_rate_gbps,
             double volume_gb, sim::SimTime now, double efficiency = 1.0);

  /// Remove a transfer; requires it to be complete (all volume moved).
  /// Returns the removed transfer's final state so callers don't need a
  /// separate Get: lookup, completeness check, and erase are one index
  /// probe.
  Transfer End(workload::JobId job);

  /// Remove a transfer regardless of progress (job killed / simulation
  /// teardown).
  void Abort(workload::JobId job);

  /// Mark the transfer finished by writing off its remaining sliver. Used
  /// by the scheduler when a completion event lands a rounding error before
  /// the transfer's analytic finish time; only tiny remainders (below
  /// `max_sliver_gb`) may be written off — larger ones throw.
  void ForceComplete(workload::JobId job, double max_sliver_gb);

  bool Has(workload::JobId job) const;
  /// Value snapshot of the job's transfer; throws when absent. Binding the
  /// result to a const reference keeps it alive (lifetime extension), but
  /// the snapshot does NOT track later mutations — re-Get after AdvanceTo
  /// or SetRate.
  Transfer Get(workload::JobId job) const;
  /// Like Get, but returns nullopt instead of throwing when the job has no
  /// in-flight transfer — lets callers replace Has+Get pairs with one
  /// lookup.
  std::optional<Transfer> TryGet(workload::JobId job) const;
  std::size_t active_count() const { return job_ids_.size(); }

  /// Dense column view for hash-free hot-loop iteration in arrival order.
  ActiveColumns Columns() const;

  /// Per-slot derived quantities (slot = dense index from Columns()).
  double RemainingAt(std::size_t slot) const {
    return volumes_[slot] - transferred_[slot];
  }
  double EffectiveRateAt(std::size_t slot) const {
    return rates_[slot] * efficiencies_[slot];
  }
  bool CompleteAt(std::size_t slot) const;

  /// All in-flight transfers ordered by (request_arrival, job_id) — the
  /// FCFS order the paper's policies start from. The returned pointers
  /// address value snapshots materialized into an internal scratch buffer:
  /// they are invalidated by the next ActiveByArrival call or any mutation,
  /// and do not track later mutations. Compatibility/reporting path — hot
  /// loops use Columns() instead.
  std::vector<const Transfer*> ActiveByArrival() const;
  /// Allocation-free variant: clears and refills `out` (capacity is
  /// reused across cycles by the scheduler's scratch buffer).
  void ActiveByArrival(std::vector<const Transfer*>& out) const;

  /// Accrue progress up to `now` under the current rates. Must be called
  /// before changing rates so progress is attributed correctly. `now` must
  /// not precede the previous update.
  void AdvanceTo(sim::SimTime now);

  /// Change the aggregate bandwidth cap at runtime (storage degradation or
  /// repair). In-flight transfers are re-accrued up to `now` at their old
  /// rates first, so the change point attributes progress correctly. The
  /// granted rates are NOT rescaled here — after a shrink they may sum above
  /// the new cap — so after updating the cap this notifies the registered
  /// bandwidth-change listener, which is expected to run a scheduling cycle
  /// immediately and produce a feasible assignment before any further time
  /// passes (the IoScheduler registers itself; without a listener the caller
  /// must force a cycle by hand, as before). Throws on a non-positive cap.
  void SetMaxBandwidth(double max_bandwidth_gbps, sim::SimTime now);

  /// Invoked by SetMaxBandwidth with (new BWmax, change time) right after
  /// the cap is swapped. At most one listener; replace with nullptr to
  /// detach. Never fired by a checkpoint load.
  using BandwidthChangeListener = std::function<void(double, sim::SimTime)>;
  void SetBandwidthChangeListener(BandwidthChangeListener listener) {
    bandwidth_listener_ = std::move(listener);
  }

  /// Set one transfer's granted rate (GB/s); clamped guards throw instead:
  /// negative or above full_rate (with tolerance) is an error. Callers must
  /// AdvanceTo(now) first.
  void SetRate(workload::JobId job, double rate_gbps);
  /// Same, addressed by dense slot (skips the hash lookup; the grant cycle
  /// already knows the slot from Columns()).
  void SetRateAtSlot(std::size_t slot, double rate_gbps);

  /// Attach an opaque user slot to the job's transfer (the I/O scheduler
  /// caches its job-context slot here so view building never hashes).
  /// Runtime-only state: NOT serialized; re-attach after a checkpoint load.
  void SetUserSlot(workload::JobId job, std::uint32_t user_slot);

  /// Sum of currently granted rates (GB/s). Maintained incrementally.
  double TotalAssignedRate() const { return total_assigned_rate_; }
  /// Sum of full rates b*N_i over active transfers. Maintained
  /// incrementally.
  double TotalDemand() const { return total_demand_gbps_; }
  /// Sum of node counts over active transfers. Maintained incrementally.
  long long TotalActiveNodes() const { return total_nodes_; }

  /// Verify the assignment is feasible (sum <= BWmax + eps) when
  /// enforce_capacity; throws std::logic_error on violation.
  void ValidateAssignment() const;

  /// Earliest (time, job) at which an in-flight transfer completes under
  /// current rates, or nullopt when none can complete (all suspended or no
  /// transfers). Ties break toward the smaller job id.
  std::optional<std::pair<sim::SimTime, workload::JobId>> NextCompletion()
      const;

  sim::SimTime last_update() const { return last_update_; }

  /// Save or load the full transfer set (dense-slot order), the FCFS
  /// arrival order, the current BWmax (it may have been changed at runtime
  /// by a degradation window), and the incrementally-maintained
  /// aggregates. The aggregates are saved verbatim rather than recomputed
  /// on restore: they carry accumulated float state, and resume-equivalence
  /// requires the restored values to be bit-identical to the live ones.
  /// User slots are runtime-only and excluded (the byte layout predates
  /// them). A load replaces any current transfer set onto a model
  /// constructed from the same StorageConfig; user slots come back as
  /// kNoUserSlot.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  /// Dense slot of `job`; throws when absent.
  std::size_t SlotOf(workload::JobId job) const;
  /// Assemble a value snapshot of the transfer in `slot`.
  Transfer AssembleAt(std::size_t slot) const;
  /// Swap-erase the transfer at dense index `idx` across every column,
  /// patching the hash index of the element moved into the hole, removing
  /// the job from the FCFS order, and unwinding the incremental aggregates.
  void EraseAt(std::size_t idx);
  /// Position of `job` (arrival `t`) in the FCFS arrival_order_ vector.
  std::vector<std::size_t>::iterator ArrivalPos(sim::SimTime arrival,
                                                workload::JobId job);
  std::vector<std::size_t>::const_iterator ArrivalPos(
      sim::SimTime arrival, workload::JobId job) const;

  StorageConfig config_;
  // Struct-of-arrays transfer storage: one column per Transfer field, all
  // indexed by the same dense slot; `index_` maps job id -> slot.
  std::vector<workload::JobId> job_ids_;
  std::vector<int> nodes_;
  std::vector<double> full_rates_;
  std::vector<double> volumes_;
  std::vector<double> transferred_;
  std::vector<sim::SimTime> arrivals_;
  std::vector<double> rates_;
  std::vector<double> efficiencies_;
  // Opaque per-transfer user slot (see SetUserSlot); runtime-only.
  std::vector<std::uint32_t> user_slots_;
  std::unordered_map<workload::JobId, std::size_t> index_;
  // Dense slot indices sorted by (request_arrival, job_id); maintained on
  // Begin/End/Abort (including re-pointing the slot that a swap-erase
  // moves) so arrival-order iteration is a hash-free gather, never a sort.
  std::vector<std::size_t> arrival_order_;
  // Scratch for the ActiveByArrival compatibility path: value snapshots the
  // returned pointers address.
  mutable std::vector<Transfer> materialized_;
  // Incremental aggregates over the active set (reset to 0 when empty).
  double total_assigned_rate_ = 0.0;
  double total_demand_gbps_ = 0.0;
  long long total_nodes_ = 0;
  sim::SimTime last_update_ = 0.0;
  BandwidthChangeListener bandwidth_listener_;
};

/// Water-filling (weighted max-min) bandwidth split: distribute
/// `max_bandwidth_gbps` across transfers in proportion to node counts,
/// capping any transfer at its demand (full rate) and redistributing the
/// freed slack to the rest until BWmax is saturated or every demand is met.
/// `demands[i]` pairs with `nodes[i]`; writes one rate per index into
/// `rates_out` (same length). When total demand fits in BWmax every
/// transfer gets its full demand. When `iterations_out` is non-null it is
/// *incremented* by the number of water-filling steps this call performed
/// (0 on the uncongested fast path) — observability accounting only, the
/// rates are unaffected.
void WaterFillRates(std::span<const double> demands,
                    std::span<const int> nodes, double max_bandwidth_gbps,
                    std::span<double> rates_out,
                    std::uint64_t* iterations_out = nullptr);

/// BASE_LINE bandwidth allocation (paper Section IV-D): every active
/// transfer runs; when aggregate demand exceeds BWmax each *node* receives
/// an equal share BWmax / N_active, i.e. job i gets share * N_i — except
/// that a job whose full rate b*N_i is below its per-node share is capped
/// there and the freed bandwidth water-fills back to the uncapped jobs
/// (otherwise capped jobs would strand bandwidth and understate BASE_LINE
/// throughput). Returns pairs (job, rate) covering every active transfer;
/// the total reaches min(total demand, BWmax).
std::vector<std::pair<workload::JobId, double>> FairShareRates(
    const std::vector<const Transfer*>& active, double max_bandwidth_gbps);

}  // namespace iosched::storage
