#include "storage/storage_model.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/serializer.h"
#include "util/units.h"

namespace iosched::storage {

bool Transfer::Complete() const {
  return RemainingGb() <= util::kVolumeEpsilon * std::max(1.0, volume_gb);
}

StorageModel::StorageModel(StorageConfig config) : config_(config) {
  std::string err = util::FirstIssue(config_);
  if (!err.empty()) throw std::invalid_argument("StorageModel: " + err);
}

bool StorageModel::CompleteAt(std::size_t slot) const {
  return RemainingAt(slot) <=
         util::kVolumeEpsilon * std::max(1.0, volumes_[slot]);
}

std::vector<std::size_t>::const_iterator StorageModel::ArrivalPos(
    sim::SimTime arrival, workload::JobId job) const {
  return std::lower_bound(
      arrival_order_.begin(), arrival_order_.end(),
      std::pair<sim::SimTime, workload::JobId>(arrival, job),
      [this](std::size_t lhs,
             const std::pair<sim::SimTime, workload::JobId>& rhs) {
        if (arrivals_[lhs] != rhs.first) {
          return arrivals_[lhs] < rhs.first;
        }
        return job_ids_[lhs] < rhs.second;
      });
}

std::vector<std::size_t>::iterator StorageModel::ArrivalPos(
    sim::SimTime arrival, workload::JobId job) {
  auto pos = std::as_const(*this).ArrivalPos(arrival, job);
  return arrival_order_.begin() + (pos - arrival_order_.cbegin());
}

void StorageModel::Begin(workload::JobId job, int nodes, double full_rate_gbps,
                         double volume_gb, sim::SimTime now,
                         double efficiency) {
  if (Has(job)) {
    throw std::logic_error("StorageModel::Begin: job " + std::to_string(job) +
                           " already transferring");
  }
  if (nodes <= 0 || full_rate_gbps <= 0 || volume_gb < 0) {
    throw std::invalid_argument("StorageModel::Begin: bad transfer params");
  }
  if (efficiency <= 0 || efficiency > 1.0) {
    throw std::invalid_argument("StorageModel::Begin: bad efficiency");
  }
  AdvanceTo(now);
  index_.emplace(job, job_ids_.size());
  job_ids_.push_back(job);
  nodes_.push_back(nodes);
  full_rates_.push_back(full_rate_gbps);
  volumes_.push_back(volume_gb);
  transferred_.push_back(0.0);
  arrivals_.push_back(now);
  rates_.push_back(0.0);
  efficiencies_.push_back(efficiency);
  user_slots_.push_back(kNoUserSlot);
  arrival_order_.insert(ArrivalPos(now, job), job_ids_.size() - 1);
  total_demand_gbps_ += full_rate_gbps;
  total_nodes_ += nodes;
}

std::size_t StorageModel::SlotOf(workload::JobId job) const {
  auto it = index_.find(job);
  if (it == index_.end()) {
    throw std::logic_error("StorageModel: no transfer for job " +
                           std::to_string(job));
  }
  return it->second;
}

Transfer StorageModel::AssembleAt(std::size_t slot) const {
  Transfer t;
  t.job_id = job_ids_[slot];
  t.nodes = nodes_[slot];
  t.full_rate_gbps = full_rates_[slot];
  t.volume_gb = volumes_[slot];
  t.transferred_gb = transferred_[slot];
  t.request_arrival = arrivals_[slot];
  t.rate_gbps = rates_[slot];
  t.efficiency = efficiencies_[slot];
  return t;
}

void StorageModel::EraseAt(std::size_t idx) {
  total_demand_gbps_ -= full_rates_[idx];
  total_nodes_ -= nodes_[idx];
  total_assigned_rate_ -= rates_[idx];
  arrival_order_.erase(ArrivalPos(arrivals_[idx], job_ids_[idx]));
  index_.erase(job_ids_[idx]);
  const std::size_t last = job_ids_.size() - 1;
  if (idx != last) {
    job_ids_[idx] = job_ids_[last];
    nodes_[idx] = nodes_[last];
    full_rates_[idx] = full_rates_[last];
    volumes_[idx] = volumes_[last];
    transferred_[idx] = transferred_[last];
    arrivals_[idx] = arrivals_[last];
    rates_[idx] = rates_[last];
    efficiencies_[idx] = efficiencies_[last];
    user_slots_[idx] = user_slots_[last];
    index_[job_ids_[idx]] = idx;
    // The moved transfer's FCFS entry still points at the old back slot;
    // re-point it (its sort key is unchanged, so the order is intact).
    *ArrivalPos(arrivals_[idx], job_ids_[idx]) = idx;
  }
  job_ids_.pop_back();
  nodes_.pop_back();
  full_rates_.pop_back();
  volumes_.pop_back();
  transferred_.pop_back();
  arrivals_.pop_back();
  rates_.pop_back();
  efficiencies_.pop_back();
  user_slots_.pop_back();
  if (job_ids_.empty()) {
    // Pin the aggregates back to exact zero so incremental-update round-off
    // cannot accumulate across a month of transfers.
    total_demand_gbps_ = 0.0;
    total_nodes_ = 0;
    total_assigned_rate_ = 0.0;
  }
}

Transfer StorageModel::End(workload::JobId job) {
  std::size_t slot = SlotOf(job);
  Transfer t = AssembleAt(slot);
  if (!t.Complete()) {
    throw std::logic_error("StorageModel::End: job " + std::to_string(job) +
                           " not complete (" + std::to_string(t.RemainingGb()) +
                           " GB remaining)");
  }
  EraseAt(slot);
  return t;
}

void StorageModel::Abort(workload::JobId job) {
  auto it = index_.find(job);
  if (it == index_.end()) {
    throw std::logic_error("StorageModel::Abort: no transfer for job " +
                           std::to_string(job) + " (" +
                           std::to_string(job_ids_.size()) +
                           " active transfers)");
  }
  EraseAt(it->second);
}

void StorageModel::ForceComplete(workload::JobId job, double max_sliver_gb) {
  std::size_t slot = SlotOf(job);
  double sliver = RemainingAt(slot);
  if (sliver > max_sliver_gb) {
    throw std::logic_error("StorageModel::ForceComplete: remaining " +
                           std::to_string(sliver) + " GB exceeds the sliver "
                           "threshold");
  }
  transferred_[slot] = volumes_[slot];
}

bool StorageModel::Has(workload::JobId job) const {
  return index_.find(job) != index_.end();
}

Transfer StorageModel::Get(workload::JobId job) const {
  auto it = index_.find(job);
  if (it == index_.end()) {
    throw std::logic_error("StorageModel::Get: no transfer for job " +
                           std::to_string(job));
  }
  return AssembleAt(it->second);
}

std::optional<Transfer> StorageModel::TryGet(workload::JobId job) const {
  auto it = index_.find(job);
  if (it == index_.end()) return std::nullopt;
  return AssembleAt(it->second);
}

StorageModel::ActiveColumns StorageModel::Columns() const {
  ActiveColumns c;
  c.job_ids = job_ids_;
  c.nodes = nodes_;
  c.full_rates = full_rates_;
  c.volumes = volumes_;
  c.transferred = transferred_;
  c.arrivals = arrivals_;
  c.rates = rates_;
  c.efficiencies = efficiencies_;
  c.user_slots = user_slots_;
  c.arrival_order = arrival_order_;
  return c;
}

std::vector<const Transfer*> StorageModel::ActiveByArrival() const {
  std::vector<const Transfer*> out;
  ActiveByArrival(out);
  return out;
}

void StorageModel::ActiveByArrival(std::vector<const Transfer*>& out) const {
  out.clear();
  out.reserve(job_ids_.size());
  materialized_.clear();
  materialized_.reserve(job_ids_.size());
  for (std::size_t slot : arrival_order_) {
    materialized_.push_back(AssembleAt(slot));
  }
  for (const Transfer& t : materialized_) {
    out.push_back(&t);
  }
}

void StorageModel::AdvanceTo(sim::SimTime now) {
  if (now < last_update_ - util::kTimeEpsilon) {
    throw std::logic_error("StorageModel::AdvanceTo: time went backwards");
  }
  double dt = std::max(0.0, now - last_update_);
  if (dt > 0) {
    const std::size_t n = job_ids_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (rates_[i] > 0) {
        transferred_[i] = std::min(
            volumes_[i],
            transferred_[i] + rates_[i] * efficiencies_[i] * dt);
      }
    }
  }
  last_update_ = std::max(last_update_, now);
}

void StorageModel::SetMaxBandwidth(double max_bandwidth_gbps,
                                   sim::SimTime now) {
  if (max_bandwidth_gbps <= 0) {
    throw std::invalid_argument(
        "StorageModel::SetMaxBandwidth: non-positive BWmax");
  }
  AdvanceTo(now);
  config_.max_bandwidth_gbps = max_bandwidth_gbps;
  if (bandwidth_listener_) bandwidth_listener_(max_bandwidth_gbps, now);
}

void StorageModel::SetRate(workload::JobId job, double rate_gbps) {
  SetRateAtSlot(SlotOf(job), rate_gbps);
}

void StorageModel::SetRateAtSlot(std::size_t slot, double rate_gbps) {
  if (rate_gbps < 0) {
    throw std::invalid_argument("StorageModel::SetRate: negative rate");
  }
  if (rate_gbps > util::MaxGrantableRate(full_rates_[slot])) {
    throw std::invalid_argument(
        "StorageModel::SetRate: rate exceeds job's full rate");
  }
  double clamped = std::min(rate_gbps, full_rates_[slot]);
  total_assigned_rate_ += clamped - rates_[slot];
  rates_[slot] = clamped;
}

void StorageModel::SetUserSlot(workload::JobId job, std::uint32_t user_slot) {
  user_slots_[SlotOf(job)] = user_slot;
}

template <class Ar>
void StorageModel::Serialize(Ar& ar) {
  ar.F64(config_.max_bandwidth_gbps);
  ar.F64(last_update_);
  ar.F64(total_assigned_rate_);
  ar.F64(total_demand_gbps_);
  ar.I64(total_nodes_);
  std::size_t n = job_ids_.size();
  ar.Size(n);
  if constexpr (Ar::kLoading) {
    for (auto* column : {&full_rates_, &volumes_, &transferred_, &arrivals_,
                         &rates_, &efficiencies_}) {
      column->assign(n, 0.0);
    }
    job_ids_.assign(n, 0);
    nodes_.assign(n, 0);
    user_slots_.assign(n, kNoUserSlot);
    arrival_order_.assign(n, 0);
  }
  // Field sequence matches the pre-SoA per-Transfer layout byte for byte.
  for (std::size_t i = 0; i < n; ++i) {
    ar.I64(job_ids_[i]);
    ar.I64(nodes_[i]);
    ar.F64(full_rates_[i]);
    ar.F64(volumes_[i]);
    ar.F64(transferred_[i]);
    ar.F64(arrivals_[i]);
    ar.F64(rates_[i]);
    ar.F64(efficiencies_[i]);
  }
  // The FCFS order is a permutation of dense slots; saving it verbatim
  // avoids re-deriving it (and keeps restore a structural copy).
  for (std::size_t& slot : arrival_order_) {
    ar.U32(slot);
    if constexpr (Ar::kLoading) {
      if (slot >= n) {
        ar.Fail("arrival order references slot " + std::to_string(slot) +
                " of " + std::to_string(n));
      }
    }
  }
  if constexpr (Ar::kLoading) {
    index_.clear();
    for (std::size_t i = 0; i < n; ++i) index_.emplace(job_ids_[i], i);
  }
}
template void StorageModel::Serialize(ckpt::Writer&);
template void StorageModel::Serialize(ckpt::Reader&);

void StorageModel::ValidateAssignment() const {
  if (!config_.enforce_capacity) return;
  double total = TotalAssignedRate();
  if (total >
      config_.max_bandwidth_gbps * (1.0 + util::kCapacityRelSlack)) {
    throw std::logic_error(
        "StorageModel: assigned rates exceed BWmax (" + std::to_string(total) +
        " > " + std::to_string(config_.max_bandwidth_gbps) + ")");
  }
}

std::optional<std::pair<sim::SimTime, workload::JobId>>
StorageModel::NextCompletion() const {
  std::optional<std::pair<sim::SimTime, workload::JobId>> best;
  const std::size_t n = job_ids_.size();
  for (std::size_t i = 0; i < n; ++i) {
    sim::SimTime finish;
    if (CompleteAt(i)) {
      finish = last_update_;
    } else if (rates_[i] > 0) {
      finish = last_update_ + RemainingAt(i) / EffectiveRateAt(i);
    } else {
      continue;  // suspended transfers never finish on their own
    }
    if (!best || finish < best->first ||
        (finish == best->first && job_ids_[i] < best->second)) {
      best = {finish, job_ids_[i]};
    }
  }
  return best;
}

void WaterFillRates(std::span<const double> demands,
                    std::span<const int> nodes, double max_bandwidth_gbps,
                    std::span<double> rates_out,
                    std::uint64_t* iterations_out) {
  const std::size_t n = demands.size();
  double total_demand = 0.0;
  long long total_nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_demand += demands[i];
    total_nodes += nodes[i];
  }
  if (total_demand <= max_bandwidth_gbps || total_nodes == 0) {
    for (std::size_t i = 0; i < n; ++i) rates_out[i] = demands[i];
    return;
  }
  // Weighted max-min: visit transfers by increasing per-node demand. At
  // each step the fair per-node level is remaining_bw / remaining_nodes; a
  // transfer below its share takes only its demand and the slack stays in
  // remaining_bw, raising the level for everyone after it. Once the first
  // transfer exceeds its share, so do all later ones (their per-node demand
  // is larger and the level is constant from then on), so a single sorted
  // pass water-fills exactly.
  // Thread-local scratch: this runs once per admission probe inside the
  // ADAPTIVE policy's cycle loop, and policies may run on pool threads.
  thread_local std::vector<std::size_t> order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    double da = demands[a] / nodes[a];
    double db = demands[b] / nodes[b];
    if (da != db) return da < db;
    return a < b;
  });
  if (iterations_out != nullptr) *iterations_out += n;
  double remaining_bw = max_bandwidth_gbps;
  long long remaining_nodes = total_nodes;
  for (std::size_t i : order) {
    double share =
        remaining_bw * nodes[i] / static_cast<double>(remaining_nodes);
    double rate = std::min(demands[i], share);
    rates_out[i] = rate;
    remaining_bw -= rate;
    remaining_nodes -= nodes[i];
  }
}

std::vector<std::pair<workload::JobId, double>> FairShareRates(
    const std::vector<const Transfer*>& active, double max_bandwidth_gbps) {
  std::vector<std::pair<workload::JobId, double>> rates;
  rates.reserve(active.size());
  if (active.empty()) return rates;
  std::vector<double> demands(active.size());
  std::vector<int> nodes(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    demands[i] = active[i]->full_rate_gbps;
    nodes[i] = active[i]->nodes;
  }
  std::vector<double> shares(active.size());
  WaterFillRates(demands, nodes, max_bandwidth_gbps, shares);
  for (std::size_t i = 0; i < active.size(); ++i) {
    rates.emplace_back(active[i]->job_id, shares[i]);
  }
  return rates;
}

}  // namespace iosched::storage
