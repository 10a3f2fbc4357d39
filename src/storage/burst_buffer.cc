#include "storage/burst_buffer.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ckpt/serializer.h"
#include "util/units.h"

namespace iosched::storage {

BurstBuffer::BurstBuffer(BurstBufferConfig config) : config_(config) {
  if (!config_.enabled()) {
    throw std::invalid_argument(
        "BurstBuffer: construct only with an enabled config (capacity and "
        "drain bandwidth both positive)");
  }
  std::string err = util::FirstIssue(config_);
  if (!err.empty()) throw std::invalid_argument("BurstBuffer: " + err);
}

void BurstBuffer::AdvanceTo(sim::SimTime now) {
  if (now < last_update_ - util::kTimeEpsilon) {
    throw std::logic_error("BurstBuffer: time went backwards");
  }
  double dt = std::max(0.0, now - last_update_);
  double rate = config_.drain_gbps * drain_factor_;
  if (dt > 0 && queued_gb_ > 0) {
    double drained = std::min(queued_gb_, rate * dt);
    // Occupancy shrinks linearly until the queue empties, then stays zero:
    // the exact integral over [last_update_, now] is q0*td - d*td^2/2 with
    // td the draining portion of dt.
    double td = drained / rate;
    occupancy_integral_gbs_ += queued_gb_ * td - 0.5 * rate * td * td;
    ConsumeFifo(drained);
    total_drained_gb_ += drained;
    queued_gb_ -= drained;
  }
  // Snap small remainders to empty (1 MB is physically nothing): without
  // this the drain-empty wakeup can land at a future instant that double
  // rounding maps back to `now`, re-arming the same event forever.
  if (queued_gb_ <= 1e-3) {
    total_drained_gb_ += queued_gb_;
    queued_gb_ = 0.0;
    fifo_.clear();
    usage_.clear();
  }
  last_update_ = std::max(last_update_, now);
}

void BurstBuffer::ConsumeFifo(double drained_gb) {
  while (drained_gb > 0 && !fifo_.empty()) {
    Segment& front = fifo_.front();
    double take = std::min(front.remaining_gb, drained_gb);
    front.remaining_gb -= take;
    drained_gb -= take;
    auto it = usage_.find(front.job_id);
    if (it != usage_.end()) {
      it->second.gb = std::max(0.0, it->second.gb - take);
      if (front.remaining_gb <= 0.0) {
        if (it->second.segments > 0) --it->second.segments;
        if (it->second.segments == 0) usage_.erase(it);
      }
    }
    if (front.remaining_gb <= 0.0) fifo_.pop_front();
  }
}

bool BurstBuffer::CanAbsorb(workload::JobId job, double volume_gb) const {
  if (faulted_) return false;
  if (volume_gb <= 0) return false;
  if (queued_gb_ + volume_gb > config_.capacity_gb + util::kVolumeEpsilon) {
    return false;
  }
  if (config_.per_job_quota_gb > 0 &&
      JobUsageGb(job) + volume_gb >
          config_.per_job_quota_gb + util::kVolumeEpsilon) {
    return false;
  }
  return true;
}

void BurstBuffer::Absorb(workload::JobId job, double volume_gb) {
  if (!CanAbsorb(job, volume_gb)) {
    throw std::logic_error("BurstBuffer: Absorb without capacity");
  }
  queued_gb_ += volume_gb;
  total_absorbed_gb_ += volume_gb;
  peak_queued_gb_ = std::max(peak_queued_gb_, queued_gb_);
  ++absorbed_requests_;
  fifo_.push_back(Segment{job, volume_gb});
  JobUsage& usage = usage_[job];
  usage.gb += volume_gb;
  ++usage.segments;
}

double BurstBuffer::JobUsageGb(workload::JobId job) const {
  auto it = usage_.find(job);
  return it == usage_.end() ? 0.0 : it->second.gb;
}

sim::SimTime BurstBuffer::DrainEmptyTime() const {
  if (queued_gb_ <= 0) return last_update_;
  return last_update_ + queued_gb_ / (config_.drain_gbps * drain_factor_);
}

double BurstBuffer::FifoTotalGb() const {
  double total = 0.0;
  for (const Segment& s : fifo_) total += s.remaining_gb;
  return total;
}

double BurstBuffer::UsageTotalGb() const {
  double total = 0.0;
  for (const auto& [job, usage] : usage_) total += usage.gb;
  return total;
}

double BurstBuffer::DropBufferedData() {
  double dropped = queued_gb_;
  total_lost_gb_ += dropped;
  queued_gb_ = 0.0;
  fifo_.clear();
  usage_.clear();
  return dropped;
}

void BurstBuffer::SetDrainFactor(double factor) {
  if (factor <= 0 || factor > 1.0) {
    throw std::invalid_argument(
        "BurstBuffer: drain factor must be in (0, 1]");
  }
  drain_factor_ = factor;
}

template <class Ar>
void BurstBuffer::Serialize(Ar& ar) {
  ar.F64(queued_gb_);
  ar.F64(total_absorbed_gb_);
  ar.U64(absorbed_requests_);
  ar.F64(last_update_);
  ar.F64(total_drained_gb_);
  ar.F64(peak_queued_gb_);
  ar.F64(occupancy_integral_gbs_);
  ar.U64(spilled_requests_);
  // The FIFO is serialized verbatim (front first) and the per-job usage by
  // ascending id, so restore is a structural copy — required for bit-exact
  // resume equivalence.
  ar.Seq(fifo_, [&ar](Segment& s) {
    ar.I64(s.job_id);
    ar.F64(s.remaining_gb);
  });
  ar.SortedMap(usage_, [&ar](workload::JobId, JobUsage& usage) {
    ar.F64(usage.gb);
    ar.U32(usage.segments);
  });
  // Fault-model state (appended so the layout above is unchanged).
  ar.Bool(faulted_);
  ar.F64(drain_factor_);
  ar.F64(total_lost_gb_);
}
template void BurstBuffer::Serialize(ckpt::Writer&);
template void BurstBuffer::Serialize(ckpt::Reader&);

}  // namespace iosched::storage
