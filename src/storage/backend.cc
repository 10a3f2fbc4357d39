#include "storage/backend.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace iosched::storage {

double StorageBackend::UsableBandwidth(sim::SimTime now) {
  (void)now;
  return model_.config().max_bandwidth_gbps;
}

TierStatus StorageBackend::Status() const {
  TierStatus status;
  status.pfs_bandwidth_gbps = model_.config().max_bandwidth_gbps;
  status.pfs_demand_gbps = model_.TotalDemand();
  status.pfs_assigned_gbps = model_.TotalAssignedRate();
  if (const BurstBuffer* bb = burst_buffer()) {
    status.bb_enabled = true;
    status.bb_capacity_gb = bb->config().capacity_gb;
    status.bb_queued_gb = bb->queued_gb();
    status.bb_drain_gbps = bb->CurrentDrainRate();
    status.bb_congested = bb->Congested();
  }
  return status;
}

BurstBufferBackend::BurstBufferBackend(StorageConfig storage,
                                       BurstBufferConfig bb)
    : StorageBackend(storage), buffer_(bb) {
  if (bb.drain_gbps >= storage.max_bandwidth_gbps) {
    throw std::invalid_argument(
        "BurstBufferBackend: drain reservation (" +
        std::to_string(bb.drain_gbps) + " GB/s) must stay below BWmax (" +
        std::to_string(storage.max_bandwidth_gbps) + " GB/s)");
  }
}

double BurstBufferBackend::UsableBandwidth(sim::SimTime now) {
  buffer_.AdvanceTo(now);
  return std::max(0.0, model_.config().max_bandwidth_gbps -
                           buffer_.CurrentDrainRate());
}

std::unique_ptr<StorageBackend> MakeBackend(const StorageConfig& storage,
                                            const BurstBufferConfig& bb) {
  if (bb.enabled()) {
    return std::make_unique<BurstBufferBackend>(storage, bb);
  }
  return std::make_unique<SingleTierBackend>(storage);
}

}  // namespace iosched::storage
