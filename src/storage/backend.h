// Pluggable storage backends: the simulation core talks to a
// `StorageBackend`, which owns the shared parallel-file-system model
// (`StorageModel`, capped at BWmax) and optionally a fast absorbing tier in
// front of it (`BurstBuffer`). Two implementations:
//
//   SingleTierBackend  — the paper's model: every request contends for the
//                        PFS directly; `burst_buffer()` is nullptr.
//   BurstBufferBackend — two tiers: requests that fit are absorbed by the
//                        burst buffer and drained to the PFS asynchronously;
//                        the drain reservation comes out of BWmax.
//
// The backend also snapshots both tiers into a `TierStatus` for metrics,
// observability and the tier-aware policy hook.
#pragma once

#include <memory>
#include <optional>

#include "storage/burst_buffer.h"
#include "storage/storage_model.h"

namespace iosched::storage {

/// Point-in-time view of both tiers (all rates GB/s, volumes GB).
struct TierStatus {
  /// PFS tier.
  double pfs_bandwidth_gbps = 0.0;  ///< current BWmax (faults may lower it)
  double pfs_demand_gbps = 0.0;
  double pfs_assigned_gbps = 0.0;
  /// Burst-buffer tier (zeros when disabled).
  bool bb_enabled = false;
  double bb_capacity_gb = 0.0;
  double bb_queued_gb = 0.0;  ///< drain backlog
  double bb_drain_gbps = 0.0;  ///< reservation active right now
  bool bb_congested = false;  ///< occupancy above the watermark
};

class StorageBackend {
 public:
  explicit StorageBackend(StorageConfig config) : model_(config) {}
  virtual ~StorageBackend() = default;

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  virtual const char* name() const = 0;

  /// The shared PFS tier (always present).
  StorageModel& model() { return model_; }
  const StorageModel& model() const { return model_; }

  /// The absorbing tier, when this backend has one.
  virtual BurstBuffer* burst_buffer() { return nullptr; }
  const BurstBuffer* burst_buffer() const {
    return const_cast<StorageBackend*>(this)->burst_buffer();
  }

  /// Bandwidth the policy may grant to direct traffic at `now`: BWmax minus
  /// the drain reservation (never negative). Advances the absorbing tier.
  virtual double UsableBandwidth(sim::SimTime now);

  TierStatus Status() const;

 protected:
  StorageModel model_;
};

class SingleTierBackend final : public StorageBackend {
 public:
  explicit SingleTierBackend(StorageConfig config)
      : StorageBackend(config) {}
  const char* name() const override { return "single_tier"; }
};

class BurstBufferBackend final : public StorageBackend {
 public:
  /// Throws std::invalid_argument unless 0 < drain < BWmax and the
  /// burst-buffer config is enabled.
  BurstBufferBackend(StorageConfig storage, BurstBufferConfig bb);
  const char* name() const override { return "burst_buffer"; }
  BurstBuffer* burst_buffer() override { return &buffer_; }
  double UsableBandwidth(sim::SimTime now) override;

 private:
  BurstBuffer buffer_;
};

/// Factory: burst-buffer backend when `bb.enabled()`, single tier otherwise.
std::unique_ptr<StorageBackend> MakeBackend(const StorageConfig& storage,
                                            const BurstBufferConfig& bb = {});

}  // namespace iosched::storage
