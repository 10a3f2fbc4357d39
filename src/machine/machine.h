// Blue Gene/Q-style machine model with partition-based exclusive allocation.
//
// Mira (Section II of the paper): 48 racks in 3 rows of 16; each rack has two
// 512-node midplanes, so 96 midplanes / 49,152 nodes. The smallest
// allocatable partition is one midplane (512 nodes). Larger partitions are
// power-of-two groups of midplanes aligned inside a 32-midplane row
// (512..16,384 nodes); two adjacent rows form a 32,768-node partition and
// all three rows the full 49,152-node machine. Compute resources inside a
// partition are dedicated to the job running on it (exclusive allocation),
// exactly as Cobalt does on Mira.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/field_table.h"

namespace iosched::machine {

/// Geometry and I/O capability of the modeled system.
struct MachineConfig {
  int nodes_per_midplane = 512;
  int midplanes_per_row = 32;
  int rows = 3;
  /// Per-compute-node injection bandwidth into the I/O network, GB/s.
  /// Mira: 1536 GB/s aggregate over 49,152 nodes = 0.03125 GB/s per node.
  double node_bandwidth_gbps = 1536.0 / 49152.0;

  int total_midplanes() const { return midplanes_per_row * rows; }
  int total_nodes() const { return total_midplanes() * nodes_per_midplane; }

  /// The production Mira configuration (defaults above).
  static MachineConfig Mira();
  /// Mira's predecessor Intrepid (IBM Blue Gene/P): 40 racks in 5 rows of
  /// 8, 40,960 nodes, ~88 GB/s storage-era injection fabric (approximate
  /// public numbers; the paper quotes Intrepid at 0.5 PF with ~1/3 of
  /// Mira's I/O throughput).
  static MachineConfig Intrepid();
  /// A small test machine: 1 row of 8 midplanes (4,096 nodes).
  static MachineConfig Small();
};

/// MachineConfig's rows of the SimulationConfig field table
/// (util/field_table.h); Machine's constructor checks the same rules.
template <util::MaybeConst<MachineConfig> C, class V>
void VisitFields(C& c, V& v) {
  using util::kPositive;
  constexpr auto kSchedule = util::HashClass::kSchedule;
  v(c.nodes_per_midplane, {"nodes_per_midplane", nullptr, kPositive,
                           kSchedule, "set by [machine] preset"});
  v(c.midplanes_per_row, {"midplanes_per_row", nullptr, kPositive, kSchedule,
                          "set by [machine] preset"});
  v(c.rows, {"rows", nullptr, kPositive, kSchedule, "set by [machine] preset"});
  v(c.node_bandwidth_gbps,
    {"node_bandwidth_gbps", "machine.node_bandwidth_gbps", kPositive,
     kSchedule, "per-node injection bandwidth b (GB/s)"});
}

/// A granted partition: a contiguous aligned run of midplanes.
struct Partition {
  int first_midplane = 0;
  int midplane_count = 0;
  /// Total nodes in the partition (may exceed the job's request).
  int nodes = 0;

  bool valid() const { return midplane_count > 0; }
};

/// Tracks midplane occupancy and implements the partition allocator.
class Machine {
 public:
  /// Throws std::invalid_argument when `config` breaks a row of its table.
  explicit Machine(MachineConfig config);

  const MachineConfig& config() const { return config_; }
  int total_nodes() const { return config_.total_nodes(); }

  /// Nodes currently inside allocated partitions (includes internal
  /// fragmentation when a job's request is smaller than its block).
  int busy_nodes() const { return busy_nodes_; }
  int free_nodes() const { return total_nodes() - busy_nodes_; }
  /// Number of midplanes currently allocated.
  int busy_midplanes() const { return busy_midplanes_; }
  /// Number of midplanes currently marked faulted (service outage).
  int faulted_midplanes() const { return faulted_count_; }

  /// Smallest allocatable block (in nodes) that can hold `requested_nodes`,
  /// or nullopt when the request exceeds the machine.
  std::optional<int> BlockNodesFor(int requested_nodes) const;

  /// True when a partition for `requested_nodes` could be carved out of the
  /// current free midplanes (used by the backfill planner).
  bool CanAllocate(int requested_nodes) const;

  /// Allocate a partition for `requested_nodes`; nullopt when no aligned
  /// free block exists. Deterministic: lowest-numbered candidate wins.
  std::optional<Partition> Allocate(int requested_nodes);

  /// Return a partition's midplanes to the free pool. Throws on a partition
  /// that is not currently allocated exactly as given.
  void Release(const Partition& partition);

  /// Words in a midplane mask: midplane i is bit i % 64 of word i / 64, the
  /// packing of the occupancy bitmap.
  std::size_t mask_words() const { return occupied_words_.size(); }

  /// Add `partition`'s midplanes to `release` (mask_words() words), checked
  /// the way Release would check it on a copy of this machine that already
  /// released `release`: throws std::logic_error unless every midplane is
  /// occupied here and absent from the mask.
  void AddToReleaseMask(const Partition& partition,
                        std::span<std::uint64_t> release) const;

  /// CanAllocate on this machine as it would be after releasing every
  /// midplane in `release` (mask_words() words, built by AddToReleaseMask):
  /// the answer of copying the machine, releasing those partitions and
  /// probing, without the copy.
  bool CanAllocateReleasing(int requested_nodes,
                            std::span<const std::uint64_t> release) const;

  /// Mark a midplane as faulted (excluded from new allocations) or repaired.
  /// Idempotent; independent of occupancy — a faulted midplane inside a
  /// running partition stays allocated until the job is killed/released, but
  /// cannot be re-allocated afterwards. Throws on a bad index.
  void SetFaulted(int midplane, bool faulted);
  bool IsFaulted(int midplane) const;

  /// True when `partition` covers `midplane`.
  static bool Covers(const Partition& partition, int midplane) {
    return midplane >= partition.first_midplane &&
           midplane < partition.first_midplane + partition.midplane_count;
  }

  /// Occupancy bitmap (one flag per midplane), for tests and visualization.
  /// Materialized from the packed word representation on each call.
  std::vector<bool> occupancy() const;

  /// Save or load the occupancy/fault words and derived counters.
  /// Geometry is not saved — it is reconstructed from the run
  /// configuration, and the checkpoint's config hash guarantees it
  /// matches; a load still rejects a word count that differs (config drift
  /// that escaped the hash).
  template <class Ar>
  void Serialize(Ar& ar) {
    std::size_t words = occupied_words_.size();
    ar.Size(words);
    if constexpr (Ar::kLoading) {
      if (words != occupied_words_.size()) {
        ar.Fail("machine geometry (" + std::to_string(words) +
                " occupancy words) does not match this machine (" +
                std::to_string(occupied_words_.size()) + ")");
      }
    }
    for (std::uint64_t& word : occupied_words_) ar.U64(word);
    for (std::uint64_t& word : faulted_words_) ar.U64(word);
    ar.I64(busy_nodes_);
    ar.I64(busy_midplanes_);
    ar.I64(faulted_count_);
  }

 private:
  /// Midplane count of the block serving `requested_nodes` (1,2,4,...,row,
  /// 2*row, 3*row), or -1 when impossible.
  int BlockMidplanesFor(int requested_nodes) const;
  /// Find the lowest feasible start index for an aligned run of
  /// `midplanes` none of whose bits are set in `blocked(word index)`, or -1.
  template <class Blocked>
  int FindFreeRun(int midplanes, Blocked blocked) const;
  /// Occupied or faulted midplanes of word `i`: what blocks an allocation.
  std::uint64_t BlockedWord(std::size_t i) const {
    return occupied_words_[i] | faulted_words_[i];
  }
  /// Throws unless `partition` lies inside the machine.
  void CheckBounds(const Partition& partition, const char* caller) const;

  MachineConfig config_;
  // Occupancy and fault state are packed 64 midplanes per word so the
  // allocator's free-run probes (the hottest loop in backfill planning) are
  // a couple of masked word tests instead of per-midplane flag reads.
  std::vector<std::uint64_t> occupied_words_;
  std::vector<std::uint64_t> faulted_words_;
  int busy_nodes_ = 0;
  int busy_midplanes_ = 0;
  int faulted_count_ = 0;
};

}  // namespace iosched::machine
