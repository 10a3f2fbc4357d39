#include "machine/machine.h"

#include <stdexcept>
#include <string>

namespace iosched::machine {

namespace {
/// Bits [lo, hi) of a 64-bit word, 0 <= lo < hi <= 64.
std::uint64_t WordMask(int lo, int hi) {
  std::uint64_t m = ~std::uint64_t{0} >> (64 - (hi - lo));
  return m << lo;
}

bool TestBit(const std::vector<std::uint64_t>& words, int bit) {
  return (words[static_cast<std::size_t>(bit >> 6)] >>
          (static_cast<unsigned>(bit) & 63u)) &
         1u;
}

/// Calls fn(word index, bits of the word inside the range) for each word
/// midplanes [start, start + count) touch; stops early, returning false,
/// when fn does.
template <class Fn>
bool ForEachWord(int start, int count, Fn fn) {
  int end = start + count;
  int w_first = start >> 6;
  int w_last = (end - 1) >> 6;
  for (int w = w_first; w <= w_last; ++w) {
    int lo = (w == w_first) ? (start & 63) : 0;
    int hi = (w == w_last) ? (end - (w << 6)) : 64;
    if (!fn(static_cast<std::size_t>(w), WordMask(lo, hi))) return false;
  }
  return true;
}
}  // namespace

MachineConfig MachineConfig::Mira() { return MachineConfig{}; }

MachineConfig MachineConfig::Intrepid() {
  MachineConfig cfg;
  cfg.midplanes_per_row = 16;  // 8 racks x 2 midplanes
  cfg.rows = 5;
  // 40,960 nodes driving ~512 GB/s of aggregate injection.
  cfg.node_bandwidth_gbps = 512.0 / 40960.0;
  return cfg;
}

MachineConfig MachineConfig::Small() {
  MachineConfig cfg;
  cfg.midplanes_per_row = 8;
  cfg.rows = 1;
  return cfg;
}

namespace {
/// `config`, once it keeps every rule of its table: the word vectors below
/// are sized from its geometry.
MachineConfig Checked(MachineConfig config) {
  std::string err = util::FirstIssue(config);
  if (!err.empty()) throw std::invalid_argument("Machine: " + err);
  return config;
}
}  // namespace

Machine::Machine(MachineConfig config)
    : config_(Checked(config)),
      occupied_words_(
          static_cast<std::size_t>((config_.total_midplanes() + 63) / 64), 0),
      faulted_words_(
          static_cast<std::size_t>((config_.total_midplanes() + 63) / 64),
          0) {}

int Machine::BlockMidplanesFor(int requested_nodes) const {
  if (requested_nodes <= 0) return -1;
  int per_mp = config_.nodes_per_midplane;
  int row = config_.midplanes_per_row;
  int needed = (requested_nodes + per_mp - 1) / per_mp;  // ceil
  if (needed > config_.total_midplanes()) return -1;
  // Power-of-two block inside one row.
  int block = 1;
  while (block < needed && block < row) block *= 2;
  if (needed <= block && block <= row) return block;
  // Multi-row blocks: whole rows only.
  for (int rows = 2; rows <= config_.rows; ++rows) {
    if (needed <= rows * row) return rows * row;
  }
  return -1;
}

std::optional<int> Machine::BlockNodesFor(int requested_nodes) const {
  int mps = BlockMidplanesFor(requested_nodes);
  if (mps < 0) return std::nullopt;
  return mps * config_.nodes_per_midplane;
}

void Machine::SetFaulted(int midplane, bool faulted) {
  if (midplane < 0 || midplane >= config_.total_midplanes()) {
    throw std::invalid_argument("Machine::SetFaulted: bad midplane index");
  }
  if (TestBit(faulted_words_, midplane) == faulted) return;
  faulted_words_[static_cast<std::size_t>(midplane >> 6)] ^=
      std::uint64_t{1} << (static_cast<unsigned>(midplane) & 63u);
  faulted_count_ += faulted ? 1 : -1;
}

bool Machine::IsFaulted(int midplane) const {
  if (midplane < 0 || midplane >= config_.total_midplanes()) {
    throw std::invalid_argument("Machine::IsFaulted: bad midplane index");
  }
  return TestBit(faulted_words_, midplane);
}

template <class Blocked>
int Machine::FindFreeRun(int midplanes, Blocked blocked) const {
  auto run_free = [&blocked](int start, int count) {
    return ForEachWord(start, count, [&blocked](std::size_t i,
                                                std::uint64_t mask) {
      return (blocked(i) & mask) == 0;
    });
  };
  int row = config_.midplanes_per_row;
  if (midplanes <= row) {
    // Aligned run inside any single row.
    for (int r = 0; r < config_.rows; ++r) {
      for (int off = 0; off + midplanes <= row; off += midplanes) {
        int start = r * row + off;
        if (run_free(start, midplanes)) return start;
      }
    }
    return -1;
  }
  // Whole-row groups: contiguous rows.
  int rows_needed = midplanes / row;
  for (int r = 0; r + rows_needed <= config_.rows; ++r) {
    int start = r * row;
    if (run_free(start, rows_needed * row)) return start;
  }
  return -1;
}

bool Machine::CanAllocate(int requested_nodes) const {
  int mps = BlockMidplanesFor(requested_nodes);
  if (mps < 0) return false;
  return FindFreeRun(mps, [this](std::size_t i) { return BlockedWord(i); }) >=
         0;
}

bool Machine::CanAllocateReleasing(
    int requested_nodes, std::span<const std::uint64_t> release) const {
  if (release.size() != mask_words()) {
    throw std::invalid_argument(
        "Machine::CanAllocateReleasing: mask size mismatch");
  }
  int mps = BlockMidplanesFor(requested_nodes);
  if (mps < 0) return false;
  return FindFreeRun(mps, [this, release](std::size_t i) {
           return (occupied_words_[i] & ~release[i]) | faulted_words_[i];
         }) >= 0;
}

std::optional<Partition> Machine::Allocate(int requested_nodes) {
  int mps = BlockMidplanesFor(requested_nodes);
  if (mps < 0) return std::nullopt;
  int start =
      FindFreeRun(mps, [this](std::size_t i) { return BlockedWord(i); });
  if (start < 0) return std::nullopt;
  ForEachWord(start, mps, [this](std::size_t i, std::uint64_t mask) {
    occupied_words_[i] |= mask;
    return true;
  });
  busy_midplanes_ += mps;
  busy_nodes_ += mps * config_.nodes_per_midplane;
  return Partition{start, mps, mps * config_.nodes_per_midplane};
}

void Machine::CheckBounds(const Partition& partition,
                          const char* caller) const {
  if (!partition.valid() || partition.first_midplane < 0 ||
      partition.first_midplane + partition.midplane_count >
          config_.total_midplanes()) {
    throw std::invalid_argument(std::string(caller) + ": bogus partition");
  }
}

void Machine::Release(const Partition& partition) {
  CheckBounds(partition, "Machine::Release");
  // Verify the whole range is occupied before clearing any of it, so a
  // double release never leaves the bitmap half-mutated.
  auto occupied = [this](std::size_t i, std::uint64_t mask) {
    return (occupied_words_[i] & mask) == mask;
  };
  if (!ForEachWord(partition.first_midplane, partition.midplane_count,
                   occupied)) {
    throw std::logic_error("Machine::Release: midplane already free");
  }
  ForEachWord(partition.first_midplane, partition.midplane_count,
              [this](std::size_t i, std::uint64_t mask) {
                occupied_words_[i] &= ~mask;
                return true;
              });
  busy_midplanes_ -= partition.midplane_count;
  busy_nodes_ -= partition.nodes;
}

void Machine::AddToReleaseMask(const Partition& partition,
                               std::span<std::uint64_t> release) const {
  CheckBounds(partition, "Machine::AddToReleaseMask");
  if (release.size() != mask_words()) {
    throw std::invalid_argument(
        "Machine::AddToReleaseMask: mask size mismatch");
  }
  auto still_occupied = [this, release](std::size_t i, std::uint64_t mask) {
    return (occupied_words_[i] & ~release[i] & mask) == mask;
  };
  if (!ForEachWord(partition.first_midplane, partition.midplane_count,
                   still_occupied)) {
    throw std::logic_error("Machine::AddToReleaseMask: midplane already free");
  }
  ForEachWord(partition.first_midplane, partition.midplane_count,
              [release](std::size_t i, std::uint64_t mask) {
                release[i] |= mask;
                return true;
              });
}

std::vector<bool> Machine::occupancy() const {
  std::vector<bool> out(static_cast<std::size_t>(config_.total_midplanes()));
  for (int i = 0; i < config_.total_midplanes(); ++i) {
    out[static_cast<std::size_t>(i)] = TestBit(occupied_words_, i);
  }
  return out;
}

}  // namespace iosched::machine
