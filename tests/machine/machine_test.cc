#include "machine/machine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ckpt/serializer.h"
#include "util/rng.h"

namespace iosched::machine {
namespace {

TEST(MachineConfig, MiraGeometry) {
  MachineConfig mira = MachineConfig::Mira();
  EXPECT_EQ(mira.total_midplanes(), 96);
  EXPECT_EQ(mira.total_nodes(), 49152);
  // Aggregate injection bandwidth is the 1536 GB/s of Figure 1.
  EXPECT_NEAR(mira.node_bandwidth_gbps * mira.total_nodes(), 1536.0, 1e-9);
}

TEST(MachineConfig, IntrepidGeometry) {
  MachineConfig bgp = MachineConfig::Intrepid();
  EXPECT_EQ(bgp.total_midplanes(), 80);
  EXPECT_EQ(bgp.total_nodes(), 40960);
  // Roughly a third of Mira's aggregate injection bandwidth.
  double aggregate = bgp.node_bandwidth_gbps * bgp.total_nodes();
  EXPECT_NEAR(aggregate, 512.0, 1e-9);
  Machine m(bgp);
  EXPECT_EQ(m.BlockNodesFor(8192).value(), 8192);
  EXPECT_EQ(m.BlockNodesFor(8193).value(), 16384);  // two rows on BG/P
  EXPECT_TRUE(m.Allocate(40960).has_value());
}

TEST(MachineConfig, SmallGeometry) {
  MachineConfig small = MachineConfig::Small();
  EXPECT_EQ(small.total_nodes(), 4096);
}

TEST(Machine, BlockSizingPowersOfTwo) {
  Machine m(MachineConfig::Mira());
  EXPECT_EQ(m.BlockNodesFor(1).value(), 512);
  EXPECT_EQ(m.BlockNodesFor(512).value(), 512);
  EXPECT_EQ(m.BlockNodesFor(513).value(), 1024);
  EXPECT_EQ(m.BlockNodesFor(1024).value(), 1024);
  EXPECT_EQ(m.BlockNodesFor(5000).value(), 8192);
  EXPECT_EQ(m.BlockNodesFor(16384).value(), 16384);
}

TEST(Machine, BlockSizingMultiRow) {
  Machine m(MachineConfig::Mira());
  // Above one row (16,384 nodes): whole-row groups.
  EXPECT_EQ(m.BlockNodesFor(16385).value(), 32768);
  EXPECT_EQ(m.BlockNodesFor(32768).value(), 32768);
  EXPECT_EQ(m.BlockNodesFor(32769).value(), 49152);
  EXPECT_EQ(m.BlockNodesFor(49152).value(), 49152);
}

TEST(Machine, OversizeAndInvalidRequests) {
  Machine m(MachineConfig::Mira());
  EXPECT_FALSE(m.BlockNodesFor(49153).has_value());
  EXPECT_FALSE(m.BlockNodesFor(0).has_value());
  EXPECT_FALSE(m.BlockNodesFor(-5).has_value());
  EXPECT_FALSE(m.Allocate(49153).has_value());
}

TEST(Machine, AllocateTracksBusyNodes) {
  Machine m(MachineConfig::Mira());
  auto p = m.Allocate(512);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(m.busy_nodes(), 512);
  EXPECT_EQ(m.free_nodes(), 49152 - 512);
  m.Release(*p);
  EXPECT_EQ(m.busy_nodes(), 0);
}

TEST(Machine, InternalFragmentationCounted) {
  Machine m(MachineConfig::Mira());
  auto p = m.Allocate(600);  // needs a 1024-node block
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, 1024);
  EXPECT_EQ(m.busy_nodes(), 1024);
  m.Release(*p);
}

TEST(Machine, AlignmentWithinRow) {
  Machine m(MachineConfig::Mira());
  // A 2-midplane block must start on an even midplane index.
  auto single = m.Allocate(512);  // occupies midplane 0
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->first_midplane, 0);
  auto pair = m.Allocate(1024);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->first_midplane % 2, 0);
  EXPECT_EQ(pair->first_midplane, 2);  // midplane 1 skipped by alignment
}

TEST(Machine, FullRowAllocation) {
  Machine m(MachineConfig::Mira());
  auto row = m.Allocate(16384);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->midplane_count, 32);
  EXPECT_EQ(row->first_midplane % 32, 0);
}

TEST(Machine, FullMachineAllocation) {
  Machine m(MachineConfig::Mira());
  auto all = m.Allocate(49152);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(m.free_nodes(), 0);
  EXPECT_FALSE(m.Allocate(512).has_value());
  m.Release(*all);
  EXPECT_EQ(m.free_nodes(), 49152);
}

TEST(Machine, ExhaustionAndRecovery) {
  Machine m(MachineConfig::Small());  // 8 midplanes
  std::vector<Partition> parts;
  for (int i = 0; i < 8; ++i) {
    auto p = m.Allocate(512);
    ASSERT_TRUE(p.has_value());
    parts.push_back(*p);
  }
  EXPECT_FALSE(m.Allocate(512).has_value());
  EXPECT_FALSE(m.CanAllocate(512));
  m.Release(parts[3]);
  EXPECT_TRUE(m.CanAllocate(512));
  auto again = m.Allocate(512);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->first_midplane, 3);
}

TEST(Machine, FragmentationBlocksLargeAlloc) {
  Machine m(MachineConfig::Small());  // one row of 8 midplanes
  auto a = m.Allocate(512);           // midplane 0
  ASSERT_TRUE(a.has_value());
  auto b = m.Allocate(512);  // midplane 1
  ASSERT_TRUE(b.has_value());
  // 6 free midplanes remain but a 4-midplane block needs alignment 4:
  // midplanes 4..7 are free -> should still fit.
  EXPECT_TRUE(m.CanAllocate(2048));
  auto c = m.Allocate(2048);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first_midplane, 4);
  // Now nothing of size 4 midplanes remains (midplanes 2,3 free, wrong align
  // for a 4-block), so 2048 more should fail.
  EXPECT_FALSE(m.CanAllocate(2048));
  // But a 1024 block (align 2) fits at midplane 2.
  auto d = m.Allocate(1024);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->first_midplane, 2);
}

TEST(Machine, ReleaseErrors) {
  Machine m(MachineConfig::Small());
  Partition bogus{0, 1, 512};
  EXPECT_THROW(m.Release(bogus), std::logic_error);  // not allocated
  Partition invalid{0, 0, 0};
  EXPECT_THROW(m.Release(invalid), std::invalid_argument);
  Partition out_of_range{7, 4, 2048};
  EXPECT_THROW(m.Release(out_of_range), std::invalid_argument);
}

TEST(Machine, InvalidConfigThrows) {
  MachineConfig bad = MachineConfig::Small();
  bad.rows = 0;
  EXPECT_THROW(Machine{bad}, std::invalid_argument);
  MachineConfig bad_bw = MachineConfig::Small();
  bad_bw.node_bandwidth_gbps = 0;
  EXPECT_THROW(Machine{bad_bw}, std::invalid_argument);
}

// Property test: random allocate/release sequences keep the occupancy
// bitmap consistent with busy counters, and allocations never overlap.
class MachineChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachineChurn, InvariantsHoldUnderChurn) {
  Machine m(MachineConfig::Mira());
  util::Rng rng(GetParam());
  std::vector<Partition> held;
  const std::vector<int> sizes = {512, 1024, 2048, 4096, 8192, 16384, 32768};
  for (int step = 0; step < 2000; ++step) {
    bool do_alloc = held.empty() || rng.Bernoulli(0.55);
    if (do_alloc) {
      int req = sizes[rng.WeightedIndex(
          std::vector<double>{4, 3, 2, 2, 1, 0.5, 0.2})];
      auto p = m.Allocate(req);
      if (p) held.push_back(*p);
    } else {
      std::size_t pick =
          static_cast<std::size_t>(rng.UniformInt(0, held.size() - 1));
      m.Release(held[pick]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Invariant: busy counters match the sum of held partitions.
    int expected_nodes = 0;
    int expected_mps = 0;
    for (const Partition& p : held) {
      expected_nodes += p.nodes;
      expected_mps += p.midplane_count;
    }
    ASSERT_EQ(m.busy_nodes(), expected_nodes);
    ASSERT_EQ(m.busy_midplanes(), expected_mps);
    // Invariant: occupancy bitmap has exactly expected_mps set bits.
    int set_bits = 0;
    for (bool b : m.occupancy()) set_bits += b ? 1 : 0;
    ASSERT_EQ(set_bits, expected_mps);
  }
  for (const Partition& p : held) m.Release(p);
  EXPECT_EQ(m.busy_nodes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineChurn,
                         ::testing::Values(1ull, 7ull, 2024ull, 31337ull));

// Geometries whose rows straddle 64-bit words (24 and 40 midplanes) or
// are wider than a word (128), beside the three real machines.
std::vector<MachineConfig> TestGeometries() {
  std::vector<MachineConfig> configs = {
      MachineConfig::Small(), MachineConfig::Mira(), MachineConfig::Intrepid()};
  for (auto [row, rows] : {std::pair{24, 5}, {40, 3}, {128, 2}}) {
    MachineConfig c;
    c.midplanes_per_row = row;
    c.rows = rows;
    configs.push_back(c);
  }
  return configs;
}

// The allocator's lowest free aligned start, found midplane by midplane:
// in-row blocks at each row's aligned offsets, larger ones at row starts.
int ReferenceFreeStart(const Machine& m, int requested_nodes) {
  const MachineConfig& c = m.config();
  int midplanes = *m.BlockNodesFor(requested_nodes) / c.nodes_per_midplane;
  std::vector<bool> busy = m.occupancy();
  auto run_free = [&](int start) {
    for (int i = start; i < start + midplanes; ++i) {
      if (busy[static_cast<std::size_t>(i)] || m.IsFaulted(i)) return false;
    }
    return true;
  };
  for (int r = 0; r < c.rows; ++r) {
    if (midplanes <= c.midplanes_per_row) {
      for (int off = 0; off + midplanes <= c.midplanes_per_row;
           off += midplanes) {
        if (run_free(r * c.midplanes_per_row + off)) {
          return r * c.midplanes_per_row + off;
        }
      }
    } else if (r * c.midplanes_per_row + midplanes <= c.total_midplanes() &&
               run_free(r * c.midplanes_per_row)) {
      return r * c.midplanes_per_row;
    }
  }
  return -1;
}

// Allocation picks the same start as a midplane-by-midplane scan, on
// random occupancy and fault states of every test geometry.
TEST(Machine, AllocatePicksLowestFreeAlignedStart) {
  util::Rng rng(8);
  for (const MachineConfig& config : TestGeometries()) {
    for (int trial = 0; trial < 150; ++trial) {
      Machine m(config);
      std::vector<Partition> held;
      for (int mp = 0; mp < config.total_midplanes(); ++mp) {
        if (rng.Bernoulli(0.05)) m.SetFaulted(mp, true);
      }
      for (int step = 0; step < 60; ++step) {
        int mps = static_cast<int>(rng.UniformInt(1, config.total_midplanes()));
        int req = mps * config.nodes_per_midplane -
                  static_cast<int>(rng.UniformInt(0, 511));
        int expect = ReferenceFreeStart(m, req);
        ASSERT_EQ(m.CanAllocate(req), expect >= 0);
        auto p = m.Allocate(req);
        ASSERT_EQ(p.has_value(), expect >= 0)
            << "row " << config.midplanes_per_row << " request " << req;
        if (p) {
          ASSERT_EQ(p->first_midplane, expect);
          held.push_back(*p);
        }
        if (!held.empty() && rng.Bernoulli(0.4)) {
          std::size_t pick = static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(held.size()) - 1));
          m.Release(held[pick]);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    }
  }
}

// Releasing through a mask must answer exactly what copying the machine,
// releasing the same partitions and probing answers, on random occupancy
// and fault states of every test geometry.
class MachineReleaseMask : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachineReleaseMask, CanAllocateReleasingMatchesCopyAndRelease) {
  util::Rng rng(GetParam());
  const std::vector<int> requests = {1,    512,  1024,  1500,  2048,
                                     4096, 8192, 16384, 16385, 32768,
                                     49152};
  for (const MachineConfig& config : TestGeometries()) {
    for (int trial = 0; trial < 200; ++trial) {
      Machine m(config);
      std::vector<Partition> held;
      for (auto step = rng.UniformInt(0, 40); step > 0; --step) {
        int req = requests[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(requests.size()) - 1))];
        if (auto p = m.Allocate(req)) held.push_back(*p);
      }
      for (int mp = 0; mp < config.total_midplanes(); ++mp) {
        if (rng.Bernoulli(0.08)) m.SetFaulted(mp, true);
      }
      std::vector<std::uint64_t> mask(m.mask_words(), 0);
      Machine copy = m;
      for (const Partition& p : held) {
        if (!rng.Bernoulli(0.5)) continue;
        m.AddToReleaseMask(p, mask);
        copy.Release(p);
      }
      for (int req : requests) {
        ASSERT_EQ(m.CanAllocateReleasing(req, mask), copy.CanAllocate(req))
            << "request " << req << " trial " << trial;
      }
      // The mask is a probe: the machine itself is untouched.
      std::vector<std::uint64_t> none(m.mask_words(), 0);
      for (int req : requests) {
        ASSERT_EQ(m.CanAllocateReleasing(req, none), m.CanAllocate(req));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineReleaseMask,
                         ::testing::Values(3ull, 99ull, 4711ull));

TEST(Machine, ReleaseMaskChecksLikeRelease) {
  Machine m(MachineConfig::Mira());
  std::vector<std::uint64_t> mask(m.mask_words(), 0);
  // Never allocated.
  EXPECT_THROW(m.AddToReleaseMask(Partition{0, 1, 512}, mask),
               std::logic_error);
  Partition a = *m.Allocate(1024);
  m.AddToReleaseMask(a, mask);
  // Already in the mask: a second release of the same partition.
  EXPECT_THROW(m.AddToReleaseMask(a, mask), std::logic_error);
  // Partly allocated: the allocated half does not make it valid.
  EXPECT_THROW(m.AddToReleaseMask(Partition{0, 4, 2048}, mask),
               std::logic_error);
  EXPECT_THROW(m.AddToReleaseMask(Partition{0, 0, 0}, mask),
               std::invalid_argument);
  EXPECT_THROW(m.AddToReleaseMask(Partition{95, 2, 1024}, mask),
               std::invalid_argument);
  std::vector<std::uint64_t> short_mask(1, 0);
  EXPECT_THROW(m.AddToReleaseMask(a, short_mask), std::invalid_argument);
  EXPECT_THROW((void)m.CanAllocateReleasing(512, short_mask),
               std::invalid_argument);
  // A two-row partition (midplanes 32-95) spans both mask words.
  Machine big(MachineConfig::Mira());
  (void)*big.Allocate(16384);               // row 0
  Partition rows12 = *big.Allocate(32768);  // rows 1-2, words 0 and 1
  std::vector<std::uint64_t> wide(big.mask_words(), 0);
  big.AddToReleaseMask(rows12, wide);
  EXPECT_EQ(wide[0], ~std::uint64_t{0} << 32);
  EXPECT_EQ(wide[1], (std::uint64_t{1} << 32) - 1);
  EXPECT_TRUE(big.CanAllocateReleasing(32768, wide));
  EXPECT_FALSE(big.CanAllocate(512));
}

TEST(Machine, CheckpointRoundTripsAndRejectsAnotherGeometry) {
  Machine mira(MachineConfig::Mira());
  ASSERT_TRUE(mira.Allocate(16384).has_value());
  ASSERT_TRUE(mira.Allocate(512).has_value());
  ckpt::Writer w;
  mira.Serialize(w);
  Machine copy(MachineConfig::Mira());
  ckpt::Reader r(w.buffer(), "machine");
  copy.Serialize(r);
  r.ExpectEnd();
  EXPECT_EQ(copy.occupancy(), mira.occupancy());
  EXPECT_EQ(copy.busy_nodes(), mira.busy_nodes());
  EXPECT_EQ(copy.busy_midplanes(), mira.busy_midplanes());

  Machine small(MachineConfig::Small());  // one occupancy word, not two
  ckpt::Reader other(w.buffer(), "machine");
  EXPECT_THROW(small.Serialize(other), ckpt::FormatError);
}

}  // namespace
}  // namespace iosched::machine
