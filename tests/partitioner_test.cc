#include "core/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>

#include "core/flat_index.h"
#include "parallel/thread_pool.h"
#include "rtree/node.h"
#include "rtree/pack.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::RandomEntries;
using testing::TieHeavyEntries;
using testing::TieKind;

Aabb UniverseOf(const std::vector<RTreeEntry>& entries) {
  Aabb u;
  for (const auto& e : entries) u.ExpandToInclude(e.box);
  return u;
}

class PartitionerTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionerTest, PartitionsCoverAllElementsExactlyOnce) {
  auto entries = RandomEntries(GetParam(), 81);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, /*page_capacity=*/73, universe);

  std::vector<bool> covered(entries.size(), false);
  for (const auto& p : partitions) {
    EXPECT_GT(p.count, 0u);
    EXPECT_LE(p.count, 73u);
    for (uint32_t i = 0; i < p.count; ++i) {
      ASSERT_LT(p.first + i, entries.size());
      ASSERT_FALSE(covered[p.first + i]) << "element assigned twice";
      covered[p.first + i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool b) { return b; }));
}

TEST_P(PartitionerTest, TilesLeaveNoEmptySpace) {
  // Property 1 (Section V-B): the union of all partitions covers the entire
  // space. We verify by sampling: every point of the universe lies in at
  // least one tile.
  auto entries = RandomEntries(GetParam(), 82);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);

  Rng rng(83);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec3 p = rng.PointIn(universe);
    bool inside_any = false;
    for (const auto& partition : partitions) {
      if (partition.tile.Contains(p)) {
        inside_any = true;
        break;
      }
    }
    EXPECT_TRUE(inside_any) << "uncovered point " << p;
  }
}

TEST_P(PartitionerTest, PartitionMbrEnclosesPageMbr) {
  // Property 2 (Section V-B): each partition MBR encloses the page MBR.
  auto entries = RandomEntries(GetParam(), 84);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  for (const auto& p : partitions) {
    EXPECT_TRUE(p.partition_mbr.Contains(p.page_mbr));
    EXPECT_TRUE(p.partition_mbr.Contains(p.tile));
  }
}

TEST_P(PartitionerTest, ElementCentersLieInTheirTile) {
  auto entries = RandomEntries(GetParam(), 85);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  for (const auto& p : partitions) {
    for (uint32_t i = 0; i < p.count; ++i) {
      EXPECT_TRUE(p.tile.Contains(entries[p.first + i].box.Center()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PartitionerTest,
                         ::testing::Values(1, 5, 73, 74, 500, 5000, 20000));

TEST(PartitionerEdgeTest, EmptyInput) {
  std::vector<RTreeEntry> entries;
  auto partitions = StrPartition(&entries, 73, Aabb());
  EXPECT_TRUE(partitions.empty());
}

TEST(PartitionerEdgeTest, AllElementsIdentical) {
  std::vector<RTreeEntry> entries;
  for (uint64_t i = 0; i < 300; ++i) {
    entries.push_back(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), i});
  }
  const Aabb universe(Vec3(1, 1, 1), Vec3(2, 2, 2));
  auto partitions = StrPartition(&entries, 73, universe);
  size_t total = 0;
  for (const auto& p : partitions) total += p.count;
  EXPECT_EQ(total, entries.size());
}

// The sort-based formulation of StrPartition — three full sorts, tile
// boundaries from sorted neighbours — kept as the reference oracle for the
// selection-based one. Serial: its output does not depend on threads.
struct OracleChunk {
  size_t begin;
  size_t end;
  double lo;
  double hi;
};

std::vector<OracleChunk> OracleChunks(const std::vector<RTreeEntry>& elements,
                                      size_t begin, size_t end,
                                      size_t chunk_size, int axis,
                                      double axis_lo, double axis_hi) {
  std::vector<OracleChunk> chunks;
  double lo = axis_lo;
  for (size_t s = begin; s < end; s += chunk_size) {
    const size_t e = std::min(end, s + chunk_size);
    double hi = e < end ? 0.5 * (elements[e - 1].box.Center()[axis] +
                                 elements[e].box.Center()[axis])
                        : axis_hi;
    hi = std::max(hi, lo);
    chunks.push_back({s, e, lo, hi});
    lo = hi;
  }
  if (!chunks.empty()) chunks.back().hi = std::max(axis_hi, chunks.back().lo);
  return chunks;
}

std::vector<PartitionInfo> OracleStrPartition(std::vector<RTreeEntry>* elements,
                                              uint32_t page_capacity,
                                              const Aabb& universe) {
  std::vector<PartitionInfo> partitions;
  const size_t n = elements->size();
  if (n == 0) return partitions;
  const size_t total_pages = (n + page_capacity - 1) / page_capacity;
  const size_t sx = CeilCbrt(total_pages);
  const size_t x_chunk = (n + sx - 1) / sx;
  std::sort(elements->begin(), elements->end(), EntryCenterOrder{0});
  for (const OracleChunk& xc :
       OracleChunks(*elements, 0, n, x_chunk, 0, universe.lo().x,
                    universe.hi().x)) {
    std::sort(elements->begin() + xc.begin, elements->begin() + xc.end,
              EntryCenterOrder{1});
    const size_t m = xc.end - xc.begin;
    const size_t sy = CeilSqrt((m + page_capacity - 1) / page_capacity);
    for (const OracleChunk& yc :
         OracleChunks(*elements, xc.begin, xc.end, (m + sy - 1) / sy, 1,
                      universe.lo().y, universe.hi().y)) {
      std::sort(elements->begin() + yc.begin, elements->begin() + yc.end,
                EntryCenterOrder{2});
      for (const OracleChunk& zc :
           OracleChunks(*elements, yc.begin, yc.end, page_capacity, 2,
                        universe.lo().z, universe.hi().z)) {
        PartitionInfo partition;
        partition.first = static_cast<uint32_t>(zc.begin);
        partition.count = static_cast<uint32_t>(zc.end - zc.begin);
        partition.tile =
            Aabb(Vec3(xc.lo, yc.lo, zc.lo), Vec3(xc.hi, yc.hi, zc.hi));
        for (size_t i = zc.begin; i < zc.end; ++i) {
          partition.page_mbr.ExpandToInclude((*elements)[i].box);
        }
        partition.partition_mbr = partition.tile;
        partition.partition_mbr.ExpandToInclude(partition.page_mbr);
        partitions.push_back(std::move(partition));
      }
    }
  }
  return partitions;
}

// Bitwise, so a -0.0 tile boundary never passes for +0.0. (Page MBRs are
// compared with ==: a union keeps the first-seen sign of a zero extreme, and
// the order within a partition is not part of StrPartition's contract.)
bool SameBits(const Aabb& a, const Aabb& b) {
  return std::memcmp(&a, &b, sizeof(Aabb)) == 0;
}

bool SameBits(const RTreeEntry& a, const RTreeEntry& b) {
  return std::memcmp(&a, &b, sizeof(RTreeEntry)) == 0;
}

struct EquivalenceCase {
  std::string name;
  std::vector<RTreeEntry> entries;
  uint32_t capacity;
};

std::vector<EquivalenceCase> EquivalenceCases() {
  std::vector<EquivalenceCase> cases;
  for (size_t n : {0, 1, 72, 73, 74, 5000, 20000}) {
    cases.push_back({"random_" + std::to_string(n), RandomEntries(n, 90), 73});
  }
  cases.push_back({"random_cap12", RandomEntries(3001, 91), 12});
  cases.push_back({"random_cap1", RandomEntries(300, 92), 1});
  const std::pair<TieKind, const char*> kinds[] = {
      {TieKind::kEqualCenters, "equal_centers"},
      {TieKind::kIdenticalBoxes, "identical_boxes"},
      {TieKind::kZeroVolume, "zero_volume"}};
  for (const auto& [kind, name] : kinds) {
    cases.push_back({name, TieHeavyEntries(kind, 4001, 93), 73});
    cases.push_back(
        {std::string(name) + "_cap9", TieHeavyEntries(kind, 700, 94), 9});
  }
  return cases;
}

// The selection-based StrPartition gives the sort-based oracle's partitions
// bit for bit, and the same elements per partition — in the oracle's order
// once each partition is z-sorted, as the object-page writer does — at every
// thread count.
TEST(StrPartitionEquivalenceTest, MatchesTheSortBasedOracle) {
  for (const EquivalenceCase& c : EquivalenceCases()) {
    SCOPED_TRACE(c.name);
    const Aabb universe = UniverseOf(c.entries);
    std::vector<RTreeEntry> expected = c.entries;
    const std::vector<PartitionInfo> oracle =
        OracleStrPartition(&expected, c.capacity, universe);
    for (size_t threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      std::optional<ThreadPool> pool;
      if (threads > 1) pool.emplace(threads);
      std::vector<RTreeEntry> actual = c.entries;
      const std::vector<PartitionInfo> partitions = StrPartition(
          &actual, c.capacity, universe, pool ? &*pool : nullptr);
      ASSERT_EQ(partitions.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        const PartitionInfo& p = partitions[i];
        ASSERT_EQ(p.first, oracle[i].first) << "partition " << i;
        ASSERT_EQ(p.count, oracle[i].count) << "partition " << i;
        EXPECT_TRUE(SameBits(p.tile, oracle[i].tile)) << "partition " << i;
        EXPECT_EQ(p.page_mbr, oracle[i].page_mbr) << "partition " << i;
        EXPECT_EQ(p.partition_mbr, oracle[i].partition_mbr)
            << "partition " << i;
        std::sort(actual.begin() + p.first, actual.begin() + p.first + p.count,
                  EntryCenterOrder{2});
      }
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(SameBits(actual[i], expected[i])) << "element " << i;
      }
    }
  }
}

// End to end through the page writer: FlatIndex::Build's object pages hold
// exactly the oracle's partitions, element for element in the oracle's
// order, at every thread count.
TEST(StrPartitionEquivalenceTest, ObjectPagesHoldTheOraclePartitions) {
  for (const EquivalenceCase& c : EquivalenceCases()) {
    if (c.capacity != NodeCapacity(kDefaultPageSize) || c.entries.empty()) {
      continue;
    }
    SCOPED_TRACE(c.name);
    std::vector<RTreeEntry> expected = c.entries;
    const std::vector<PartitionInfo> oracle =
        OracleStrPartition(&expected, c.capacity, UniverseOf(c.entries));
    for (size_t threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      PageFile file(kDefaultPageSize);
      FlatIndex::BuildOptions options;
      options.num_threads = threads;
      FlatIndex::Build(&file, c.entries, options);
      // Object pages are allocated first, one per partition in order.
      for (size_t i = 0; i < oracle.size(); ++i) {
        const PageId page = static_cast<PageId>(i);
        ASSERT_EQ(file.category(page), PageCategory::kObject);
        const NodeView node(file.Data(page));
        ASSERT_EQ(node.count(), oracle[i].count) << "page " << i;
        for (uint16_t j = 0; j < node.count(); ++j) {
          ASSERT_TRUE(
              SameBits(node.EntryAt(j), expected[oracle[i].first + j]))
              << "page " << i << " slot " << j;
        }
      }
    }
  }
}

TEST(NeighborTest, TwoTouchingPartitionsAreNeighbors) {
  // 2 * capacity elements in two clearly separated clusters: the two tiles
  // still share a boundary plane (no empty space allowed), so they must be
  // mutual neighbors.
  std::vector<RTreeEntry> entries;
  Rng rng(86);
  for (uint64_t i = 0; i < 8; ++i) {
    const Vec3 c(rng.Uniform(0, 10), rng.Uniform(0, 10), rng.Uniform(0, 10));
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(c, Vec3(0.1, 0.1, 0.1)), i});
  }
  for (uint64_t i = 8; i < 16; ++i) {
    const Vec3 c(rng.Uniform(90, 100), rng.Uniform(0, 10),
                 rng.Uniform(0, 10));
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(c, Vec3(0.1, 0.1, 0.1)), i});
  }
  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  auto partitions = StrPartition(&entries, 8, universe);
  ASSERT_EQ(partitions.size(), 2u);
  ComputeNeighbors(&partitions);
  ASSERT_EQ(partitions[0].neighbors.size(), 1u);
  ASSERT_EQ(partitions[1].neighbors.size(), 1u);
  EXPECT_EQ(partitions[0].neighbors[0], 1u);
  EXPECT_EQ(partitions[1].neighbors[0], 0u);
}

TEST(NeighborTest, RelationIsSymmetricAndIrreflexive) {
  auto entries = RandomEntries(5000, 87);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  ComputeNeighbors(&partitions);

  for (size_t i = 0; i < partitions.size(); ++i) {
    const auto& nbrs = partitions[i].neighbors;
    EXPECT_FALSE(std::binary_search(nbrs.begin(), nbrs.end(),
                                    static_cast<uint32_t>(i)))
        << "partition is its own neighbor";
    for (uint32_t j : nbrs) {
      const auto& back = partitions[j].neighbors;
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(),
                                     static_cast<uint32_t>(i)))
          << "asymmetric neighbor relation " << i << " -> " << j;
    }
  }
  EXPECT_EQ(TotalNeighborPointers(partitions) % 2, 0u);
}

TEST(NeighborTest, TileAdjacencyGraphIsConnected) {
  // Because tiles cover space with no gaps, the partition adjacency graph of
  // any data set must be connected — the property that makes the crawl reach
  // every page (even across concave "holes" in the data).
  auto entries = RandomEntries(3000, 88);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  ComputeNeighbors(&partitions);

  std::vector<bool> visited(partitions.size(), false);
  std::vector<uint32_t> stack = {0};
  visited[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    uint32_t i = stack.back();
    stack.pop_back();
    for (uint32_t j : partitions[i].neighbors) {
      if (!visited[j]) {
        visited[j] = true;
        ++reached;
        stack.push_back(j);
      }
    }
  }
  EXPECT_EQ(reached, partitions.size());
}

TEST(NeighborTest, InflatingPartitionsIncreasesPointerCount) {
  // Figure 21's mechanism: larger partitions => more intersections.
  auto entries = RandomEntries(5000, 89);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  ComputeNeighbors(&partitions);
  const uint64_t baseline = TotalNeighborPointers(partitions);

  auto inflated = partitions;
  for (auto& p : inflated) p.partition_mbr = p.partition_mbr.Inflated(3.0);
  ComputeNeighbors(&inflated);
  EXPECT_GT(TotalNeighborPointers(inflated), baseline);
}

}  // namespace
}  // namespace flat
