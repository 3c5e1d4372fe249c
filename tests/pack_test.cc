#include "rtree/pack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "parallel/thread_pool.h"
#include "rtree/node.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::RandomEntries;
using testing::TieHeavyEntries;
using testing::TieKind;

TEST(StrOrderTest, SmallInputUnchangedInSize) {
  auto entries = RandomEntries(10, 1);
  auto copy = entries;
  StrOrder(&entries, 73);
  EXPECT_EQ(entries.size(), copy.size());
}

TEST(StrOrderTest, PreservesMultisetOfIds) {
  auto entries = RandomEntries(1000, 2);
  StrOrder(&entries, 16);
  std::vector<uint64_t> ids;
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], i);
}

TEST(StrOrderTest, ConsecutiveRunsAreSpatiallyTight) {
  // The mean volume of bounding boxes of consecutive capacity-sized runs
  // must be far below that of random runs — that's STR's whole point.
  auto entries = RandomEntries(2000, 3, /*max_side=*/0.5);
  auto shuffled = entries;
  const uint32_t cap = 16;

  auto run_volume = [cap](const std::vector<RTreeEntry>& v) {
    double total = 0.0;
    size_t runs = 0;
    for (size_t s = 0; s + cap <= v.size(); s += cap, ++runs) {
      Aabb box;
      for (size_t i = s; i < s + cap; ++i) box.ExpandToInclude(v[i].box);
      total += box.Volume();
    }
    return total / runs;
  };

  StrOrder(&entries, cap);
  EXPECT_LT(run_volume(entries), 0.2 * run_volume(shuffled));
}

// The sort-based formulation of StrOrder — a full sort per pass — kept as
// the reference oracle for the selection-based one.
void OracleStrOrder(std::vector<RTreeEntry>* entries, uint32_t node_capacity) {
  const size_t n = entries->size();
  if (n <= node_capacity) return;
  const size_t pages = (n + node_capacity - 1) / node_capacity;
  const size_t sx = CeilCbrt(pages);
  const size_t slab_size = (n + sx - 1) / sx;
  std::sort(entries->begin(), entries->end(), EntryCenterOrder{0});
  for (size_t xs = 0; xs < n; xs += slab_size) {
    const size_t slab_end = std::min(n, xs + slab_size);
    std::sort(entries->begin() + xs, entries->begin() + slab_end,
              EntryCenterOrder{1});
    const size_t slab_n = slab_end - xs;
    const size_t sy = CeilSqrt((slab_n + node_capacity - 1) / node_capacity);
    const size_t run_size = (slab_n + sy - 1) / sy;
    for (size_t ys = xs; ys < slab_end; ys += run_size) {
      std::sort(entries->begin() + ys,
                entries->begin() + std::min(slab_end, ys + run_size),
                EntryCenterOrder{2});
    }
  }
}

// The selection-based StrOrder gives the oracle's order bit for bit — nodes
// that straddle two runs included — at every thread count.
TEST(StrOrderTest, MatchesTheSortBasedOracle) {
  struct Case {
    std::string name;
    std::vector<RTreeEntry> entries;
    uint32_t capacity;
  };
  std::vector<Case> cases;
  for (size_t n : {0, 1, 72, 73, 74, 5000, 20000}) {
    cases.push_back({"random_" + std::to_string(n), RandomEntries(n, 95), 73});
  }
  cases.push_back({"random_cap12", RandomEntries(2999, 96), 12});
  cases.push_back({"random_cap250", RandomEntries(9001, 97), 250});
  cases.push_back({"random_cap1", RandomEntries(200, 98), 1});
  const std::pair<TieKind, const char*> kinds[] = {
      {TieKind::kEqualCenters, "equal_centers"},
      {TieKind::kIdenticalBoxes, "identical_boxes"},
      {TieKind::kZeroVolume, "zero_volume"}};
  for (const auto& [kind, name] : kinds) {
    cases.push_back({name, TieHeavyEntries(kind, 4001, 99), 73});
    cases.push_back(
        {std::string(name) + "_cap9", TieHeavyEntries(kind, 700, 100), 9});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<RTreeEntry> expected = c.entries;
    OracleStrOrder(&expected, c.capacity);
    for (size_t threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      std::optional<ThreadPool> pool;
      if (threads > 1) pool.emplace(threads);
      std::vector<RTreeEntry> actual = c.entries;
      StrOrder(&actual, c.capacity, pool ? &*pool : nullptr);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(std::memcmp(&actual[i], &expected[i], sizeof(RTreeEntry)), 0)
            << "entry " << i;
      }
    }
  }
}

TEST(StrCutsTest, CutsAtStepsFromTheOrigin) {
  StrCuts cuts;
  cuts.AddSegment(0, 10, 4, 0);   // 0 | 4 | 8 | 10
  cuts.AddSegment(10, 17, 4, 0);  // global multiples: 12, 16
  cuts.AddSegment(17, 20, 5, 17);  // no inner cut
  EXPECT_EQ(cuts.cuts, (std::vector<size_t>{0, 4, 8, 10, 12, 16, 17, 20}));
  ASSERT_EQ(cuts.segments.size(), 3u);
  EXPECT_EQ(cuts.segments[0], (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(cuts.segments[1], (std::pair<size_t, size_t>{3, 6}));
  EXPECT_EQ(cuts.segments[2], (std::pair<size_t, size_t>{6, 7}));
  EXPECT_EQ(cuts.pieces(), 7u);
}

TEST(PackLevelTest, PacksFullPagesInOrder) {
  PageFile file(512);  // 9 slots per page
  const uint32_t cap = NodeCapacity(512);
  auto entries = RandomEntries(3 * cap + 2, 4);
  auto parents = PackLevel(&file, entries, /*level=*/0);
  ASSERT_EQ(parents.size(), 4u);
  EXPECT_EQ(file.PageCountIn(PageCategory::kRTreeLeaf), 4u);

  // Every parent box covers exactly its children.
  size_t index = 0;
  for (const RTreeEntry& parent : parents) {
    NodeView node(file.Data(static_cast<PageId>(parent.id)));
    EXPECT_EQ(node.level(), 0u);
    Aabb expected;
    for (uint16_t i = 0; i < node.count(); ++i) {
      EXPECT_EQ(node.IdAt(i), entries[index].id);
      expected.ExpandToInclude(node.BoxAt(i));
      ++index;
    }
    EXPECT_EQ(parent.box, expected);
  }
  EXPECT_EQ(index, entries.size());
}

TEST(PackLevelTest, CategoryOverridesWork) {
  PageFile file(512);
  auto entries = RandomEntries(20, 5);
  PackLevel(&file, entries, /*level=*/0, PageCategory::kObject);
  EXPECT_GT(file.PageCountIn(PageCategory::kObject), 0u);
  PackLevel(&file, entries, /*level=*/1, PageCategory::kRTreeLeaf,
            PageCategory::kSeedInternal);
  EXPECT_GT(file.PageCountIn(PageCategory::kSeedInternal), 0u);
}

TEST(PackOrderedLeavesTest, SingleLeafTree) {
  PageFile file;
  auto entries = RandomEntries(5, 6);
  RTree tree = PackOrderedLeaves(&file, entries, LevelOrder::kStr);
  EXPECT_EQ(tree.height(), 1);
  auto stats = tree.ComputeStats();
  EXPECT_EQ(stats.leaf_pages, 1u);
  EXPECT_EQ(stats.internal_pages, 0u);
  EXPECT_EQ(stats.leaf_entries, 5u);
}

TEST(PackOrderedLeavesTest, MultiLevelTreeHeights) {
  PageFile file(512);  // 9 slots
  const uint32_t cap = NodeCapacity(512);
  // cap^2 + 1 entries forces height 3.
  auto entries = RandomEntries(cap * cap + 1, 7);
  RTree tree = PackOrderedLeaves(&file, entries, LevelOrder::kStr);
  EXPECT_EQ(tree.height(), 3);
  auto stats = tree.ComputeStats();
  EXPECT_EQ(stats.leaf_entries, entries.size());
  EXPECT_GT(stats.internal_pages, 0u);
}

TEST(PackOrderedLeavesTest, EmptyInputGivesEmptyTree) {
  PageFile file;
  RTree tree = PackOrderedLeaves(&file, {}, LevelOrder::kSequential);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(file.page_count(), 0u);
}

}  // namespace
}  // namespace flat
