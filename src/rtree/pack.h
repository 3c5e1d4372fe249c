#ifndef FLAT_RTREE_PACK_H_
#define FLAT_RTREE_PACK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "rtree/aggregates.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/page_file.h"

namespace flat {

class ThreadPool;

/// Strict *total* order on entries for the STR passes: center coordinate on
/// `axis`, tie-broken lexicographically by the box corners and finally the
/// id. A total order makes every sorted position's entry unique, so the set
/// of entries a selection places between two cuts does not depend on the
/// input order or the thread count — the property behind "parallel build is
/// byte-identical to serial". Entries that still compare equal are
/// byte-identical, so their relative order cannot affect the output pages
/// either.
struct EntryCenterOrder {
  int axis;

  bool operator()(const RTreeEntry& a, const RTreeEntry& b) const {
    const double ca = a.box.Center()[axis];
    const double cb = b.box.Center()[axis];
    if (ca != cb) return ca < cb;
    for (int ax = 0; ax < 3; ++ax) {
      if (a.box.lo()[ax] != b.box.lo()[ax]) {
        return a.box.lo()[ax] < b.box.lo()[ax];
      }
      if (a.box.hi()[ax] != b.box.hi()[ax]) {
        return a.box.hi()[ax] < b.box.hi()[ax];
      }
    }
    return a.id < b.id;
  }
};

/// How a bulkloader arranges the entries of each tree level before packing
/// them into consecutive full pages.
enum class LevelOrder {
  /// Keep the order produced for the level below (Hilbert/Morton packing —
  /// consecutive runs of children become one parent).
  kSequential,
  /// Re-tile the level with Sort-Tile-Recursive on entry centers.
  kStr,
};

/// The cuts of one STR pass: ascending positions in the entry array,
/// grouped into segments — ranges an earlier pass already separated (a slab,
/// a run), whose inner cuts are still to be placed. The pieces of the pass
/// are the ranges [cuts[k], cuts[k + 1]).
struct StrCuts {
  std::vector<size_t> cuts;
  /// Per segment, the indexes of its first and last cut in `cuts`.
  std::vector<std::pair<size_t, size_t>> segments;

  /// Appends the non-empty segment [begin, end), which starts where the
  /// previous one ended, cut at every `origin + k * step` strictly inside
  /// it (`origin <= begin`).
  void AddSegment(size_t begin, size_t end, size_t step, size_t origin);
  size_t pieces() const { return cuts.empty() ? 0 : cuts.size() - 1; }
};

/// Multi-way selection, the STR passes' replacement for full sorts: reorders
/// every segment of `cuts` so that each of its pieces holds exactly the
/// entries a sort of the segment by EntryCenterOrder{axis} would put there,
/// in unspecified order. Each segment is halved recursively with
/// std::nth_element at its middle cut; after each round the sub-ranges are
/// independent, and with a `pool` they run in parallel. The result is the
/// same for any thread count.
void SelectPieces(std::vector<RTreeEntry>* entries, const StrCuts& cuts,
                  int axis, ThreadPool* pool = nullptr);

/// Reorders `entries` in 3-D Sort-Tile-Recursive order (Leutenegger et al.,
/// ICDE '97 — reference [16]): x-center slabs, y-center runs within each
/// slab, z-center order within each run. `node_capacity` determines the
/// tile size so that consecutive runs of `node_capacity` entries form tight
/// tiles. Only the node contents and their order matter, so the passes
/// select rather than sort: the z pass cuts every run at the global node
/// boundaries (a node can straddle two runs) and z-sorts each piece, which
/// yields exactly the order of a full sort. With a `pool` the selections
/// and piece sorts run in parallel; the output is identical to the serial
/// order.
void StrOrder(std::vector<RTreeEntry>* entries, uint32_t node_capacity,
              ThreadPool* pool = nullptr);

/// Exact ceil(value^(1/3)) / ceil(sqrt(value)) on integers (std::cbrt(27.0)
/// can land just above 3.0, which would silently mis-tile STR).
size_t CeilCbrt(size_t value);
size_t CeilSqrt(size_t value);

/// Packs `ordered` into consecutive full nodes of `level` appended to `file`,
/// and returns the parent-level entries (node MBR + child PageId). Level-0
/// pages are tagged `leaf_category`, higher levels `internal_category` (the
/// FLAT seed tree reuses this machinery with seed categories).
///
/// `internal_format` selects the page layout of levels > 0 (rtree/node.h):
/// kExact writes classic RTreeEntry pages; kQuantized writes compressed
/// pages — the chunk's exact union box once, children as outward-rounded
/// 16-bit MBRs — with ~3.45x the fanout. Level 0 is always exact (results
/// must be exact), and only readers that dispatch on the header's format
/// byte (the FLAT seed descent) may consume quantized pages; the plain
/// RTree query path reads exact pages only.
///
/// With an `aggregates` builder, every internal page packed here also
/// records one sidecar entry per child slot (the child's subtree totals,
/// looked up from the builder's page totals) and publishes the packed
/// page's own rolled-up total for the level above (rtree/aggregates.h).
/// A child with no declared total leaves its slot — and the parent's
/// total — unrecorded, which query-time lookups treat as "descend
/// exactly". Runs on the serial packing path, so the sidecar is as
/// deterministic as the page bytes.
std::vector<RTreeEntry> PackLevel(
    PageFile* file, const std::vector<RTreeEntry>& ordered, uint8_t level,
    PageCategory leaf_category = PageCategory::kRTreeLeaf,
    PageCategory internal_category = PageCategory::kRTreeInternal,
    NodeFormat internal_format = NodeFormat::kExact,
    AggregateBuilder* aggregates = nullptr);

/// Repeatedly packs levels until a single root remains; `level_entries` are
/// the parents of the already-written level `level - 1`. Returns the finished
/// tree. `pool` parallelizes the per-level STR re-ordering (page writes stay
/// serial so PageIds are allocated in a deterministic order).
/// `internal_format` as in PackLevel; the STR tile size follows the selected
/// format's capacity, so compressed levels pack ~3.45x more children per
/// node and the tree gets correspondingly shallower.
/// `aggregates` (optional) as in PackLevel, threaded through every level.
RTree BuildUpperLevels(
    PageFile* file, std::vector<RTreeEntry> level_entries, uint8_t level,
    LevelOrder order,
    PageCategory internal_category = PageCategory::kRTreeInternal,
    ThreadPool* pool = nullptr,
    NodeFormat internal_format = NodeFormat::kExact,
    AggregateBuilder* aggregates = nullptr);

/// Bulkloads from pre-ordered leaf entries: packs leaves in the given order,
/// then builds upper levels per `order`. The workhorse shared by every
/// bulkloading strategy except the PR-Tree (which packs its own levels).
RTree PackOrderedLeaves(PageFile* file, const std::vector<RTreeEntry>& ordered,
                        LevelOrder order,
                        PageCategory leaf_category = PageCategory::kRTreeLeaf);

}  // namespace flat

#endif  // FLAT_RTREE_PACK_H_
