#ifndef FLAT_CORE_PARTITIONER_H_
#define FLAT_CORE_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "rtree/entry.h"

namespace flat {

class ThreadPool;

/// One space partition produced by Algorithm 1. Refers to a contiguous range
/// [first, first + count) of the (reordered) element array; that range is
/// exactly what gets packed onto one object page.
struct PartitionInfo {
  /// MBR of the elements on the page ("page MBR").
  Aabb page_mbr;
  /// The space tile stretched to enclose page_mbr ("partition MBR").
  Aabb partition_mbr;
  /// The unstretched tile; tiles jointly cover the universe with no gaps.
  Aabb tile;
  uint32_t first = 0;
  uint32_t count = 0;
  /// Indices of neighboring partitions (partition MBRs intersect); filled by
  /// ComputeNeighbors.
  std::vector<uint32_t> neighbors;
};

/// Segments space into page-sized partitions per Algorithm 1: cut elements
/// on x-center into slabs, each slab on y into runs, each run on z into
/// page-capacity chunks. Every cut is placed by selection (SelectPieces),
/// not by a sort: a chunk only needs to know which elements fall between
/// its boundaries. Tile boundaries are placed midway between the extreme
/// element centers of adjacent chunks (outermost tiles extend to the
/// universe bounds), so the tiles cover `universe` with no empty space —
/// the first partitioning property of Section V-B. Each partition MBR is
/// then stretched to enclose its page MBR — the second property.
///
/// `elements` is reordered in place; on return, partition i owns
/// elements [first, first+count), in unspecified order within the
/// partition (a page writer that needs an order sorts its own elements).
///
/// With a `pool`, each selection round and the per-chunk scans run in
/// parallel. The selections use a strict total order (EntryCenterOrder), so
/// every partition's element set, tile and MBRs — and therefore every
/// downstream page — are identical for any thread count and any input
/// order.
std::vector<PartitionInfo> StrPartition(std::vector<RTreeEntry>* elements,
                                        uint32_t page_capacity,
                                        const Aabb& universe,
                                        ThreadPool* pool = nullptr);

/// Fills `neighbors` for every partition: two partitions are neighbors iff
/// their partition MBRs intersect (closed intervals, so face-adjacent tiles
/// qualify). The relation is symmetric and irreflexive, and each list is
/// sorted ascending. Implemented as a uniform-grid intersection join
/// (GridIntersectionJoin) instead of Algorithm 1's temporary R-tree: the
/// same relation, no tree construction on the critical path, and partitions
/// probe the grid in parallel when `pool` is given. Output is independent of
/// the thread count.
void ComputeNeighbors(std::vector<PartitionInfo>* partitions,
                      ThreadPool* pool = nullptr);

/// Total number of neighbor pointers across all partitions.
uint64_t TotalNeighborPointers(const std::vector<PartitionInfo>& partitions);

}  // namespace flat

#endif  // FLAT_CORE_PARTITIONER_H_
