// Independent answer oracle for the end-to-end benchmark: a uniform grid over
// element MBRs that shares no code with the index it checks (no seed tree, no
// crawl, no SIMD gate kernels — only Aabb's scalar predicates).
#ifndef FLAT_E2EBENCH_ORACLE_H_
#define FLAT_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec3.h"
#include "rtree/entry.h"

namespace e2e {

/// A mutable set of elements bucketed by the grid cell holding each box's
/// low corner. Because a box's low corner lies inside the box, every
/// element whose low corner lies inside a query intersects it: cells fully
/// inside a count query are tallied without testing their elements. Any
/// element that intersects a query has its low corner within
/// [query.lo - max_extent, query.hi], so only those cells are visited.
///
/// Ids are dense small integers (the generators number elements from 0 and
/// the write mix allocates new ids upward), so per-id state is a flat
/// vector. The cells allocate from the oracle's own pool: their growth as
/// elements move must not fragment the heap the store under test allocates
/// from.
class GridOracle {
 public:
  /// The grid spans `universe` with about eight elements per cell for
  /// `expected_elements`; elements outside it land in the border cells.
  GridOracle(const flat::Aabb& universe, size_t expected_elements);
  GridOracle(const GridOracle&) = delete;
  GridOracle& operator=(const GridOracle&) = delete;

  /// Inserts `entry`, replacing the box of an id already present (the
  /// store's upsert semantics).
  void Upsert(const flat::RTreeEntry& entry);
  /// Removes `id`; a no-op when absent (the store's erase semantics).
  void Erase(uint64_t id);

  bool Contains(uint64_t id) const;
  const flat::Aabb& BoxOf(uint64_t id) const;
  size_t size() const { return live_.size(); }
  /// The i-th live id in an arbitrary but deterministic order, for sampling.
  uint64_t LiveIdAt(size_t i) const { return live_[i]; }

  /// Ids of elements intersecting `query`, sorted ascending.
  std::vector<uint64_t> Range(const flat::Aabb& query) const;
  uint64_t Count(const flat::Aabb& query) const;
  /// Ids of elements intersecting the closed ball, sorted ascending.
  std::vector<uint64_t> Sphere(const flat::Vec3& center, double radius) const;

 private:
  static constexpr uint32_t kAbsent = ~uint32_t{0};
  struct Slot {
    uint32_t cell = kAbsent;
    uint32_t index = 0;       // position inside cells_[cell]
    uint32_t live_index = 0;  // position inside live_
  };
  struct CellRange {
    int lo[3];
    int hi[3];
  };

  int CellCoord(int axis, double x) const;
  size_t CellOf(const flat::Vec3& p) const;
  /// Cells that may hold the low corner of an element intersecting `reach`.
  CellRange CandidateCells(const flat::Aabb& reach) const;
  /// True when every element of the cell has its low corner inside `query`.
  bool CellInside(int x, int y, int z, const flat::Aabb& query) const;
  void Remove(uint64_t id);

  flat::Aabb universe_;
  int dim_ = 1;
  flat::Vec3 cell_size_;
  double max_extent_ = 0.0;  // largest box side ever inserted
  bool has_empty_boxes_ = false;
  std::pmr::unsynchronized_pool_resource pool_;  // declared before cells_
  std::vector<std::pmr::vector<flat::RTreeEntry>> cells_;
  std::vector<Slot> slots_;  // indexed by id
  std::vector<uint64_t> live_;
};

}  // namespace e2e

#endif  // FLAT_E2EBENCH_ORACLE_H_
