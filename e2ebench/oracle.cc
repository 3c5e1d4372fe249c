#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e {

using flat::Aabb;
using flat::RTreeEntry;
using flat::Vec3;

GridOracle::GridOracle(const Aabb& universe, size_t expected_elements)
    : universe_(universe) {
  if (universe.IsEmpty()) throw std::invalid_argument("empty oracle universe");
  const double cells = std::max<double>(1.0, expected_elements / 8.0);
  dim_ = std::clamp(static_cast<int>(std::lround(std::cbrt(cells))), 1, 128);
  const Vec3 extents = universe.Extents();
  cell_size_ = Vec3(extents.x / dim_, extents.y / dim_, extents.z / dim_);
  const size_t cell_count = static_cast<size_t>(dim_) * dim_ * dim_;
  cells_.reserve(cell_count);
  for (size_t i = 0; i < cell_count; ++i) cells_.emplace_back(&pool_);
  slots_.reserve(expected_elements);
  live_.reserve(expected_elements);
}

int GridOracle::CellCoord(int axis, double x) const {
  const double t = std::floor((x - universe_.lo()[axis]) / cell_size_[axis]);
  if (!(t >= 0.0)) return 0;  // also catches NaN
  if (t >= dim_ - 1) return dim_ - 1;
  return static_cast<int>(t);
}

size_t GridOracle::CellOf(const Vec3& p) const {
  return (static_cast<size_t>(CellCoord(2, p.z)) * dim_ + CellCoord(1, p.y)) *
             dim_ +
         CellCoord(0, p.x);
}

GridOracle::CellRange GridOracle::CandidateCells(const Aabb& reach) const {
  CellRange range;
  for (int axis = 0; axis < 3; ++axis) {
    // One extra cell on the low side absorbs rounding in the subtraction.
    range.lo[axis] =
        std::max(0, CellCoord(axis, reach.lo()[axis] - max_extent_) - 1);
    range.hi[axis] = CellCoord(axis, reach.hi()[axis]);
  }
  return range;
}

bool GridOracle::CellInside(int x, int y, int z, const Aabb& query) const {
  // Border cells also hold clamped out-of-grid corners; interior cells hold
  // exactly the corners inside their box (widened for the floor rounding).
  const int c[3] = {x, y, z};
  for (int axis = 0; axis < 3; ++axis) {
    if (c[axis] == 0 || c[axis] == dim_ - 1) return false;
    const double slack = cell_size_[axis] * 1e-9;
    const double lo = universe_.lo()[axis] + c[axis] * cell_size_[axis];
    const double hi = lo + cell_size_[axis];
    if (lo - slack < query.lo()[axis] || hi + slack > query.hi()[axis]) {
      return false;
    }
  }
  return true;
}

void GridOracle::Upsert(const RTreeEntry& entry) {
  Remove(entry.id);
  if (entry.id >= slots_.size()) slots_.resize(entry.id + 1);
  if (entry.box.IsEmpty()) {
    has_empty_boxes_ = true;
  } else {
    const Vec3 extents = entry.box.Extents();
    max_extent_ = std::max({max_extent_, extents.x, extents.y, extents.z});
  }
  Slot& slot = slots_[entry.id];
  slot.cell = static_cast<uint32_t>(CellOf(entry.box.lo()));
  std::pmr::vector<RTreeEntry>& cell = cells_[slot.cell];
  slot.index = static_cast<uint32_t>(cell.size());
  cell.push_back(entry);
  slot.live_index = static_cast<uint32_t>(live_.size());
  live_.push_back(entry.id);
}

void GridOracle::Erase(uint64_t id) { Remove(id); }

void GridOracle::Remove(uint64_t id) {
  if (!Contains(id)) return;
  Slot& slot = slots_[id];
  std::pmr::vector<RTreeEntry>& cell = cells_[slot.cell];
  const RTreeEntry& moved = cell.back();
  slots_[moved.id].index = slot.index;
  cell[slot.index] = moved;
  cell.pop_back();
  const uint64_t moved_live = live_.back();
  slots_[moved_live].live_index = slot.live_index;
  live_[slot.live_index] = moved_live;
  live_.pop_back();
  slot.cell = kAbsent;
}

bool GridOracle::Contains(uint64_t id) const {
  return id < slots_.size() && slots_[id].cell != kAbsent;
}

const Aabb& GridOracle::BoxOf(uint64_t id) const {
  const Slot& slot = slots_.at(id);
  return cells_[slot.cell][slot.index].box;
}

std::vector<uint64_t> GridOracle::Range(const Aabb& query) const {
  std::vector<uint64_t> ids;
  if (query.IsEmpty()) return ids;
  const CellRange r = CandidateCells(query);
  for (int z = r.lo[2]; z <= r.hi[2]; ++z) {
    for (int y = r.lo[1]; y <= r.hi[1]; ++y) {
      for (int x = r.lo[0]; x <= r.hi[0]; ++x) {
        for (const RTreeEntry& e :
             cells_[(static_cast<size_t>(z) * dim_ + y) * dim_ + x]) {
          if (e.box.Intersects(query)) ids.push_back(e.id);
        }
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t GridOracle::Count(const Aabb& query) const {
  if (query.IsEmpty()) return 0;
  uint64_t count = 0;
  const CellRange r = CandidateCells(query);
  for (int z = r.lo[2]; z <= r.hi[2]; ++z) {
    for (int y = r.lo[1]; y <= r.hi[1]; ++y) {
      for (int x = r.lo[0]; x <= r.hi[0]; ++x) {
        const std::pmr::vector<RTreeEntry>& cell =
            cells_[(static_cast<size_t>(z) * dim_ + y) * dim_ + x];
        if (!has_empty_boxes_ && CellInside(x, y, z, query)) {
          count += cell.size();
          continue;
        }
        for (const RTreeEntry& e : cell) count += e.box.Intersects(query);
      }
    }
  }
  return count;
}

std::vector<uint64_t> GridOracle::Sphere(const Vec3& center,
                                         double radius) const {
  std::vector<uint64_t> ids;
  if (radius < 0.0) return ids;
  const CellRange r = CandidateCells(
      Aabb::FromCenterHalfExtents(center, Vec3(radius, radius, radius)));
  for (int z = r.lo[2]; z <= r.hi[2]; ++z) {
    for (int y = r.lo[1]; y <= r.hi[1]; ++y) {
      for (int x = r.lo[0]; x <= r.hi[0]; ++x) {
        for (const RTreeEntry& e :
             cells_[(static_cast<size_t>(z) * dim_ + y) * dim_ + x]) {
          if (e.box.IntersectsSphere(center, radius)) ids.push_back(e.id);
        }
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace e2e
