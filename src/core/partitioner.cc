#include "core/partitioner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/grid_join.h"
#include "parallel/thread_pool.h"
#include "rtree/pack.h"

namespace flat {
namespace {

// One chunk of an STR pass, with its [lo, hi] interval on the pass's axis.
struct Chunk {
  size_t begin;
  size_t end;
  double lo;
  double hi;
};

// A range of elements an earlier pass separated, to be cut every `step`.
struct Segment {
  size_t begin;
  size_t end;
  size_t step;
};

// One STR pass on `axis`: cuts every segment into chunks of its `step`
// elements, selects them, and returns each segment's chunks with their tile
// intervals. Consecutive chunks of a segment share boundaries, placed midway
// between the last center of the left chunk and the first center of the
// right chunk — so every element's center stays inside its own tile — and
// the outermost chunks extend to [axis_lo, axis_hi].
std::vector<std::vector<Chunk>> TilePass(std::vector<RTreeEntry>* elements,
                                         const std::vector<Segment>& segments,
                                         int axis, double axis_lo,
                                         double axis_hi, ThreadPool* pool) {
  StrCuts cuts;
  for (const Segment& segment : segments) {
    cuts.AddSegment(segment.begin, segment.end, segment.step, segment.begin);
  }
  SelectPieces(elements, cuts, axis, pool);

  // Each chunk's first and last center under the pass's order, which a
  // sort would have put at the chunk's ends.
  const EntryCenterOrder order{axis};
  std::vector<double> first_center(cuts.pieces());
  std::vector<double> last_center(cuts.pieces());
  ParallelFor(pool, cuts.pieces(), /*grain=*/0, [&](size_t, size_t k) {
    const auto [first, last] =
        std::minmax_element(elements->begin() + cuts.cuts[k],
                            elements->begin() + cuts.cuts[k + 1], order);
    first_center[k] = first->box.Center()[axis];
    last_center[k] = last->box.Center()[axis];
  });

  std::vector<std::vector<Chunk>> chunks(segments.size());
  for (size_t s = 0; s < segments.size(); ++s) {
    const auto [first_cut, last_cut] = cuts.segments[s];
    double lo = axis_lo;
    for (size_t k = first_cut; k < last_cut; ++k) {
      double hi = k + 1 < last_cut
                      ? 0.5 * (last_center[k] + first_center[k + 1])
                      : axis_hi;
      // Guard against non-monotone boundaries when many centers coincide.
      hi = std::max(hi, lo);
      chunks[s].push_back({cuts.cuts[k], cuts.cuts[k + 1], lo, hi});
      lo = hi;
    }
  }
  return chunks;
}

}  // namespace

std::vector<PartitionInfo> StrPartition(std::vector<RTreeEntry>* elements,
                                        uint32_t page_capacity,
                                        const Aabb& universe,
                                        ThreadPool* pool) {
  assert(page_capacity >= 1);
  std::vector<PartitionInfo> partitions;
  const size_t n = elements->size();
  if (n == 0) return partitions;

  // pn = cbrt(size / pagesize) partitions per dimension (Algorithm 1).
  const size_t total_pages = (n + page_capacity - 1) / page_capacity;
  const size_t sx = CeilCbrt(total_pages);
  const size_t x_chunk = (n + sx - 1) / sx;
  const std::vector<Chunk> x_chunks =
      TilePass(elements, {{0, n, x_chunk}}, 0, universe.lo().x,
               universe.hi().x, pool)
          .front();

  // y pass: each x-slab is cut into ceil(sqrt(slab pages)) runs.
  std::vector<Segment> slabs;
  for (const Chunk& xc : x_chunks) {
    const size_t m = xc.end - xc.begin;
    const size_t slab_pages = (m + page_capacity - 1) / page_capacity;
    const size_t sy = CeilSqrt(slab_pages);
    slabs.push_back({xc.begin, xc.end, (m + sy - 1) / sy});
  }
  const std::vector<std::vector<Chunk>> y_chunks = TilePass(
      elements, slabs, 1, universe.lo().y, universe.hi().y, pool);

  // z pass: every run is cut into page-sized chunks, one partition each.
  struct Run {
    size_t x_index;
    Chunk y;
  };
  std::vector<Run> runs;
  std::vector<Segment> run_segments;
  for (size_t s = 0; s < y_chunks.size(); ++s) {
    for (const Chunk& yc : y_chunks[s]) {
      runs.push_back({s, yc});
      run_segments.push_back({yc.begin, yc.end, page_capacity});
    }
  }
  const std::vector<std::vector<Chunk>> z_chunks = TilePass(
      elements, run_segments, 2, universe.lo().z, universe.hi().z, pool);

  // Emit the partitions (tile, page MBR, stretched partition MBR) in run
  // order, so the partition sequence matches the serial construction.
  std::vector<size_t> run_first(runs.size() + 1, 0);
  for (size_t r = 0; r < runs.size(); ++r) {
    run_first[r + 1] = run_first[r] + z_chunks[r].size();
  }
  partitions.resize(run_first.back());
  ParallelFor(pool, runs.size(), /*grain=*/0, [&](size_t, size_t r) {
    const Chunk& xc = x_chunks[runs[r].x_index];
    const Chunk& yc = runs[r].y;
    for (size_t k = 0; k < z_chunks[r].size(); ++k) {
      const Chunk& zc = z_chunks[r][k];
      PartitionInfo& partition = partitions[run_first[r] + k];
      partition.first = static_cast<uint32_t>(zc.begin);
      partition.count = static_cast<uint32_t>(zc.end - zc.begin);
      partition.tile =
          Aabb(Vec3(xc.lo, yc.lo, zc.lo), Vec3(xc.hi, yc.hi, zc.hi));
      for (size_t i = zc.begin; i < zc.end; ++i) {
        partition.page_mbr.ExpandToInclude((*elements)[i].box);
      }
      partition.partition_mbr = partition.tile;
      partition.partition_mbr.ExpandToInclude(partition.page_mbr);  // stretch
    }
  });
  return partitions;
}

void ComputeNeighbors(std::vector<PartitionInfo>* partitions,
                      ThreadPool* pool) {
  std::vector<Aabb> boxes;
  boxes.reserve(partitions->size());
  for (const PartitionInfo& p : *partitions) {
    boxes.push_back(p.partition_mbr);
  }
  // Algorithm 1 inserts all partition MBRs "into a temporary R-Tree, used
  // solely to compute the neighborhood information"; the grid join computes
  // the identical relation without putting a tree build on the critical
  // path, and probes the partitions in parallel.
  std::vector<std::vector<uint32_t>> neighbors;
  GridIntersectionJoin(boxes, pool, &neighbors);
  for (size_t i = 0; i < partitions->size(); ++i) {
    (*partitions)[i].neighbors = std::move(neighbors[i]);
  }
}

uint64_t TotalNeighborPointers(const std::vector<PartitionInfo>& partitions) {
  uint64_t total = 0;
  for (const PartitionInfo& p : partitions) total += p.neighbors.size();
  return total;
}

}  // namespace flat
