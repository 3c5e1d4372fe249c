#include "rtree/pack.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/thread_pool.h"
#include "rtree/node.h"

namespace flat {

size_t CeilCbrt(size_t value) {
  if (value <= 1) return value;
  size_t r = static_cast<size_t>(std::llround(std::cbrt(
      static_cast<double>(value))));
  while (r * r * r < value) ++r;
  while (r > 1 && (r - 1) * (r - 1) * (r - 1) >= value) --r;
  return r;
}

size_t CeilSqrt(size_t value) {
  if (value <= 1) return value;
  size_t r = static_cast<size_t>(std::llround(std::sqrt(
      static_cast<double>(value))));
  while (r * r < value) ++r;
  while (r > 1 && (r - 1) * (r - 1) >= value) --r;
  return r;
}

void StrCuts::AddSegment(size_t begin, size_t end, size_t step,
                         size_t origin) {
  assert(begin < end && origin <= begin && step > 0);
  assert(cuts.empty() || cuts.back() == begin);
  if (cuts.empty()) cuts.push_back(begin);
  const size_t first = cuts.size() - 1;
  for (size_t c = origin + ((begin - origin) / step + 1) * step; c < end;
       c += step) {
    cuts.push_back(c);
  }
  cuts.push_back(end);
  segments.emplace_back(first, cuts.size() - 1);
}

void SelectPieces(std::vector<RTreeEntry>* entries, const StrCuts& cuts,
                  int axis, ThreadPool* pool) {
  const EntryCenterOrder order{axis};
  RTreeEntry* data = entries->data();
  // A span [lo, hi] of cut indexes whose ends are in place; its inner cuts
  // are not. Each round places every span's middle cut, which leaves two
  // independent halves.
  using Span = std::pair<size_t, size_t>;
  std::vector<Span> spans;
  auto keep_open = [&spans](Span span) {
    if (span.second - span.first >= 2) spans.push_back(span);
  };
  for (const Span& segment : cuts.segments) keep_open(segment);
  while (!spans.empty()) {
    const std::vector<Span> round = std::move(spans);
    spans.clear();
    ParallelFor(pool, round.size(), /*grain=*/0, [&](size_t, size_t i) {
      const auto [lo, hi] = round[i];
      const size_t mid = lo + (hi - lo) / 2;
      std::nth_element(data + cuts.cuts[lo], data + cuts.cuts[mid],
                       data + cuts.cuts[hi], order);
    });
    for (const auto& [lo, hi] : round) {
      const size_t mid = lo + (hi - lo) / 2;
      keep_open({lo, mid});
      keep_open({mid, hi});
    }
  }
}

void StrOrder(std::vector<RTreeEntry>* entries, uint32_t node_capacity,
              ThreadPool* pool) {
  const size_t n = entries->size();
  if (n <= node_capacity) return;
  const size_t pages = (n + node_capacity - 1) / node_capacity;

  // Number of x-slabs: ceil(P^(1/3)); each slab then holds about P^(2/3)
  // pages and is tiled recursively in y and z.
  const size_t sx = CeilCbrt(pages);
  const size_t slab_size = (n + sx - 1) / sx;
  StrCuts slabs;
  slabs.AddSegment(0, n, slab_size, 0);
  SelectPieces(entries, slabs, 0, pool);

  StrCuts runs;
  for (size_t s = 0; s < slabs.pieces(); ++s) {
    const size_t begin = slabs.cuts[s];
    const size_t end = slabs.cuts[s + 1];
    const size_t slab_pages = (end - begin + node_capacity - 1) / node_capacity;
    const size_t sy = CeilSqrt(slab_pages);
    runs.AddSegment(begin, end, (end - begin + sy - 1) / sy, begin);
  }
  SelectPieces(entries, runs, 1, pool);

  // z pass: the nodes are consecutive `node_capacity` entries of the whole
  // array, so each run is cut at the node boundaries inside it; sorting
  // every piece then gives each run its full z order.
  StrCuts pieces;
  for (size_t r = 0; r < runs.pieces(); ++r) {
    pieces.AddSegment(runs.cuts[r], runs.cuts[r + 1], node_capacity, 0);
  }
  SelectPieces(entries, pieces, 2, pool);
  ParallelFor(pool, pieces.pieces(), /*grain=*/0, [&](size_t, size_t k) {
    std::sort(entries->begin() + pieces.cuts[k],
              entries->begin() + pieces.cuts[k + 1], EntryCenterOrder{2});
  });
}

std::vector<RTreeEntry> PackLevel(PageFile* file,
                                  const std::vector<RTreeEntry>& ordered,
                                  uint8_t level, PageCategory leaf_category,
                                  PageCategory internal_category,
                                  NodeFormat internal_format,
                                  AggregateBuilder* aggregates) {
  // Leaves and object pages are always exact; the format applies to the
  // internal levels only (see pack.h).
  const bool quantized =
      level > 0 && internal_format == NodeFormat::kQuantized;
  const uint32_t capacity =
      quantized ? QuantizedNodeCapacity(file->page_size())
                : NodeCapacity(file->page_size());
  const PageCategory category = level == 0 ? leaf_category : internal_category;

  std::vector<RTreeEntry> parents;
  parents.reserve(ordered.size() / capacity + 1);
  for (size_t start = 0; start < ordered.size(); start += capacity) {
    const size_t end = std::min(ordered.size(), start + capacity);
    PageId page = file->Allocate(category);
    Aabb bounds;
    for (size_t i = start; i < end; ++i) {
      bounds.ExpandToInclude(ordered[i].box);
    }
    if (quantized) {
      // The chunk's exact union is the page's quantization grid, so every
      // child is inside it by construction (the writer's contract).
      CompressedNodeWriter writer(file->MutableData(page), file->page_size());
      writer.Init(level, bounds);
      for (size_t i = start; i < end; ++i) writer.Append(ordered[i]);
    } else {
      NodeWriter writer(file->MutableData(page), file->page_size());
      writer.Init(level);
      for (size_t i = start; i < end; ++i) writer.Append(ordered[i]);
    }
    if (aggregates != nullptr && level > 0) {
      // Roll the children's subtree totals up into this page's sidecar
      // entries and its own total. An undeclared child (only possible when
      // a caller seeded the builder partially) keeps this page's total
      // undeclared too, so incompleteness propagates to the root instead of
      // materializing a wrong count.
      AggEntry total{0, 1};  // the page itself
      bool complete = true;
      for (size_t i = start; i < end; ++i) {
        const AggEntry* child =
            aggregates->PageTotal(static_cast<PageId>(ordered[i].id));
        if (child == nullptr) {
          complete = false;
          continue;
        }
        aggregates->RecordSlot(page, static_cast<uint16_t>(i - start), *child);
        total.elements += child->elements;
        total.pages += child->pages;
      }
      if (complete) aggregates->SetPageTotal(page, total);
    }
    parents.push_back(RTreeEntry{bounds, page});
  }
  return parents;
}

RTree BuildUpperLevels(PageFile* file, std::vector<RTreeEntry> level_entries,
                       uint8_t level, LevelOrder order,
                       PageCategory internal_category, ThreadPool* pool,
                       NodeFormat internal_format,
                       AggregateBuilder* aggregates) {
  assert(!level_entries.empty());
  const uint32_t capacity =
      NodeCapacityFor(internal_format, file->page_size());
  while (level_entries.size() > 1) {
    if (order == LevelOrder::kStr) {
      StrOrder(&level_entries, capacity, pool);
    }
    level_entries =
        PackLevel(file, level_entries, level, PageCategory::kRTreeLeaf,
                  internal_category, internal_format, aggregates);
    ++level;
  }
  return RTree(file, static_cast<PageId>(level_entries.front().id), level);
}

RTree PackOrderedLeaves(PageFile* file, const std::vector<RTreeEntry>& ordered,
                        LevelOrder order, PageCategory leaf_category) {
  if (ordered.empty()) return RTree();
  std::vector<RTreeEntry> parents =
      PackLevel(file, ordered, /*level=*/0, leaf_category);
  if (parents.size() == 1) {
    return RTree(file, static_cast<PageId>(parents.front().id), 1);
  }
  return BuildUpperLevels(file, std::move(parents), /*level=*/1, order);
}

}  // namespace flat
