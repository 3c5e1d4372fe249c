// Equivalence tests for the SIMD box/sphere gate kernels: whatever
// instruction set geometry/box_kernels.cc was compiled with, the dispatching
// kernels must agree bit-for-bit with the scalar references, and the scalar
// references must agree with the Aabb member predicates. The box populations
// are adversarial on purpose — coordinates drawn from a small lattice so
// touching faces/edges/corners, zero-extent boxes, exact containment, and
// shared coordinates are common rather than measure-zero.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/box_kernels.h"
#include "geometry/rng.h"
#include "rtree/entry.h"
#include "rtree/node.h"

namespace flat {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Lattice coordinates: ties, touches and containment happen constantly.
constexpr double kLattice[] = {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0};

double LatticeCoord(Rng& rng) {
  return kLattice[rng.UniformInt(0, 6)];
}

// A mixed population of lattice boxes: proper, zero-extent, inverted
// (finite lo > hi), canonical empty, and — when `with_nan` — NaN-poisoned.
// Both kernels and Aabb::Intersects agree that anything failing lo <= hi on
// some axis (including via NaN) intersects nothing.
std::vector<Aabb> AdversarialBoxes(Rng& rng, size_t count, bool with_nan) {
  std::vector<Aabb> boxes;
  boxes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind == 0) {
      boxes.push_back(Aabb());  // canonical empty
      continue;
    }
    Vec3 a(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    Vec3 b(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    if (kind <= 2) {
      boxes.push_back(Aabb::FromPoint(a));  // zero extent
    } else if (kind == 3) {
      boxes.push_back(Aabb(a, b));  // possibly inverted on some axes
    } else if (kind == 4 && with_nan) {
      const Vec3 lo = Vec3::Min(a, b), hi = Vec3::Max(a, b);
      double c[3] = {lo.x, lo.y, lo.z};
      c[rng.UniformInt(0, 2)] = kNaN;
      boxes.push_back(Aabb(Vec3(c[0], c[1], c[2]), hi));
    } else {
      boxes.push_back(Aabb::FromCorners(a, b));  // proper (maybe degenerate)
    }
  }
  return boxes;
}

std::vector<Aabb> AdversarialQueries(Rng& rng, size_t count) {
  std::vector<Aabb> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Vec3 a(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    Vec3 b(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    queries.push_back(i % 7 == 0 ? Aabb::FromPoint(a)
                                 : Aabb::FromCorners(a, b));
  }
  return queries;
}

// Serializes boxes with the given stride (48 = bare Aabb, 56 = RTreeEntry
// slot layout of an object page).
std::vector<char> Serialize(const std::vector<Aabb>& boxes, size_t stride) {
  std::vector<char> buf(boxes.size() * stride, '\xab');
  for (size_t i = 0; i < boxes.size(); ++i) {
    std::memcpy(buf.data() + i * stride, &boxes[i], sizeof(Aabb));
  }
  return buf;
}

TEST(BoxKernelsTest, IsaNameIsKnown) {
  const std::string isa = BoxKernelIsa();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "scalar") << isa;
}

TEST(BoxKernelsTest, ScalarMatchesAabbIntersects) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const auto boxes = AdversarialBoxes(rng, 97, /*with_nan=*/false);
    const auto queries = AdversarialQueries(rng, 8);
    const auto buf = Serialize(boxes, sizeof(Aabb));
    std::vector<uint8_t> hits(boxes.size());
    for (const Aabb& q : queries) {
      IntersectsBatchScalar(buf.data(), sizeof(Aabb), boxes.size(), q,
                            hits.data());
      for (size_t i = 0; i < boxes.size(); ++i) {
        ASSERT_EQ(hits[i] != 0, boxes[i].Intersects(q))
            << "box " << boxes[i] << " query " << q;
      }
    }
  }
}

TEST(BoxKernelsTest, DispatchMatchesScalarBitForBit) {
  Rng rng(11);
  for (size_t stride : {sizeof(Aabb), sizeof(RTreeEntry)}) {
    for (int round = 0; round < 50; ++round) {
      // Odd counts exercise every tail length.
      const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
      const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
      const auto queries = AdversarialQueries(rng, 6);
      const auto buf = Serialize(boxes, stride);
      std::vector<uint8_t> expected(count), actual(count);
      for (const Aabb& q : queries) {
        IntersectsBatchScalar(buf.data(), stride, count, q, expected.data());
        IntersectsBatch(buf.data(), stride, count, q, actual.data());
        ASSERT_EQ(std::memcmp(expected.data(), actual.data(), count), 0)
            << "stride " << stride << " count " << count;
      }
    }
  }
}

TEST(BoxKernelsTest, SoaAssignTransposesAndPads) {
  Rng rng(13);
  const auto boxes = AdversarialBoxes(rng, 73, /*with_nan=*/false);
  const auto buf = Serialize(boxes, sizeof(RTreeEntry));
  SoaBoxes soa;
  soa.Assign(buf.data(), sizeof(RTreeEntry), boxes.size());
  ASSERT_EQ(soa.count(), boxes.size());
  ASSERT_EQ(soa.padded_count() % 4, 0u);
  ASSERT_GE(soa.padded_count(), soa.count());
  for (size_t i = 0; i < boxes.size(); ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(soa.lo(axis)[i], boxes[i].lo()[axis]);
      EXPECT_EQ(soa.hi(axis)[i], boxes[i].hi()[axis]);
    }
  }
  for (size_t i = boxes.size(); i < soa.padded_count(); ++i) {
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(soa.lo(axis)[i], kInf) << "padding must be the empty box";
      EXPECT_EQ(soa.hi(axis)[i], -kInf);
    }
  }
}

TEST(BoxKernelsTest, SoaMatchesScalarAndAos) {
  Rng rng(17);
  SoaBoxes soa;  // reused, like the crawl scratch
  for (int round = 0; round < 60; ++round) {
    const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
    const auto queries = AdversarialQueries(rng, 6);
    const auto buf = Serialize(boxes, sizeof(RTreeEntry));
    soa.Assign(buf.data(), sizeof(RTreeEntry), count);
    std::vector<uint8_t> soa_simd(soa.padded_count());
    std::vector<uint8_t> soa_scalar(soa.padded_count());
    std::vector<uint8_t> aos(count);
    for (const Aabb& q : queries) {
      IntersectsSoa(soa, q, soa_simd.data());
      IntersectsSoaScalar(soa, q, soa_scalar.data());
      IntersectsBatchScalar(buf.data(), sizeof(RTreeEntry), count, q,
                            aos.data());
      ASSERT_EQ(std::memcmp(soa_simd.data(), soa_scalar.data(),
                            soa.padded_count()),
                0);
      ASSERT_EQ(std::memcmp(soa_simd.data(), aos.data(), count), 0);
      for (size_t i = count; i < soa.padded_count(); ++i) {
        ASSERT_EQ(soa_simd[i], 0) << "padding lane leaked a hit";
      }
    }
  }
}

TEST(BoxKernelsTest, SphereScalarMatchesIntersectsSphere) {
  Rng rng(19);
  SoaBoxes soa;
  for (int round = 0; round < 60; ++round) {
    const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/false);
    const auto buf = Serialize(boxes, sizeof(Aabb));
    soa.Assign(buf.data(), sizeof(Aabb), count);
    std::vector<uint8_t> hits(soa.padded_count());
    const Vec3 center(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    // Radii chosen so d2 == r2 exactly happens (3-4-5 triangles on the
    // lattice: distance 2.5 from a corner offset (1.5, 2, 0), etc.).
    for (double radius : {0.0, 0.5, 1.0, 2.0, 2.5, 3.0}) {
      SphereGateSoaScalar(soa, center, radius, hits.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i] != 0, boxes[i].IntersectsSphere(center, radius))
            << "box " << boxes[i] << " center " << center << " r " << radius;
      }
    }
  }
}

TEST(BoxKernelsTest, SphereSimdMatchesScalarBitForBit) {
  Rng rng(23);
  SoaBoxes soa;
  for (int round = 0; round < 60; ++round) {
    const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
    const auto buf = Serialize(boxes, sizeof(RTreeEntry));
    soa.Assign(buf.data(), sizeof(RTreeEntry), count);
    std::vector<uint8_t> simd(soa.padded_count()), scalar(soa.padded_count());
    const Vec3 center(rng.Uniform(-2, 2), rng.Uniform(-2, 2),
                      rng.Uniform(-2, 2));
    for (double radius : {0.0, 0.25, 1.0, 2.5, 4.0}) {
      SphereGateSoa(soa, center, radius, simd.data());
      SphereGateSoaScalar(soa, center, radius, scalar.data());
      ASSERT_EQ(std::memcmp(simd.data(), scalar.data(), soa.padded_count()),
                0)
          << "count " << count << " r " << radius;
    }
  }
}

// The cases the crawl depends on, spelled out: closed-interval semantics
// (touching counts), zero-extent boxes, and containment either way.
TEST(BoxKernelsTest, TouchingZeroExtentAndContainmentCases) {
  const Aabb query(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const std::vector<Aabb> boxes = {
      Aabb(Vec3(1, 0, 0), Vec3(2, 1, 1)),        // shares the x=1 face
      Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)),        // shares only a corner
      Aabb::FromPoint(Vec3(1, 1, 1)),            // zero-extent on the corner
      Aabb::FromPoint(Vec3(0.5, 0.5, 0.5)),      // zero-extent inside
      Aabb(Vec3(-1, -1, -1), Vec3(2, 2, 2)),     // contains the query
      Aabb(Vec3(0.25, 0.25, 0.25), Vec3(0.75, 0.75, 0.75)),  // contained
      Aabb(Vec3(1.0000001, 0, 0), Vec3(2, 1, 1)),  // just misses
      Aabb(),                                       // empty
  };
  const std::vector<uint8_t> expected = {1, 1, 1, 1, 1, 1, 0, 0};
  const auto buf = Serialize(boxes, sizeof(Aabb));
  std::vector<uint8_t> hits(boxes.size());
  IntersectsBatch(buf.data(), sizeof(Aabb), boxes.size(), query, hits.data());
  EXPECT_EQ(std::vector<uint8_t>(hits.begin(), hits.end()), expected);

  SoaBoxes soa;
  soa.Assign(buf.data(), sizeof(Aabb), boxes.size());
  std::vector<uint8_t> soa_hits(soa.padded_count());
  IntersectsSoa(soa, query, soa_hits.data());
  EXPECT_EQ(std::vector<uint8_t>(soa_hits.begin(),
                                 soa_hits.begin() + boxes.size()),
            expected);
}

// Exact-boundary sphere case: a 3-4-5 triangle puts the box corner at
// distance exactly 5; d2 == r2 must gate as a hit (closed ball), and one
// ULP farther must not.
TEST(BoxKernelsTest, SphereExactBoundary) {
  const Vec3 center(0, 0, 0);
  std::vector<Aabb> boxes = {
      Aabb::FromPoint(Vec3(3, 4, 0)),
      Aabb::FromPoint(Vec3(std::nextafter(3.0, 4.0), 4, 0)),
  };
  const auto buf = Serialize(boxes, sizeof(Aabb));
  SoaBoxes soa;
  soa.Assign(buf.data(), sizeof(Aabb), boxes.size());
  std::vector<uint8_t> hits(soa.padded_count());
  SphereGateSoa(soa, center, 5.0, hits.data());
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 0);
}

// --- Quantized (16-bit fixed-point) gate tests --------------------------
//
// The compressed-page invariant under test: quantization rounds outward, so
// for ANY non-empty child and query boxes — inside the node box, partially
// outside it, degenerate, touching, denormal-thin — an exact intersection
// implies a quantized-gate hit. False positives are allowed (the exact
// gates downstream resolve them); false negatives are correctness bugs.

// Quantizes `child` exactly as CompressedNodeWriter::Append does.
void QuantizeChild(const QuantGrid& grid, const Aabb& child, uint16_t lo[3],
                   uint16_t hi[3]) {
  const double lo_coords[3] = {child.lo().x, child.lo().y, child.lo().z};
  const double hi_coords[3] = {child.hi().x, child.hi().y, child.hi().z};
  for (int axis = 0; axis < 3; ++axis) {
    lo[axis] = QuantizeDown(grid, axis, lo_coords[axis]);
    hi[axis] = QuantizeUp(grid, axis, hi_coords[axis]);
  }
}

bool QuantizedGateHit(const uint16_t lo[3], const uint16_t hi[3],
                      const QuantizedQueryBox& query) {
  if (query.never) return false;
  for (int axis = 0; axis < 3; ++axis) {
    if (lo[axis] > query.hi[axis] || hi[axis] < query.lo[axis]) return false;
  }
  return true;
}

// Node boxes for the grid under test: proper lattice boxes plus the nasty
// shapes a real seed tree can produce — zero-extent axes (planar data) and
// denormal-thin extents (inv overflows to inf; the cell function must stay
// finite-safe).
std::vector<Aabb> AdversarialNodeBoxes(Rng& rng, size_t count) {
  constexpr double kDenormal = 5e-324;
  std::vector<Aabb> boxes;
  boxes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Vec3 a(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    Vec3 b(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    Aabb box = Aabb::FromCorners(a, b);
    if (i % 5 == 1) {
      // Flatten one axis to zero extent.
      Vec3 lo = box.lo(), hi = box.hi();
      switch (rng.UniformInt(0, 2)) {
        case 0: hi.x = lo.x; break;
        case 1: hi.y = lo.y; break;
        default: hi.z = lo.z; break;
      }
      box = Aabb(lo, hi);
    } else if (i % 5 == 2) {
      // Denormal-thin on one axis: extent underflows any sane cell width.
      Vec3 lo = box.lo(), hi = box.hi();
      hi.x = lo.x + kDenormal;
      box = Aabb(lo, hi);
    }
    boxes.push_back(box);
  }
  return boxes;
}

TEST(QuantizedGateTest, OutwardRoundingNeverMisses) {
  Rng rng(20260808);
  const auto node_boxes = AdversarialNodeBoxes(rng, 64);
  for (const Aabb& node_box : node_boxes) {
    const QuantGrid grid = MakeQuantGrid(node_box);
    ASSERT_FALSE(grid.never);
    // Children drawn from the same lattice: they sit on the node boundary,
    // coincide with it, poke outside it, or collapse to points/edges.
    const auto children = AdversarialBoxes(rng, 64, /*with_nan=*/false);
    const auto queries = AdversarialQueries(rng, 64);
    for (const Aabb& query : queries) {
      const QuantizedQueryBox quantized_query =
          QuantizeQuery(node_box, query);
      for (const Aabb& child : children) {
        if (child.IsEmpty()) continue;  // writers never emit empty children
        uint16_t lo[3], hi[3];
        QuantizeChild(grid, child, lo, hi);
        for (int axis = 0; axis < 3; ++axis) {
          EXPECT_LE(lo[axis], hi[axis]);
        }
        if (child.Intersects(query)) {
          EXPECT_TRUE(QuantizedGateHit(lo, hi, quantized_query))
              << "false negative: node=[" << node_box.lo().x << ","
              << node_box.hi().x << "] child=[" << child.lo().x << ","
              << child.hi().x << "] query=[" << query.lo().x << ","
              << query.hi().x << "] (x shown; see seed)";
        }
      }
    }
  }
}

TEST(QuantizedGateTest, BoundaryChildrenStayInRange) {
  // A child exactly equal to the node box must span the full cell range —
  // rounding must clamp at the grid edge, not wrap or overflow.
  const Aabb node_box(Vec3(-1.0, 0.0, 2.0), Vec3(3.0, 0.5, 7.0));
  const QuantGrid grid = MakeQuantGrid(node_box);
  uint16_t lo[3], hi[3];
  QuantizeChild(grid, node_box, lo, hi);
  for (int axis = 0; axis < 3; ++axis) {
    EXPECT_EQ(lo[axis], 0u);
    EXPECT_EQ(hi[axis], kQuantMaxCell);
  }
  // And a query equal to the node box overlaps everything representable.
  const QuantizedQueryBox query = QuantizeQuery(node_box, node_box);
  EXPECT_FALSE(query.never);
  EXPECT_EQ(query.lo[0], 0u);
  EXPECT_EQ(query.hi[0], kQuantMaxCell);
}

TEST(QuantizedGateTest, DegenerateAxisAlwaysOverlaps) {
  // Zero-extent axis: every coordinate lands in cell 0 and, widened, the
  // ranges [0, 1] always overlap — conservative by construction.
  const Aabb node_box(Vec3(0, 0, 0), Vec3(4.0, 0.0, 4.0));
  const QuantGrid grid = MakeQuantGrid(node_box);
  EXPECT_EQ(grid.inv[1], 0.0);
  EXPECT_EQ(QuantizeDown(grid, 1, -100.0), 0u);
  EXPECT_LE(QuantizeUp(grid, 1, 100.0), 1u);
  const QuantizedQueryBox query =
      QuantizeQuery(node_box, Aabb(Vec3(1, 0, 1), Vec3(2, 0, 2)));
  uint16_t lo[3], hi[3];
  QuantizeChild(grid, Aabb(Vec3(3, 0, 1), Vec3(4, 0, 2)), lo, hi);
  EXPECT_LE(lo[1], query.hi[1]);
  EXPECT_GE(hi[1], query.lo[1]);
}

TEST(QuantizedGateTest, EmptyBoxesGateToNever) {
  const Aabb proper(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_TRUE(MakeQuantGrid(Aabb()).never);
  EXPECT_TRUE(QuantizeQuery(Aabb(), proper).never);
  EXPECT_TRUE(QuantizeQuery(proper, Aabb()).never);
  EXPECT_FALSE(QuantizeQuery(proper, proper).never);
}

// Serializes quantized boxes in the QuantizedSlot layout (six u16s, then a
// u32 child id the SoA must skip).
std::vector<char> SerializeQuantized(const std::vector<Aabb>& boxes,
                                     const QuantGrid& grid) {
  constexpr size_t kStride = 16;
  std::vector<char> buf(boxes.size() * kStride, '\xab');
  for (size_t i = 0; i < boxes.size(); ++i) {
    uint16_t lo[3], hi[3];
    QuantizeChild(grid, boxes[i], lo, hi);
    std::memcpy(buf.data() + i * kStride, lo, sizeof(lo));
    std::memcpy(buf.data() + i * kStride + sizeof(lo), hi, sizeof(hi));
  }
  return buf;
}

TEST(QuantizedGateTest, SoaDispatchMatchesScalarBitForBit) {
  Rng rng(77);
  const Aabb node_box(Vec3(-2, -2, -2), Vec3(2, 2, 2));
  const QuantGrid grid = MakeQuantGrid(node_box);
  // Sweep counts across every vector-width boundary (0, partial SSE lane,
  // partial AVX2 lane, exact multiples).
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{15}, size_t{16}, size_t{17}, size_t{73},
                       size_t{252}}) {
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/false);
    const auto buf = SerializeQuantized(boxes, grid);
    QuantizedSoa soa;
    soa.Assign(buf.data(), 16, boxes.size());
    EXPECT_EQ(soa.count(), count);
    EXPECT_EQ(soa.padded_count() % 16, 0u);
    EXPECT_GE(soa.padded_count(), count);
    for (const Aabb& query_box : AdversarialQueries(rng, 16)) {
      const QuantizedQueryBox query = QuantizeQuery(node_box, query_box);
      std::vector<uint8_t> scalar(soa.padded_count(), 0xcd);
      std::vector<uint8_t> dispatched(soa.padded_count(), 0x5e);
      IntersectsQuantizedSoaScalar(soa, query, scalar.data());
      IntersectsQuantizedSoa(soa, query, dispatched.data());
      EXPECT_EQ(scalar, dispatched);
      // Padding lanes always report 0, whatever the query.
      for (size_t i = count; i < soa.padded_count(); ++i) {
        EXPECT_EQ(dispatched[i], 0);
      }
    }
    // The never flag zeroes every hit byte in both variants.
    QuantizedQueryBox never_query;
    never_query.never = true;
    std::vector<uint8_t> hits(soa.padded_count(), 0xff);
    IntersectsQuantizedSoa(soa, never_query, hits.data());
    EXPECT_EQ(hits, std::vector<uint8_t>(soa.padded_count(), 0));
  }
}

// ---------------------------------------------------------------------------
// Containment ("covered") companions to the gates: a set bit certifies the
// box is non-empty and fully inside the query — the license for taking a
// stored aggregate instead of descending, so false positives are bugs while
// false negatives merely descend.
// ---------------------------------------------------------------------------

TEST(ContainsKernelsTest, ScalarMatchesAabbContains) {
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    const auto boxes = AdversarialBoxes(rng, 97, /*with_nan=*/true);
    const auto buf = Serialize(boxes, sizeof(Aabb));
    std::vector<uint8_t> covered(boxes.size());
    for (const Aabb& q : AdversarialQueries(rng, 8)) {
      ContainsBatchScalar(buf.data(), sizeof(Aabb), boxes.size(), q,
                          covered.data());
      for (size_t i = 0; i < boxes.size(); ++i) {
        // Aabb::Contains treats an empty box as contained everywhere; the
        // kernel deliberately does not — an empty/NaN element is invisible
        // to the intersection gates, so certifying it would miscount.
        const bool want = !boxes[i].IsEmpty() && q.Contains(boxes[i]);
        ASSERT_EQ(covered[i] != 0, want)
            << "box " << boxes[i] << " query " << q;
      }
    }
  }
}

TEST(ContainsKernelsTest, DispatchMatchesScalarBitForBit) {
  Rng rng(37);
  for (size_t stride : {sizeof(Aabb), sizeof(RTreeEntry)}) {
    for (int round = 0; round < 50; ++round) {
      const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
      const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
      const auto buf = Serialize(boxes, stride);
      std::vector<uint8_t> expected(count), actual(count);
      for (const Aabb& q : AdversarialQueries(rng, 6)) {
        ContainsBatchScalar(buf.data(), stride, count, q, expected.data());
        ContainsBatch(buf.data(), stride, count, q, actual.data());
        ASSERT_EQ(std::memcmp(expected.data(), actual.data(), count), 0)
            << "stride " << stride << " count " << count;
      }
    }
  }
}

// Builds a real compressed node page over children drawn inside `node_box`,
// exactly as the bulkloader writes them.
struct CompressedPage {
  std::vector<char> buffer;
  std::vector<Aabb> children;
  Aabb bounds;

  CompressedPage(Rng& rng, const Aabb& node_box, size_t count,
                 uint32_t page_size = 4096)
      : buffer(page_size) {
    std::vector<RTreeEntry> entries;
    for (size_t i = 0; i < count; ++i) {
      const Aabb child =
          Aabb::FromCorners(rng.PointIn(node_box), rng.PointIn(node_box));
      children.push_back(child);
      bounds.ExpandToInclude(child);
      entries.push_back(RTreeEntry{child, i});
    }
    CompressedNodeWriter writer(buffer.data(), page_size);
    writer.Init(/*level=*/1, bounds);
    for (const RTreeEntry& e : entries) writer.Append(e);
  }
};

TEST(QuantizedCoverTest, CertificationIsConservative) {
  Rng rng(43);
  for (int round = 0; round < 30; ++round) {
    const Aabb node_box(Vec3(-2, -2, -2), Vec3(2, 2, 2));
    const CompressedPage page(rng, node_box, 64);
    const CompressedNodeView view(page.buffer.data());
    QuantizedSoa soa;
    soa.Assign(view.slots(), sizeof(QuantizedSlot), view.count());
    std::vector<uint8_t> covered(soa.padded_count());
    for (const Aabb& query : AdversarialQueries(rng, 32)) {
      const QuantizedCoverBox cover =
          QuantizeCoverQuery(view.node_box(), query);
      ContainsQuantizedSoaScalar(soa, cover, covered.data());
      for (uint16_t i = 0; i < view.count(); ++i) {
        if (!covered[i]) continue;
        // The certification chain: certified slot => the conservatively
        // dequantized child box is inside the query => the exact child box
        // (a subset of it) is too. Under-triggering near the query faces is
        // fine; a certified slot whose exact box escapes the query is a
        // counting bug.
        EXPECT_TRUE(query.Contains(view.ChildBoxAt(i)))
            << "slot " << i << " query " << query;
        EXPECT_TRUE(query.Contains(page.children[i]))
            << "slot " << i << " query " << query;
      }
    }
  }
}

TEST(QuantizedCoverTest, QueryCoveringNodeBoxCertifiesEverySlot) {
  Rng rng(47);
  const Aabb node_box(Vec3(-2, -1, 0), Vec3(2, 3, 4));
  const CompressedPage page(rng, node_box, 73);
  const CompressedNodeView view(page.buffer.data());
  QuantizedSoa soa;
  soa.Assign(view.slots(), sizeof(QuantizedSlot), view.count());
  // A query strictly enclosing the node box admits the full cell range on
  // every axis — the certification must not be vacuously never.
  const Aabb generous(node_box.lo() - Vec3(1, 1, 1),
                      node_box.hi() + Vec3(1, 1, 1));
  const QuantizedCoverBox cover =
      QuantizeCoverQuery(view.node_box(), generous);
  ASSERT_FALSE(cover.never);
  std::vector<uint8_t> covered(soa.padded_count());
  ContainsQuantizedSoaScalar(soa, cover, covered.data());
  for (uint16_t i = 0; i < view.count(); ++i) {
    EXPECT_TRUE(covered[i]) << "slot " << i;
  }
  // A query that clips the node box must not certify slots that reach the
  // clipped face.
  const QuantizedCoverBox empty_cover = QuantizeCoverQuery(node_box, Aabb());
  EXPECT_TRUE(empty_cover.never);
}

TEST(QuantizedCoverTest, SoaDispatchMatchesScalarBitForBit) {
  Rng rng(53);
  const Aabb node_box(Vec3(-2, -2, -2), Vec3(2, 2, 2));
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{15}, size_t{16}, size_t{17}, size_t{73},
                       size_t{200}}) {
    const CompressedPage page(rng, node_box, count);
    const CompressedNodeView view(page.buffer.data());
    QuantizedSoa soa;
    soa.Assign(view.slots(), sizeof(QuantizedSlot), count);
    for (const Aabb& query : AdversarialQueries(rng, 16)) {
      const QuantizedCoverBox cover =
          QuantizeCoverQuery(view.node_box(), query);
      std::vector<uint8_t> scalar(soa.padded_count(), 0xcd);
      std::vector<uint8_t> dispatched(soa.padded_count(), 0x5e);
      ContainsQuantizedSoaScalar(soa, cover, scalar.data());
      ContainsQuantizedSoa(soa, cover, dispatched.data());
      EXPECT_EQ(scalar, dispatched) << "count " << count;
      for (size_t i = count; i < soa.padded_count(); ++i) {
        EXPECT_EQ(dispatched[i], 0);
      }
    }
    // never zeroes everything in both variants.
    QuantizedCoverBox never_cover;
    never_cover.never = true;
    std::vector<uint8_t> hits(soa.padded_count(), 0xff);
    ContainsQuantizedSoa(soa, never_cover, hits.data());
    EXPECT_EQ(hits, std::vector<uint8_t>(soa.padded_count(), 0));
  }
}

}  // namespace
}  // namespace flat
