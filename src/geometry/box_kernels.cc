// SIMD + scalar implementations of the MBR gate kernels. This translation
// unit is compiled with -mavx2 -ffp-contract=off when the FLAT_SIMD_AVX2
// CMake option is on (the default); without it, the x86-64 SSE2 baseline or
// the plain scalar path is selected. All SIMD code lives here so the rest of
// the library builds with the project-wide flags and stays bit-identical
// regardless of the kernel ISA. -ffp-contract=off matters: the sphere gate
// must round exactly like Aabb::DistanceSquaredTo (mul then add, no FMA).
#include "geometry/box_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace flat {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One strided AoS box gate, shared by the scalar kernels: the same predicate
// as Aabb::Intersects in one branch-free expression (the empty-box checks
// lo <= hi fold into the comparison chain).
inline uint8_t GateOneBox(const double* b, const Aabb& q) {
  const int hit = (b[0] <= b[3]) & (b[1] <= b[4]) & (b[2] <= b[5]) &
                  (b[0] <= q.hi().x) & (b[3] >= q.lo().x) &
                  (b[1] <= q.hi().y) & (b[4] >= q.lo().y) &
                  (b[2] <= q.hi().z) & (b[5] >= q.lo().z);
  return static_cast<uint8_t>(hit);
}

// One strided AoS containment gate: non-empty box fully inside `q`. Every
// comparison is false on NaN and an empty query admits no non-empty box
// (lo >= q.lo && hi <= q.hi && lo <= hi forces q.lo <= q.hi), so no special
// cases are needed.
inline uint8_t CoverOneBox(const double* b, const Aabb& q) {
  const int covered = (b[0] <= b[3]) & (b[1] <= b[4]) & (b[2] <= b[5]) &
                      (b[0] >= q.lo().x) & (b[3] <= q.hi().x) &
                      (b[1] >= q.lo().y) & (b[4] <= q.hi().y) &
                      (b[2] >= q.lo().z) & (b[5] <= q.hi().z);
  return static_cast<uint8_t>(covered);
}

}  // namespace

const char* BoxKernelIsa() {
#if defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__) || defined(_M_X64)
  return "sse2";
#else
  return "scalar";
#endif
}

void IntersectsBatchScalar(const char* boxes, size_t stride, size_t count,
                           const Aabb& query, uint8_t* hits) {
  for (size_t i = 0; i < count; ++i) {
    double b[6];  // lo.x lo.y lo.z hi.x hi.y hi.z
    std::memcpy(b, boxes + i * stride, sizeof(b));
    hits[i] = GateOneBox(b, query);
  }
}

void IntersectsBatch(const char* boxes, size_t stride, size_t count,
                     const Aabb& query, uint8_t* hits) {
#if defined(__AVX2__)
  // One box per iteration, vector ops across its six doubles. Lane maps:
  //   L  = [lo.x lo.y lo.z hi.x]   (load at byte 0)
  //   H  = [lo.z hi.x hi.y hi.z]   (load at byte 16; stays inside the box)
  //   Hs = [hi.x hi.y hi.z lo.z]   (H rotated down one lane)
  // so lanes 0..2 of L/Hs line up as lo/hi per axis; lane 3 is junk and the
  // movemask is masked to the low three bits. _CMP_*_OQ compares are false
  // on NaN, exactly like the scalar <= / >=.
  const __m256d qh = _mm256_set_pd(kInf, query.hi().z, query.hi().y,
                                   query.hi().x);
  const __m256d ql = _mm256_set_pd(-kInf, query.lo().z, query.lo().y,
                                   query.lo().x);
  for (size_t i = 0; i < count; ++i) {
    const double* b = reinterpret_cast<const double*>(boxes + i * stride);
    const __m256d lo = _mm256_loadu_pd(b);
    const __m256d h = _mm256_loadu_pd(b + 2);
    const __m256d hs = _mm256_permute4x64_pd(h, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256d c1 = _mm256_cmp_pd(lo, qh, _CMP_LE_OQ);
    const __m256d c2 = _mm256_cmp_pd(hs, ql, _CMP_GE_OQ);
    const __m256d c3 = _mm256_cmp_pd(lo, hs, _CMP_LE_OQ);  // empty check
    const int m = _mm256_movemask_pd(_mm256_and_pd(_mm256_and_pd(c1, c2), c3));
    hits[i] = static_cast<uint8_t>((m & 7) == 7);
  }
#elif defined(__SSE2__) || defined(_M_X64)
  // x and y axes in one 2-lane vector, z axis scalar.
  const __m128d qh_xy = _mm_set_pd(query.hi().y, query.hi().x);
  const __m128d ql_xy = _mm_set_pd(query.lo().y, query.lo().x);
  const double qhz = query.hi().z, qlz = query.lo().z;
  for (size_t i = 0; i < count; ++i) {
    const double* b = reinterpret_cast<const double*>(boxes + i * stride);
    const __m128d lo_xy = _mm_loadu_pd(b);          // [lo.x lo.y]
    const __m128d mid = _mm_loadu_pd(b + 2);        // [lo.z hi.x]
    const __m128d hi_yz = _mm_loadu_pd(b + 4);      // [hi.y hi.z]
    const __m128d hi_xy = _mm_shuffle_pd(mid, hi_yz, 0b01);  // [hi.x hi.y]
    const __m128d c1 = _mm_cmple_pd(lo_xy, qh_xy);
    const __m128d c2 = _mm_cmpge_pd(hi_xy, ql_xy);
    const __m128d c3 = _mm_cmple_pd(lo_xy, hi_xy);  // empty check, x/y
    const int mxy =
        _mm_movemask_pd(_mm_and_pd(_mm_and_pd(c1, c2), c3));
    const double loz = b[2], hiz = b[5];
    const int hz = (loz <= hiz) & (loz <= qhz) & (hiz >= qlz);
    hits[i] = static_cast<uint8_t>((mxy == 3) & hz);
  }
#else
  IntersectsBatchScalar(boxes, stride, count, query, hits);
#endif
}

void ContainsBatchScalar(const char* boxes, size_t stride, size_t count,
                         const Aabb& query, uint8_t* covered) {
  for (size_t i = 0; i < count; ++i) {
    double b[6];  // lo.x lo.y lo.z hi.x hi.y hi.z
    std::memcpy(b, boxes + i * stride, sizeof(b));
    covered[i] = CoverOneBox(b, query);
  }
}

void ContainsBatch(const char* boxes, size_t stride, size_t count,
                   const Aabb& query, uint8_t* covered) {
#if defined(__AVX2__)
  // Same lane maps as IntersectsBatch (L = lo corners + hi.x, Hs = hi
  // corners + lo.z) with the predicates flipped to containment. Lane 3 is
  // junk: ql/qh carry ∓inf there so it always passes, and the movemask is
  // masked to the low three bits anyway.
  const __m256d qh = _mm256_set_pd(kInf, query.hi().z, query.hi().y,
                                   query.hi().x);
  const __m256d ql = _mm256_set_pd(-kInf, query.lo().z, query.lo().y,
                                   query.lo().x);
  for (size_t i = 0; i < count; ++i) {
    const double* b = reinterpret_cast<const double*>(boxes + i * stride);
    const __m256d lo = _mm256_loadu_pd(b);
    const __m256d h = _mm256_loadu_pd(b + 2);
    const __m256d hs = _mm256_permute4x64_pd(h, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256d c1 = _mm256_cmp_pd(lo, ql, _CMP_GE_OQ);
    const __m256d c2 = _mm256_cmp_pd(hs, qh, _CMP_LE_OQ);
    const __m256d c3 = _mm256_cmp_pd(lo, hs, _CMP_LE_OQ);  // empty check
    const int m = _mm256_movemask_pd(_mm256_and_pd(_mm256_and_pd(c1, c2), c3));
    covered[i] = static_cast<uint8_t>((m & 7) == 7);
  }
#elif defined(__SSE2__) || defined(_M_X64)
  const __m128d qh_xy = _mm_set_pd(query.hi().y, query.hi().x);
  const __m128d ql_xy = _mm_set_pd(query.lo().y, query.lo().x);
  const double qhz = query.hi().z, qlz = query.lo().z;
  for (size_t i = 0; i < count; ++i) {
    const double* b = reinterpret_cast<const double*>(boxes + i * stride);
    const __m128d lo_xy = _mm_loadu_pd(b);          // [lo.x lo.y]
    const __m128d mid = _mm_loadu_pd(b + 2);        // [lo.z hi.x]
    const __m128d hi_yz = _mm_loadu_pd(b + 4);      // [hi.y hi.z]
    const __m128d hi_xy = _mm_shuffle_pd(mid, hi_yz, 0b01);  // [hi.x hi.y]
    const __m128d c1 = _mm_cmpge_pd(lo_xy, ql_xy);
    const __m128d c2 = _mm_cmple_pd(hi_xy, qh_xy);
    const __m128d c3 = _mm_cmple_pd(lo_xy, hi_xy);  // empty check, x/y
    const int mxy = _mm_movemask_pd(_mm_and_pd(_mm_and_pd(c1, c2), c3));
    const double loz = b[2], hiz = b[5];
    const int cz = (loz <= hiz) & (loz >= qlz) & (hiz <= qhz);
    covered[i] = static_cast<uint8_t>((mxy == 3) & cz);
  }
#else
  ContainsBatchScalar(boxes, stride, count, query, covered);
#endif
}

void SoaBoxes::Assign(const char* boxes, size_t stride, size_t count) {
  count_ = count;
  padded_ = (count + 3) & ~size_t{3};
  lanes_.resize(6 * padded_);
  double* lox = lanes_.data();
  double* loy = lox + padded_;
  double* loz = loy + padded_;
  double* hix = loz + padded_;
  double* hiy = hix + padded_;
  double* hiz = hiy + padded_;
  size_t i = 0;
#if defined(__AVX2__)
  // Transpose four boxes at a time: two overlapping 4-lane loads per box
  // (both stay inside the 48-byte box image) and two 4x4 double transposes.
  for (; i + 4 <= count; i += 4) {
    const double* b0 = reinterpret_cast<const double*>(boxes + i * stride);
    const double* b1 = reinterpret_cast<const double*>(
        boxes + (i + 1) * stride);
    const double* b2 = reinterpret_cast<const double*>(
        boxes + (i + 2) * stride);
    const double* b3 = reinterpret_cast<const double*>(
        boxes + (i + 3) * stride);
    const __m256d r0 = _mm256_loadu_pd(b0), r1 = _mm256_loadu_pd(b1);
    const __m256d r2 = _mm256_loadu_pd(b2), r3 = _mm256_loadu_pd(b3);
    __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_storeu_pd(lox + i, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(loy + i, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(loz + i, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(hix + i, _mm256_permute2f128_pd(t1, t3, 0x31));
    const __m256d s0 = _mm256_loadu_pd(b0 + 2), s1 = _mm256_loadu_pd(b1 + 2);
    const __m256d s2 = _mm256_loadu_pd(b2 + 2), s3 = _mm256_loadu_pd(b3 + 2);
    t0 = _mm256_unpacklo_pd(s0, s1);   // columns lo.z / hi.y
    t1 = _mm256_unpackhi_pd(s0, s1);   // columns hi.x / hi.z
    t2 = _mm256_unpacklo_pd(s2, s3);
    t3 = _mm256_unpackhi_pd(s2, s3);
    _mm256_storeu_pd(hiy + i, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(hiz + i, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
#endif
  for (; i < count; ++i) {
    double b[6];
    std::memcpy(b, boxes + i * stride, sizeof(b));
    lox[i] = b[0];
    loy[i] = b[1];
    loz[i] = b[2];
    hix[i] = b[3];
    hiy[i] = b[4];
    hiz[i] = b[5];
  }
  for (i = count; i < padded_; ++i) {
    // Canonical empty boxes: every kernel's empty check zeroes these lanes.
    lox[i] = loy[i] = loz[i] = kInf;
    hix[i] = hiy[i] = hiz[i] = -kInf;
  }
}

void IntersectsSoaScalar(const SoaBoxes& soa, const Aabb& query,
                         uint8_t* hits) {
  const double* lox = soa.lo(0);
  const double* loy = soa.lo(1);
  const double* loz = soa.lo(2);
  const double* hix = soa.hi(0);
  const double* hiy = soa.hi(1);
  const double* hiz = soa.hi(2);
  for (size_t i = 0; i < soa.padded_count(); ++i) {
    const int hit =
        (lox[i] <= hix[i]) & (loy[i] <= hiy[i]) & (loz[i] <= hiz[i]) &
        (lox[i] <= query.hi().x) & (hix[i] >= query.lo().x) &
        (loy[i] <= query.hi().y) & (hiy[i] >= query.lo().y) &
        (loz[i] <= query.hi().z) & (hiz[i] >= query.lo().z);
    hits[i] = static_cast<uint8_t>(hit);
  }
}

void IntersectsSoa(const SoaBoxes& soa, const Aabb& query, uint8_t* hits) {
#if defined(__AVX2__)
  const __m256d qhx = _mm256_set1_pd(query.hi().x);
  const __m256d qhy = _mm256_set1_pd(query.hi().y);
  const __m256d qhz = _mm256_set1_pd(query.hi().z);
  const __m256d qlx = _mm256_set1_pd(query.lo().x);
  const __m256d qly = _mm256_set1_pd(query.lo().y);
  const __m256d qlz = _mm256_set1_pd(query.lo().z);
  for (size_t i = 0; i < soa.padded_count(); i += 4) {
    const __m256d lox = _mm256_loadu_pd(soa.lo(0) + i);
    const __m256d loy = _mm256_loadu_pd(soa.lo(1) + i);
    const __m256d loz = _mm256_loadu_pd(soa.lo(2) + i);
    const __m256d hix = _mm256_loadu_pd(soa.hi(0) + i);
    const __m256d hiy = _mm256_loadu_pd(soa.hi(1) + i);
    const __m256d hiz = _mm256_loadu_pd(soa.hi(2) + i);
    __m256d m = _mm256_and_pd(_mm256_cmp_pd(lox, hix, _CMP_LE_OQ),
                              _mm256_cmp_pd(loy, hiy, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(loz, hiz, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(lox, qhx, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(hix, qlx, _CMP_GE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(loy, qhy, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(hiy, qly, _CMP_GE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(loz, qhz, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(hiz, qlz, _CMP_GE_OQ));
    const int mask = _mm256_movemask_pd(m);
    hits[i + 0] = static_cast<uint8_t>(mask & 1);
    hits[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
    hits[i + 2] = static_cast<uint8_t>((mask >> 2) & 1);
    hits[i + 3] = static_cast<uint8_t>((mask >> 3) & 1);
  }
#elif defined(__SSE2__) || defined(_M_X64)
  const __m128d qhx = _mm_set1_pd(query.hi().x);
  const __m128d qhy = _mm_set1_pd(query.hi().y);
  const __m128d qhz = _mm_set1_pd(query.hi().z);
  const __m128d qlx = _mm_set1_pd(query.lo().x);
  const __m128d qly = _mm_set1_pd(query.lo().y);
  const __m128d qlz = _mm_set1_pd(query.lo().z);
  for (size_t i = 0; i < soa.padded_count(); i += 2) {
    const __m128d lox = _mm_loadu_pd(soa.lo(0) + i);
    const __m128d loy = _mm_loadu_pd(soa.lo(1) + i);
    const __m128d loz = _mm_loadu_pd(soa.lo(2) + i);
    const __m128d hix = _mm_loadu_pd(soa.hi(0) + i);
    const __m128d hiy = _mm_loadu_pd(soa.hi(1) + i);
    const __m128d hiz = _mm_loadu_pd(soa.hi(2) + i);
    __m128d m = _mm_and_pd(_mm_cmple_pd(lox, hix), _mm_cmple_pd(loy, hiy));
    m = _mm_and_pd(m, _mm_cmple_pd(loz, hiz));
    m = _mm_and_pd(m, _mm_cmple_pd(lox, qhx));
    m = _mm_and_pd(m, _mm_cmpge_pd(hix, qlx));
    m = _mm_and_pd(m, _mm_cmple_pd(loy, qhy));
    m = _mm_and_pd(m, _mm_cmpge_pd(hiy, qly));
    m = _mm_and_pd(m, _mm_cmple_pd(loz, qhz));
    m = _mm_and_pd(m, _mm_cmpge_pd(hiz, qlz));
    const int mask = _mm_movemask_pd(m);
    hits[i + 0] = static_cast<uint8_t>(mask & 1);
    hits[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
  }
#else
  IntersectsSoaScalar(soa, query, hits);
#endif
}

void SphereGateSoaScalar(const SoaBoxes& soa, const Vec3& center,
                         double radius, uint8_t* hits) {
  const double* lox = soa.lo(0);
  const double* loy = soa.lo(1);
  const double* loz = soa.lo(2);
  const double* hix = soa.hi(0);
  const double* hiy = soa.hi(1);
  const double* hiz = soa.hi(2);
  const double r2 = radius * radius;
  for (size_t i = 0; i < soa.padded_count(); ++i) {
    const int nonempty =
        (lox[i] <= hix[i]) & (loy[i] <= hiy[i]) & (loz[i] <= hiz[i]);
    if (!nonempty) {
      hits[i] = 0;
      continue;
    }
    // Exactly Aabb::DistanceSquaredTo: per-axis gap = max(max(lo - p,
    // p - hi), 0), accumulated x then y then z. No FMA (see file comment).
    const double gx =
        std::max(std::max(lox[i] - center.x, center.x - hix[i]), 0.0);
    const double gy =
        std::max(std::max(loy[i] - center.y, center.y - hiy[i]), 0.0);
    const double gz =
        std::max(std::max(loz[i] - center.z, center.z - hiz[i]), 0.0);
    const double d2 = gx * gx + gy * gy + gz * gz;
    hits[i] = static_cast<uint8_t>(d2 <= r2);
  }
}

void SphereGateSoa(const SoaBoxes& soa, const Vec3& center, double radius,
                   uint8_t* hits) {
#if defined(__AVX2__)
  const __m256d px = _mm256_set1_pd(center.x);
  const __m256d py = _mm256_set1_pd(center.y);
  const __m256d pz = _mm256_set1_pd(center.z);
  const __m256d r2 = _mm256_set1_pd(radius * radius);
  const __m256d zero = _mm256_setzero_pd();
  for (size_t i = 0; i < soa.padded_count(); i += 4) {
    const __m256d lox = _mm256_loadu_pd(soa.lo(0) + i);
    const __m256d loy = _mm256_loadu_pd(soa.lo(1) + i);
    const __m256d loz = _mm256_loadu_pd(soa.lo(2) + i);
    const __m256d hix = _mm256_loadu_pd(soa.hi(0) + i);
    const __m256d hiy = _mm256_loadu_pd(soa.hi(1) + i);
    const __m256d hiz = _mm256_loadu_pd(soa.hi(2) + i);
    const __m256d gx = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(lox, px), _mm256_sub_pd(px, hix)), zero);
    const __m256d gy = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(loy, py), _mm256_sub_pd(py, hiy)), zero);
    const __m256d gz = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(loz, pz), _mm256_sub_pd(pz, hiz)), zero);
    const __m256d d2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(gx, gx), _mm256_mul_pd(gy, gy)),
        _mm256_mul_pd(gz, gz));
    __m256d m = _mm256_and_pd(_mm256_cmp_pd(lox, hix, _CMP_LE_OQ),
                              _mm256_cmp_pd(loy, hiy, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(loz, hiz, _CMP_LE_OQ));
    m = _mm256_and_pd(m, _mm256_cmp_pd(d2, r2, _CMP_LE_OQ));
    const int mask = _mm256_movemask_pd(m);
    hits[i + 0] = static_cast<uint8_t>(mask & 1);
    hits[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
    hits[i + 2] = static_cast<uint8_t>((mask >> 2) & 1);
    hits[i + 3] = static_cast<uint8_t>((mask >> 3) & 1);
  }
#elif defined(__SSE2__) || defined(_M_X64)
  const __m128d px = _mm_set1_pd(center.x);
  const __m128d py = _mm_set1_pd(center.y);
  const __m128d pz = _mm_set1_pd(center.z);
  const __m128d r2 = _mm_set1_pd(radius * radius);
  const __m128d zero = _mm_setzero_pd();
  for (size_t i = 0; i < soa.padded_count(); i += 2) {
    const __m128d lox = _mm_loadu_pd(soa.lo(0) + i);
    const __m128d loy = _mm_loadu_pd(soa.lo(1) + i);
    const __m128d loz = _mm_loadu_pd(soa.lo(2) + i);
    const __m128d hix = _mm_loadu_pd(soa.hi(0) + i);
    const __m128d hiy = _mm_loadu_pd(soa.hi(1) + i);
    const __m128d hiz = _mm_loadu_pd(soa.hi(2) + i);
    const __m128d gx = _mm_max_pd(
        _mm_max_pd(_mm_sub_pd(lox, px), _mm_sub_pd(px, hix)), zero);
    const __m128d gy = _mm_max_pd(
        _mm_max_pd(_mm_sub_pd(loy, py), _mm_sub_pd(py, hiy)), zero);
    const __m128d gz = _mm_max_pd(
        _mm_max_pd(_mm_sub_pd(loz, pz), _mm_sub_pd(pz, hiz)), zero);
    const __m128d d2 =
        _mm_add_pd(_mm_add_pd(_mm_mul_pd(gx, gx), _mm_mul_pd(gy, gy)),
                   _mm_mul_pd(gz, gz));
    __m128d m = _mm_and_pd(_mm_cmple_pd(lox, hix), _mm_cmple_pd(loy, hiy));
    m = _mm_and_pd(m, _mm_cmple_pd(loz, hiz));
    m = _mm_and_pd(m, _mm_cmple_pd(d2, r2));
    const int mask = _mm_movemask_pd(m);
    hits[i + 0] = static_cast<uint8_t>(mask & 1);
    hits[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
  }
#else
  SphereGateSoaScalar(soa, center, radius, hits);
#endif
}

namespace {

// Raw (unwidened) cell of `x` on one grid axis: floor((x - origin) * inv)
// clamped to [0, kQuantMaxCell]. The !(t > 0) form sends NaN (degenerate
// 0 * inf products) and negatives to cell 0. Weakly monotone in x: sub and
// mul are correctly rounded and inv >= 0, so the FP result is monotone, and
// clamp + floor preserve that — the property the conservativeness argument
// in box_kernels.h rests on.
inline int RawCell(double origin, double inv, double x) {
  const double t = (x - origin) * inv;
  if (!(t > 0.0)) return 0;
  if (t >= static_cast<double>(kQuantMaxCell)) {
    return static_cast<int>(kQuantMaxCell);
  }
  return static_cast<int>(t);
}

}  // namespace

QuantGrid MakeQuantGrid(const Aabb& node_box) {
  QuantGrid grid;
  grid.never = node_box.IsEmpty();
  for (int axis = 0; axis < 3; ++axis) {
    grid.origin[axis] = node_box.lo()[axis];
    const double extent = node_box.hi()[axis] - node_box.lo()[axis];
    // Degenerate (zero-width) axes and non-finite extents quantize every
    // coordinate into cell 0 via inv = 0; with the one-cell widening below,
    // every range on such an axis becomes [0, 1] and always overlaps —
    // conservative, never wrong. Denormal extents may overflow inv to +inf,
    // which RawCell's clamp handles (cell 0 at the origin, top cell above).
    grid.inv[axis] =
        extent > 0.0 ? static_cast<double>(kQuantMaxCell) / extent : 0.0;
  }
  return grid;
}

uint16_t QuantizeDown(const QuantGrid& grid, int axis, double x) {
  const int cell = RawCell(grid.origin[axis], grid.inv[axis], x) - 1;
  return static_cast<uint16_t>(cell < 0 ? 0 : cell);
}

uint16_t QuantizeUp(const QuantGrid& grid, int axis, double x) {
  const int cell = RawCell(grid.origin[axis], grid.inv[axis], x) + 1;
  return static_cast<uint16_t>(
      cell > static_cast<int>(kQuantMaxCell) ? kQuantMaxCell : cell);
}

QuantizedQueryBox QuantizeQuery(const Aabb& node_box, const Aabb& query) {
  QuantizedQueryBox q;
  const QuantGrid grid = MakeQuantGrid(node_box);
  q.never = grid.never || query.IsEmpty();
  if (q.never) return q;  // lo/hi stay 0: deterministic, unused
  for (int axis = 0; axis < 3; ++axis) {
    q.lo[axis] = QuantizeDown(grid, axis, query.lo()[axis]);
    q.hi[axis] = QuantizeUp(grid, axis, query.hi()[axis]);
  }
  return q;
}

void QuantizedSoa::Assign(const char* slots, size_t stride, size_t count) {
  count_ = count;
  padded_ = (count + 15) & ~size_t{15};
  lanes_.resize(6 * padded_);
  uint16_t* lanes[6];
  for (int lane = 0; lane < 6; ++lane) {
    lanes[lane] = lanes_.data() + lane * padded_;
  }
  for (size_t i = 0; i < count; ++i) {
    uint16_t v[6];  // lo.x lo.y lo.z hi.x hi.y hi.z
    std::memcpy(v, slots + i * stride, sizeof(v));
    for (int lane = 0; lane < 6; ++lane) lanes[lane][i] = v[lane];
  }
  for (size_t i = count; i < padded_; ++i) {
    // Inverted sentinel ranges; the kernels zero the padding bytes anyway,
    // this just keeps the lanes deterministic.
    lanes[0][i] = lanes[1][i] = lanes[2][i] = 0xFFFF;
    lanes[3][i] = lanes[4][i] = lanes[5][i] = 0;
  }
}

void IntersectsQuantizedSoaScalar(const QuantizedSoa& soa,
                                  const QuantizedQueryBox& query,
                                  uint8_t* hits) {
  const size_t padded = soa.padded_count();
  if (padded == 0) return;  // empty node: no hit bytes to write (hits may
                            // be null — memset requires a valid pointer)
  if (query.never) {
    std::memset(hits, 0, padded);
    return;
  }
  const uint16_t* lox = soa.lo(0);
  const uint16_t* loy = soa.lo(1);
  const uint16_t* loz = soa.lo(2);
  const uint16_t* hix = soa.hi(0);
  const uint16_t* hiy = soa.hi(1);
  const uint16_t* hiz = soa.hi(2);
  for (size_t i = 0; i < soa.count(); ++i) {
    const int hit = (lox[i] <= query.hi[0]) & (hix[i] >= query.lo[0]) &
                    (loy[i] <= query.hi[1]) & (hiy[i] >= query.lo[1]) &
                    (loz[i] <= query.hi[2]) & (hiz[i] >= query.lo[2]);
    hits[i] = static_cast<uint8_t>(hit);
  }
  std::memset(hits + soa.count(), 0, padded - soa.count());
}

void IntersectsQuantizedSoa(const QuantizedSoa& soa,
                            const QuantizedQueryBox& query, uint8_t* hits) {
#if defined(__AVX2__) || defined(__SSE2__) || defined(_M_X64)
  const size_t padded = soa.padded_count();
  if (padded == 0) return;  // see the scalar variant
  if (query.never) {
    std::memset(hits, 0, padded);
    return;
  }
#endif
#if defined(__AVX2__)
  // SSE/AVX have no unsigned 16-bit compare; XOR with 0x8000 maps the
  // unsigned order onto the signed one, then a child fails iff
  // lo > q.hi or q.lo > hi on any axis.
  const __m256i bias = _mm256_set1_epi16(static_cast<int16_t>(0x8000));
  const __m256i zero = _mm256_setzero_si256();
  __m256i qhi[3], qlo[3];
  for (int a = 0; a < 3; ++a) {
    qhi[a] = _mm256_set1_epi16(static_cast<int16_t>(query.hi[a] ^ 0x8000));
    qlo[a] = _mm256_set1_epi16(static_cast<int16_t>(query.lo[a] ^ 0x8000));
  }
  for (size_t i = 0; i < padded; i += 16) {
    __m256i fail = zero;
    for (int a = 0; a < 3; ++a) {
      const __m256i lo = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(soa.lo(a) + i)),
          bias);
      const __m256i hi = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(soa.hi(a) + i)),
          bias);
      fail = _mm256_or_si256(fail, _mm256_cmpgt_epi16(lo, qhi[a]));
      fail = _mm256_or_si256(fail, _mm256_cmpgt_epi16(qlo[a], hi));
    }
    // Two movemask bits per u16 lane; bit 2k is lane k's low byte.
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi16(fail, zero));
    for (int k = 0; k < 16; ++k) {
      hits[i + k] = static_cast<uint8_t>((mask >> (2 * k)) & 1);
    }
  }
  std::memset(hits + soa.count(), 0, padded - soa.count());
#elif defined(__SSE2__) || defined(_M_X64)
  const __m128i bias = _mm_set1_epi16(static_cast<int16_t>(0x8000));
  const __m128i zero = _mm_setzero_si128();
  __m128i qhi[3], qlo[3];
  for (int a = 0; a < 3; ++a) {
    qhi[a] = _mm_set1_epi16(static_cast<int16_t>(query.hi[a] ^ 0x8000));
    qlo[a] = _mm_set1_epi16(static_cast<int16_t>(query.lo[a] ^ 0x8000));
  }
  for (size_t i = 0; i < padded; i += 8) {
    __m128i fail = zero;
    for (int a = 0; a < 3; ++a) {
      const __m128i lo = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(soa.lo(a) + i)),
          bias);
      const __m128i hi = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(soa.hi(a) + i)),
          bias);
      fail = _mm_or_si128(fail, _mm_cmpgt_epi16(lo, qhi[a]));
      fail = _mm_or_si128(fail, _mm_cmpgt_epi16(qlo[a], hi));
    }
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi16(fail, zero));
    for (int k = 0; k < 8; ++k) {
      hits[i + k] = static_cast<uint8_t>((mask >> (2 * k)) & 1);
    }
  }
  std::memset(hits + soa.count(), 0, padded - soa.count());
#else
  IntersectsQuantizedSoaScalar(soa, query, hits);
#endif
}

namespace {

// The read-side dequantization corners, formula-identical to
// CompressedNodeView::ChildBoxAt (rtree/node.h): the outward-widened box
// those corners span is guaranteed to contain the child's exact MBR, so a
// cell certified here certifies the exact MBR too. OuterLo is weakly
// monotone in the cell (integer-by-double multiply and the add are
// correctly rounded, cell_width >= 0); OuterHi is weakly monotone on the
// linear region c <= kQuantMaxCell - 3 for the same reason, and the
// threshold search below treats the node_hi clamp at the top separately
// rather than assuming monotonicity across that seam.
inline double OuterLo(double origin, double cell_width, uint32_t c) {
  return c <= 2 ? origin : origin + static_cast<int>(c - 2) * cell_width;
}

inline double OuterHi(double origin, double node_hi, double cell_width,
                      uint32_t c) {
  return c + 2 >= kQuantMaxCell
             ? node_hi
             : origin + static_cast<int>(c + 2) * cell_width;
}

}  // namespace

QuantizedCoverBox QuantizeCoverQuery(const Aabb& node_box, const Aabb& query) {
  QuantizedCoverBox cover;
  cover.never = node_box.IsEmpty() || query.IsEmpty();
  if (cover.never) return cover;
  for (int axis = 0; axis < 3; ++axis) {
    const double origin = node_box.lo()[axis];
    const double node_hi = node_box.hi()[axis];
    const double cell =
        (node_hi - origin) / static_cast<double>(kQuantMaxCell);
    const double qlo = query.lo()[axis];
    const double qhi = query.hi()[axis];
    if (!std::isfinite(cell) || !(cell >= 0.0)) {
      cover.never = true;  // non-finite node box: nothing is certifiable
      return cover;
    }

    // Smallest cell whose dequantized lo corner clears query.lo. OuterLo is
    // weakly monotone over the whole range, so a binary search finds the
    // threshold; infeasible (or NaN query corner — every compare false)
    // means no cell qualifies on this axis.
    if (!(OuterLo(origin, cell, kQuantMaxCell) >= qlo)) {
      cover.never = true;
      return cover;
    }
    uint32_t lo = 0, hi = kQuantMaxCell;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (OuterLo(origin, cell, mid) >= qlo) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cover.lo[axis] = static_cast<uint16_t>(lo);

    // Largest cell whose dequantized hi corner stays under query.hi. Search
    // the linear region [0, kQuantMaxCell - 3] (monotone), then admit the
    // clamped top cells only if node_hi itself qualifies AND the whole
    // linear region does — cells between the two regions must not sneak
    // through uncertified.
    constexpr uint32_t kLinearTop = kQuantMaxCell - 3;
    if (!(OuterHi(origin, node_hi, cell, 0) <= qhi)) {
      cover.never = true;
      return cover;
    }
    lo = 0;
    hi = kLinearTop;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo + 1) / 2;
      if (OuterHi(origin, node_hi, cell, mid) <= qhi) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    cover.hi[axis] = (lo == kLinearTop && node_hi <= qhi)
                         ? static_cast<uint16_t>(kQuantMaxCell)
                         : static_cast<uint16_t>(lo);
  }
  return cover;
}

void ContainsQuantizedSoaScalar(const QuantizedSoa& soa,
                                const QuantizedCoverBox& cover,
                                uint8_t* covered) {
  const size_t padded = soa.padded_count();
  if (padded == 0) return;  // empty node: no bytes to write (see the
                            // intersection gate)
  if (cover.never) {
    std::memset(covered, 0, padded);
    return;
  }
  const uint16_t* lox = soa.lo(0);
  const uint16_t* loy = soa.lo(1);
  const uint16_t* loz = soa.lo(2);
  const uint16_t* hix = soa.hi(0);
  const uint16_t* hiy = soa.hi(1);
  const uint16_t* hiz = soa.hi(2);
  for (size_t i = 0; i < soa.count(); ++i) {
    const int cov = (lox[i] >= cover.lo[0]) & (hix[i] <= cover.hi[0]) &
                    (loy[i] >= cover.lo[1]) & (hiy[i] <= cover.hi[1]) &
                    (loz[i] >= cover.lo[2]) & (hiz[i] <= cover.hi[2]);
    covered[i] = static_cast<uint8_t>(cov);
  }
  std::memset(covered + soa.count(), 0, padded - soa.count());
}

void ContainsQuantizedSoa(const QuantizedSoa& soa,
                          const QuantizedCoverBox& cover, uint8_t* covered) {
#if defined(__AVX2__) || defined(__SSE2__) || defined(_M_X64)
  const size_t padded = soa.padded_count();
  if (padded == 0) return;  // see the scalar variant
  if (cover.never) {
    std::memset(covered, 0, padded);
    return;
  }
#endif
#if defined(__AVX2__)
  // Unsigned compares via the XOR-0x8000 bias, like the intersection gate:
  // a child fails certification iff lo < cover.lo or hi > cover.hi on any
  // axis.
  const __m256i bias = _mm256_set1_epi16(static_cast<int16_t>(0x8000));
  const __m256i zero = _mm256_setzero_si256();
  __m256i clo[3], chi[3];
  for (int a = 0; a < 3; ++a) {
    clo[a] = _mm256_set1_epi16(static_cast<int16_t>(cover.lo[a] ^ 0x8000));
    chi[a] = _mm256_set1_epi16(static_cast<int16_t>(cover.hi[a] ^ 0x8000));
  }
  for (size_t i = 0; i < padded; i += 16) {
    __m256i fail = zero;
    for (int a = 0; a < 3; ++a) {
      const __m256i lo = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(soa.lo(a) + i)),
          bias);
      const __m256i hi = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(soa.hi(a) + i)),
          bias);
      fail = _mm256_or_si256(fail, _mm256_cmpgt_epi16(clo[a], lo));
      fail = _mm256_or_si256(fail, _mm256_cmpgt_epi16(hi, chi[a]));
    }
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi16(fail, zero));
    for (int k = 0; k < 16; ++k) {
      covered[i + k] = static_cast<uint8_t>((mask >> (2 * k)) & 1);
    }
  }
  std::memset(covered + soa.count(), 0, padded - soa.count());
#elif defined(__SSE2__) || defined(_M_X64)
  const __m128i bias = _mm_set1_epi16(static_cast<int16_t>(0x8000));
  const __m128i zero = _mm_setzero_si128();
  __m128i clo[3], chi[3];
  for (int a = 0; a < 3; ++a) {
    clo[a] = _mm_set1_epi16(static_cast<int16_t>(cover.lo[a] ^ 0x8000));
    chi[a] = _mm_set1_epi16(static_cast<int16_t>(cover.hi[a] ^ 0x8000));
  }
  for (size_t i = 0; i < padded; i += 8) {
    __m128i fail = zero;
    for (int a = 0; a < 3; ++a) {
      const __m128i lo = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(soa.lo(a) + i)),
          bias);
      const __m128i hi = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(soa.hi(a) + i)),
          bias);
      fail = _mm_or_si128(fail, _mm_cmpgt_epi16(clo[a], lo));
      fail = _mm_or_si128(fail, _mm_cmpgt_epi16(hi, chi[a]));
    }
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi16(fail, zero));
    for (int k = 0; k < 8; ++k) {
      covered[i + k] = static_cast<uint8_t>((mask >> (2 * k)) & 1);
    }
  }
  std::memset(covered + soa.count(), 0, padded - soa.count());
#else
  ContainsQuantizedSoaScalar(soa, cover, covered);
#endif
}

}  // namespace flat
