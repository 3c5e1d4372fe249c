#ifndef FLAT_CORE_SORT_IDS_H_
#define FLAT_CORE_SORT_IDS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

namespace flat {

/// Sorts `ids` ascending — exactly the sequence std::sort yields — in time
/// linear in ids->size(). This is the sharded store's id sort: the gather
/// merges its shards' unordered sub-results into the store's canonical
/// ascending order with it.
///
/// An LSD radix sort over 11-bit digits. One OR/AND pass over the keys finds
/// the bits in which they differ, and every digit in which all keys agree is
/// skipped: the < 2^22 ids of a 2M-element store sort in two counting passes,
/// full 64-bit keys in six. Below kSmallIds keys the digit histograms' fixed
/// cost outweighs the saving, so short inputs (a structural-neighborhood
/// query's few dozen ids) take a comparison sort instead. Measured on a
/// 4-core x86-64 host (Release, -O3) for 1 500 shuffled neuron ids, about a
/// large-range query's median result: 10-16 µs, against 75-90 µs for
/// std::sort.
///
/// The ping-pong buffer is thread-local and reused across calls; it is
/// reallocated only when an input outgrows it, and then to exactly that
/// input's size.
inline void SortIds(std::vector<uint64_t>* ids) {
  constexpr size_t kSmallIds = 64;
  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  const size_t n = ids->size();
  if (n < kSmallIds) {
    std::sort(ids->begin(), ids->end());
    return;
  }
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (const uint64_t id : *ids) {
    any |= id;
    all &= id;
  }
  const uint64_t varying = any ^ all;
  if (varying == 0) return;  // all keys equal: already sorted

  thread_local std::unique_ptr<uint64_t[]> buffer;
  thread_local size_t buffer_size = 0;
  if (buffer_size < n) {
    buffer = std::make_unique_for_overwrite<uint64_t[]>(n);
    buffer_size = n;
  }
  uint64_t* src = ids->data();
  uint64_t* dst = buffer.get();
  size_t offsets[kDigitMask + 1];
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((varying >> shift) & kDigitMask) == 0) continue;
    std::fill(std::begin(offsets), std::end(offsets), size_t{0});
    for (size_t i = 0; i < n; ++i) ++offsets[(src[i] >> shift) & kDigitMask];
    size_t sum = 0;
    for (size_t& offset : offsets) sum += std::exchange(offset, sum);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t id = src[i];
      dst[offsets[(id >> shift) & kDigitMask]++] = id;
    }
    std::swap(src, dst);
  }
  // An odd number of passes leaves the sorted keys in the buffer.
  if (src != ids->data()) std::memcpy(ids->data(), src, n * sizeof(uint64_t));
}

}  // namespace flat

#endif  // FLAT_CORE_SORT_IDS_H_
