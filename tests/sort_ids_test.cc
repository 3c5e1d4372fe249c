// SortIds, the sharded store's id sort, must yield exactly std::sort's
// sequence for every input size (the small-input comparison branch and the
// radix passes alike) and every key pattern: dense small ids, full 64-bit
// keys, keys that differ only in one digit, keys >= 2^63, all-equal keys,
// duplicates, and already sorted or reversed input.
#include "core/sort_ids.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace flat {
namespace {

using Pattern = std::function<std::vector<uint64_t>(size_t, std::mt19937_64*)>;

struct NamedPattern {
  std::string name;
  Pattern make;
};

std::vector<NamedPattern> Patterns() {
  constexpr uint64_t kTop = uint64_t{1} << 63;
  return {
      {"dense_small",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (size_t i = 0; i < n; ++i) v[i] = i;
         std::shuffle(v.begin(), v.end(), *rng);
         return v;
       }},
      {"neuron_ids_below_2M",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = (*rng)() % 2000000;
         return v;
       }},
      {"full_64_bit",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = (*rng)();
         return v;
       }},
      {"top_byte_only",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = ((*rng)() << 56) | 0x00123456789abcdeull;
         return v;
       }},
      {"at_or_above_2_63",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = kTop | ((*rng)() >> 20);
         return v;
       }},
      {"straddling_2_63",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = kTop - 1000 + (*rng)() % 2000;
         return v;
       }},
      {"all_equal",
       [](size_t n, std::mt19937_64*) {
         return std::vector<uint64_t>(n, 0xdeadbeefcafef00dull);
       }},
      {"all_max",
       [](size_t n, std::mt19937_64*) {
         return std::vector<uint64_t>(n, std::numeric_limits<uint64_t>::max());
       }},
      {"duplicates",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = ((*rng)() % 7) << 40 | (*rng)() % 3;
         return v;
       }},
      {"sorted",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = (*rng)();
         std::sort(v.begin(), v.end());
         return v;
       }},
      {"reversed",
       [](size_t n, std::mt19937_64* rng) {
         std::vector<uint64_t> v(n);
         for (uint64_t& x : v) x = (*rng)() >> 7;
         std::sort(v.begin(), v.end(), std::greater<uint64_t>());
         return v;
       }},
  };
}

// 0, 1, 2, each side of the small-input cutoff (64), a large-range query's
// typical result, and a large batch.
constexpr size_t kSizes[] = {0, 1, 2, 63, 64, 65, 1500, 100000};

TEST(SortIdsTest, EqualsStdSortForEverySizeAndPattern) {
  std::mt19937_64 rng(2024);
  for (const NamedPattern& pattern : Patterns()) {
    for (const size_t n : kSizes) {
      SCOPED_TRACE(pattern.name + " n=" + std::to_string(n));
      std::vector<uint64_t> ids = pattern.make(n, &rng);
      std::vector<uint64_t> expected = ids;
      std::sort(expected.begin(), expected.end());
      SortIds(&ids);
      ASSERT_EQ(ids, expected);
    }
  }
}

// The thread-local ping-pong buffer carries nothing from one call into the
// next: a small input after a large one, and a large one after that, still
// sort exactly.
TEST(SortIdsTest, ReusedBufferCarriesNoStateBetweenCalls) {
  std::mt19937_64 rng(7);
  for (const size_t n : {size_t{100000}, size_t{65}, size_t{1500},
                         size_t{100000}, size_t{200}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<uint64_t> ids(n);
    for (uint64_t& x : ids) x = rng();
    std::vector<uint64_t> expected = ids;
    std::sort(expected.begin(), expected.end());
    SortIds(&ids);
    ASSERT_EQ(ids, expected);
  }
}

}  // namespace
}  // namespace flat
