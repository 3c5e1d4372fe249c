// The QueryEngine contract: parallel batch execution returns per-query
// results bit-identical to the serial FlatIndex calls, and merged IoStats
// totals that exactly equal serial execution's, at every thread count and in
// both CrawlGuard modes.
#include "engine/query_engine.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_index.h"
#include "delta/delta_log.h"
#include "delta/overlay_view.h"
#include "geometry/rng.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/striped_buffer_pool.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::RandomEntries;
using testing::RandomQueries;
using testing::Sorted;

std::vector<uint64_t> CategoryCounts(const IoStats& stats) {
  std::vector<uint64_t> counts(kNumPageCategories);
  for (int c = 0; c < kNumPageCategories; ++c) {
    counts[c] = stats.ReadsIn(static_cast<PageCategory>(c));
  }
  return counts;
}

// Every IoStats counter: the per-category reads plus the prefetch,
// overlay, retry, error and shed tallies.
std::vector<uint64_t> AllCounters(const IoStats& stats) {
  std::vector<uint64_t> counts = CategoryCounts(stats);
  counts.insert(counts.end(),
                {stats.PrefetchIssued(), stats.PrefetchHits(),
                 stats.PrefetchWasted(), stats.OverlayProbes(),
                 stats.IoRetries(), stats.IoErrors(), stats.QueriesShed()});
  return counts;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = RandomEntries(20000, /*seed=*/99);
    index_ = FlatIndex::Build(&file_, entries_);
  }

  // Serial reference with a fresh (cold) BufferPool per query.
  QueryResult RunSerial(const Query& q) const {
    QueryResult r;
    BufferPool pool(&file_, &r.io);
    DispatchQuery(IndexedQuery{&index_, q}, &pool, &r);
    return r;
  }

  void ExpectMatchesSerial(const std::vector<Query>& batch, size_t threads,
                           QueryEngine::CacheMode mode =
                               QueryEngine::CacheMode::kColdPerQuery) {
    std::vector<QueryResult> serial;
    serial.reserve(batch.size());
    IoStats serial_io;
    for (const Query& q : batch) {
      serial.push_back(RunSerial(q));
      serial_io += serial.back().io;
    }

    QueryEngine::Options options;
    options.threads = threads;
    options.cache_mode = mode;
    QueryEngine engine(&index_, options);
    BatchStats stats;
    std::vector<QueryResult> parallel = engine.Run(batch, &stats);

    ASSERT_EQ(parallel.size(), batch.size());
    EXPECT_EQ(stats.threads, threads);
    uint64_t elements = 0;
    IoStats merged;
    for (size_t i = 0; i < batch.size(); ++i) {
      // Bit-identical ids, in the same traversal order — the parallel
      // engine runs the very same serial code path per query.
      EXPECT_EQ(parallel[i].ids, serial[i].ids) << "query " << i;
      elements += parallel[i].ids.size();
      merged += parallel[i].io;
      if (mode == QueryEngine::CacheMode::kColdPerQuery) {
        EXPECT_EQ(CategoryCounts(parallel[i].io), CategoryCounts(serial[i].io))
            << "query " << i;
      }
    }
    EXPECT_EQ(stats.result_elements, elements);
    // The batch aggregate is exactly the sum of the per-query breakdowns.
    EXPECT_EQ(CategoryCounts(stats.io), CategoryCounts(merged));
    if (mode == QueryEngine::CacheMode::kColdPerQuery) {
      EXPECT_EQ(CategoryCounts(stats.io), CategoryCounts(serial_io));
    }
  }

  PageFile file_;
  std::vector<RTreeEntry> entries_;
  FlatIndex index_;
};

TEST_F(QueryEngineTest, RangeBatchMatchesSerialAcrossThreadCounts) {
  std::vector<Query> batch;
  for (const Aabb& box : RandomQueries(64, /*seed=*/5)) {
    batch.push_back(Query::Range(box));
  }
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ExpectMatchesSerial(batch, threads);
  }
}

TEST_F(QueryEngineTest, BothCrawlGuardModes) {
  for (FlatIndex::CrawlGuard guard :
       {FlatIndex::CrawlGuard::kPartitionMbr,
        FlatIndex::CrawlGuard::kPageMbr}) {
    std::vector<Query> batch;
    for (const Aabb& box : RandomQueries(48, /*seed=*/11)) {
      batch.push_back(Query::Range(box, guard));
    }
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ExpectMatchesSerial(batch, threads);
    }
  }
}

TEST_F(QueryEngineTest, RangeResultsAreCorrectNotJustConsistent) {
  std::vector<Aabb> boxes = RandomQueries(32, /*seed=*/17);
  std::vector<Query> batch;
  for (const Aabb& box : boxes) batch.push_back(Query::Range(box));

  QueryEngine engine(&index_, {.threads = 4});
  std::vector<QueryResult> results = engine.Run(batch);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(Sorted(results[i].ids), BruteForce(entries_, boxes[i]))
        << "query " << i;
  }
}

TEST_F(QueryEngineTest, KnnAndSphereBatches) {
  Rng rng(23);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<Query> batch;
  for (int i = 0; i < 30; ++i) {
    const Vec3 center = rng.PointIn(universe);
    if (i % 2 == 0) {
      batch.push_back(Query::Knn(center, 1 + static_cast<size_t>(i)));
    } else {
      batch.push_back(Query::Sphere(center, rng.Uniform(0.5, 10.0)));
    }
  }
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ExpectMatchesSerial(batch, threads);
  }
}

TEST_F(QueryEngineTest, SharedStripedCacheSameResultsFewerReads) {
  std::vector<Query> batch;
  for (const Aabb& box : RandomQueries(64, /*seed=*/31)) {
    batch.push_back(Query::Range(box));
  }
  ExpectMatchesSerial(batch, /*threads=*/8,
                      QueryEngine::CacheMode::kSharedStriped);

  IoStats cold_io, shared_io;
  {
    QueryEngine engine(&index_, {.threads = 4});
    BatchStats stats;
    engine.Run(batch, &stats);
    cold_io = stats.io;
  }
  {
    QueryEngine engine(
        &index_,
        {.threads = 4, .cache_mode = QueryEngine::CacheMode::kSharedStriped});
    BatchStats stats;
    engine.Run(batch, &stats);
    shared_io = stats.io;
  }
  // Sharing the cache across the batch can only reduce page reads.
  EXPECT_LE(shared_io.TotalReads(), cold_io.TotalReads());
  EXPECT_GT(shared_io.TotalReads(), 0u);
}

TEST_F(QueryEngineTest, RandomizedStress) {
  // Fixed-seed stress mix: many skewed queries (some huge, some empty) so
  // the work-stealing path actually runs.
  Rng rng(4242);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<Query> batch;
  for (int i = 0; i < 400; ++i) {
    const Vec3 center = rng.PointIn(universe);
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.5) {
      const double side = rng.Uniform(0.1, 40.0);
      batch.push_back(Query::Range(Aabb::FromCenterHalfExtents(
          center, Vec3(side / 2, side / 2, side / 2))));
    } else if (roll < 0.7) {
      batch.push_back(Query::Sphere(center, rng.Uniform(0.1, 15.0)));
    } else if (roll < 0.9) {
      batch.push_back(
          Query::Knn(center, static_cast<size_t>(rng.UniformInt(1, 50))));
    } else {
      // Far outside the universe: empty result.
      batch.push_back(Query::Range(Aabb::FromCenterHalfExtents(
          center + Vec3(1000, 1000, 1000), Vec3(1, 1, 1))));
    }
  }
  for (size_t threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    ExpectMatchesSerial(batch, threads);
  }
}

TEST_F(QueryEngineTest, EngineIsReusableAcrossBatches) {
  QueryEngine engine(&index_, {.threads = 4});
  for (uint64_t round = 0; round < 3; ++round) {
    std::vector<Query> batch;
    for (const Aabb& box : RandomQueries(16, /*seed=*/100 + round)) {
      batch.push_back(Query::Range(box));
    }
    std::vector<QueryResult> results = engine.Run(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(results[i].ids, RunSerial(batch[i]).ids);
    }
  }
}

// kNN has no overlay merge: over a non-empty overlay it comes back typed
// kUnsupported with no reads, and the rest of the batch is unaffected.
TEST_F(QueryEngineTest, KnnOverOverlayIsUnsupported) {
  DeltaLog log;
  DeltaOp op;
  op.entry = RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), 1u << 30};
  log.Append(op);
  const std::shared_ptr<const OverlayView> overlay =
      OverlayView::Build(log, 0, log.size(), /*shard_bounds=*/{});
  ASSERT_NE(overlay, nullptr);

  const Aabb box(Vec3(0, 0, 0), Vec3(30, 30, 30));
  const Vec3 center(50, 50, 50);
  const size_t bucket = overlay->spill_bucket();
  QueryEngine engine(QueryEngine::Options{.threads = 2});
  BatchStats stats;
  const std::vector<QueryResult> results = engine.RunMulti(
      {IndexedQuery{&index_, Query::Knn(center, 5), overlay.get(), bucket},
       IndexedQuery{&index_, Query::Range(box), overlay.get(), bucket},
       IndexedQuery{&index_, Query::Knn(center, 5)}},
      &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, QueryStatus::kUnsupported);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[0].ids.empty());
  EXPECT_EQ(results[0].io.TotalReads(), 0u);

  std::vector<uint64_t> want = BruteForce(entries_, box);
  want.push_back(1u << 30);
  EXPECT_EQ(results[1].status, QueryStatus::kOk);
  EXPECT_EQ(Sorted(results[1].ids), Sorted(want));

  const QueryResult plain = RunSerial(Query::Knn(center, 5));
  EXPECT_EQ(results[2].status, QueryStatus::kOk);
  EXPECT_EQ(results[2].ids, plain.ids);
  EXPECT_EQ(CategoryCounts(results[2].io), CategoryCounts(plain.io));
  EXPECT_EQ(stats.queries_ok, 2u);
  EXPECT_EQ(stats.queries_failed, 1u);
}

// The caller is participant 0 and a batch runs on min(size, threads)
// participants. Whatever the batch size and thread count, every sub-query
// must come back exactly as a serial DispatchQuery returns it.
class EngineParticipantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = FlatIndex::Build(&file_a_, RandomEntries(8000, /*seed=*/71));
    b_ = FlatIndex::Build(&file_b_, RandomEntries(3000, /*seed=*/72));
  }

  // `n` sub-queries of every type over two indexes (two PageFiles, so a
  // participant switches pools) and an unbuilt one.
  std::vector<IndexedQuery> MixedBatch(size_t n) const {
    Rng rng(73);
    const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
    std::vector<IndexedQuery> batch;
    for (size_t i = 0; i < n; ++i) {
      const FlatIndex* index = i % 7 == 6 ? &unbuilt_ : i % 2 ? &a_ : &b_;
      const Vec3 center = rng.PointIn(universe);
      const double side = rng.Uniform(1.0, 20.0);
      const Aabb box = Aabb::FromCenterHalfExtents(
          center, Vec3(side / 2, side / 2, side / 2));
      Query query;
      switch (i % 5) {
        case 0: query = Query::Range(box); break;
        case 1: query = Query::RangeCount(box); break;
        case 2: query = Query::RangeSeedScan(box); break;
        case 3: query = Query::Knn(center, 1 + i % 20); break;
        default: query = Query::Sphere(center, side / 2); break;
      }
      batch.push_back(IndexedQuery{index, query});
    }
    return batch;
  }

  // Serial reference: cold mode gives each query a fresh BufferPool;
  // shared mode runs the batch in order through one StripedBufferPool per
  // PageFile, as a single participant would.
  static std::vector<QueryResult> RunSerial(
      const std::vector<IndexedQuery>& batch, QueryEngine::CacheMode mode) {
    std::unordered_map<const PageStore*, std::unique_ptr<StripedBufferPool>>
        shared;
    std::vector<QueryResult> results(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const PageStore* file = batch[i].index->file();
      QueryResult* r = &results[i];
      if (file == nullptr) {
        DispatchQuery(batch[i], nullptr, r);
      } else if (mode == QueryEngine::CacheMode::kColdPerQuery) {
        BufferPool pool(file, &r->io);
        DispatchQuery(batch[i], &pool, r);
      } else {
        std::unique_ptr<StripedBufferPool>& cache = shared[file];
        if (cache == nullptr) cache = std::make_unique<StripedBufferPool>(file);
        StripedBufferPool::Session session(cache.get(), &r->io);
        DispatchQuery(batch[i], &session, r);
      }
    }
    return results;
  }

  PageFile file_a_, file_b_;
  FlatIndex a_, b_, unbuilt_;
};

TEST_F(EngineParticipantTest, RunMultiMatchesSerialAtEveryParticipantCount) {
  for (QueryEngine::CacheMode mode : {QueryEngine::CacheMode::kColdPerQuery,
                                      QueryEngine::CacheMode::kSharedStriped}) {
    for (size_t threads = 1; threads <= 4; ++threads) {
      QueryEngine engine(
          QueryEngine::Options{.threads = threads, .cache_mode = mode});
      for (size_t size : {size_t{0}, size_t{1}, size_t{2}, threads,
                          threads + 1, size_t{256}}) {
        SCOPED_TRACE(::testing::Message()
                     << "mode " << static_cast<int>(mode) << " threads "
                     << threads << " batch " << size);
        const std::vector<IndexedQuery> batch = MixedBatch(size);
        const std::vector<QueryResult> serial = RunSerial(batch, mode);
        BatchStats stats;
        const std::vector<QueryResult> results = engine.RunMulti(batch, &stats);
        ASSERT_EQ(results.size(), size);
        EXPECT_EQ(stats.threads, threads);
        // A shared cache is filled in execution order, so per-query reads
        // are only deterministic when one participant runs the batch.
        const bool exact_io = mode == QueryEngine::CacheMode::kColdPerQuery ||
                              std::min(size, threads) <= 1;
        IoStats merged;
        for (size_t i = 0; i < size; ++i) {
          EXPECT_EQ(results[i].ids, serial[i].ids) << "query " << i;
          EXPECT_EQ(results[i].count, serial[i].count) << "query " << i;
          EXPECT_EQ(results[i].status, serial[i].status) << "query " << i;
          if (exact_io) {
            EXPECT_EQ(AllCounters(results[i].io), AllCounters(serial[i].io))
                << "query " << i;
          }
          merged += results[i].io;
        }
        EXPECT_EQ(AllCounters(stats.io), AllCounters(merged));
        EXPECT_EQ(stats.queries_ok, size);
      }
    }
  }
}

// Forwards to `inner` and runs `hook` before every page access, so a test
// can see which thread a query runs on, or stall it.
class HookedPageStore final : public PageStore {
 public:
  HookedPageStore(const PageStore* inner, std::function<void()> hook)
      : inner_(inner), hook_(std::move(hook)) {}

  const char* Data(PageId id) const override {
    hook_();
    return inner_->Data(id);
  }
  PageCategory category(PageId id) const override {
    return inner_->category(id);
  }
  uint32_t page_size() const override { return inner_->page_size(); }
  size_t page_count() const override { return inner_->page_count(); }
  size_t PageCountIn(PageCategory category) const override {
    return inner_->PageCountIn(category);
  }

 private:
  const PageStore* inner_;
  std::function<void()> hook_;
};

// A controlled scattered query whose failing sub-query runs on the caller
// (participant 0): its siblings on the workers are held at their first page
// read until the group is cancelled, then must stop kCancelled.
TEST_F(EngineParticipantTest, CallerFailureCancelsSiblingsOnWorkers) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> failing_left_caller{false};
  HookedPageStore failing_store(&file_a_, [&] {
    if (std::this_thread::get_id() != caller) failing_left_caller = true;
  });
  QueryGroup group;
  HookedPageStore sibling_store(&file_a_, [&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!group.cancelled() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const FlatIndex failing = FlatIndex::Attach(&failing_store, a_.descriptor());
  const FlatIndex sibling = FlatIndex::Attach(&sibling_store, a_.descriptor());

  QueryControl budget;
  budget.max_page_reads = 1;
  budget.group = &group;
  QueryControl member;
  member.group = &group;
  const Aabb box(Vec3(0, 0, 0), Vec3(60, 60, 60));
  std::vector<IndexedQuery> batch = {IndexedQuery{&failing, Query::Range(box)}};
  batch[0].query.control = &budget;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(IndexedQuery{&sibling, Query::Range(box)});
    batch.back().query.control = &member;
  }

  QueryEngine engine(QueryEngine::Options{.threads = 4});
  BatchStats stats;
  const std::vector<QueryResult> results = engine.RunMulti(batch, &stats);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(failing_left_caller.load());
  EXPECT_EQ(results[0].status, QueryStatus::kBudgetExceeded);
  EXPECT_EQ(group.status(), QueryStatus::kBudgetExceeded);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, QueryStatus::kCancelled) << "query " << i;
  }
  EXPECT_EQ(stats.queries_failed, 4u);
}

// API misuse (std::logic_error) raised on the caller is not absorbed into
// a status: it propagates out of RunMulti, and only after the workers have
// run their sub-queries to completion.
TEST_F(EngineParticipantTest, CallerLogicErrorPropagatesAfterWorkersFinish) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown_on_caller{false};
  HookedPageStore misuse_store(&file_a_, [&] {
    thrown_on_caller = std::this_thread::get_id() == caller;
    throw std::logic_error("misuse");
  });
  std::atomic<uint64_t> slow_reads{0};
  HookedPageStore slow_store(&file_a_, [&] {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    slow_reads.fetch_add(1, std::memory_order_relaxed);
  });
  const FlatIndex misuse = FlatIndex::Attach(&misuse_store, a_.descriptor());
  const FlatIndex slow = FlatIndex::Attach(&slow_store, a_.descriptor());

  std::vector<IndexedQuery> batch = {
      IndexedQuery{&misuse, Query::Range(Aabb(Vec3(0, 0, 0), Vec3(5, 5, 5)))}};
  for (const Aabb& box : RandomQueries(3, /*seed=*/74)) {
    batch.push_back(IndexedQuery{&slow, Query::Range(box)});
  }
  // Page accesses the three slow sub-queries make when run to completion.
  RunSerial({batch.begin() + 1, batch.end()},
            QueryEngine::CacheMode::kColdPerQuery);
  const uint64_t full_reads = slow_reads.exchange(0);
  ASSERT_GT(full_reads, 0u);

  QueryEngine engine(QueryEngine::Options{.threads = 4});
  EXPECT_THROW(engine.RunMulti(batch), std::logic_error);
  EXPECT_TRUE(thrown_on_caller.load());
  EXPECT_EQ(slow_reads.load(), full_reads);

  // The engine stays usable after the propagated error.
  const std::vector<QueryResult> results =
      engine.RunMulti({batch.begin() + 1, batch.end()});
  ASSERT_EQ(results.size(), 3u);
  for (const QueryResult& r : results) EXPECT_EQ(r.status, QueryStatus::kOk);
}

TEST(QueryEngineEdgeTest, EmptyBatch) {
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, testing::RandomEntries(100, 1));
  QueryEngine engine(&index, {.threads = 4});
  BatchStats stats;
  EXPECT_TRUE(engine.Run({}, &stats).empty());
  EXPECT_EQ(stats.result_elements, 0u);
  EXPECT_EQ(stats.io.TotalReads(), 0u);
}

TEST(QueryEngineEdgeTest, NeverBuiltIndex) {
  FlatIndex index;  // no PageFile attached
  QueryEngine engine(&index, {.threads = 2});
  std::vector<Query> batch = {
      Query::Range(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)))};
  std::vector<QueryResult> results = engine.Run(batch);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ids.empty());
}

TEST(QueryEngineEdgeTest, MoreThreadsThanQueries) {
  PageFile file;
  std::vector<RTreeEntry> entries = testing::RandomEntries(2000, 3);
  FlatIndex index = FlatIndex::Build(&file, entries);
  QueryEngine engine(&index, {.threads = 16});
  std::vector<Query> batch = {
      Query::Range(Aabb(Vec3(0, 0, 0), Vec3(50, 50, 50))),
      Query::Range(Aabb(Vec3(50, 50, 50), Vec3(100, 100, 100)))};
  std::vector<QueryResult> results = engine.Run(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(testing::Sorted(results[0].ids),
            testing::BruteForce(entries, batch[0].box));
  EXPECT_EQ(testing::Sorted(results[1].ids),
            testing::BruteForce(entries, batch[1].box));
}

}  // namespace
}  // namespace flat
