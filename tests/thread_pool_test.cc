#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/parallel_sort.h"
#include "rtree/pack.h"
#include "tests/test_util.h"

namespace flat {
namespace {

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threads(), 1u);
}

TEST(ThreadPoolTest, RunVisitsEveryParticipantOnce) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.threads(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t k = 1; k <= 4; ++k) {
    SCOPED_TRACE(k);
    std::vector<std::atomic<int>> visits(4);
    std::vector<std::thread::id> ran_on(4);
    pool.Run(k, [&](size_t participant) {
      ASSERT_LT(participant, k);
      ++visits[participant];
      ran_on[participant] = std::this_thread::get_id();
    });
    for (size_t p = 0; p < 4; ++p) EXPECT_EQ(visits[p].load(), p < k ? 1 : 0);
    // Participant 0 is the dispatching thread; the others are workers.
    EXPECT_EQ(ran_on[0], caller);
    for (size_t p = 1; p < k; ++p) EXPECT_NE(ran_on[p], caller);
  }
}

TEST(ThreadPoolTest, RunOfZeroIsANoopAndWideRunsAreCapped) {
  ThreadPool pool(3);
  pool.Run(0, [&](size_t) { FAIL(); });
  std::vector<std::atomic<int>> visits(3);
  pool.Run(10, [&](size_t participant) {
    ASSERT_LT(participant, 3u);
    ++visits[participant];
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

// A pool of one participant spawns no thread: every dispatch, whatever its
// width, runs on the calling thread.
TEST(ThreadPoolTest, PoolOfOneRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.Run(4, [&](size_t participant) {
    EXPECT_EQ(participant, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  std::vector<size_t> order;
  pool.ParallelFor(5, /*grain=*/2, [&](size_t worker, size_t index) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(index);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<uint32_t>> touched(kCount);
  pool.ParallelFor(kCount, /*grain=*/0, [&](size_t worker, size_t index) {
    ASSERT_LT(worker, pool.threads());
    ++touched[index];
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(touched[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForReusableAcrossDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, /*grain=*/7, [&](size_t, size_t index) {
      sum.fetch_add(index, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100u * 99u / 2);
  }
}

TEST(ThreadPoolTest, FreeParallelForWithNullPoolRunsSeriallyAsWorkerZero) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, 0, [&](size_t worker, size_t index) {
    EXPECT_EQ(worker, 0u);
    order.push_back(index);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForZeroCountIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, 0, [&](size_t, size_t) { FAIL(); });
  ParallelFor(nullptr, 0, 0, [&](size_t, size_t) { FAIL(); });
}

// A worker callback that throws must not reach std::terminate: the first
// exception is rethrown on the dispatching thread after the barrier.
TEST(ThreadPoolTest, WorkerExceptionRethrownOnDispatchingThread) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.Run(pool.threads(), [](size_t worker) {
        if (worker == 2) throw std::runtime_error("worker 2 failed");
      }),
      std::runtime_error);

  try {
    pool.Run(pool.threads(),
             [](size_t) { throw std::runtime_error("all workers fail"); });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "all workers fail");
  }
}

// Every worker finishes its callback before the rethrow (the barrier is
// intact), and the pool remains fully usable for later dispatches.
TEST(ThreadPoolTest, PoolRemainsUsableAfterWorkerException) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.Run(pool.threads(),
                        [&](size_t worker) {
                          ++completed;
                          if (worker == 0) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 3);

  for (int round = 0; round < 10; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, /*grain=*/7, [&](size_t, size_t index) {
      sum.fetch_add(index, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 100u * 99u / 2);
  }
}

// Participant 0 runs on the caller; when it throws at once, the rethrow
// still waits for the slow workers to return (the barrier holds).
TEST(ThreadPoolTest, CallerExceptionRethrownAfterWorkersReturn) {
  ThreadPool pool(4);
  for (size_t k = 2; k <= 4; ++k) {
    SCOPED_TRACE(k);
    std::atomic<size_t> completed{0};
    EXPECT_THROW(pool.Run(k,
                          [&](size_t participant) {
                            if (participant == 0) {
                              throw std::runtime_error("caller failed");
                            }
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(20));
                            ++completed;
                          }),
                 std::runtime_error);
    EXPECT_EQ(completed.load(), k - 1);
  }
}

// Aborts the process if no Tick() arrives within `limit`: a lost wakeup in
// the pool leaves a dispatch waiting forever at 0 % CPU, and this turns
// that hang into a prompt failure instead of a stalled test run.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : limit_(limit), thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  void Tick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++ticks_;
    }
    cv_.notify_one();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      const uint64_t seen = ticks_;
      if (!cv_.wait_for(lock, limit_,
                        [&] { return done_ || ticks_ != seen; })) {
        std::fprintf(stderr, "watchdog: dispatch %llu stalled for %llds\n",
                     static_cast<unsigned long long>(seen),
                     static_cast<long long>(limit_.count()));
        std::abort();
      }
    }
  }

  const std::chrono::seconds limit_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t ticks_ = 0;
  bool done_ = false;
  std::thread thread_;
};

// Lost-wakeup stress: narrow dispatches (k = 2 .. threads()-1, which wake
// only some workers) alternate with full-width ones, so workers that sat
// out one dispatch and workers that just finished a slot race for the
// next. Every participant index must run exactly once per dispatch, and
// no dispatch may stall.
TEST(ThreadPoolTest, NarrowAndFullDispatchesNeverLoseAWakeup) {
  for (size_t threads : {4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    Watchdog watchdog(std::chrono::seconds(60));
    std::vector<std::atomic<uint32_t>> visits(threads);
    const size_t narrow_widths = threads - 2;  // k in [2, threads)
    for (size_t round = 0; round < 10000; ++round) {
      const size_t k =
          round % 2 == 0 ? threads : 2 + (round / 2) % narrow_widths;
      pool.Run(k, [&](size_t participant) {
        visits[participant].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t p = 0; p < threads; ++p) {
        ASSERT_EQ(visits[p].exchange(0), p < k ? 1u : 0u)
            << "round " << round << " participant " << p;
      }
      watchdog.Tick();
    }
  }
}

// ParallelFor propagates an exception thrown by the per-index callback; the
// iteration space may be partially processed, but nothing crashes and the
// exception surfaces on the caller.
TEST(ThreadPoolTest, ParallelForRethrowsCallbackException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(1000, /*grain=*/16,
                                [&](size_t, size_t index) {
                                  if (index == 500) {
                                    throw std::runtime_error("index 500");
                                  }
                                }),
               std::runtime_error);

  // Serial fallback of the free function propagates too.
  EXPECT_THROW(ParallelFor(nullptr, 10, 0,
                           [&](size_t, size_t index) {
                             if (index == 5) {
                               throw std::runtime_error("index 5");
                             }
                           }),
               std::runtime_error);
}

TEST(ParallelSortTest, MatchesSerialSortOnRandomData) {
  std::mt19937_64 rng(99);
  std::vector<uint64_t> values(200000);
  for (auto& v : values) v = rng() % 1000;  // plenty of duplicates

  std::vector<uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());

  ThreadPool pool(4);
  ParallelSort(&pool, values.begin(), values.end(), std::less<uint64_t>());
  EXPECT_EQ(values, expected);
}

TEST(ParallelSortTest, SmallInputFallsBackToSerial) {
  std::vector<int> values = {5, 3, 1, 4, 2};
  ThreadPool pool(4);
  ParallelSort(&pool, values.begin(), values.end(), std::less<int>());
  EXPECT_EQ(values, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ParallelSortTest, TotalOrderEntriesIdenticalToSerialAtAnyThreadCount) {
  // The build-determinism property at its root: with the total
  // EntryCenterOrder, ParallelSort must produce exactly std::sort's output.
  const auto base = testing::RandomEntries(50000, 17);
  std::vector<RTreeEntry> serial = base;
  std::sort(serial.begin(), serial.end(), EntryCenterOrder{1});

  for (size_t threads : {2, 3, 5, 8}) {
    std::vector<RTreeEntry> parallel = base;
    ThreadPool pool(threads);
    ParallelSort(&pool, parallel.begin(), parallel.end(), EntryCenterOrder{1});
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].id, serial[i].id)
          << "divergence at " << i << " with " << threads << " threads";
    }
  }
}

TEST(EntryCenterOrderTest, IsAStrictTotalOrderOnDistinctEntries) {
  // Identical centers, distinct ids: the tie-break must order them.
  const Aabb box(Vec3(1, 1, 1), Vec3(2, 2, 2));
  const RTreeEntry a{box, 1};
  const RTreeEntry b{box, 2};
  EntryCenterOrder order{0};
  EXPECT_TRUE(order(a, b));
  EXPECT_FALSE(order(b, a));
  EXPECT_FALSE(order(a, a));

  // Same center, different extents: corners break the tie before ids.
  const RTreeEntry wide{Aabb(Vec3(0.5, 1, 1), Vec3(2.5, 2, 2)), 9};
  EXPECT_TRUE(order(wide, a));
  EXPECT_FALSE(order(a, wide));
}

}  // namespace
}  // namespace flat
