#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace flat {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  // The dispatching thread is participant 0: spawn the other threads - 1.
  workers_.reserve(threads - 1);
  for (size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Run(size_t participants,
                     const std::function<void(size_t)>& fn) {
  participants = std::min(participants, threads());
  if (participants == 0) return;
  if (participants == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &fn;
    task_error_ = nullptr;
    slots_ = participants - 1;
    claimed_ = 0;
    finished_ = 0;
    // Notify under the lock, one wakeup per slot. A woken worker claims a
    // slot only if one is left, and a worker not yet waiting claims one
    // before it waits, so every slot is run whichever workers wake.
    for (size_t i = 0; i < slots_; ++i) work_cv_.notify_one();
  }
  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (error != nullptr && task_error_ == nullptr) task_error_ = error;
    done_cv_.wait(lock, [this] { return finished_ == slots_; });
    error = task_error_;
    task_error_ = nullptr;
    task_ = nullptr;
    slots_ = claimed_ = finished_ = 0;
  }
  // Rethrow the first exception on the dispatching thread, after the
  // barrier: every participant has finished, so the pool stays consistent
  // and reusable.
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || claimed_ < slots_; });
    if (shutdown_) return;
    const size_t participant = 1 + claimed_++;
    const std::function<void(size_t)>* task = task_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*task)(participant);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr && task_error_ == nullptr) task_error_ = error;
    if (++finished_ == slots_) done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(
    size_t count, size_t grain,
    const std::function<void(size_t worker, size_t index)>& fn) {
  if (count == 0) return;
  if (grain == 0) grain = std::max<size_t>(1, count / (threads() * 8));
  const size_t blocks = count / grain + (count % grain != 0);
  std::atomic<size_t> cursor{0};
  Run(blocks, [&](size_t worker) {
    for (;;) {
      const size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) return;
      const size_t end = std::min(count, begin + grain);
      for (size_t index = begin; index < end; ++index) fn(worker, index);
    }
  });
}

void ParallelFor(ThreadPool* pool, size_t count, size_t grain,
                 const std::function<void(size_t worker, size_t index)>& fn) {
  if (pool == nullptr) {
    for (size_t index = 0; index < count; ++index) fn(0, index);
    return;
  }
  pool->ParallelFor(count, grain, fn);
}

}  // namespace flat
