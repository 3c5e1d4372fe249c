#ifndef FLAT_PARALLEL_THREAD_POOL_H_
#define FLAT_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flat {

/// Fixed pool of participants shared by the build pipeline and the
/// QueryEngine.
///
/// A pool of `threads()` participants spawns `threads() - 1` worker threads:
/// the thread that dispatches is always participant 0, so a pool of 1 spawns
/// no thread at all. The pool exposes one primitive — Run, which invokes a
/// callback once per participant index, running index 0 on the caller and
/// waking exactly as many workers as the other indices need, and blocks
/// until all calls return — plus ParallelFor built on top of it. Scheduling
/// policy stays with the client: ParallelFor claims contiguous index blocks
/// off a shared atomic cursor; the QueryEngine layers its own
/// per-participant deques with stealing on Run.
///
/// Thread-safety / usage rules:
///  - One dispatch at a time: Run/ParallelFor must not be called
///    concurrently from multiple threads, nor from inside a callback of a
///    multi-participant dispatch on the same pool (that would deadlock
///    waiting for the worker it runs on). Distinct ThreadPool objects are
///    fully independent; nesting a dispatch on pool B inside a callback
///    running on pool A is fine.
///  - A dispatch forms a synchronization barrier: everything the
///    participants wrote before returning from `fn` happens-before the
///    dispatching thread's return from Run/ParallelFor.
///  - Callbacks may throw: each participant's exception is caught, and the
///    first one caught (by completion order) is rethrown on the dispatching
///    thread after the barrier — never std::terminate. Other participants
///    still run their callbacks to completion, so a ParallelFor that throws
///    has processed an unspecified subset of the remaining indices. The
///    pool stays usable for further dispatches.
///  - threads() is safe from any thread; construction and destruction must
///    not race with a dispatch.
class ThreadPool {
 public:
  /// A pool of `threads` participants (0 = std::thread::hardware_concurrency(),
  /// at least 1): the caller plus `threads - 1` spawned workers.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants per dispatch, the calling thread included.
  size_t threads() const { return workers_.size() + 1; }

  /// Invokes fn(p) once for every participant index p in
  /// [0, min(participants, threads())) and returns when all calls have
  /// completed. fn(0) runs on the calling thread; the other indices run
  /// concurrently on as many woken workers, so Run(1, fn) is a plain call
  /// that never touches the pool's lock. Run(0, fn) is a no-op. `p`
  /// identifies the participant, e.g. to index per-participant scratch.
  void Run(size_t participants, const std::function<void(size_t)>& fn);

  /// Runs fn(participant, index) for every index in [0, count), distributing
  /// contiguous blocks of `grain` indices across the participants (0 = pick
  /// a grain that yields ~8 blocks per participant). Wakes no more workers
  /// than there are blocks. Blocks until every index has been processed. fn
  /// invocations for different indices may run concurrently; writes to
  /// disjoint per-index slots need no locking.
  void ParallelFor(size_t count, size_t grain,
                   const std::function<void(size_t worker, size_t index)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;

  // Dispatch state, guarded by mu_. A dispatch publishes `slots_` worker
  // slots (participants 1..slots_); a worker claims the next one under the
  // lock, so any worker that sees an unclaimed slot — woken for it or not —
  // runs it, and no wakeup can be lost.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  size_t slots_ = 0;     // worker slots of the current dispatch
  size_t claimed_ = 0;   // slots handed to a worker so far
  size_t finished_ = 0;  // slots whose callback has returned
  bool shutdown_ = false;
  const std::function<void(size_t)>* task_ = nullptr;
  std::exception_ptr task_error_;  // first exception of the current dispatch
};

/// nullptr-tolerant helper: a null pool means "run serially on the calling
/// thread as participant 0". Callers size per-participant scratch with
/// WorkerCount.
inline size_t WorkerCount(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->threads();
}

/// nullptr-tolerant ParallelFor: with a pool, dispatches onto it (same
/// contract as ThreadPool::ParallelFor); with nullptr, runs fn(0, index)
/// for every index serially on the calling thread — exactly what a pool of
/// one participant does. The null case is what lets build-pipeline code
/// take `ThreadPool*` unconditionally.
void ParallelFor(ThreadPool* pool, size_t count, size_t grain,
                 const std::function<void(size_t worker, size_t index)>& fn);

}  // namespace flat

#endif  // FLAT_PARALLEL_THREAD_POOL_H_
