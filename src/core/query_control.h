#ifndef FLAT_CORE_QUERY_CONTROL_H_
#define FLAT_CORE_QUERY_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>

#include "storage/io_stats.h"

namespace flat {

/// Typed outcome of one query execution — the fail-soft error channel.
/// Every QueryResult carries one; kOk is the default and the only value a
/// query without a QueryControl and without injected faults can produce, so
/// existing callers that never look at it see today's behavior unchanged.
///
/// Partial-result semantics: any non-kOk status means the query stopped at
/// a cancellation point, and the result holds exactly what was gathered up
/// to that point — for id-producing queries the ids matched so far, for
/// kRangeCount the tally accumulated so far (a lower bound on the exact
/// count, since execution only ever adds matches). Partials are valid,
/// never-torn prefixes of the exact answer under the traversal order, not
/// random subsets; callers that need exactness must check for kOk rather
/// than for emptiness, because a partial count/id set is indistinguishable
/// from a complete one by value alone.
enum class QueryStatus : uint8_t {
  kOk = 0,
  /// The control's deadline passed before the query finished.
  kDeadlineExceeded,
  /// The control's cancel token was set, or a sibling sub-query of the same
  /// QueryGroup failed and cancelled the group.
  kCancelled,
  /// The storage backend failed unrecoverably (pread error after retries
  /// were exhausted); QueryResult::error carries the backend's message.
  kIoError,
  /// Shed by admission control before execution started
  /// (QueryEngine::Options::max_queued_queries).
  kRejected,
  /// The control's max_page_reads I/O budget was exhausted.
  kBudgetExceeded,
  /// The query type is not supported in this context (kKnn over a delta
  /// overlay or a sharded store); nothing ran and no page was read.
  /// QueryResult::error says why.
  kUnsupported,
};

inline constexpr int kNumQueryStatuses = 7;

inline const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "kOk";
    case QueryStatus::kDeadlineExceeded:
      return "kDeadlineExceeded";
    case QueryStatus::kCancelled:
      return "kCancelled";
    case QueryStatus::kIoError:
      return "kIoError";
    case QueryStatus::kRejected:
      return "kRejected";
    case QueryStatus::kBudgetExceeded:
      return "kBudgetExceeded";
    case QueryStatus::kUnsupported:
      return "kUnsupported";
  }
  return "kUnknown";
}

/// Cancellation fan-in for the sub-queries one original query scatters into
/// (ShardedFlatStore): the first sub-query to fail records its status and
/// flips the group's cancelled flag, which every sibling observes at its
/// next cancellation point — one shard timing out or erroring cancels the
/// whole scattered query promptly instead of letting the other shards run
/// to completion. All members are safe to call from any thread.
class QueryGroup {
 public:
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// First non-OK status wins; later calls keep the original verdict but
  /// still (re-)assert the cancelled flag.
  void SignalFailure(QueryStatus status) {
    uint8_t expected = static_cast<uint8_t>(QueryStatus::kOk);
    status_.compare_exchange_strong(expected, static_cast<uint8_t>(status),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
    cancelled_.store(true, std::memory_order_release);
  }

  QueryStatus status() const {
    return static_cast<QueryStatus>(status_.load(std::memory_order_acquire));
  }

 private:
  std::atomic<uint8_t> status_{static_cast<uint8_t>(QueryStatus::kOk)};
  std::atomic<bool> cancelled_{false};
};

/// Per-query fail-soft execution controls. Plain value type; attach one to a
/// Query via `Query::control` (the pointed-to control — and its cancel
/// token/group — must outlive the batch). All limits compose; the first one
/// tripped decides the status. A default-constructed control never trips.
struct QueryControl {
  /// Absolute deadline; time_point::max() (the default) means none. Checked
  /// at every cancellation point (one steady_clock read per frontier pop),
  /// so a query stops within one BFS step of the deadline passing.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// External cancel token: set it (from any thread) to stop the query at
  /// its next cancellation point with kCancelled. Null means none.
  const std::atomic<bool>* cancel = nullptr;

  /// I/O budget: the query aborts with kBudgetExceeded at the first
  /// cancellation point after its own IoStats exceed this many page reads.
  /// 0 (default) = unlimited. In a sharded scatter the budget applies to
  /// each sub-query independently (sub-queries can't observe each other's
  /// reads without serializing on shared state).
  uint64_t max_page_reads = 0;

  /// Sub-query fan-in; set by ShardedFlatStore's scatter, null for direct
  /// engine/index callers (who may also set one to tie queries together).
  QueryGroup* group = nullptr;

  /// Convenience: a control whose deadline is `timeout` from now.
  static QueryControl WithTimeout(std::chrono::steady_clock::duration timeout) {
    QueryControl control;
    control.deadline = std::chrono::steady_clock::now() + timeout;
    return control;
  }

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

/// Internal control-flow exception carrying the typed status from a
/// cancellation point (deep in the seed/crawl loops) to the dispatch layer,
/// which converts it into QueryResult::status. Deliberately derived from
/// std::exception directly — the dispatch layer's std::exception handler
/// maps *runtime* failures to kIoError, and catches QueryAbort first.
class QueryAbort : public std::exception {
 public:
  explicit QueryAbort(QueryStatus status) : status_(status) {}
  QueryStatus status() const { return status_; }
  const char* what() const noexcept override {
    return QueryStatusName(status_);
  }

 private:
  QueryStatus status_;
};

/// The shared cancellation-point predicate: throws QueryAbort when any of
/// `control`'s limits tripped. `io` is the stats object the executing
/// query's page reads are charged to (for the budget check); may be null
/// when no accounting exists (budget then never trips). Check order: user
/// cancel, group cancel, deadline, budget — the deadline clock read is
/// skipped entirely when no deadline is set.
inline void ThrowIfStopped(const QueryControl& control, const IoStats* io) {
  if (control.cancel != nullptr &&
      control.cancel->load(std::memory_order_acquire)) {
    throw QueryAbort(QueryStatus::kCancelled);
  }
  if (control.group != nullptr && control.group->cancelled()) {
    throw QueryAbort(QueryStatus::kCancelled);
  }
  if (control.has_deadline() &&
      std::chrono::steady_clock::now() >= control.deadline) {
    throw QueryAbort(QueryStatus::kDeadlineExceeded);
  }
  if (control.max_page_reads != 0 && io != nullptr &&
      io->TotalReads() > control.max_page_reads) {
    throw QueryAbort(QueryStatus::kBudgetExceeded);
  }
}

}  // namespace flat

#endif  // FLAT_CORE_QUERY_CONTROL_H_
