#include "engine/query_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/overlay_merge.h"
#include "delta/overlay_view.h"
#include "storage/buffer_pool.h"

namespace flat {
namespace {

// Binds a query's control (and the IoStats its budget meters) to the
// executing scratch for the duration of one dispatch, unbinding on every
// exit path — the scratch is reused by the participant's next query, which may
// carry no control at all.
class ScratchControlGuard {
 public:
  ScratchControlGuard(CrawlScratch* scratch, const QueryControl* control,
                      const IoStats* io)
      : scratch_(control != nullptr ? scratch : nullptr) {
    if (scratch_ != nullptr) scratch_->BindControl(control, io);
  }
  ~ScratchControlGuard() {
    if (scratch_ != nullptr) scratch_->BindControl(nullptr, nullptr);
  }

  ScratchControlGuard(const ScratchControlGuard&) = delete;
  ScratchControlGuard& operator=(const ScratchControlGuard&) = delete;

 private:
  CrawlScratch* scratch_;
};

// Turns an escaped execution exception into the query's typed fail-soft
// outcome: QueryAbort carries its own status; anything else is an I/O
// failure (the storage backends throw std::runtime_error once their retry
// budget is exhausted). std::logic_error — API misuse — is NOT absorbed;
// the caller rethrows it. The partial ids
// gathered so far remain valid; kRangeCount partials keep the tally
// accumulated up to the stop point (RangeCountInto bumps the result's
// counter in place; the overlay path materializes ids, so the larger of
// the two is the matches seen so far) — consistent with partial kRange
// keeping its ids (core/query_control.h).
void SettleFailedResult(const Query& query, QueryResult* result) {
  if (query.type == Query::Type::kRangeCount) {
    result->count = std::max<uint64_t>(result->count, result->ids.size());
    result->ids.clear();
  } else {
    result->count = result->ids.size();
  }
}

}  // namespace

QueryEngine::QueryEngine(const FlatIndex* index, Options options)
    : index_(index), options_(options), pool_(options.threads) {
  options_.threads = pool_.threads();
  queues_.reserve(pool_.threads());
  workers_.reserve(pool_.threads());
  for (size_t i = 0; i < pool_.threads(); ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.push_back(std::make_unique<WorkerState>());
  }
}

QueryEngine::~QueryEngine() = default;

std::vector<QueryResult> QueryEngine::Run(const std::vector<Query>& batch,
                                          BatchStats* stats) {
  if (index_ == nullptr) {
    // Loud, not assert-only: in Release an assert would vanish and every
    // query would silently come back empty through the null-index path.
    throw std::logic_error(
        "QueryEngine::Run(vector<Query>) requires an engine bound to an "
        "index; use RunMulti on an index-free engine");
  }
  std::vector<IndexedQuery> indexed(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    indexed[i].index = index_;
    indexed[i].query = batch[i];
  }
  return RunMulti(indexed, stats);
}

std::vector<QueryResult> QueryEngine::RunMulti(
    const std::vector<IndexedQuery>& batch, BatchStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<QueryResult> results(batch.size());

  // Admission control: shed the batch tail beyond the configured queue
  // bound before any work is enqueued. Shed queries cost no I/O and come
  // back immediately as kRejected — a typed outcome the caller can retry,
  // not an error.
  size_t admitted = batch.size();
  if (options_.max_queued_queries > 0 &&
      batch.size() > options_.max_queued_queries) {
    admitted = options_.max_queued_queries;
    for (size_t i = admitted; i < batch.size(); ++i) {
      results[i].status = QueryStatus::kRejected;
      results[i].io.RecordQueryShed();
    }
  }

  if (admitted > 0) {
    // Block-partition the admitted prefix over no more participants than
    // there are queries: the caller is participant 0, so a one-query batch
    // runs entirely on the calling thread and wakes no worker. Contiguous
    // runs keep neighboring queries — which workloads tend to generate with
    // spatial locality — on one participant; stealing rebalances the tail.
    const size_t participants = std::min(admitted, pool_.threads());
    const size_t per_participant = (admitted + participants - 1) / participants;
    for (size_t p = 0; p < participants; ++p) {
      std::lock_guard<std::mutex> lock(queues_[p]->mu);
      queues_[p]->items.clear();
      const size_t first = std::min(admitted, p * per_participant);
      const size_t last = std::min(admitted, first + per_participant);
      for (size_t i = first; i < last; ++i) queues_[p]->items.push_back(i);
    }

    // In shared-cache mode, one striped pool per distinct PageFile in the
    // batch. Built single-threaded before the fan-out, read-only during it.
    SharedCacheMap shared_caches;
    if (options_.cache_mode == CacheMode::kSharedStriped) {
      for (const IndexedQuery& iq : batch) {
        if (iq.index == nullptr || iq.index->file() == nullptr) continue;
        std::unique_ptr<StripedBufferPool>& slot =
            shared_caches[iq.index->file()];
        if (slot == nullptr) {
          slot = std::make_unique<StripedBufferPool>(
              iq.index->file(), options_.shared_cache_pages);
        }
      }
    }
    Job job;
    job.batch = &batch;
    job.results = &results;
    job.shared_caches = shared_caches.empty() ? nullptr : &shared_caches;
    job.participants = participants;
    pool_.Run(participants, [this, &job](size_t p) { ProcessQueue(p, job); });
  }

  if (stats != nullptr) {
    *stats = TallyBatch(results);
    stats->threads = pool_.threads();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return results;
}

void QueryEngine::ProcessQueue(size_t participant, const Job& job) {
  size_t query_index;
  while (PopOwn(participant, &query_index) ||
         Steal(participant, job.participants, &query_index)) {
    ExecuteQuery(job, (*job.batch)[query_index],
                 &(*job.results)[query_index], workers_[participant].get());
  }
}

bool QueryEngine::PopOwn(size_t participant, size_t* query_index) {
  WorkerQueue& queue = *queues_[participant];
  std::lock_guard<std::mutex> lock(queue.mu);
  if (queue.items.empty()) return false;
  *query_index = queue.items.front();
  queue.items.pop_front();
  return true;
}

bool QueryEngine::Steal(size_t participant, size_t participants,
                        size_t* query_index) {
  for (size_t offset = 1; offset < participants; ++offset) {
    WorkerQueue& victim = *queues_[(participant + offset) % participants];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.items.empty()) continue;
    *query_index = victim.items.back();
    victim.items.pop_back();
    return true;
  }
  return false;
}

BatchStats TallyBatch(const std::vector<QueryResult>& results) {
  BatchStats stats;
  for (const QueryResult& r : results) {
    stats.io += r.io;
    stats.result_elements += r.count;
    if (r.status == QueryStatus::kOk) {
      ++stats.queries_ok;
    } else if (r.status == QueryStatus::kRejected) {
      ++stats.queries_shed;
    } else {
      ++stats.queries_failed;
    }
  }
  return stats;
}

namespace {

// The one switch over Query::Type. `index` is null when there is no page
// store to read; `overlay` is null when there is no live overlay to merge.
void RunQuery(const FlatIndex* index, const OverlayView* overlay,
              size_t bucket, const Query& query, PageCache* cache,
              QueryResult* result, CrawlScratch* scratch) {
  // With an overlay, the base ids it touches are stale: FilterOverlayMasked
  // drops them before the overlay's own matches are appended.
  std::vector<uint64_t>* ids = &result->ids;
  uint64_t probes = 0;
  switch (query.type) {
    case Query::Type::kRange:
      if (index != nullptr) {
        index->RangeQuery(cache, query.box, ids, scratch, query.guard);
      }
      if (overlay != nullptr) {
        FilterOverlayMasked(*overlay, ids);
        probes = AppendOverlayRangeMatches(*overlay, bucket, query.box, ids,
                                           scratch);
      }
      break;
    case Query::Type::kRangeCount:
      if (overlay == nullptr) {
        // Accumulates into the result's counter in place so a fail-soft
        // stop surfaces the partial tally (SettleFailedResult keeps it).
        if (index != nullptr) {
          index->RangeCountInto(cache, query.box, &result->count, scratch);
        }
        return;
      }
      // Delete masking needs the ids, so run the materializing range path
      // (identical page reads by the FlatIndex contract), count the
      // survivors plus overlay matches, and drop the vector.
      if (index != nullptr) {
        index->RangeQuery(cache, query.box, ids, scratch, query.guard);
        FilterOverlayMasked(*overlay, ids);
      }
      result->count = ids->size();
      ids->clear();
      result->io.RecordOverlayProbes(CountOverlayRangeMatches(
          *overlay, bucket, query.box, &result->count, scratch));
      return;
    case Query::Type::kSeedScan:
      if (index != nullptr) {
        index->RangeQueryViaSeedScan(cache, query.box, ids, scratch);
      }
      if (overlay != nullptr) {
        FilterOverlayMasked(*overlay, ids);
        probes = AppendOverlayRangeMatches(*overlay, bucket, query.box, ids,
                                           scratch);
      }
      break;
    case Query::Type::kKnn:
      if (overlay != nullptr) {
        result->status = QueryStatus::kUnsupported;
        result->error = "kKnn is not supported over a delta overlay";
        return;
      }
      if (index != nullptr) {
        *ids = index->KnnQuery(cache, query.center, query.k, scratch);
      }
      break;
    case Query::Type::kSphere:
      if (index != nullptr) {
        index->SphereQuery(cache, query.center, query.radius, ids, scratch);
      }
      if (overlay != nullptr) {
        FilterOverlayMasked(*overlay, ids);
        probes = AppendOverlaySphereMatches(*overlay, bucket, query.center,
                                            query.radius, ids, scratch);
      }
      break;
  }
  result->count = ids->size();
  result->io.RecordOverlayProbes(probes);
}

}  // namespace

void DispatchQuery(const IndexedQuery& iq, PageCache* cache,
                   QueryResult* result, CrawlScratch* scratch) {
  const FlatIndex* index =
      iq.index != nullptr && iq.index->file() != nullptr ? iq.index : nullptr;
  const OverlayView* overlay =
      iq.overlay != nullptr && !iq.overlay->empty() ? iq.overlay : nullptr;
  if (index == nullptr && overlay == nullptr) return;  // no data at all
  const Query& query = iq.query;
  // A controlled query needs a scratch to carry its control binding into
  // the traversal's cancellation points; materialize a throwaway if the
  // caller brought none. Uncontrolled queries skip all of this.
  std::optional<CrawlScratch> throwaway;
  if (query.control != nullptr && scratch == nullptr) {
    scratch = &throwaway.emplace();
  }
  ScratchControlGuard guard(scratch, query.control, &result->io);
  try {
    RunQuery(index, overlay, iq.overlay_bucket, query, cache, result,
             scratch);
  } catch (const QueryAbort& abort) {
    result->status = abort.status();
    SettleFailedResult(query, result);
  } catch (const std::logic_error&) {
    throw;  // API misuse stays loud
  } catch (const std::exception& e) {
    result->status = QueryStatus::kIoError;
    result->error = e.what();
    result->io.RecordIoError();
    SettleFailedResult(query, result);
  }
}

void QueryEngine::ExecuteQuery(const Job& job, const IndexedQuery& iq,
                               QueryResult* result, WorkerState* state) {
  const int prefetch_depth = iq.query.prefetch_depth >= 0
                                 ? iq.query.prefetch_depth
                                 : options_.prefetch_depth;
  // No PageStore to read from leaves `cache` null: the query is then a pure
  // overlay bucket scan (the spill tail of an overlayed store), or empty.
  const PageStore* file = iq.index != nullptr ? iq.index->file() : nullptr;
  PageCache* cache = nullptr;
  std::optional<StripedBufferPool::Session> session;
  if (file != nullptr && job.shared_caches != nullptr) {
    auto it = job.shared_caches->find(file);
    assert(it != job.shared_caches->end());
    cache = &session.emplace(it->second.get(), &result->io, prefetch_depth);
  } else if (file != nullptr) {
    // Cold-per-query mode: recycle the participant's pool — Clear() is an O(1)
    // epoch bump, so this is exactly as cold as a fresh pool (identical
    // IoStats) without rebuilding the page table per query. Clear() runs
    // before set_stats(), so hints left pending are charged as wasted to the
    // query that issued them.
    BufferPool* pool = state->pool.get();
    if (pool == nullptr || &pool->store() != file) {
      state->pool = std::make_unique<BufferPool>(file, &result->io,
                                                 options_.pool_pages);
      pool = state->pool.get();
    } else {
      pool->Clear();
      pool->set_stats(&result->io);
    }
    pool->set_prefetch_depth(prefetch_depth);
    cache = pool;
  }
  DispatchQuery(iq, cache, result, &state->scratch);
  // A failing sub-query poisons its group (if any) so scattered siblings of
  // the same logical query observe the cancellation at their next
  // cancellation point instead of running to completion for a result that
  // will be discarded.
  if (result->status != QueryStatus::kOk && iq.query.control != nullptr &&
      iq.query.control->group != nullptr) {
    iq.query.control->group->SignalFailure(result->status);
  }
}

}  // namespace flat
