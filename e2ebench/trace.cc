// The traced run: per-layer metrics, outside in.
//
// Every traced query is replayed under one request id at three levels with
// equal inputs, from the benchmark's own files around each layer's public
// entry point:
//   level 0  shard.query       the store call (delta.pin and
//                              delta.snapshot_query beside it);
//   level 1  engine.run_multi  QueryEngine::RunMulti over the scatter the
//                              store would issue, rebuilt here from
//                              catalog() and shard_index(i) with the
//                              documented bounds gate and covered-count
//                              shortcut;
//   level 2  core.*            FlatIndex::Seed / Crawl / SphereQuery /
//                              RangeCount per sub-query, serially, each with
//                              a fresh BufferPool over the shard's file, and
//                              delta.merge for the overlay mask and bucket
//                              scan.
// The levels are re-runs, not nested calls, so a self time (a level minus
// the level below) only means something if the levels did the same work:
// ids and per-category page reads must be identical at all three, and any
// difference fails the run. Spans stay in memory and are written out at the
// end.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "core/overlay_merge.h"
#include "delta/overlay_view.h"
#include "geometry/box_kernels.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"

namespace e2e {

using flat::Aabb;
using flat::BufferPool;
using flat::FlatIndex;
using flat::IndexedQuery;
using flat::IoStats;
using flat::OverlayView;
using flat::PageCategory;
using flat::PageId;
using flat::Query;
using flat::QueryResult;
using flat::ShardedFlatStore;
using flat::Vec3;

namespace {

/// The overlay phase of the traced tail: this many writes, then the first
/// ops of the workload replayed against the overlay they leave.
constexpr size_t kOverlayWindow = 4096;
constexpr size_t kOverlayReadsSn = 128;
constexpr size_t kOverlayReadsLss = 16;  // viewport counts materialize
/// Spans kept (and written); later ones are dropped, bounding memory and
/// the size of the span file.
constexpr size_t kMaxSpans = 100000;
constexpr size_t kMaxGatePages = 100000;
constexpr size_t kCountRatioBoxes = 16;

// ---------------------------------------------------------------- spans --

struct Span {
  const char* name;
  uint64_t request;
  int level;
  double start_us;
  double end_us;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(kMaxSpans); }

  /// Records a span and returns its duration in microseconds.
  double Record(const char* name, uint64_t request, int level,
                Clock::time_point start, Clock::time_point end) {
    const double s = Micros(start);
    const double e = Micros(end);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, request, level, s, e});
    }
    return e - s;
  }

  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    static const char* kParent[] = {"", "shard.query", "engine.run_multi"};
    for (const Span& s : spans_) {
      out << "{\"request\": " << s.request << ", \"name\": \"" << s.name
          << "\", \"level\": " << s.level << ", \"parent\": \""
          << kParent[s.level] << "\", \"start_us\": " << s.start_us
          << ", \"end_us\": " << s.end_us << "}\n";
    }
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------- recording cache --

/// Forwards to a BufferPool and remembers every page id read through it.
class RecordingCache final : public flat::PageCache {
 public:
  RecordingCache(BufferPool* inner, std::vector<PageId>* log)
      : inner_(inner), log_(log) {}
  const char* Read(PageId id) override {
    log_->push_back(id);
    return inner_->Read(id);
  }
  void Prefetch(PageId id) override { inner_->Prefetch(id); }
  const char* Peek(PageId id) override { return inner_->Peek(id); }
  bool prefetch_enabled() const override { return inner_->prefetch_enabled(); }

 private:
  BufferPool* inner_;
  std::vector<PageId>* log_;
};

/// One object page a range query read, with that query's box: the input of
/// the geometry gate timing.
struct GatePage {
  const char* entries;
  uint16_t count;
  Aabb box;
};

// --------------------------------------------------------------- scatter --

struct Scatter {
  std::vector<IndexedQuery> subs;
  uint64_t precount = 0;  // covered shards answered from the catalog
  size_t routed = 0;      // shards passing the bounds gate
  size_t shortcut = 0;    // of those, answered from the catalog
};

/// The scatter ShardedFlatStore issues for `q`: one sub-query per shard
/// whose element bounds meet the query's gate box, except that a count
/// covering a whole shard of an aggregated, overlay-free store takes the
/// shard's catalog count; plus the overlay's spill-bucket tail.
Scatter BuildScatter(const ShardedFlatStore& store, const OverlayView* overlay,
                     const Query& q) {
  Scatter scatter;
  const flat::ShardCatalog& catalog = store.catalog();
  const Aabb gate =
      q.type == Query::Type::kSphere
          ? Aabb::FromCenterHalfExtents(q.center,
                                        Vec3(q.radius, q.radius, q.radius))
          : q.box;
  const bool can_precount =
      IsCount(q) && (overlay == nullptr || overlay->empty());
  for (size_t s = 0; s < catalog.shards.size(); ++s) {
    const Aabb& bounds = catalog.shards[s].bounds;
    if (!bounds.Intersects(gate)) continue;
    ++scatter.routed;
    const FlatIndex& index = store.shard_index(s);
    if (can_precount && index.has_aggregates() && gate.Contains(bounds)) {
      scatter.precount += catalog.shards[s].element_count;
      ++scatter.shortcut;
      continue;
    }
    scatter.subs.push_back(IndexedQuery{&index, q, overlay, s});
  }
  if (overlay != nullptr) {
    scatter.subs.push_back(
        IndexedQuery{nullptr, q, overlay, overlay->spill_bucket()});
  }
  return scatter;
}

std::vector<Aabb> ShardBounds(const flat::ShardCatalog& catalog) {
  std::vector<Aabb> bounds;
  for (const flat::ShardCatalogEntry& shard : catalog.shards) {
    bounds.push_back(shard.bounds);
  }
  return bounds;
}

/// Merges sub-results the way the store's gather does.
QueryResult Gather(const std::vector<QueryResult>& subs, const Query& q,
                   uint64_t precount) {
  QueryResult out;
  for (const QueryResult& sub : subs) {
    out.io += sub.io;
    if (sub.status != flat::QueryStatus::kOk) out.status = sub.status;
    if (IsCount(q)) {
      out.count += sub.count;
    } else {
      out.ids.insert(out.ids.end(), sub.ids.begin(), sub.ids.end());
    }
  }
  if (IsCount(q)) {
    out.count += precount;
  } else {
    std::sort(out.ids.begin(), out.ids.end());
    out.count = out.ids.size();
  }
  return out;
}

bool SameIo(const IoStats& a, const IoStats& b) {
  for (int c = 0; c < flat::kNumPageCategories; ++c) {
    const auto category = static_cast<PageCategory>(c);
    if (a.ReadsIn(category) != b.ReadsIn(category)) return false;
  }
  return a.OverlayProbes() == b.OverlayProbes() &&
         a.IoErrors() == b.IoErrors();
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  return a.status == b.status && a.count == b.count && a.ids == b.ids;
}

// ------------------------------------------------------------ core level --

/// Core-level times of one query, summed over its sub-queries.
struct CoreTimes {
  double seed_us = 0.0;
  double crawl_us = 0.0;
  double sphere_us = 0.0;
  double count_us = 0.0;
  double merge_us = 0.0;
  double sum_us = 0.0;  // all of the above
  double max_us = 0.0;  // slowest single sub-query
};

/// Runs every sub-query of `scatter` serially through FlatIndex's own entry
/// points (plus the overlay merge), mirroring the engine's dispatch. Spans
/// go to `tracer` when given; object pages of range queries to `gates`.
QueryResult CoreLevel(const Scatter& scatter, const Query& q, Tracer* tracer,
                      uint64_t request, std::vector<GatePage>* gates,
                      CoreTimes* times) {
  std::vector<QueryResult> subs(scatter.subs.size());
  flat::CrawlScratch scratch;
  std::vector<PageId> pages;
  for (size_t i = 0; i < scatter.subs.size(); ++i) {
    const IndexedQuery& iq = scatter.subs[i];
    QueryResult* out = &subs[i];
    const bool has_index = iq.index != nullptr && iq.index->file() != nullptr;
    const bool overlaid = iq.overlay != nullptr && !iq.overlay->empty();
    std::optional<BufferPool> pool;
    pages.clear();
    std::optional<RecordingCache> cache;
    if (has_index) {
      pool.emplace(iq.index->file(), &out->io, /*capacity_pages=*/0);
      cache.emplace(&*pool, &pages);
    }
    double sub_us = 0.0;
    auto span = [&](const char* name, Clock::time_point start, double* acc) {
      const auto end = Clock::now();
      const double us =
          tracer != nullptr
              ? tracer->Record(name, request, 2, start, end)
              : std::chrono::duration<double, std::micro>(end - start).count();
      *acc += us;
      sub_us += us;
    };
    switch (q.type) {
      case Query::Type::kRange: {
        if (has_index) {
          auto t = Clock::now();
          const std::optional<flat::RecordRef> start =
              iq.index->Seed(&*cache, q.box);
          span("core.seed", t, &times->seed_us);
          if (start.has_value()) {
            t = Clock::now();
            iq.index->Crawl(&*cache, q.box, *start, &out->ids, q.guard,
                            &scratch);
            span("core.crawl", t, &times->crawl_us);
          }
        }
        if (overlaid) {
          const auto t = Clock::now();
          if (has_index) flat::FilterOverlayMasked(*iq.overlay, &out->ids);
          out->io.RecordOverlayProbes(flat::AppendOverlayRangeMatches(
              *iq.overlay, iq.overlay_bucket, q.box, &out->ids, &scratch));
          span("delta.merge", t, &times->merge_us);
        }
        out->count = out->ids.size();
        break;
      }
      case Query::Type::kSphere: {
        if (has_index) {
          const auto t = Clock::now();
          iq.index->SphereQuery(&*cache, q.center, q.radius, &out->ids,
                                &scratch);
          span("core.sphere", t, &times->sphere_us);
        }
        if (overlaid) {
          const auto t = Clock::now();
          if (has_index) flat::FilterOverlayMasked(*iq.overlay, &out->ids);
          out->io.RecordOverlayProbes(flat::AppendOverlaySphereMatches(
              *iq.overlay, iq.overlay_bucket, q.center, q.radius, &out->ids,
              &scratch));
          span("delta.merge", t, &times->merge_us);
        }
        out->count = out->ids.size();
        break;
      }
      case Query::Type::kRangeCount: {
        if (!overlaid) {
          const auto t = Clock::now();
          if (has_index) out->count = iq.index->RangeCount(&*cache, q.box,
                                                           &scratch);
          span("core.count", t, &times->count_us);
          break;
        }
        // Overlay masking needs ids: the materializing path, then a count.
        if (has_index) {
          const auto t = Clock::now();
          iq.index->RangeQuery(&*cache, q.box, &out->ids, &scratch, q.guard);
          span("core.count", t, &times->count_us);
        }
        const auto t = Clock::now();
        if (has_index) flat::FilterOverlayMasked(*iq.overlay, &out->ids);
        out->count = out->ids.size();
        out->io.RecordOverlayProbes(flat::CountOverlayRangeMatches(
            *iq.overlay, iq.overlay_bucket, q.box, &out->count, &scratch));
        out->ids.clear();
        span("delta.merge", t, &times->merge_us);
        break;
      }
      default:
        throw std::logic_error("query type outside the benchmark's mix");
    }
    times->sum_us += sub_us;
    times->max_us = std::max(times->max_us, sub_us);
    if (gates != nullptr && has_index && q.type == Query::Type::kRange) {
      std::sort(pages.begin(), pages.end());
      pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
      const flat::PageStore& file = *iq.index->file();
      for (PageId id : pages) {
        if (gates->size() >= kMaxGatePages) break;
        if (file.category(id) != PageCategory::kObject) continue;
        const char* data = file.Data(id);
        gates->push_back(GatePage{data + flat::kNodeHeaderSize,
                                  flat::NodeView(data).count(), q.box});
      }
    }
  }
  return Gather(subs, q, scatter.precount);
}

// ------------------------------------------------------ per-query replay --

struct QueryTrace {
  Query::Type type = Query::Type::kRange;
  double untraced_us = 0.0;
  double pin_us = 0.0;
  double shard_us = 0.0;
  double snapshot_us = 0.0;
  double engine_us = 0.0;
  CoreTimes core;
  size_t fanout = 0;
  size_t routed = 0;
  size_t shortcut = 0;
  uint64_t window = 0;
  IoStats io;
  uint64_t results = 0;
};

/// Everything the traced run accumulates.
struct TraceState {
  Tracer tracer;
  std::vector<QueryTrace> queries;          // against the bulkloaded base
  std::vector<QueryTrace> overlay_queries;  // against an overlaid store
  std::vector<GatePage> gates;
  std::vector<double> busy_frac;
  std::vector<double> write_ns;
  std::vector<double> fold_s;
  std::vector<double> compact_build_s;
  double gate_ns_per_box = 0.0;
  double soa_gate_ns_per_box = 0.0;
  uint64_t gate_boxes = 0;
  uint64_t count_box_reads = 0;
  uint64_t range_box_reads = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool identity_ok = true;
  uint64_t next_request = 1;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Back-to-back store calls with no spans, as the untraced run makes them:
/// the reference the tracing overhead is measured against.
std::vector<double> UntracedPass(const ShardedFlatStore& store,
                                 const std::vector<Query>& ops, size_t count,
                                 const Answer* answers, TraceState* state) {
  std::vector<double> us(count);
  for (size_t i = 0; i < count; ++i) {
    const auto start = Clock::now();
    const QueryResult r = CallStore(store, ops[i]);
    us[i] = MicrosSince(start);
    state->Check(Matches(r, answers[i], ops[i]));
  }
  return us;
}

/// Replays one query at the three levels and checks they agree with each
/// other and with the oracle.
void TraceQuery(const ShardedFlatStore& store, flat::QueryEngine* engine,
                const OverlayView* overlay, const Query& q,
                const Answer& expected, double untraced_us,
                std::vector<QueryTrace>* sink, TraceState* state) {
  QueryTrace t;
  t.type = q.type;
  t.untraced_us = untraced_us;
  const uint64_t request = state->next_request++;
  Tracer& tracer = state->tracer;

  auto start = Clock::now();
  const ShardedFlatStore::Snapshot snapshot = store.PinSnapshot();
  t.pin_us = tracer.Record("delta.pin", request, 0, start, Clock::now());
  t.window = store.overlay_op_count();

  start = Clock::now();
  const QueryResult shard = CallStore(store, q);
  t.shard_us = tracer.Record("shard.query", request, 0, start, Clock::now());

  start = Clock::now();
  const QueryResult pinned = CallSnapshot(snapshot, q);
  t.snapshot_us =
      tracer.Record("delta.snapshot_query", request, 0, start, Clock::now());

  const Scatter scatter = BuildScatter(store, overlay, q);
  t.fanout = scatter.subs.size();
  t.routed = scatter.routed;
  t.shortcut = scatter.shortcut;
  start = Clock::now();
  const std::vector<QueryResult> subs = engine->RunMulti(scatter.subs);
  t.engine_us =
      tracer.Record("engine.run_multi", request, 1, start, Clock::now());
  const QueryResult via_engine = Gather(subs, q, scatter.precount);

  const QueryResult via_core =
      CoreLevel(scatter, q, &tracer, request, &state->gates, &t.core);

  const bool identical =
      SameAnswer(shard, via_engine) && SameAnswer(shard, via_core) &&
      SameIo(shard.io, via_engine.io) && SameIo(shard.io, via_core.io) &&
      SameAnswer(shard, pinned) && SameIo(shard.io, pinned.io);
  if (!identical) state->identity_ok = false;
  state->Check(identical && Matches(shard, expected, q));
  t.io = shard.io;
  t.results = shard.count;
  sink->push_back(t);
}

/// One RunBatch, checked, and the engine's busy fraction: the summed
/// core-level time of its sub-queries (re-run serially afterwards) over
/// the batch's wall time times the workers.
void TraceBatch(const ShardedFlatStore& store,
                const std::vector<Query>& batch,
                const std::vector<const Answer*>& expected, size_t threads,
                TraceState* state) {
  const auto start = Clock::now();
  const std::vector<QueryResult> results = store.RunBatch(batch);
  const double wall_us = MicrosSince(start);
  CoreTimes core;
  for (size_t j = 0; j < batch.size(); ++j) {
    state->Check(Matches(results[j], *expected[j], batch[j]));
    CoreLevel(BuildScatter(store, nullptr, batch[j]), batch[j], nullptr, 0,
              nullptr, &core);
  }
  state->busy_frac.push_back(core.sum_us / (wall_us * threads));
}

/// Reads of RangeCount over reads of RangeQuery on the same boxes.
void CountReadRatio(const ShardedFlatStore& store, const std::vector<Query>& ops,
                    const GridOracle& oracle, TraceState* state) {
  size_t boxes = 0;
  for (const Query& q : ops) {
    if (!IsCount(q) || boxes++ == kCountRatioBoxes) continue;
    IoStats count_io, range_io;
    const uint64_t count = store.RangeCount(q.box, &count_io);
    const size_t materialized = store.RangeQuery(q.box, &range_io).size();
    state->Check(count == materialized && count == oracle.Count(q.box));
    state->count_box_reads += count_io.TotalReads();
    state->range_box_reads += range_io.TotalReads();
  }
}

/// Times the AoS and SoA gate kernels over the recorded object pages. Runs
/// before the compaction: the recorded pointers alias the base's pages.
void TimeGates(TraceState* state) {
  const std::vector<GatePage>& pages = state->gates;
  if (pages.empty()) return;
  uint64_t boxes = 0;
  for (const GatePage& p : pages) boxes += p.count;
  std::vector<uint8_t> hits(flat::NodeCapacity(4096) + 8);
  flat::SoaBoxes soa;
  const auto aos = [&](const GatePage& p) {
    flat::IntersectsBatch(p.entries, sizeof(flat::RTreeEntry), p.count, p.box,
                          hits.data());
  };
  const auto soa_gate = [&](const GatePage& p) {
    soa.Assign(p.entries, sizeof(flat::RTreeEntry), p.count);
    flat::IntersectsSoa(soa, p.box, hits.data());
  };
  // One pass over every page; the hit tally keeps the work observable and
  // must be equal for both kernels.
  const auto pass = [&](const auto& gate) {
    uint64_t tally = 0;
    for (const GatePage& p : pages) {
      gate(p);
      for (uint16_t i = 0; i < p.count; ++i) tally += hits[i];
    }
    return tally;
  };
  const auto time = [&](const auto& gate) {
    int reps = 0;
    const auto start = Clock::now();
    do {
      pass(gate);
      ++reps;
    } while (reps < 3 || SecondsSince(start) < 0.02);
    return SecondsSince(start) * 1e9 / reps;
  };
  state->Check(pass(aos) == pass(soa_gate));
  state->gate_ns_per_box = time(aos) / boxes;
  state->soa_gate_ns_per_box = time(soa_gate) / boxes;
  state->gate_boxes = boxes;
}

void TraceWrites(ShardedFlatStore* store, GridOracle* oracle, WriteMix* mix,
                 size_t count, flat::DeltaLog* mirror, TraceState* state) {
  std::vector<flat::DeltaOp> ops;
  for (size_t i = 0; i < count; ++i) ops.push_back(mix->Next(oracle));
  state->write_ns.push_back(ApplyWrites(store, ops) * 1e9 / count);
  state->attempted += count;
  if (mirror != nullptr) {
    for (const flat::DeltaOp& op : ops) mirror->Append(op);
  }
}

void TraceCompact(ShardedFlatStore* store, const GridOracle& oracle,
                  TraceState* state) {
  TimeGates(state);
  const ShardedFlatStore::CompactionStats stats = store->Compact();
  const double build_s = stats.build.split_seconds + stats.build.build_seconds;
  state->compact_build_s.push_back(build_s);
  state->fold_s.push_back(stats.seconds - build_s);
  state->Check(store->catalog().total_elements == oracle.size());
}

// ---------------------------------------------------------------- report --

struct Accumulator {
  double sum = 0.0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double Mean() const { return n > 0 ? sum / n : 0.0; }
};

/// Retries and errors of the shards' disk files (zero for in-memory ones).
std::pair<uint64_t, uint64_t> DiskCounters(const ShardedFlatStore& store) {
  uint64_t retries = 0, errors = 0;
  for (size_t s = 0; s < store.shard_count(); ++s) {
    if (const auto* disk =
            dynamic_cast<const flat::DiskPageFile*>(&store.shard_file(s))) {
      retries += disk->read_retries();
      errors += disk->read_errors();
    }
  }
  return {retries, errors};
}

RunOutcome Report(const Config& config, const SetupSeries& setup,
                  std::pair<uint64_t, uint64_t> disk, TraceState* state) {
  Accumulator shard_self, engine_self, shard_span, untraced;
  Accumulator fanout, pin, window, snapshot, probes, merge;
  Accumulator seed, crawl, sphere, count;
  Accumulator seed_internal, seed_leaf, object;
  uint64_t routed = 0, shortcut = 0, results = 0, object_reads = 0;
  double clamped_sum = 0.0;
  for (const QueryTrace& t : state->queries) {
    // The engine runs a query's sub-queries in parallel: the part of its
    // span their core time covers is at least the slowest one and at least
    // their sum spread over the workers.
    const double covered = std::max(t.core.max_us,
                                    t.core.sum_us / config.threads);
    const double s_self = t.shard_us - t.engine_us;
    const double e_self = t.engine_us - covered;
    shard_self.Add(s_self);
    engine_self.Add(e_self);
    clamped_sum += std::max(0.0, s_self) + std::max(0.0, e_self) + covered;
    shard_span.Add(t.shard_us);
    untraced.Add(t.untraced_us);
    fanout.Add(static_cast<double>(t.fanout));
    seed_internal.Add(t.io.ReadsIn(PageCategory::kSeedInternal));
    seed_leaf.Add(t.io.ReadsIn(PageCategory::kSeedLeaf));
    object.Add(t.io.ReadsIn(PageCategory::kObject));
    switch (t.type) {
      case Query::Type::kRange:
        seed.Add(t.core.seed_us);
        crawl.Add(t.core.crawl_us);
        break;
      case Query::Type::kSphere:
        sphere.Add(t.core.sphere_us);
        break;
      default:
        count.Add(t.core.count_us);
        routed += t.routed;
        shortcut += t.shortcut;
    }
    if (t.type != Query::Type::kRangeCount) {
      results += t.results;
      object_reads += t.io.ReadsIn(PageCategory::kObject);
    }
  }
  // The delta layer's figures come from the queries against the overlay.
  for (const QueryTrace& t : state->overlay_queries) {
    pin.Add(t.pin_us);
    window.Add(static_cast<double>(t.window));
    snapshot.Add(t.snapshot_us);
    probes.Add(static_cast<double>(t.io.OverlayProbes()));
    merge.Add(t.core.merge_us);
  }
  const double n = static_cast<double>(std::max<size_t>(1, state->queries.size()));
  const double overhead_us = shard_span.Mean() - untraced.Mean();
  const double gap_us = clamped_sum / n - shard_span.Mean();
  // Self times clamped at zero sum to more than the store call by `gap`
  // when a re-run level came out slower than its parent. The decomposition
  // holds if that excess is within the measurement's own noise: the tracing
  // overhead, or 2 % of the store call, whichever is larger.
  const bool decomposition_ok =
      state->identity_ok &&
      gap_us <= std::max(std::abs(overhead_us), 0.02 * shard_span.Mean());

  std::printf(
      "# trace: queries=%zu identity=%s decomposition=%s gap_us=%.3f "
      "overhead_us=%.3f gate_boxes=%zu isa=%s\n",
      state->queries.size(), state->identity_ok ? "ok" : "MISMATCH",
      decomposition_ok ? "valid" : "invalid", gap_us, overhead_us,
      static_cast<size_t>(state->gate_boxes), flat::BoxKernelIsa());

  RunOutcome out;
  out.attempted = state->attempted;
  out.failed = state->failed;
  MetricSet& m = out.metrics;
  m.Add("shard.fanout", fanout.Mean(), "count");
  m.Add("shard.self_us", shard_self.Mean(), "us");
  m.Add("shard.shortcut_frac",
        routed > 0 ? static_cast<double>(shortcut) / routed : 0.0, "ratio");
  m.Add("shard.build_s", setup.build_s, "s");
  m.Add("shard.save_s", setup.save_s, "s");
  m.Add("shard.load_s", setup.load_s, "s");
  m.Add("shard.compact_build_s", Median(state->compact_build_s), "s");
  m.Add("engine.self_us", engine_self.Mean(), "us");
  m.Add("engine.busy_frac", Median(state->busy_frac), "ratio");
  m.Add("core.seed_us", seed.Mean(), "us");
  m.Add("core.crawl_us", crawl.Mean(), "us");
  m.Add("core.sphere_us", sphere.Mean(), "us");
  m.Add("core.count_us", count.Mean(), "us");
  m.Add("core.results_per_object_read",
        object_reads > 0 ? static_cast<double>(results) / object_reads : 0.0,
        "ratio");
  m.Add("rtree.count_read_ratio",
        state->range_box_reads > 0
            ? static_cast<double>(state->count_box_reads) /
                  state->range_box_reads
            : 0.0,
        "ratio");
  m.Add("storage.reads.seed_internal", seed_internal.Mean(), "pages");
  m.Add("storage.reads.seed_leaf", seed_leaf.Mean(), "pages");
  m.Add("storage.reads.object", object.Mean(), "pages");
  m.Add("storage.disk_retries", static_cast<double>(disk.first), "count");
  m.Add("storage.disk_errors", static_cast<double>(disk.second), "count");
  m.Add("geometry.gate_ns_per_box", state->gate_ns_per_box, "ns");
  m.Add("geometry.soa_gate_ns_per_box", state->soa_gate_ns_per_box, "ns");
  m.Add("delta.write_ns", Mean(state->write_ns), "ns");
  m.Add("delta.pin_us", pin.Mean(), "us");
  m.Add("delta.window_ops", window.Mean(), "count");
  m.Add("delta.snapshot_query_us", snapshot.Mean(), "us");
  m.Add("delta.probes_per_query", probes.Mean(), "count");
  m.Add("delta.merge_us", merge.Mean(), "us");
  m.Add("delta.fold_s", Median(state->fold_s), "s");
  m.Add("trace.overhead_us", overhead_us, "us");
  m.Add("trace.identity_ok", state->identity_ok ? 1.0 : 0.0, "bool");
  m.Add("trace.decomposition_ok", decomposition_ok ? 1.0 : 0.0, "bool");
  m.Add("trace.decomposition_gap_us", gap_us, "us");
  m.Add("trace.queries",
        static_cast<double>(state->queries.size() +
                            state->overlay_queries.size()),
        "count");
  return out;
}

// -------------------------------------------------------------- workloads --

RunOutcome Trace(const Config& config, TraceState* state) {
  Inputs in = MakeInputs(config);
  GridOracle& oracle = *in.oracle;
  const std::vector<Query>& ops = in.ops;
  const std::vector<Answer>& answers = in.answers;

  SetupSeries setup = SetUpRepeatedly(config, in.data.elements, kSetupRepeats);
  ShardedFlatStore& store = setup.last->store;
  flat::QueryEngine::Options engine_options;
  engine_options.threads = config.threads;
  flat::QueryEngine engine(engine_options);

  const size_t n = ops.size();
  const std::vector<double> untraced =
      UntracedPass(store, ops, n, answers.data(), state);
  const auto replay_end =
      Clock::now() + std::chrono::duration<double>(0.5 * config.seconds);
  for (size_t i = 0; i < n || Clock::now() < replay_end; ++i) {
    TraceQuery(store, &engine, nullptr, ops[i % n], answers[i % n],
               untraced[i % n], &state->queries, state);
  }
  const auto batch_end =
      Clock::now() + std::chrono::duration<double>(0.15 * config.seconds);
  std::vector<Query> batch(kBatchSize);
  std::vector<const Answer*> expected(kBatchSize);
  for (size_t next = 0; state->busy_frac.size() < 3 || Clock::now() < batch_end;
       next += kBatchSize) {
    for (size_t j = 0; j < kBatchSize; ++j) {
      batch[j] = ops[(next + j) % n];
      expected[j] = &answers[(next + j) % n];
    }
    TraceBatch(store, batch, expected, config.threads, state);
  }
  CountReadRatio(store, ops, oracle, state);

  // The disk counters belong to the store as queried, before the
  // compaction swaps its base for an in-memory one.
  const std::pair<uint64_t, uint64_t> disk = DiskCounters(store);

  // The delta layer under an overlay: the first ops replayed at the three
  // levels while kOverlayWindow writes sit in the overlay. The engine and
  // core levels see the overlay through a mirror of the store's op log.
  WriteMix mix(SubSeed(config.seed, 7), in.data.size());
  flat::DeltaLog mirror;
  TraceWrites(&store, &oracle, &mix, kOverlayWindow, &mirror, state);
  state->Check(store.overlay_op_count() == mirror.size());
  const size_t overlay_reads = config.workload == Workload::kSnDisk
                                   ? kOverlayReadsSn
                                   : kOverlayReadsLss;
  {
    const std::shared_ptr<const OverlayView> overlay = OverlayView::Build(
        mirror, 0, mirror.size(), ShardBounds(store.catalog()));
    std::vector<Answer> now(overlay_reads);
    for (size_t j = 0; j < overlay_reads; ++j) {
      now[j] = OracleAnswer(oracle, ops[j]);
    }
    const std::vector<double> untraced_now =
        UntracedPass(store, ops, overlay_reads, now.data(), state);
    for (size_t j = 0; j < overlay_reads; ++j) {
      TraceQuery(store, &engine, overlay.get(), ops[j], now[j],
                 untraced_now[j], &state->overlay_queries, state);
    }
  }
  TraceWrites(&store, &oracle, &mix, kTailWrites - kOverlayWindow, nullptr,
              state);
  TraceCompact(&store, oracle, state);
  return Report(config, setup, disk, state);
}

}  // namespace

RunOutcome TraceWorkload(const Config& config) {
  TraceState state;
  RunOutcome out = Trace(config, &state);
  state.tracer.Write(config.spans_path);
  return out;
}

}  // namespace e2e
