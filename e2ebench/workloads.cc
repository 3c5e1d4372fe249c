// The untraced runs: every end-to-end metric, measured through the public
// ShardedFlatStore API with every answer checked against the grid oracle.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <malloc.h>
#include <span>
#include <thread>

#include "bench.h"

namespace e2e {

using flat::Query;
using flat::QueryResult;
using flat::ShardedFlatStore;

namespace {

/// Writes are timed in blocks of kWriteBlock ops, one block at the start of
/// each of equal slots over a phase of kWriteShare of the run;
/// write_ops_per_s is the median block rate over the phase's quietest
/// quarter (QuietBlocks below). A block spans 16 log chunks, so every block
/// pays the log's allocations alike, and an op costs tens of nanoseconds
/// whose share of the host's memory load moves from moment to moment: blocks
/// spread over seconds sample that load the way the latency phases do.
constexpr size_t kWriteBlock = 4096;
constexpr double kWriteShare = 0.15;

/// Latency samples, failures and per-query reads of one run.
struct Tally {
  std::vector<double> query_us;
  std::vector<double> count_us;
  std::vector<double> batch_qps;
  std::vector<double> write_ops_per_s;
  std::vector<double> compact_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One timed single-client store call.
QueryResult TimedCall(const ShardedFlatStore& store, const Query& q,
                      Tally* tally) {
  const auto start = Clock::now();
  QueryResult r = CallStore(store, q);
  const double us = MicrosSince(start);
  (IsCount(q) ? tally->count_us : tally->query_us).push_back(us);
  return r;
}

/// One timed RunBatch over `batch`.
std::vector<QueryResult> TimedBatch(const ShardedFlatStore& store,
                                    const std::vector<Query>& batch,
                                    Tally* tally) {
  const auto start = Clock::now();
  std::vector<QueryResult> results = store.RunBatch(batch);
  tally->batch_qps.push_back(batch.size() / SecondsSince(start));
  return results;
}

/// Checks batch results against the oracle and against the page reads the
/// same queries made as single calls.
void CheckBatch(const std::vector<QueryResult>& results,
                const std::vector<Query>& batch,
                const std::vector<const Answer*>& expected,
                const std::vector<uint64_t>& reads, Tally* tally) {
  for (size_t j = 0; j < batch.size(); ++j) {
    tally->Check(Matches(results[j], *expected[j], batch[j]) &&
                 results[j].io.TotalReads() == reads[j]);
  }
}

/// Compacts, checking the new base holds exactly the oracle's live set.
void TimedCompact(ShardedFlatStore* store, const GridOracle& oracle,
                  Tally* tally) {
  const auto start = Clock::now();
  store->Compact();
  tally->compact_s.push_back(SecondsSince(start));
  tally->Check(store->catalog().total_elements == oracle.size() &&
               store->overlay_op_count() == 0);
}

/// Splits a timed phase into blocks of about a quarter second and records
/// how much CPU time the host took during each, so that latency and
/// throughput figures can be taken over the quietest quarter of the blocks:
/// on a virtual machine whose host is busy, a stolen CPU delays a query by a
/// whole scheduling slice, which swamps any tail percentile. Steal comes in
/// bursts; on a busy host a quarter of the blocks still saw none.
class QuietBlocks {
 public:
  /// Watches one or two sample series (`second` may be null).
  QuietBlocks(const std::vector<double>* first,
              const std::vector<double>* second)
      : series_{first, second} {
    Open();
  }

  /// Call after each sample; closes the block when its time is up.
  void Tick() {
    if (Clock::now() < block_end_) return;
    Close();
    Open();
  }
  void Finish() { Close(); }

  /// Samples of series `s` that fall in the quietest quarter of the blocks.
  std::vector<double> Quiet(int s) const {
    std::vector<const Block*> order;
    for (const Block& b : blocks_) order.push_back(&b);
    std::stable_sort(order.begin(), order.end(),
                     [](const Block* x, const Block* y) {
                       return x->steal < y->steal;
                     });
    order.resize(Kept());
    std::vector<double> kept;
    for (const Block* b : order) {
      kept.insert(kept.end(), series_[s]->begin() + b->begin[s],
                  series_[s]->begin() + b->end[s]);
    }
    return kept;
  }

  size_t blocks() const { return blocks_.size(); }
  size_t Kept() const { return (blocks_.size() + 3) / 4; }

 private:
  static constexpr double kBlockSeconds = 0.25;
  struct Block {
    size_t begin[2] = {0, 0};
    size_t end[2] = {0, 0};
    double steal = 0.0;
  };

  size_t Size(int s) const {
    return series_[s] != nullptr ? series_[s]->size() : 0;
  }
  void Open() {
    open_ = Block{{Size(0), Size(1)}, {0, 0}, 0.0};
    ticks_ = ReadCpuTicks();
    block_end_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        kBlockSeconds));
  }
  void Close() {
    open_.end[0] = Size(0);
    open_.end[1] = Size(1);
    open_.steal = StealShare(ticks_, ReadCpuTicks());
    if (open_.end[0] > open_.begin[0] || open_.end[1] > open_.begin[1]) {
      blocks_.push_back(open_);
    }
  }

  const std::vector<double>* series_[2];
  std::vector<Block> blocks_;
  Block open_;
  CpuTicks ticks_;
  Clock::time_point block_end_;
};

/// Maps the memory the log of `count` writes takes before the writes are
/// timed, so that write_ops_per_s is the cost of the calls and not of the
/// kernel's first touch of fresh pages. Without it the rate followed the
/// heap's history: on a 4-core VM the same writes ran at about 24 M/s after
/// sn_disk, whose discarded set-ups leave freed heap pages for the log, and
/// at about 12 M/s after lss_viewport, whose log took fresh pages at a few
/// microseconds each. The log's footprint shows in mem_mb. The writes go
/// into a throwaway store's log, of the same chunk size; with trimming off,
/// the allocator keeps its pages when the store is gone, for the store under
/// test. Trimming is back on when the guard ends.
class PrefaultedLog {
 public:
  explicit PrefaultedLog(size_t count) {
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    ShardedFlatStore throwaway;
    for (size_t id = 0; id < count; ++id) throwaway.Erase(id);
  }
  ~PrefaultedLog() { mallopt(M_TRIM_THRESHOLD, kDefaultTrimThreshold); }
  PrefaultedLog(const PrefaultedLog&) = delete;
  PrefaultedLog& operator=(const PrefaultedLog&) = delete;

 private:
  /// glibc's default M_TRIM_THRESHOLD.
  static constexpr int kDefaultTrimThreshold = 128 * 1024;
};

/// Draws `count` writes (mirrored into the oracle), then applies them to the
/// store in timed blocks, one at the start of each of equal slots that
/// together last `seconds`; returns the phase's blocks. The log's chunks are
/// the only allocations while the log's memory is prefaulted.
QuietBlocks TimedWrites(ShardedFlatStore* store, GridOracle* oracle,
                        WriteMix* mix, size_t count, double seconds,
                        Tally* tally) {
  std::vector<flat::DeltaOp> ops;
  ops.reserve(count);
  while (ops.size() < count) ops.push_back(mix->Next(oracle));
  const std::span<const flat::DeltaOp> all(ops);
  const size_t blocks = (count + kWriteBlock - 1) / kWriteBlock;
  const auto slot = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / blocks));
  const PrefaultedLog prefaulted(count);
  QuietBlocks quiet(&tally->write_ops_per_s, nullptr);
  const auto start = Clock::now();
  for (size_t b = 0; b < blocks; ++b) {
    std::this_thread::sleep_until(start + b * slot);
    const size_t first = b * kWriteBlock;
    const std::span<const flat::DeltaOp> block =
        all.subspan(first, std::min(kWriteBlock, count - first));
    tally->write_ops_per_s.push_back(block.size() / ApplyWrites(store, block));
    tally->attempted += block.size();
    quiet.Tick();
  }
  quiet.Finish();
  return quiet;
}

void PrintSamples(const Tally& tally) {
  std::printf(
      "# samples: query=%zu count=%zu batches=%zu write_blocks=%zu "
      "compactions=%zu\n",
      tally.query_us.size(), tally.count_us.size(), tally.batch_qps.size(),
      tally.write_ops_per_s.size(), tally.compact_s.size());
}

RunOutcome Finish(const Tally& tally, const QuietBlocks& single,
                  const QuietBlocks& batches, const QuietBlocks& writes,
                  const SetupSeries& setup,
                  double reads_per_query, double mem_mb,
                  double bytes_per_element) {
  const std::vector<double> query_us = single.Quiet(0);
  const std::vector<double> count_us = single.Quiet(1);
  PrintSamples(tally);
  std::printf("# quiet quarter: %zu of %zu query blocks (%zu queries, %zu "
              "counts), %zu of %zu batch blocks, %zu of %zu write blocks\n",
              single.Kept(), single.blocks(), query_us.size(),
              count_us.size(), batches.Kept(), batches.blocks(),
              writes.Kept(), writes.blocks());
  if (query_us.size() < 1000 || count_us.size() < 1000) {
    std::printf("# warning: fewer than 10 samples beyond a p99\n");
  }
  RunOutcome out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  MetricSet& m = out.metrics;
  m.Add("setup_s", setup.median_s, "s");
  m.Add("query_p50_us", Percentile(query_us, 50), "us");
  m.Add("query_p99_us", Percentile(query_us, 99), "us");
  m.Add("count_p50_us", Percentile(count_us, 50), "us");
  m.Add("count_p99_us", Percentile(count_us, 99), "us");
  m.Add("batch_qps", Median(batches.Quiet(0)), "1/s");
  m.Add("reads_per_query", reads_per_query, "pages");
  m.Add("write_ops_per_s", Median(writes.Quiet(0)), "1/s");
  m.Add("compact_s", Median(tally.compact_s), "s");
  m.Add("mem_mb", mem_mb, "MiB");
  m.Add("bytes_per_element", bytes_per_element, "B");
  return out;
}

}  // namespace

RunOutcome RunWorkload(const Config& config) {
  Inputs in = MakeInputs(config);
  GridOracle& oracle = *in.oracle;
  const std::vector<Query>& ops = in.ops;
  const std::vector<Answer>& answers = in.answers;

  const double rss_before = RssMb();
  SetupSeries setup = SetUpRepeatedly(config, in.data.elements, kSetupRepeats);
  ShardedFlatStore& store = setup.last->store;
  Tally tally;

  // Single client, closed loop, at least one full pass over the ops: the
  // first pass fixes each query's page reads, and every repeat must match.
  const size_t n = ops.size();
  std::vector<uint64_t> reads(n);
  const auto single_end =
      Clock::now() + std::chrono::duration<double>(0.55 * config.seconds);
  QuietBlocks single(&tally.query_us, &tally.count_us);
  for (size_t i = 0; i < n || Clock::now() < single_end; ++i) {
    const size_t k = i % n;
    const QueryResult r = TimedCall(store, ops[k], &tally);
    single.Tick();
    tally.Check(Matches(r, answers[k], ops[k]));
    if (i < n) {
      reads[k] = r.io.TotalReads();
    } else {
      tally.Check(r.io.TotalReads() == reads[k]);
    }
  }
  single.Finish();
  uint64_t total_reads = 0;
  for (uint64_t r : reads) total_reads += r;

  // One submitting thread, fixed-size batches of the same op sequence.
  const auto batch_end =
      Clock::now() + std::chrono::duration<double>(0.30 * config.seconds);
  std::vector<Query> batch(kBatchSize);
  std::vector<const Answer*> expected(kBatchSize);
  std::vector<uint64_t> batch_reads(kBatchSize);
  QuietBlocks batches(&tally.batch_qps, nullptr);
  for (size_t next = 0; tally.batch_qps.size() < 3 || Clock::now() < batch_end;
       next += kBatchSize) {
    for (size_t j = 0; j < kBatchSize; ++j) {
      const size_t k = (next + j) % n;
      batch[j] = ops[k];
      expected[j] = &answers[k];
      batch_reads[j] = reads[k];
    }
    CheckBatch(TimedBatch(store, batch, &tally), batch, expected, batch_reads,
               &tally);
    batches.Tick();
  }
  batches.Finish();

  // Maintenance writes, then a compaction and a re-check of the first ops
  // against the updated oracle.
  WriteMix mix(SubSeed(config.seed, 7), in.data.size());
  const QuietBlocks writes = TimedWrites(
      &store, &oracle, &mix, kTailWrites, kWriteShare * config.seconds, &tally);
  TimedCompact(&store, oracle, &tally);
  for (size_t k = 0; k < std::min<size_t>(n, 64); ++k) {
    tally.Check(Matches(CallStore(store, ops[k]), OracleAnswer(oracle, ops[k]),
                        ops[k]));
  }

  const double mem_mb = PeakRssMb() - rss_before;
  return Finish(tally, single, batches, writes, setup,
                static_cast<double>(total_reads) / n, mem_mb,
                BytesPerElement(config, store, oracle.size()));
}

}  // namespace e2e
