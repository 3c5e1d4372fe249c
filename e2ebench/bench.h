// Shared pieces of the end-to-end benchmark: the fixed store configuration,
// the workload inputs, store calls, answer checking, set-up, statistics and
// the result line.
#ifndef FLAT_E2EBENCH_BENCH_H_
#define FLAT_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "delta/delta_log.h"
#include "engine/query_engine.h"
#include "geometry/rng.h"
#include "oracle.h"
#include "shard/sharded_flat_store.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

enum class Workload { kSnDisk, kLssViewport };

struct Config {
  Workload workload = Workload::kSnDisk;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory under which sn_disk saves its stores (created if needed).
  std::string tmp_root;
  /// Where the traced run writes its spans (JSON lines); empty for none.
  std::string spans_path;
  /// Engine workers and build threads: the host's core count.
  size_t threads = 1;
};

/// The one store configuration every workload uses.
flat::ShardedFlatStore::Options StoreOptions(const Config& config);

/// Elements of both workloads' data set.
inline constexpr size_t kElements = 2000000;
/// Batch size of the RunBatch closed loop.
inline constexpr size_t kBatchSize = 256;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Both workloads end with a maintenance phase of writes (the write mix
/// below) and a Compact on the store they just queried, so write and
/// compaction cost are measured on every workload.
inline constexpr size_t kTailWrites = 262144;

/// Independent seed for one input stream of a run (splitmix64 of both).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Synthetic microcircuit of `elements` cylinders generated from `seed`.
flat::Dataset MakeNeurons(size_t elements, uint64_t seed);

/// Touch-detection traffic: SN boxes (Fig. 12/13 volume fraction 5e-9,
/// aspect 0.25-4) and equal-volume balls 3:1, each followed by a RangeCount
/// on an SN box.
std::vector<flat::Query> MakeSnOps(const flat::Aabb& universe, uint64_t seed,
                                   size_t count);
/// Analysis traffic: materializing LSS boxes (volume fraction 1e-4..1e-3 of
/// the universe) alternating with RangeCount viewports (10-90 % of the
/// elements' bounds grown by a quarter, clipped to the elements' bounds).
std::vector<flat::Query> MakeLssOps(const flat::Aabb& universe,
                                    const flat::Aabb& data_bounds,
                                    uint64_t seed, size_t count);

inline bool IsCount(const flat::Query& q) {
  return q.type == flat::Query::Type::kRangeCount;
}

/// The oracle's answer to one query: sorted ids, or a count.
struct Answer {
  std::vector<uint64_t> ids;
  uint64_t count = 0;
};
Answer OracleAnswer(const GridOracle& oracle, const flat::Query& q);

/// A workload's generated inputs: the elements, the oracle over them, the
/// cyclic op sequence and each op's answer.
struct Inputs {
  flat::Dataset data;
  std::unique_ptr<GridOracle> oracle;
  std::vector<flat::Query> ops;
  std::vector<Answer> answers;
};
Inputs MakeInputs(const Config& config);

/// Runs `q` through the store's single-query entry point (RangeQuery,
/// SphereQuery or RangeCount); the status reports I/O errors.
flat::QueryResult CallStore(const flat::ShardedFlatStore& store,
                            const flat::Query& q);
/// The same through a pinned snapshot.
flat::QueryResult CallSnapshot(const flat::ShardedFlatStore::Snapshot& snap,
                               const flat::Query& q);

/// True when `r` is a complete, exact answer equal to the oracle's.
bool Matches(const flat::QueryResult& r, const Answer& expected,
             const flat::Query& q);

/// Elements mirrored into the oracle, plus the id allocator and RNG of the
/// write mix: 60 % moves of live ids by a small displacement, 20 % inserts
/// of new ids, 20 % erases of live ids.
class WriteMix {
 public:
  WriteMix(uint64_t seed, uint64_t next_id) : rng_(seed), next_id_(next_id) {}
  /// Draws one op against the oracle's live set and applies it there.
  flat::DeltaOp Next(GridOracle* oracle);

 private:
  flat::Rng rng_;
  uint64_t next_id_;
};

/// Applies `ops` to the store, returning the seconds the calls took.
double ApplyWrites(flat::ShardedFlatStore* store,
                   std::span<const flat::DeltaOp> ops);

/// A directory removed (with its contents) when the object dies.
class TempDir {
 public:
  explicit TempDir(const std::string& root);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

uint64_t DirectoryBytes(const std::string& dir);

/// One set-up of the workload's store from the generated elements: Build,
/// and for sn_disk Save into a fresh directory plus Load(kDisk).
struct SetupResult {
  std::unique_ptr<TempDir> dir;  // declared first: outlives the store
  flat::ShardedFlatStore store;
  double seconds = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
};
/// Sets the store up `repeats` times, keeping the last, and reports the
/// median set-up time (and the medians of its parts).
struct SetupSeries {
  std::unique_ptr<SetupResult> last;
  double median_s = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
};
SetupSeries SetUpRepeatedly(const Config& config,
                            const std::vector<flat::RTreeEntry>& elements,
                            int repeats);

/// Store bytes per live element, measured by saving into a fresh directory.
double BytesPerElement(const Config& config,
                       const flat::ShardedFlatStore& store, uint64_t live);

/// Cumulative CPU clock ticks of this machine from /proc/stat: the ticks its
/// host took for other guests (steal) and all ticks. Zeros where there is
/// no such file.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Share of the CPU time between two readings that the host took.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// Resident set size now / the process's peak so far, in MiB.
double RssMb();
double PeakRssMb();

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

/// Ordered name -> (value, unit) list printed as the result line.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
};

/// The untraced run (end-to-end metrics) and the traced run (per-layer
/// metrics) of one workload.
RunOutcome RunWorkload(const Config& config);
RunOutcome TraceWorkload(const Config& config);


}  // namespace e2e

#endif  // FLAT_E2EBENCH_BENCH_H_
