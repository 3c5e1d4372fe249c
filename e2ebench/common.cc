#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.h"
#include "data/neuron_generator.h"
#include "data/query_generator.h"

namespace e2e {

using flat::Aabb;
using flat::Query;
using flat::QueryResult;
using flat::QueryStatus;
using flat::ShardedFlatStore;
using flat::Vec3;

ShardedFlatStore::Options StoreOptions(const Config& config) {
  ShardedFlatStore::Options options;
  options.num_shards = 4;
  options.num_threads = config.threads;
  options.page_size = 4096;
  options.aggregate_counts = true;
  return options;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

flat::Dataset MakeNeurons(size_t elements, uint64_t seed) {
  flat::NeuronParams params;
  params.total_elements = elements;
  params.seed = seed;
  return flat::GenerateNeurons(params);
}

std::vector<Query> MakeSnOps(const Aabb& universe, uint64_t seed,
                             size_t count) {
  constexpr double kSnFraction = 5e-9;
  flat::RangeWorkloadParams params;
  params.count = count;
  params.volume_fraction = kSnFraction;
  params.min_aspect = 0.25;
  params.max_aspect = 4.0;
  params.seed = SubSeed(seed, 1);
  const std::vector<Aabb> boxes = flat::GenerateRangeWorkload(universe, params);
  const std::vector<Vec3> centers =
      flat::GeneratePointWorkload(universe, count, SubSeed(seed, 2));
  const double radius = std::cbrt(3.0 * kSnFraction * universe.Volume() /
                                  (4.0 * std::numbers::pi));
  std::vector<Query> ops;
  ops.reserve(count);
  // Per eight ops: three boxes and one ball (3:1), each followed by a
  // count.
  for (size_t k = 0; k < count; ++k) {
    if (k % 2 == 1) {
      ops.push_back(Query::RangeCount(boxes[k]));
    } else if (k % 8 == 6) {
      ops.push_back(Query::Sphere(centers[k], radius));
    } else {
      ops.push_back(Query::Range(boxes[k]));
    }
  }
  return ops;
}

std::vector<Query> MakeLssOps(const Aabb& universe, const Aabb& data_bounds,
                              uint64_t seed, size_t count) {
  flat::Rng rng(SubSeed(seed, 3));
  // Viewports are placed in the data bounds grown by a quarter about their
  // center and clipped back to them: a viewport panned partly off the data,
  // so that it often spans whole shards (the covered-shard shortcut).
  const Vec3 grow = data_bounds.Extents() * 0.125;
  const Aabb view_space(data_bounds.lo() - grow, data_bounds.hi() + grow);
  std::vector<Query> ops;
  ops.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    flat::RangeWorkloadParams params;
    params.count = 1;
    params.seed = SubSeed(seed, 100 + k);
    if (k % 2 == 0) {
      params.volume_fraction = std::pow(10.0, rng.Uniform(-4.0, -3.0));
      params.min_aspect = 0.25;
      params.max_aspect = 4.0;
      ops.push_back(
          Query::Range(flat::GenerateRangeWorkload(universe, params)[0]));
    } else {
      params.volume_fraction = rng.Uniform(0.1, 0.9);
      params.min_aspect = 0.5;
      params.max_aspect = 2.0;
      ops.push_back(Query::RangeCount(Aabb::Intersection(
          flat::GenerateRangeWorkload(view_space, params)[0], data_bounds)));
    }
  }
  return ops;
}

Answer OracleAnswer(const GridOracle& oracle, const Query& q) {
  Answer answer;
  switch (q.type) {
    case Query::Type::kRange:
      answer.ids = oracle.Range(q.box);
      break;
    case Query::Type::kSphere:
      answer.ids = oracle.Sphere(q.center, q.radius);
      break;
    case Query::Type::kRangeCount:
      answer.count = oracle.Count(q.box);
      return answer;
    default:
      throw std::logic_error("query type outside the benchmark's mix");
  }
  answer.count = answer.ids.size();
  return answer;
}

Inputs MakeInputs(const Config& config) {
  flat::Dataset data = MakeNeurons(kElements, config.seed);
  auto oracle = std::make_unique<GridOracle>(data.bounds, data.size());
  for (const flat::RTreeEntry& e : data.elements) oracle->Upsert(e);
  Inputs in{std::move(data), std::move(oracle), {}, {}};
  in.ops = config.workload == Workload::kSnDisk
               ? MakeSnOps(in.data.bounds, config.seed, 4000)
               : MakeLssOps(in.data.bounds, in.data.ElementBounds(),
                            config.seed, 800);
  in.answers.reserve(in.ops.size());
  for (const Query& q : in.ops) {
    in.answers.push_back(OracleAnswer(*in.oracle, q));
  }
  return in;
}

namespace {

template <typename Target>
QueryResult Call(const Target& target, const Query& q) {
  QueryResult r;
  switch (q.type) {
    case Query::Type::kRange:
      r.ids = target.RangeQuery(q.box, &r.io);
      r.count = r.ids.size();
      break;
    case Query::Type::kSphere:
      r.ids = target.SphereQuery(q.center, q.radius, &r.io);
      r.count = r.ids.size();
      break;
    case Query::Type::kRangeCount:
      r.count = target.RangeCount(q.box, &r.io);
      break;
    default:
      throw std::logic_error("query type outside the benchmark's mix");
  }
  if (r.io.IoErrors() > 0) r.status = QueryStatus::kIoError;
  return r;
}

}  // namespace

QueryResult CallStore(const ShardedFlatStore& store, const Query& q) {
  return Call(store, q);
}

QueryResult CallSnapshot(const ShardedFlatStore::Snapshot& snap,
                         const Query& q) {
  return Call(snap, q);
}

bool Matches(const QueryResult& r, const Answer& expected, const Query& q) {
  if (r.status != QueryStatus::kOk) return false;
  if (IsCount(q)) return r.count == expected.count;
  return r.count == r.ids.size() && r.ids == expected.ids;
}

flat::DeltaOp WriteMix::Next(GridOracle* oracle) {
  flat::DeltaOp op;
  const double u = rng_.Uniform(0.0, 1.0);
  const bool have_live = oracle->size() > 0;
  auto random_live = [&] {
    return oracle->LiveIdAt(static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(oracle->size()) - 1)));
  };
  auto shifted = [&](const Aabb& box, double reach) {
    const Vec3 d(rng_.Uniform(-reach, reach), rng_.Uniform(-reach, reach),
                 rng_.Uniform(-reach, reach));
    return Aabb(box.lo() + d, box.hi() + d);
  };
  if (have_live && u < 0.6) {  // move an existing element a little
    op.kind = flat::DeltaOp::Kind::kInsert;
    op.entry.id = random_live();
    op.entry.box = shifted(oracle->BoxOf(op.entry.id), 0.1);
    oracle->Upsert(op.entry);
  } else if (have_live && u >= 0.8) {  // erase an existing element
    op.kind = flat::DeltaOp::Kind::kDelete;
    op.entry.id = random_live();
    oracle->Erase(op.entry.id);
  } else {  // a new element shaped like a live one, nearby
    op.kind = flat::DeltaOp::Kind::kInsert;
    const Aabb shape = have_live ? oracle->BoxOf(random_live())
                                 : Aabb(Vec3(0, 0, 0), Vec3(0.5, 0.5, 0.5));
    op.entry.id = next_id_++;
    op.entry.box = shifted(shape, 0.5);
    oracle->Upsert(op.entry);
  }
  return op;
}

double ApplyWrites(ShardedFlatStore* store,
                   std::span<const flat::DeltaOp> ops) {
  const auto start = Clock::now();
  for (const flat::DeltaOp& op : ops) {
    if (op.kind == flat::DeltaOp::Kind::kInsert) {
      store->Insert(op.entry);
    } else {
      store->Erase(op.entry.id);
    }
  }
  return SecondsSince(start);
}

TempDir::TempDir(const std::string& root) {
  std::filesystem::create_directories(root);
  std::string pattern = root + "/store-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create a directory under " + root);
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

namespace {

std::unique_ptr<SetupResult> SetUpStore(
    const Config& config, const std::vector<flat::RTreeEntry>& elements) {
  auto setup = std::make_unique<SetupResult>();
  std::vector<flat::RTreeEntry> input = elements;  // Build consumes it
  const auto start = Clock::now();
  ShardedFlatStore built =
      ShardedFlatStore::Build(std::move(input), StoreOptions(config));
  setup->build_s = SecondsSince(start);
  if (config.workload == Workload::kSnDisk) {
    // A fresh directory per set-up: a store never saves over files a live
    // store has mapped.
    setup->dir = std::make_unique<TempDir>(config.tmp_root);
    const auto save = Clock::now();
    built.Save(setup->dir->path());
    setup->save_s = SecondsSince(save);
    built = ShardedFlatStore();
    const auto load = Clock::now();
    setup->store = ShardedFlatStore::Load(setup->dir->path(), config.threads,
                                          ShardedFlatStore::LoadBackend::kDisk);
    setup->load_s = SecondsSince(load);
  } else {
    setup->store = std::move(built);
  }
  setup->seconds = SecondsSince(start);
  return setup;
}

/// Flushes the files of `dir` to disk, so that the kernel's delayed
/// writeback of the benchmark's own saves does not land in a measurement.
void SyncDirectory(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    fsync(fd);
    close(fd);
  }
}

}  // namespace

SetupSeries SetUpRepeatedly(const Config& config,
                            const std::vector<flat::RTreeEntry>& elements,
                            int repeats) {
  SetupSeries series;
  std::vector<double> total, build, save, load;
  for (int i = 0; i < repeats; ++i) {
    series.last.reset();  // one store alive at a time
    series.last = SetUpStore(config, elements);
    total.push_back(series.last->seconds);
    build.push_back(series.last->build_s);
    save.push_back(series.last->save_s);
    load.push_back(series.last->load_s);
  }
  // Earlier set-ups' directories are gone, and their unwritten pages with
  // them; the kept one is flushed outside the timed set-up.
  if (series.last->dir != nullptr) SyncDirectory(series.last->dir->path());
  series.median_s = Median(total);
  series.build_s = Median(build);
  series.save_s = Median(save);
  series.load_s = Median(load);
  return series;
}

double BytesPerElement(const Config& config, const ShardedFlatStore& store,
                       uint64_t live) {
  TempDir dir(config.tmp_root);
  store.Save(dir.path());
  return static_cast<double>(DirectoryBytes(dir.path())) /
         static_cast<double>(std::max<uint64_t>(live, 1));
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  CpuTicks ticks;
  for (uint64_t& field : fields) {
    stat >> field;
    ticks.total += field;
  }
  ticks.steal = fields[7];
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const uint64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) / total : 0.0;
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / 1048576.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * values.size());
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  items_.emplace_back(name, std::make_pair(value, unit));
}

std::string MetricSet::Json() const {
  std::ostringstream out;
  out << std::setprecision(17) << "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    const double value =
        std::isfinite(items_[i].second.first) ? items_[i].second.first : 0.0;
    out << (i > 0 ? ", " : "") << "\"" << items_[i].first
        << "\": {\"value\": " << value << ", \"unit\": \""
        << items_[i].second.second << "\"}";
  }
  out << "}";
  return out.str();
}

}  // namespace e2e
