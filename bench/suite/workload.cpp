#include "workload.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common.h"
#include "dist/euclidean.h"
#include "index/raw_source.h"
#include "io/format.h"
#include "persist/checksum.h"
#include "scan/ucr_scan.h"
#include "util/rng.h"

namespace parisax::suite {

namespace {

// Sizes. mem_exact/mem_approx sit above QueryService's kAuto
// threshold (64M point pairs = 262,144 x 256), mem_ingest below it.
constexpr size_t kMemSeries = 300000;
constexpr size_t kIngestBase = 100000;
constexpr size_t kDiskSeries = 200000;
constexpr size_t kSnapSeries = 50000;
constexpr size_t kLength = 256;

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kNn:
      return "nn";
    case OpKind::kKnn:
      return "knn";
    case OpKind::kDtw:
      return "dtw";
    case OpKind::kApprox:
      return "approx";
  }
  return "?";
}

/// Engine options the workload serves with: EngineOptions{} except the
/// algorithm and, for kFile, the device models and leaf store.
EngineOptions WorkloadEngineOptions(const WorkloadSpec& spec,
                                    const std::string& data_path) {
  EngineOptions options;
  options.algorithm = spec.algorithm;
  if (spec.residency == Residency::kFile) {
    // The build streams through the SSD model; queries read through the
    // OS page cache (the metered multi-channel SSD picks channels by
    // thread-id hash, which makes query timings unrepeatable).
    options.build_profile = DiskProfile::Ssd();
    options.query_profile = DiskProfile::Instant();
    options.leaf_storage_path = data_path + ".leaves";
  }
  return options;
}

QueryPool MakePool(const WorkloadSpec& spec, uint64_t seed) {
  QueryPool pool;
  pool.queries = spec.perturbed_queries
                     ? GeneratePerturbedQueries(spec.data, kPoolSize,
                                                spec.length, seed,
                                                spec.series)
                     : GenerateQueries(spec.data, kPoolSize, spec.length,
                                       seed);
  // Exact op shares: the first slots carry the secondary op; the query
  // content of a slot is independent of its index.
  const auto secondary = static_cast<size_t>(
      spec.secondary_share * static_cast<double>(kPoolSize) + 0.5);
  pool.kinds.assign(kPoolSize, spec.primary);
  std::fill_n(pool.kinds.begin(), secondary, spec.secondary);
  pool.order.resize(kPoolSize);
  for (uint32_t s = 0; s < kPoolSize; ++s) pool.order[s] = s;
  Rng rng(seed ^ 0x4f52444552ULL);  // "ORDER"
  for (size_t i = kPoolSize - 1; i > 0; --i) {
    std::swap(pool.order[i], pool.order[rng.NextBelow(i + 1)]);
  }
  return pool;
}

std::string Stem(const std::string& work_dir, const WorkloadSpec& spec) {
  return work_dir + "/" + spec.name;
}

/// "<size>:<crc32>" of the running parisax_bench binary. The library is
/// linked in statically, so a rebuild from changed sources (of the
/// generator, the scan kernels or the benchmark) changes it.
std::string BinaryFingerprint() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (!in.is_open() || bytes.empty()) {
    Fatal("cannot read the running binary");
  }
  return std::to_string(bytes.size()) + ":" +
         std::to_string(Crc32(bytes.data(), bytes.size()));
}

Dataset Generate(DatasetKind kind, uint64_t seed, size_t count,
                 ThreadPool* pool) {
  GeneratorOptions options;
  options.kind = kind;
  options.count = count;
  options.length = kLength;
  options.seed = seed;
  return GenerateDataset(options, pool);
}

/// Series [first, first + count) of the (kind, seed) collection.
Dataset GenerateRange(DatasetKind kind, uint64_t seed, size_t first,
                      size_t count) {
  Dataset out(count, kLength);
  for (size_t i = 0; i < count; ++i) {
    GenerateSeriesInto(kind, seed, first + i, out.mutable_series(i));
  }
  return out;
}

Dataset CopyOf(const Dataset& data) {
  Dataset copy(data.count(), data.length());
  std::memcpy(copy.mutable_raw(), data.raw(),
              data.TotalValues() * sizeof(Value));
  return copy;
}

std::vector<uint32_t> SlotsWith(const QueryPool& pool, bool dtw) {
  std::vector<uint32_t> slots;
  for (uint32_t s = 0; s < pool.kinds.size(); ++s) {
    if ((pool.kinds[s] == OpKind::kDtw) == dtw) slots.push_back(s);
  }
  return slots;
}

/// Computes the exact answer to every slot's op over `data`.
std::vector<std::vector<Neighbor>> ExactAnswers(const QueryPool& pool,
                                                const Dataset& data,
                                                ThreadPool* threads) {
  std::vector<std::vector<Neighbor>> answers(pool.kinds.size());
  const std::vector<uint32_t> ed = SlotsWith(pool, /*dtw=*/false);
  const bool any_knn = std::count(pool.kinds.begin(), pool.kinds.end(),
                                  OpKind::kKnn) > 0;
  auto ed_answers = ComputeEdKnn(data, pool.queries, ed,
                                 any_knn ? kKnnK : 1, threads);
  for (size_t i = 0; i < ed.size(); ++i) {
    auto& answer = ed_answers[i];
    if (pool.kinds[ed[i]] != OpKind::kKnn) answer.resize(1);
    answers[ed[i]] = std::move(answer);
  }
  const InMemorySource source(&data);
  for (const uint32_t s : SlotsWith(pool, /*dtw=*/true)) {
    answers[s] = {
        DtwScanParallel(source, pool.queries.series(s), kDtwBand, threads)};
  }
  return answers;
}

/// Names everything the cached answers depend on: the binary that
/// generated the inputs and computed them, and the workload's inputs.
std::string OracleKey(const WorkloadSpec& spec, uint64_t seed,
                      size_t final_count) {
  std::ostringstream key;
  key << "binary=" << BinaryFingerprint()
      << " data=" << DatasetKindName(spec.data) << " seed=" << seed
      << " series=" << spec.series << " final=" << final_count
      << " length=" << spec.length << " pool=" << kPoolSize
      << " perturbed=" << spec.perturbed_queries
      << " mix=" << OpKindName(spec.primary) << "/"
      << OpKindName(spec.secondary) << ":" << spec.secondary_share
      << " k=" << kKnnK << " band=" << kDtwBand;
  return key.str();
}

/// Writes the collection (and the snapshot, built by this binary) to
/// disk. Every run rewrites them, so a run never serves files another
/// build left behind.
void PrepareFiles(const WorkloadSpec& spec, const Inputs& inputs) {
  const Status written = WriteDataset(inputs.base, inputs.data_path);
  if (!written.ok()) Fatal("writing " + inputs.data_path, written);
  if (!inputs.snapshot_path.empty()) {
    EngineOptions options;
    options.algorithm = spec.algorithm;
    auto engine =
        Engine::Build(SourceSpec::Mmap(inputs.data_path), options);
    if (!engine.ok()) Fatal("snapshot prep build", engine.status());
    const Status saved = (*engine)->Save(inputs.snapshot_path);
    if (!saved.ok()) Fatal("snapshot prep save", saved);
  }
}

/// Loads the cached oracle of this (workload, seed, collection) or
/// computes and caches it.
Oracle LoadOrComputeOracle(const WorkloadSpec& spec, const Inputs& inputs,
                           const std::string& work_dir, ThreadPool* pool) {
  const size_t appended = inputs.appended.count();
  const std::string key = OracleKey(spec, inputs.seed, spec.series + appended);
  std::filesystem::create_directories(work_dir + "/oracle");
  std::string path =
      work_dir + "/oracle/" + spec.name + "-" + std::to_string(inputs.seed);
  if (appended > 0) path += "-appended" + std::to_string(appended);
  path += ".bin";
  Oracle oracle;
  if (LoadOracle(path, key, &oracle)) return oracle;

  if (appended == 0) {
    oracle.answers = ExactAnswers(inputs.pool, inputs.base, pool);
  } else {
    Dataset final_data(spec.series + appended, spec.length);
    std::memcpy(final_data.mutable_raw(), inputs.base.raw(),
                inputs.base.TotalValues() * sizeof(Value));
    std::memcpy(final_data.mutable_raw() + inputs.base.TotalValues(),
                inputs.appended.raw(),
                inputs.appended.TotalValues() * sizeof(Value));
    oracle.answers = ExactAnswers(inputs.pool, final_data, pool);
    const std::vector<uint32_t> ed = SlotsWith(inputs.pool, /*dtw=*/false);
    const auto base_nn =
        ComputeEdKnn(inputs.base, inputs.pool.queries, ed, 1, pool);
    oracle.base_nn.resize(kPoolSize);
    for (size_t i = 0; i < ed.size(); ++i) {
      oracle.base_nn[ed[i]] = base_nn[i][0];
    }
  }
  const Status saved = SaveOracle(path, key, oracle);
  if (!saved.ok()) Fatal("saving the oracle", saved);
  return oracle;
}

}  // namespace

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "mem_exact",
       .algorithm = Algorithm::kMessi,
       .data = DatasetKind::kRandomWalk,
       .series = kMemSeries,
       .length = kLength,
       .residency = Residency::kInMemory,
       .perturbed_queries = false,
       .primary = OpKind::kNn,
       .secondary = OpKind::kKnn,
       .secondary_share = 0.3,
       .query_conns = 4,
       .append_hz = 0.0,
       .append_batch = 0},
      {.name = "mem_ingest",
       .algorithm = Algorithm::kMessi,
       .data = DatasetKind::kRandomWalk,
       .series = kIngestBase,
       .length = kLength,
       .residency = Residency::kInMemory,
       .perturbed_queries = false,
       .primary = OpKind::kNn,
       .secondary = OpKind::kNn,
       .secondary_share = 0.0,
       .query_conns = 3,
       .append_hz = 80.0,
       .append_batch = 64},
      {.name = "disk_exact",
       .algorithm = Algorithm::kParisPlus,
       .data = DatasetKind::kRandomWalk,
       .series = kDiskSeries,
       .length = kLength,
       .residency = Residency::kFile,
       .perturbed_queries = false,
       .primary = OpKind::kNn,
       .secondary = OpKind::kNn,
       .secondary_share = 0.0,
       .query_conns = 4,
       .append_hz = 0.0,
       .append_batch = 0},
      {.name = "snap_hard",
       .algorithm = Algorithm::kMessi,
       .data = DatasetKind::kSeismicBurst,
       .series = kSnapSeries,
       .length = kLength,
       .residency = Residency::kSnapshot,
       .perturbed_queries = true,
       .primary = OpKind::kNn,
       .secondary = OpKind::kDtw,
       .secondary_share = 0.2,
       .query_conns = 4,
       .append_hz = 0.0,
       .append_batch = 0},
      {.name = "mem_approx",
       .algorithm = Algorithm::kMessi,
       .data = DatasetKind::kRandomWalk,
       .series = kMemSeries,
       .length = kLength,
       .residency = Residency::kInMemory,
       .perturbed_queries = false,
       .primary = OpKind::kApprox,
       .secondary = OpKind::kApprox,
       .secondary_share = 0.0,
       .query_conns = 4,
       .append_hz = 0.0,
       .append_batch = 0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t AppendBatches(const WorkloadSpec& spec, double total_seconds) {
  return static_cast<uint64_t>(spec.append_hz * total_seconds);
}

Inputs Prepare(const WorkloadSpec& spec, uint64_t seed, uint64_t batches,
               const std::string& work_dir, ThreadPool* pool) {
  Inputs inputs;
  inputs.seed = seed;
  inputs.base = Generate(spec.data, seed, spec.series, pool);
  inputs.pool = MakePool(spec, seed);
  if (batches > 0) {
    inputs.appended = GenerateRange(spec.data, seed, spec.series,
                                    batches * spec.append_batch);
  }
  if (spec.residency != Residency::kInMemory) {
    inputs.data_path = Stem(work_dir, spec) + ".psax";
    if (spec.residency == Residency::kSnapshot) {
      inputs.snapshot_path = Stem(work_dir, spec) + ".snap";
    }
    PrepareFiles(spec, inputs);
  }
  inputs.oracle = LoadOrComputeOracle(spec, inputs, work_dir, pool);
  // File-backed engines read their data from disk; keep no copy.
  if (spec.residency != Residency::kInMemory) inputs.base = Dataset();
  return inputs;
}

Served SetUp(const WorkloadSpec& spec, const Inputs& inputs,
             TraceLog* trace) {
  Served served;
  const EngineOptions options =
      WorkloadEngineOptions(spec, inputs.data_path);
  double timed = 0.0;
  while (served.setup_seconds.size() < kMinSetupReps ||
         (timed < kSetupBudgetSeconds &&
          served.setup_seconds.size() < kMaxSetupReps)) {
    served.engine.reset();
    served.file = nullptr;
    Dataset copy;
    if (spec.residency == Residency::kInMemory) copy = CopyOf(inputs.base);
    const int64_t start = NowNs();
    Result<std::unique_ptr<Engine>> engine = Status::Internal("unset");
    const char* span = "setup.build";
    switch (spec.residency) {
      case Residency::kInMemory:
        engine = Engine::Build(SourceSpec::InMemory(std::move(copy)),
                               options);
        break;
      case Residency::kFile: {
        auto file = FileSource::Open(inputs.data_path, options.query_profile,
                                     options.build_profile);
        if (!file.ok()) Fatal("opening " + inputs.data_path, file.status());
        served.file = file->get();
        engine = Engine::Build(SourceSpec::Custom(std::move(file).value()),
                               options);
        break;
      }
      case Residency::kSnapshot:
        span = "setup.open";
        engine = Engine::Open(inputs.snapshot_path, inputs.data_path);
        break;
    }
    const int64_t end = NowNs();
    if (!engine.ok()) {
      Fatal(std::string(spec.name) + " set-up", engine.status());
    }
    served.engine = std::move(engine).value();
    const double seconds = static_cast<double>(end - start) * 1e-9;
    served.setup_seconds.push_back(seconds);
    timed += seconds;
    trace->Add(span, start, end, 0, 0, -1);
  }
  return served;
}

std::unique_ptr<Engine> BuildBase(const WorkloadSpec& spec,
                                  const Inputs& inputs) {
  auto engine = Engine::Build(SourceSpec::InMemory(CopyOf(inputs.base)),
                              WorkloadEngineOptions(spec, inputs.data_path));
  if (!engine.ok()) Fatal("base build", engine.status());
  return std::move(engine).value();
}

Checker::Checker(const WorkloadSpec& spec, const Inputs& inputs,
                 const Engine* engine)
    : spec_(spec), inputs_(inputs), engine_(engine) {}

float Checker::Recompute(uint32_t slot, SeriesId id) const {
  const SeriesView query = inputs_.pool.queries.series(slot);
  if (spec_.append_hz > 0.0) {
    // The served collection is growing under us: read the member from
    // the inputs instead of the engine's source.
    return SquaredEuclidean(
        query, id < spec_.series
                   ? inputs_.base.series(id)
                   : inputs_.appended.series(id - spec_.series));
  }
  return SquaredEuclidean(query, engine_->source().TryView(id));
}

std::string Checker::Check(uint32_t slot, const std::vector<Neighbor>& got,
                           bool settled) const {
  const std::vector<Neighbor>& want = inputs_.oracle.answers[slot];
  const auto describe = [&](const std::string& what) {
    std::ostringstream out;
    out << spec_.name << " slot " << slot << " ("
        << OpKindName(inputs_.pool.kinds[slot]) << "): " << what;
    if (!got.empty()) {
      out << "; got id " << got[0].id << " d " << got[0].distance_sq;
    }
    if (!want.empty()) {
      out << "; oracle id " << want[0].id << " d " << want[0].distance_sq;
    }
    return out.str();
  };

  if (inputs_.pool.kinds[slot] == OpKind::kApprox) {
    if (got.size() != 1) return describe("expected one neighbour");
    const size_t count = engine_->series_count();
    if (got[0].id >= count) return describe("id out of range");
    if (Recompute(slot, got[0].id) != got[0].distance_sq) {
      return describe("distance is not the returned id's distance");
    }
    if (got[0].distance_sq < want[0].distance_sq) {
      return describe("approximate answer beats the exact 1-NN");
    }
    return "";
  }

  if (spec_.append_hz > 0.0 && !settled) {
    // Appends are landing: the true answer lies between the answer over
    // the final collection and the one over the base collection.
    if (got.size() != 1) return describe("expected one neighbour");
    if (got[0].id >= spec_.series + inputs_.appended.count()) {
      return describe("id out of range");
    }
    if (Recompute(slot, got[0].id) != got[0].distance_sq) {
      return describe("distance is not the returned id's distance");
    }
    if (got[0].distance_sq < want[0].distance_sq ||
        got[0].distance_sq > inputs_.oracle.base_nn[slot].distance_sq) {
      return describe("outside [oracle(final), oracle(base)]");
    }
    return "";
  }

  if (got.size() != want.size()) return describe("wrong neighbour count");
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id ||
        std::memcmp(&got[i].distance_sq, &want[i].distance_sq,
                    sizeof(float)) != 0) {
      return describe("differs from the oracle at rank " +
                      std::to_string(i));
    }
  }
  return "";
}

}  // namespace parisax::suite
