#include "core/engine.h"

#include <limits.h>
#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

#include "io/mmap_source.h"
#include "persist/snapshot.h"
#include "serve/query_service.h"
#include "util/timer.h"

namespace parisax {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kParis:
      return "paris";
    case Algorithm::kParisPlus:
      return "paris+";
    case Algorithm::kMessi:
      return "messi";
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "paris") return Algorithm::kParis;
  if (name == "paris+") return Algorithm::kParisPlus;
  if (name == "messi") return Algorithm::kMessi;
  return Status::InvalidArgument("unknown algorithm: " + name);
}

const char* SchedulingPolicyName(SchedulingPolicy policy) {
  return policy == SchedulingPolicy::kAuto ? "auto" : "unknown";
}

const EngineCapabilities& AlgorithmCapabilities(Algorithm algorithm) {
  // The single source of truth for what each engine family supports.
  // Engine::capabilities() narrows it by source residency; CheckQuery,
  // Append and Build reject from it with typed kNotSupported errors.
  static constexpr EngineCapabilities kParis{
      .max_k = 1, .dtw = false, .streaming_build = true, .append = true,
      .background_compaction = true};
  static constexpr EngineCapabilities kMessi{
      .max_k = SIZE_MAX, .dtw = true, .streaming_build = false,
      .append = true, .background_compaction = true};
  return algorithm == Algorithm::kMessi ? kMessi : kParis;
}

namespace {

/// The one narrowing rule both Engine::capabilities() (runtime truth
/// from the live source) and NarrowCapabilities (residency enum, for
/// the generated docs) apply, so the two can never drift.
EngineCapabilities NarrowBy(EngineCapabilities caps, bool addressable,
                            bool appendable) {
  caps.append = caps.append && appendable;
  // Background compaction needs an addressable source: a streamed build
  // always materializes its leaves, and an index with leaf storage folds
  // only in Save/Compact (see Engine::capabilities).
  caps.background_compaction =
      caps.background_compaction && caps.append && addressable;
  return caps;
}

/// The build-acceptance rule, shared by Engine::Build (runtime
/// addressability) and CanBuildOver (residency enum, for the generated
/// docs).
bool BuildableBy(const EngineCapabilities& caps, bool addressable) {
  return addressable || caps.streaming_build;
}

}  // namespace

const char* SourceResidencyName(SourceResidency residency) {
  switch (residency) {
    case SourceResidency::kOwnedMemory:
      return "in-memory";
    case SourceResidency::kBorrowedMemory:
      return "borrowed";
    case SourceResidency::kMmap:
      return "mmap";
    case SourceResidency::kStreamedFile:
      return "streamed";
  }
  return "unknown";
}

EngineCapabilities NarrowCapabilities(Algorithm algorithm,
                                      SourceResidency residency) {
  const bool addressable = residency != SourceResidency::kStreamedFile;
  const bool appendable = residency != SourceResidency::kBorrowedMemory;
  return NarrowBy(AlgorithmCapabilities(algorithm), addressable,
                  appendable);
}

bool CanBuildOver(Algorithm algorithm, SourceResidency residency) {
  return BuildableBy(AlgorithmCapabilities(algorithm),
                     residency != SourceResidency::kStreamedFile);
}

// --- SourceSpec -------------------------------------------------------------

SourceSpec SourceSpec::InMemory(Dataset dataset) {
  SourceSpec spec;
  spec.kind_ = Kind::kInMemory;
  spec.dataset_ = std::make_unique<Dataset>(std::move(dataset));
  return spec;
}

SourceSpec SourceSpec::Borrowed(const Dataset* dataset) {
  SourceSpec spec;
  spec.kind_ = Kind::kBorrowed;
  spec.borrowed_ = dataset;
  return spec;
}

SourceSpec SourceSpec::Mmap(std::string path) {
  SourceSpec spec;
  spec.kind_ = Kind::kMmap;
  spec.path_ = std::move(path);
  return spec;
}

SourceSpec SourceSpec::File(std::string path) {
  SourceSpec spec;
  spec.kind_ = Kind::kFile;
  spec.path_ = std::move(path);
  return spec;
}

SourceSpec SourceSpec::Custom(std::unique_ptr<RawSeriesSource> source) {
  SourceSpec spec;
  spec.kind_ = Kind::kCustom;
  spec.custom_ = std::move(source);
  return spec;
}

namespace {

Status ValidateOptions(const EngineOptions& options) {
  // The values are sparse (see Algorithm), so a value-initialized
  // Algorithm{} is not one of them.
  if (options.algorithm < Algorithm::kParis ||
      options.algorithm > Algorithm::kMessi) {
    return Status::InvalidArgument("unknown algorithm");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (options.tree.segments < 1 || options.tree.segments > kMaxSegments) {
    return Status::InvalidArgument("tree.segments must be in [1, 16]");
  }
  if (options.tree.leaf_capacity == 0) {
    return Status::InvalidArgument("tree.leaf_capacity must be positive");
  }
  if (options.batch_series == 0 || options.chunk_series == 0) {
    return Status::InvalidArgument("batch/chunk sizes must be positive");
  }
  return Status::OK();
}

const char* SpecDescription(bool addressable, bool borrowed, bool mmap) {
  if (mmap) return "mmap";
  if (!addressable) return "streamed file";
  return borrowed ? "borrowed in-memory" : "in-memory";
}

}  // namespace

Engine::Engine(const EngineOptions& options) : options_(options) {}

Engine::~Engine() {
  // The compactor references the indexes and append_mu_; stop it before
  // anything it touches goes away.
  StopCompactor();
  // The service's workers reference the indexes, which are declared
  // after service_ and would otherwise be destroyed first; stop the
  // workers before they go away.
  service_.reset();
}

Result<std::unique_ptr<Engine>> Engine::Build(SourceSpec spec,
                                              const EngineOptions& options) {
  PARISAX_RETURN_IF_ERROR(ValidateOptions(options));
  auto engine = std::unique_ptr<Engine>(new Engine(options));
  EngineOptions& opts = engine->options_;

  // Materialize the spec into the engine-owned source.
  std::unique_ptr<RawSeriesSource> source;
  switch (spec.kind_) {
    case SourceSpec::Kind::kInMemory:
      source = std::make_unique<InMemorySource>(std::move(*spec.dataset_));
      break;
    case SourceSpec::Kind::kBorrowed:
      if (spec.borrowed_ == nullptr) {
        return Status::InvalidArgument("borrowed dataset must not be null");
      }
      source = std::make_unique<InMemorySource>(spec.borrowed_);
      break;
    case SourceSpec::Kind::kMmap: {
      std::unique_ptr<MmapSource> mmap;
      PARISAX_ASSIGN_OR_RETURN(mmap, MmapSource::Open(spec.path_));
      source = std::move(mmap);
      break;
    }
    case SourceSpec::Kind::kFile: {
      // Streamed only while building (build_profile); queries fetch
      // series at random (query_profile).
      std::unique_ptr<FileSource> file;
      PARISAX_ASSIGN_OR_RETURN(
          file, FileSource::Open(spec.path_, opts.query_profile,
                                 opts.build_profile));
      source = std::move(file);
      break;
    }
    case SourceSpec::Kind::kCustom:
      if (spec.custom_ == nullptr) {
        return Status::InvalidArgument("custom source must not be null");
      }
      source = std::move(spec.custom_);
      break;
  }

  const bool addressable = source->addressable();
  const EngineCapabilities& caps = AlgorithmCapabilities(opts.algorithm);
  if (!BuildableBy(caps, addressable)) {
    return Status::NotSupported(
        std::string(AlgorithmName(opts.algorithm)) +
        " requires an addressable (in-memory or mmap) source; it cannot "
        "build from a streamed file");
  }

  engine->addressable_source_ = addressable;
  engine->series_length_ = source->length();
  if (opts.tree.series_length == 0) {
    opts.tree.series_length = source->length();
  }
  if (opts.tree.series_length != source->length()) {
    return Status::InvalidArgument(
        "tree.series_length does not match the source");
  }
  // Streamed index builds materialize leaves; default the store next to
  // the dataset file.
  if (!addressable && opts.leaf_storage_path.empty() &&
      !spec.path_.empty()) {
    opts.leaf_storage_path = spec.path_ + ".leaves";
  }

  const char* source_desc =
      SpecDescription(addressable,
                      spec.kind_ == SourceSpec::Kind::kBorrowed,
                      spec.kind_ == SourceSpec::Kind::kMmap);

  WallTimer wall;
  std::ostringstream details;
  switch (opts.algorithm) {
    case Algorithm::kParis:
    case Algorithm::kParisPlus: {
      ParisBuildOptions build;
      build.num_workers = opts.num_threads;
      build.plus_mode = opts.algorithm == Algorithm::kParisPlus;
      build.batch_series = opts.batch_series;
      build.batches_per_round = opts.batches_per_round;
      build.tree = opts.tree;
      // Streamed builds got a default path above; an explicitly set one
      // enables leaf materialization over any residency.
      build.leaf_storage_path = opts.leaf_storage_path;
      PARISAX_ASSIGN_OR_RETURN(engine->paris_,
                               ParisIndex::Build(std::move(source), build));
      engine->index_ = engine->paris_.get();
      const ParisBuildStats& bs = engine->paris_->build_stats();
      if (addressable) {
        details << "paris in-memory build, stage3=" << bs.stage3_wall_seconds
                << "s summarize_cpu=" << bs.summarize_cpu_seconds
                << "s tree_cpu=" << bs.tree_cpu_seconds << "s";
      } else {
        details << "paris on-disk build, read=" << bs.read_wall_seconds
                << "s stage3=" << bs.stage3_wall_seconds
                << "s final_flush=" << bs.final_flush_wall_seconds << "s";
      }
      break;
    }
    case Algorithm::kMessi: {
      MessiBuildOptions build;
      build.num_workers = opts.num_threads;
      build.chunk_series = opts.chunk_series;
      build.tree = opts.tree;
      ThreadPool pool(opts.num_threads);
      PARISAX_ASSIGN_OR_RETURN(
          engine->messi_, MessiIndex::Build(std::move(source), build, &pool));
      engine->index_ = engine->messi_.get();
      const MessiBuildStats& bs = engine->messi_->build_stats();
      details << "messi build, summarize=" << bs.summarize_wall_seconds
              << "s tree=" << bs.tree_wall_seconds << "s";
      break;
    }
  }
  engine->build_report_.tree = engine->index_->tree_stats();
  engine->build_report_.wall_seconds = wall.ElapsedSeconds();
  details << ", source=" << source_desc;
  engine->build_report_.details = details.str();
  engine->StartCompactorIfEnabled();
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::Open(
    const std::string& snapshot_path, const std::string& data_path) {
  return OpenInternal(snapshot_path, data_path, EngineOptions(), false);
}

Result<std::unique_ptr<Engine>> Engine::Open(
    const std::string& snapshot_path, const std::string& data_path,
    const EngineOptions& options) {
  return OpenInternal(snapshot_path, data_path, options, true);
}

Result<std::unique_ptr<Engine>> Engine::OpenInternal(
    const std::string& snapshot_path, const std::string& data_path,
    const EngineOptions& options, bool enforce_algorithm) {
  PARISAX_RETURN_IF_ERROR(ValidateOptions(options));
  SnapshotInfo info;
  PARISAX_ASSIGN_OR_RETURN(info, ReadSnapshotInfo(snapshot_path));

  // The snapshot records what it holds (ParIS and ParIS+ share the
  // query machinery; the label matters for reporting).
  Algorithm restored = Algorithm::kMessi;
  if (info.kind == SnapshotKind::kParis) {
    restored = info.algorithm == static_cast<uint8_t>(Algorithm::kParisPlus)
                   ? Algorithm::kParisPlus
                   : Algorithm::kParis;
  }
  if (enforce_algorithm && options.algorithm != restored) {
    return Status::InvalidArgument(
        std::string("snapshot records ") + AlgorithmName(restored) +
        " but options.algorithm asks for " +
        AlgorithmName(options.algorithm) +
        "; drop options.algorithm (two-argument Open) to accept whatever "
        "the snapshot holds");
  }

  auto engine = std::unique_ptr<Engine>(new Engine(options));
  engine->series_length_ = info.tree.series_length;
  EngineOptions& opts = engine->options_;
  opts.algorithm = restored;
  opts.tree = info.tree;

  std::unique_ptr<MmapSource> source;
  PARISAX_ASSIGN_OR_RETURN(source, MmapSource::Open(data_path));
  engine->addressable_source_ = true;

  WallTimer wall;
  std::ostringstream details;
  ThreadPool pool(opts.num_threads);
  switch (info.kind) {
    case SnapshotKind::kMessi: {
      PARISAX_ASSIGN_OR_RETURN(
          engine->messi_,
          LoadMessiIndex(snapshot_path, std::move(source), &pool));
      engine->index_ = engine->messi_.get();
      break;
    }
    case SnapshotKind::kParis: {
      PARISAX_ASSIGN_OR_RETURN(
          engine->paris_,
          LoadParisIndex(snapshot_path, std::move(source), &pool));
      engine->index_ = engine->paris_.get();
      break;
    }
  }
  engine->build_report_.tree = engine->index_->tree_stats();
  engine->build_report_.wall_seconds = wall.ElapsedSeconds();
  details << AlgorithmName(opts.algorithm)
          << " restored from snapshot, raw data mmap-ed from " << data_path;
  if (info.is_delta) {
    details << " (rehydrated a " << info.chain_depth
            << "-delta chain as serving segments)";
  }
  engine->build_report_.details = details.str();
  // The opened file becomes the lineage head: appends followed by Save
  // chain deltas on top of it. For a full snapshot the chain is just
  // the head; for a delta head, re-walk the links (header-only reads,
  // cheap next to the replay that just ran) so Save can refuse to
  // overwrite chain members without touching the disk again.
  std::vector<std::string> chain_paths;
  if (!info.is_delta) {
    chain_paths.push_back(snapshot_path);
  } else if (auto chain = ReadSnapshotChain(snapshot_path); chain.ok()) {
    chain_paths.reserve(chain->size());
    for (const SnapshotChainEntry& entry : *chain) {
      chain_paths.push_back(entry.path);
    }
  }
  engine->lineage_ = SnapshotLineage{snapshot_path, info.header_crc,
                                     info.series_count, info.chain_depth,
                                     std::move(chain_paths)};
  engine->StartCompactorIfEnabled();
  return engine;
}

Status Engine::Save(const std::string& snapshot_path) {
  // append_mu_ freezes the serving snapshot (appends, compactor passes
  // and other saves all hold it) and guards the lineage. The
  // serialization fans out on a pool of the call's own. Queries keep
  // running throughout — they never take the lock.
  MutexLock append_lock(&append_mu_);
  ThreadPool pool(options_.num_threads);

  const auto snap = index_->serving();

  // Appends since the last head, still coverable by segments (the
  // compactor has not folded past the head), a previous file to chain
  // to, and a target that does not overwrite the chain: write an
  // append-only delta — one segment over [head, count). Writing a
  // delta over ANY file of the existing chain (not just the head)
  // would corrupt the lineage — a delta at the base's path makes the
  // chain a cycle — so those paths fall back to a full snapshot, which
  // is always safe to place anywhere (it supersedes the chain). The
  // same fallback auto-compacts a chain that has reached its maximum
  // length, keeping Save total.
  if (lineage_.has_value() &&
      snap->count > lineage_->head_series_count &&
      snap->base_count <= lineage_->head_series_count &&
      lineage_->head_depth + 1 <=
          static_cast<uint32_t>(kMaxSnapshotChain) &&
      !PathIsInLineageChain(snapshot_path)) {
    std::shared_ptr<const Segment> delta;
    PARISAX_ASSIGN_OR_RETURN(
        delta, index_->DeltaSegment(snap, lineage_->head_series_count, &pool));
    SnapshotDeltaSaveOptions dopts;
    dopts.algorithm = static_cast<uint8_t>(options_.algorithm);
    dopts.base_path = lineage_->head_path;
    dopts.base_header_crc = lineage_->head_header_crc;
    dopts.prev_series_count = lineage_->head_series_count;
    dopts.chain_depth = lineage_->head_depth + 1;
    PARISAX_RETURN_IF_ERROR(SaveSegmentDelta(
        SnapshotKindOf(*index_), *delta, snapshot_path, &pool, dopts));
    return AdoptLineageHead(snapshot_path);
  }
  return SaveFullLocked(snapshot_path, &pool);
}

Status Engine::Compact(const std::string& snapshot_path) {
  // Fold-all + full save *is* the compaction: the written file contains
  // every subtree, so the previous chain files are no longer needed to
  // restore this engine.
  MutexLock append_lock(&append_mu_);
  ThreadPool pool(options_.num_threads);
  return SaveFullLocked(snapshot_path, &pool);
}

Status Engine::FoldAllLocked(ThreadPool* pool) {
  // Full snapshots serialize the base only, so every live segment folds
  // in first. Caller holds append_mu_ (no concurrent publication, so
  // the compare-and-publish folds cannot be discarded).
  // Queries keep the snapshot they captured: the fold only reads the
  // old base, its leaf chunks included (LeafStorage::ReadChunk is a
  // pread).
  for (;;) {
    const auto snap = index_->serving();
    if (snap->segments.empty()) return Status::OK();
    bool folded = false;
    PARISAX_ASSIGN_OR_RETURN(
        folded, index_->FoldSegments(snap, snap->segments.size(), pool));
    if (!folded) {
      return Status::Internal(
          "fold discarded while the append mutex was held");
    }
    compaction_count_.fetch_add(1, std::memory_order_acq_rel);
  }
}

Status Engine::SaveFullLocked(const std::string& snapshot_path,
                              ThreadPool* pool) {
  PARISAX_RETURN_IF_ERROR(FoldAllLocked(pool));
  SnapshotSaveOptions sopts;
  sopts.algorithm = static_cast<uint8_t>(options_.algorithm);
  PARISAX_RETURN_IF_ERROR(SaveIndex(*index_, snapshot_path, pool, sopts));
  return AdoptLineageHead(snapshot_path);
}

namespace {

/// Directory-canonical form for same-file comparison: realpath the
/// directory (the file itself may not exist yet) and keep the final
/// component, so "./d1.snap", "x/../d1.snap" and "d1.snap" all compare
/// equal. Falls back to the input when the directory cannot be
/// resolved.
std::string CanonicalForCompare(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  char resolved[PATH_MAX];
  if (::realpath(dir.c_str(), resolved) == nullptr) return path;
  return std::string(resolved) + "/" + base;
}

}  // namespace

bool Engine::PathIsInLineageChain(const std::string& snapshot_path) const {
  // The lineage carries every chain path it has adopted, so this is an
  // in-memory check on the hot persistence path. An empty list means
  // the chain membership is unknown (should not happen — Open and Save
  // both record it) and reports "in chain" conservatively: the caller
  // then writes a full snapshot, which never corrupts anything. Paths
  // are compared directory-canonicalized, so spelling aliases of a
  // chain member ("./d1.snap" vs "d1.snap") cannot trick Save into
  // overwriting it with a delta. (Distinct hard links to one file are
  // still not detected.)
  if (lineage_->chain_paths.empty()) return true;
  const std::string canonical = CanonicalForCompare(snapshot_path);
  for (const std::string& path : lineage_->chain_paths) {
    if (CanonicalForCompare(path) == canonical) return true;
  }
  return false;
}

Status Engine::AdoptLineageHead(const std::string& snapshot_path) {
  // Re-read what was just written: the header CRC is the identity the
  // next delta's back-reference must carry.
  SnapshotInfo info;
  PARISAX_ASSIGN_OR_RETURN(info, ReadSnapshotInfo(snapshot_path));
  // A full snapshot starts a fresh single-file chain; a delta extends
  // the previous one.
  std::vector<std::string> chain_paths;
  if (info.chain_depth > 0 && lineage_.has_value()) {
    chain_paths = std::move(lineage_->chain_paths);
  }
  chain_paths.push_back(snapshot_path);
  lineage_ = SnapshotLineage{snapshot_path, info.header_crc,
                             info.series_count, info.chain_depth,
                             std::move(chain_paths)};
  return Status::OK();
}

EngineCapabilities Engine::capabilities() const {
  EngineCapabilities caps =
      NarrowBy(AlgorithmCapabilities(options_.algorithm),
               addressable_source_, index_->source().appendable());
  // An index whose leaves live in on-disk LeafStorage (a streamed build,
  // or an explicit leaf_storage_path) folds only synchronously in
  // Save/Compact: a fold reads every flushed chunk back and rebuilds the
  // base in memory, which a background pass would do unasked on the
  // first trigger.
  if (index_->leaf_storage() != nullptr) {
    caps.background_compaction = false;
  }
  return caps;
}

Status CheckRequestAgainstCapabilities(const EngineCapabilities& caps,
                                       size_t series_length,
                                       const char* algorithm_name,
                                       SeriesView query,
                                       const SearchRequest& request) {
  const std::string name(algorithm_name);
  if (query.size() != series_length) {
    return Status::InvalidArgument("query length does not match the data");
  }
  if (request.k == 0) return Status::InvalidArgument("k must be positive");
  if (request.k > 1 && request.dtw) {
    return Status::NotSupported(name + " does not support k > 1 under DTW");
  }
  if (request.k > caps.max_k) {
    return Status::NotSupported(name + " supports k <= " +
                                std::to_string(caps.max_k) +
                                " (capabilities().max_k)");
  }
  if (request.dtw && !caps.dtw) {
    return Status::NotSupported(
        name +
        " does not support DTW search over this source "
        "(capabilities().dtw is false)");
  }
  return Status::OK();
}

Status Engine::CheckQuery(SeriesView query,
                          const SearchRequest& request) const {
  // The shared admission rule: keeping it one free function lets
  // external oracles predict this engine's typed rejections exactly.
  return CheckRequestAgainstCapabilities(capabilities(), series_length_,
                                         AlgorithmName(options_.algorithm),
                                         query, request);
}

Result<SearchResponse> Engine::Search(SeriesView query,
                                      const SearchRequest& request) {
  return Submit(query, request).get();
}

Result<SearchResponse> Engine::Search(SeriesView query,
                                      const SearchRequest& request,
                                      Executor* exec) {
  // No engine lock: the index captures one serving snapshot, and
  // appends and folds publish new ones beside it.
  PARISAX_RETURN_IF_ERROR(CheckQuery(query, request));
  // Entry deadline check. The engines additionally poll the token
  // inside their hot loops (MESSI every 64 node visits while traversing
  // and per claimed leaf while refining, ParIS per batch).
  if (Expired(request.cancel)) {
    return Status::DeadlineExceeded("query deadline expired before search");
  }

  SearchResponse response;
  WallTimer timer;
  switch (options_.algorithm) {
    case Algorithm::kParis:
    case Algorithm::kParisPlus: {
      Neighbor nn;
      if (request.approximate) {
        PARISAX_ASSIGN_OR_RETURN(
            nn, paris_->SearchApproximate(query, &response.stats));
      } else {
        ParisQueryOptions qopts;
        qopts.kernel = options_.kernel;
        qopts.cancel = request.cancel;
        PARISAX_ASSIGN_OR_RETURN(
            nn, paris_->SearchExact(query, qopts, exec, &response.stats));
      }
      response.neighbors.push_back(nn);
      break;
    }
    case Algorithm::kMessi: {
      MessiQueryOptions qopts;
      qopts.kernel = options_.kernel;
      qopts.dtw_band = request.dtw_band;
      qopts.cancel = request.cancel;
      if (request.approximate) {
        Neighbor nn;
        PARISAX_ASSIGN_OR_RETURN(
            nn, messi_->SearchApproximate(query, &response.stats));
        response.neighbors.push_back(nn);
      } else if (request.dtw) {
        Neighbor nn;
        PARISAX_ASSIGN_OR_RETURN(
            nn, messi_->SearchExactDtw(query, qopts, exec,
                                       &response.stats));
        response.neighbors.push_back(nn);
      } else if (request.k > 1) {
        PARISAX_ASSIGN_OR_RETURN(
            response.neighbors,
            messi_->SearchKnn(query, request.k, qopts, exec,
                              &response.stats));
      } else {
        Neighbor nn;
        PARISAX_ASSIGN_OR_RETURN(
            nn, messi_->SearchExact(query, qopts, exec,
                                    &response.stats));
        response.neighbors.push_back(nn);
      }
      break;
    }
  }
  response.stats.total_seconds = timer.ElapsedSeconds();
  return response;
}

Result<AppendReport> Engine::Append(const Value* values, size_t count) {
  if (!capabilities().append) {
    return Status::NotSupported(
        std::string(AlgorithmName(options_.algorithm)) +
        " does not support appends over this source "
        "(capabilities().append is false)");
  }
  if (count > 0 && values == nullptr) {
    return Status::InvalidArgument("appended values must not be null");
  }

  WallTimer wall;
  AppendReport report;
  report.appended = count;
  if (count == 0) {
    report.total_series = series_count();
    return report;
  }

  // append_mu_ serializes this append with other appends, Save/Compact
  // and compactor passes; queries are NOT excluded. The new segment is
  // published as an atomic snapshot swap, and in-flight queries keep the
  // snapshot they captured, so nothing drains.
  MutexLock append_lock(&append_mu_);
  PARISAX_ASSIGN_OR_RETURN(report.touched_subtrees,
                           index_->Append(values, count));

  append_epoch_.fetch_add(1, std::memory_order_acq_rel);

  report.total_series = series_count();
  report.wall_seconds = wall.ElapsedSeconds();
  KickCompactor();
  return report;
}

void Engine::StartCompactorIfEnabled() {
  if (!options_.background_compaction) return;
  if (!capabilities().background_compaction) return;
  compactor_ = std::thread([this] { CompactorLoop(); });
  // A restored chain can start life over the trigger; fold it without
  // waiting for the first append.
  KickCompactor();
}

void Engine::StopCompactor() {
  if (!compactor_.joinable()) return;
  {
    MutexLock lock(&compactor_mu_);
    compactor_stop_ = true;
  }
  compactor_cv_.NotifyAll();
  compactor_.join();
}

void Engine::KickCompactor() {
  if (!compactor_.joinable()) return;
  {
    MutexLock lock(&compactor_mu_);
    compactor_kick_ = true;
  }
  compactor_cv_.NotifyOne();
}

void Engine::CompactorLoop() {
  for (;;) {
    {
      MutexLock lock(&compactor_mu_);
      while (!compactor_stop_ && !compactor_kick_) {
        compactor_cv_.Wait(compactor_mu_);
      }
      if (compactor_stop_) return;
      compactor_kick_ = false;
      // A pass that failed parks the thread: state is still correct
      // (folds publish all-or-nothing), but retrying a deterministic
      // failure forever would burn a core.
      if (!compactor_error_.ok()) continue;
    }
    const Status pass = CompactionPass();
    if (!pass.ok()) {
      MutexLock lock(&compactor_mu_);
      compactor_error_ = pass;
    }
  }
}

Status Engine::CompactionPass() {
  // Serialize with appends and saves so the compare-and-publish folds
  // below cannot race another publication (and thus never discard).
  MutexLock append_lock(&append_mu_);
  InlineExecutor inline_exec;
  for (;;) {
    const auto snap = index_->serving();
    if (snap->segments.size() <
        static_cast<size_t>(options_.compaction_trigger_segments)) {
      return Status::OK();
    }
    const size_t seg_series = snap->segment_series();
    bool ok = false;
    if (static_cast<double>(seg_series) * options_.size_tier_ratio <
        static_cast<double>(snap->base_count)) {
      // Minor: the tail is small relative to the base — merging the
      // run into one segment is cheap and keeps the base untouched.
      PARISAX_ASSIGN_OR_RETURN(
          ok, index_->MergeSegmentRun(snap, snap->segments.size(),
                                      &inline_exec));
    } else {
      // Major: fold everything into a fresh base.
      PARISAX_ASSIGN_OR_RETURN(
          ok, index_->FoldSegments(snap, snap->segments.size(),
                                   &inline_exec));
    }
    if (!ok) {
      return Status::Internal(
          "compaction fold discarded while the append mutex was held");
    }
    compaction_count_.fetch_add(1, std::memory_order_acq_rel);
  }
}

Result<AppendReport> Engine::Append(const Dataset& batch) {
  if (batch.count() > 0 && batch.length() != series_length()) {
    return Status::InvalidArgument(
        "appended series length does not match the collection");
  }
  return Append(batch.raw(), batch.count());
}

std::future<Result<SearchResponse>> Engine::Submit(
    SeriesView query, const SearchRequest& request) {
  return query_service()->Submit(query, request);
}

Result<std::future<Result<SearchResponse>>> Engine::TrySubmit(
    SeriesView query, const SearchRequest& request,
    const SubmitOptions& submit) {
  return query_service()->TrySubmit(query, request, submit);
}

Result<std::vector<SearchResponse>> Engine::SearchBatch(
    const std::vector<SeriesView>& queries, const SearchRequest& request) {
  return query_service()->SearchBatch(queries, request);
}

QueryService* Engine::query_service() {
  MutexLock lock(&service_mu_);
  if (service_ == nullptr) {
    QueryServiceOptions sopts;
    sopts.num_threads = options_.num_threads;
    // Engine options were validated at build time, so Create cannot
    // fail here.
    service_ = std::move(QueryService::Create(this, sopts).value());
  }
  return service_.get();
}

}  // namespace parisax
