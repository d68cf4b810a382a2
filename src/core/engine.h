// parisax public facade.
//
// Engine serves the paper's three indexes -- ParIS, ParIS+ and MESSI --
// behind a single build/search/append/persist API, so applications (and
// the examples/) can switch indexes with one option. The baselines the
// paper compares them against (brute force, the UCR Suite scans and
// ADS+) are not engines: the figure drivers and the tests call them
// directly (scan/ucr_scan.h, index/ads_index.h).
//
// The data plane is described by a SourceSpec: where the raw series
// live (adopted in memory, borrowed, memory-mapped, or streamed through
// a simulated device). The engine *owns* the materialized source, so
// there is no dataset-lifetime footgun unless the caller explicitly
// borrows. What an engine can do (max k, DTW, streamed builds,
// appends, background compaction) is a queryable EngineCapabilities value
// derived from one table -- every unsupported-request rejection comes
// from it.
//
// Typical use:
//   parisax::EngineOptions options;
//   options.algorithm = parisax::Algorithm::kMessi;
//   auto engine = parisax::Engine::Build(
//       parisax::SourceSpec::InMemory(std::move(dataset)), options);
//   auto response = (*engine)->Search(query, {});
//   // response->neighbors[0] is the exact nearest neighbor.
#ifndef PARISAX_CORE_ENGINE_H_
#define PARISAX_CORE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "dist/euclidean.h"
#include "index/query_stats.h"
#include "index/raw_source.h"
#include "index/segment.h"
#include "index/segmented_index.h"
#include "index/tree.h"
#include "io/dataset.h"
#include "io/sim_disk.h"
#include "messi/messi_index.h"
#include "paris/paris_index.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

class QueryService;
struct SubmitOptions;

/// The indexes Engine serves. The numbers are part of the snapshot
/// format: Save writes the value into every snapshot header and Open
/// maps it back to the label, so a value never changes and 0-3 (retired
/// baselines) are never reused.
enum class Algorithm {
  kParis = 4,      ///< ParIS: parallel index, stage-3 construction bursts
  kParisPlus = 5,  ///< ParIS+: ParIS with fully overlapped construction
  kMessi = 6,      ///< MESSI: in-memory parallel index, tree-based search
};

/// Short lowercase name ("messi", "paris+", ...).
const char* AlgorithmName(Algorithm algorithm);

/// Parses a name produced by AlgorithmName.
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// How the serve layer schedules queries over its workers (see
/// serve/query_service.h). One policy is left: an exact query alone in
/// flight fans out over the worker that took it and the idle ones, and
/// every other query runs whole-query-per-worker.
enum class SchedulingPolicy {
  kAuto,
};

/// Short lowercase name ("auto").
const char* SchedulingPolicyName(SchedulingPolicy policy);

/// What an engine can do: one static table per algorithm (see
/// AlgorithmCapabilities), narrowed per instance by the source it was
/// built over (Engine::capabilities). CheckQuery, Append and Build derive
/// every typed kNotSupported rejection from this struct -- there are no
/// per-call-site whitelists. Approximate search and snapshots have no
/// field: every engine supports them.
struct EngineCapabilities {
  /// Largest supported k for exact kNN searches (1: only 1-NN).
  size_t max_k = 1;
  /// Exact 1-NN search under banded DTW (k > 1 under DTW is rejected
  /// everywhere).
  bool dtw = false;
  /// Can build from a streamed, non-addressable source (the paper's
  /// on-disk pipeline). Every algorithm builds over addressable
  /// (in-memory or mmap) sources.
  bool streaming_build = false;
  /// Engine::Append incremental ingest: new series are added to the
  /// owned source and indexed without rebuilding. Narrowed to false
  /// when the source cannot grow (a borrowed collection).
  bool append = false;
  /// A background compactor folds delta segments back into the base
  /// index off the serving path (see EngineOptions). Narrowed to false
  /// when append is unavailable or the source is not addressable —
  /// streamed engines fold synchronously in Save/Compact instead.
  bool background_compaction = false;
};

/// The per-algorithm capability table (source-independent limits).
const EngineCapabilities& AlgorithmCapabilities(Algorithm algorithm);

/// Where an engine's raw series live, as far as the capability model is
/// concerned. Mirrors the SourceSpec factories (a restored snapshot
/// counts as kMmap: its raw data is memory-mapped).
enum class SourceResidency {
  kOwnedMemory,     ///< SourceSpec::InMemory — adopted, growable
  kBorrowedMemory,  ///< SourceSpec::Borrowed — caller-owned, fixed
  kMmap,            ///< SourceSpec::Mmap / Engine::Open — page cache
  kStreamedFile,    ///< SourceSpec::File — simulated device
};

/// Short lowercase name ("in-memory", "borrowed", "mmap", "streamed").
const char* SourceResidencyName(SourceResidency residency);

/// The algorithm's capability row narrowed by source residency: the
/// function behind Engine::capabilities() for the standard SourceSpec
/// residencies, and the source of truth for docs/capabilities.md
/// (tools/gen_capability_docs.py dumps it, CI diffs the committed doc).
EngineCapabilities NarrowCapabilities(Algorithm algorithm,
                                      SourceResidency residency);

/// True when Engine::Build accepts the combination: a streamed
/// (non-addressable) source requires the algorithm's streaming_build.
/// The same rule Build applies at runtime, exposed for the generated
/// docs' `buildable` column.
bool CanBuildOver(Algorithm algorithm, SourceResidency residency);

struct EngineOptions {
  Algorithm algorithm = Algorithm::kMessi;
  /// Worker threads for parallel builds, restores, saves and
  /// compactions (a pool per call), and the serve workers of the
  /// engine's own query service.
  int num_threads = 4;
  /// Index shape (segments, leaf capacity). `tree.series_length == 0`
  /// means "take it from the data".
  SaxTreeOptions tree = {.segments = 16, .leaf_capacity = 128,
                         .series_length = 0};
  /// Device model for build-time sequential reads of a SourceSpec::File
  /// source.
  DiskProfile build_profile = DiskProfile::Instant();
  /// Device model for query-time raw-data reads of a SourceSpec::File
  /// source.
  DiskProfile query_profile = DiskProfile::Instant();
  /// Leaf materialization file for streamed (on-disk) index builds;
  /// defaults to "<dataset path>.leaves".
  std::string leaf_storage_path;
  /// Raw-data-buffer capacity in series (streamed pipelines).
  size_t batch_series = 8192;
  /// ParIS "memory full" trigger, in batches.
  size_t batches_per_round = 4;
  /// MESSI Stage-1 chunk size in series.
  size_t chunk_series = 4096;
  /// Distance kernel selection (D4 ablation).
  KernelPolicy kernel = KernelPolicy::kAuto;
  /// Run the background compactor where
  /// capabilities().background_compaction allows it: an engine-owned
  /// thread that folds delta segments into the base index off the
  /// serving path, so query-side merge cost stays bounded under
  /// sustained appends.
  bool background_compaction = true;
  /// The compactor acts once the serving snapshot holds at least this
  /// many segments.
  size_t compaction_trigger_segments = 8;
  /// Size-tiered pick: segments jointly holding fewer than
  /// base_count / size_tier_ratio series are merged into one segment
  /// (cheap, keeps the read-side fan-in small) instead of folded into
  /// the base (a full base rebuild).
  double size_tier_ratio = 4.0;
};

/// Describes where an engine's raw series live. Engine::Build
/// materializes the spec into an owned RawSeriesSource.
class SourceSpec {
 public:
  /// Adopts an in-memory collection: the engine owns the moved-in data.
  static SourceSpec InMemory(Dataset dataset);

  /// Borrows a caller-owned collection; `dataset` must outlive the
  /// engine. Prefer InMemory or Mmap, which cannot dangle.
  static SourceSpec Borrowed(const Dataset* dataset);

  /// Memory-maps a dataset file (io/format.h layout): builds and queries
  /// run straight off the page cache, with no in-RAM copy of the
  /// collection. Addressable, so even MESSI builds over it.
  static SourceSpec Mmap(std::string path);

  /// Streams a dataset file through a simulated storage device (the
  /// paper's on-disk pipelines). Sequential passes (the build) are
  /// metered with EngineOptions::build_profile, random query-time
  /// fetches with EngineOptions::query_profile.
  static SourceSpec File(std::string path);

  /// Adopts a caller-built source (custom residency).
  static SourceSpec Custom(std::unique_ptr<RawSeriesSource> source);

  SourceSpec(SourceSpec&&) = default;
  SourceSpec& operator=(SourceSpec&&) = default;

 private:
  friend class Engine;
  enum class Kind { kInMemory, kBorrowed, kMmap, kFile, kCustom };

  SourceSpec() = default;

  Kind kind_ = Kind::kBorrowed;
  std::unique_ptr<Dataset> dataset_;         // kInMemory
  const Dataset* borrowed_ = nullptr;        // kBorrowed
  std::string path_;                         // kMmap / kFile
  std::unique_ptr<RawSeriesSource> custom_;  // kCustom
};

struct SearchRequest {
  /// Number of nearest neighbors (bounded by capabilities().max_k).
  size_t k = 1;
  /// Return the approximate answer: the best match within the query's
  /// approximate-match leaf.
  bool approximate = false;
  /// Search under banded DTW instead of ED (capabilities().dtw).
  bool dtw = false;
  /// Sakoe-Chiba radius in points for DTW searches.
  size_t dtw_band = 12;
  /// Optional cancel/deadline token, owned by the caller and kept alive
  /// for the whole search. Every engine checks it on entry and polls it
  /// inside its hot loops (MESSI every 64 tree-node visits and per
  /// refined leaf, ParIS/ParIS+ per batch); the search returns
  /// kDeadlineExceeded instead of a partial answer. Null: never expires.
  const CancellationToken* cancel = nullptr;
};

struct SearchResponse {
  /// Ascending (squared distance, id). Exactly min(k, collection size)
  /// entries for exact searches.
  std::vector<Neighbor> neighbors;
  QueryStats stats;
};

/// The one request-admission rule: validates `query`/`request` against
/// an engine's shape and capabilities and returns the typed rejection
/// (kInvalidArgument for malformed requests, kNotSupported for
/// capability gaps), or OK when the request must be served.
/// Engine::Search applies exactly this function, so external oracles
/// (the storm harness, tests/capability_gap_test.cpp) can predict an
/// engine's rejection without a per-call-site whitelist.
/// `algorithm_name` only flavors the error message.
Status CheckRequestAgainstCapabilities(const EngineCapabilities& caps,
                                       size_t series_length,
                                       const char* algorithm_name,
                                       SeriesView query,
                                       const SearchRequest& request);

/// Summary of one Engine::Append call.
struct AppendReport {
  /// Series added by this call.
  size_t appended = 0;
  /// Collection size after the call.
  size_t total_series = 0;
  /// Root subtrees of the published delta segment(s).
  size_t touched_subtrees = 0;
  double wall_seconds = 0.0;
};

/// Summary of an index build or snapshot restore.
struct BuildReport {
  double wall_seconds = 0.0;
  TreeStats tree;
  /// Engine-specific breakdown, e.g. ParIS read/stage3/flush walls.
  std::string details;
};

/// One algorithm over one source: every query, append and persistence
/// path of the system goes through an Engine. Search (both overloads),
/// Append, Save/Compact and every accessor are safe to call
/// concurrently.
class Engine {
 public:
  /// Builds a search engine over the described source. The engine owns
  /// the materialized source for its whole lifetime. Returns
  /// kNotSupported when the algorithm cannot build over the source's
  /// residency (see AlgorithmCapabilities().streaming_build).
  static Result<std::unique_ptr<Engine>> Build(SourceSpec spec,
                                               const EngineOptions& options);

  /// Restores an engine from a snapshot written by Save. `data_path` is
  /// the raw dataset file (WriteDataset format) the index was built
  /// over; it is memory-mapped, so queries run straight against the page
  /// cache instead of an in-RAM copy. The snapshot records which
  /// algorithm it holds and this overload accepts whatever is recorded.
  static Result<std::unique_ptr<Engine>> Open(
      const std::string& snapshot_path, const std::string& data_path);

  /// As above, with explicit options. `options.algorithm` is binding: if
  /// it does not match the snapshot's recorded algorithm, Open returns
  /// kInvalidArgument instead of silently proceeding.
  static Result<std::unique_ptr<Engine>> Open(
      const std::string& snapshot_path, const std::string& data_path,
      const EngineOptions& options);

  /// Writes the engine's index to `snapshot_path` (atomically: a temp
  /// file renamed into place). Thread-safe against concurrent Search and
  /// Append calls.
  ///
  /// After Append calls, a Save to a *new* path writes an append-only
  /// delta — one serialized segment covering exactly the series
  /// appended since the previous head (and, for ParIS, their flat-SAX
  /// rows) — chained to the previous Save/Open file by header
  /// back-reference. Engine::Open restores the base and rehydrates the
  /// deltas as serving segments; Compact rewrites the chain into one
  /// full snapshot. A Save with no snapshot lineage, no appends since
  /// the last save, to a path the current chain already uses, with the
  /// chain at its maximum length (64 deltas), or after compaction
  /// folded past the previous head writes a full snapshot instead —
  /// Save never fails for lineage reasons, it just compacts.
  Status Save(const std::string& snapshot_path);

  /// Folds every live segment into the base index, then rewrites the
  /// engine's snapshot chain as one fresh full snapshot at
  /// `snapshot_path` (long-lived serving processes bound their chain
  /// length this way; the replaced chain files can then be deleted).
  /// Subsequent Saves chain deltas to the compacted file. This is the
  /// synchronous wrapper around what the background compactor does
  /// continuously.
  Status Compact(const std::string& snapshot_path);

  /// Incremental ingest: appends `batch` (same series length,
  /// z-normalized like the rest of the collection) to the engine's
  /// owned source, builds an immutable delta segment over just the new
  /// ids, and publishes it to the serving snapshot in one atomic epoch
  /// bump. Requires capabilities().append. Thread-safe and
  /// *non-blocking for readers* over every source: concurrent queries
  /// keep serving the snapshot they captured at entry while the append
  /// builds off to the side; the background compactor (or Save/Compact)
  /// later folds segments into the base.
  ///
  /// Failure contract: a file-backed source grows *before* the segment
  /// is built, so (a) if Append returns an error after the source grew,
  /// the serving snapshot is unchanged (nothing was published) but the
  /// source holds unindexed series — the engine should be discarded or
  /// reopened; (b) existing snapshots of a grown dataset file only open
  /// again once this engine Saves the matching delta (Open checks exact
  /// collection shape), so a process that dies between Append and Save
  /// pays a rebuild from the (intact, larger) dataset file. See
  /// docs/snapshot-format.md.
  Result<AppendReport> Append(const Value* values, size_t count);

  /// As above from a Dataset (validates the batch's series length).
  Result<AppendReport> Append(const Dataset& batch);

  /// Number of Append calls that have completed (monotonic). Each
  /// append publishes a new index epoch to queries atomically.
  uint64_t append_epoch() const {
    return append_epoch_.load(std::memory_order_acquire);
  }

  /// Number of compaction actions (background passes and synchronous
  /// folds) that published a merged/folded snapshot. Monotonic;
  /// exported by the serving metrics layer.
  uint64_t compaction_count() const {
    return compaction_count_.load(std::memory_order_acquire);
  }

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Answers one similarity-search query through the engine's query
  /// service: Submit(query, request).get(). A lone caller's exact query
  /// fans out over the service's workers; concurrent callers' queries
  /// overlap, each on its own worker. Not to be called from inside a
  /// query running on that service.
  Result<SearchResponse> Search(SeriesView query,
                                const SearchRequest& request = {});

  /// Answers one query on the calling thread and the given executor.
  /// Re-entrant: any number of calls may run concurrently as long as
  /// each uses its own executor (e.g. per-thread InlineExecutors). The
  /// caller is responsible for the executor's own concurrency rules.
  Result<SearchResponse> Search(SeriesView query, const SearchRequest& request,
                                Executor* exec);

  /// Asynchronously answers one query through the engine's query
  /// service. The query values are copied, so the view only needs to
  /// live until Submit returns.
  std::future<Result<SearchResponse>> Submit(SeriesView query,
                                             const SearchRequest& request = {});

  /// As Submit, subject to the query service's admission control:
  /// rejected with kOverloaded when the in-flight cap is reached.
  Result<std::future<Result<SearchResponse>>> TrySubmit(
      SeriesView query, const SearchRequest& request,
      const SubmitOptions& submit);

  /// Answers a batch of queries concurrently through the query service;
  /// responses are in query order. Fails on the first failing query.
  Result<std::vector<SearchResponse>> SearchBatch(
      const std::vector<SeriesView>& queries,
      const SearchRequest& request = {});

  /// The engine's query service, created on first use (num_threads
  /// serve workers). Never null.
  QueryService* query_service();

  /// What this engine supports: the algorithm's table narrowed by the
  /// source it was built over (e.g. a borrowed collection cannot grow,
  /// so append is unavailable). Every kNotSupported this engine returns
  /// is derived from this value.
  EngineCapabilities capabilities() const;

  Algorithm algorithm() const { return options_.algorithm; }
  const char* algorithm_name() const {
    return AlgorithmName(options_.algorithm);
  }
  const EngineOptions& options() const { return options_; }
  /// The *initial* build/restore report; Append does not update it
  /// (post-append tree stats live on segmented_index()->tree_stats();
  /// read them without concurrent appends).
  const BuildReport& build_report() const { return build_report_; }

  /// The wrapped index (null when the algorithm does not use it).
  const ParisIndex* paris_index() const { return paris_.get(); }
  const MessiIndex* messi_index() const { return messi_.get(); }
  /// The segmented core under the MESSI or ParIS index (never null):
  /// the serving snapshot, tree stats and source, whichever of the two
  /// the engine wraps.
  const SegmentedIndex* segmented_index() const { return index_; }

  /// The raw series the engine answers queries against (owned by the
  /// engine through its index).
  const RawSeriesSource& source() const { return index_->source(); }

  /// Points per series in the indexed collection.
  size_t series_length() const { return series_length_; }
  /// Series in the indexed collection. Grows under Append; safe to
  /// read concurrently. Never below the collection any answered query
  /// saw: the serving dock stores the count with each publication.
  size_t series_count() const { return index_->series_count(); }

 private:
  explicit Engine(const EngineOptions& options);

  static Result<std::unique_ptr<Engine>> OpenInternal(
      const std::string& snapshot_path, const std::string& data_path,
      const EngineOptions& options, bool enforce_algorithm);

  Status CheckQuery(SeriesView query, const SearchRequest& request) const;

  /// Fold-every-segment + full snapshot + lineage reset on the call's
  /// `pool`; caller holds append_mu_.
  Status SaveFullLocked(const std::string& snapshot_path, ThreadPool* pool)
      PARISAX_REQUIRES(append_mu_);
  /// Folds every live segment into the base index on `pool`; caller
  /// holds append_mu_. Queries keep running.
  Status FoldAllLocked(ThreadPool* pool) PARISAX_REQUIRES(append_mu_);
  /// True when `snapshot_path` names a file of the current on-disk
  /// chain (or the chain cannot be walked): a delta must not overwrite
  /// those. Caller holds append_mu_ and lineage_ is set.
  bool PathIsInLineageChain(const std::string& snapshot_path) const
      PARISAX_REQUIRES(append_mu_);
  /// Re-reads the just-written head and installs it as the lineage the
  /// next Save chains to; caller holds append_mu_.
  Status AdoptLineageHead(const std::string& snapshot_path)
      PARISAX_REQUIRES(append_mu_);

  /// Background compaction machinery. The thread is started at the end
  /// of Build/Open (never before the index exists) and stopped first
  /// thing in the destructor.
  void StartCompactorIfEnabled();
  void StopCompactor() PARISAX_EXCLUDES(compactor_mu_);
  void KickCompactor() PARISAX_EXCLUDES(compactor_mu_);
  void CompactorLoop() PARISAX_EXCLUDES(compactor_mu_, append_mu_);
  /// One cost-policy pass: merge or fold the current segment run if the
  /// trigger is met. Holds append_mu_ (so nothing else publishes);
  /// queries are never blocked.
  Status CompactionPass() PARISAX_EXCLUDES(append_mu_);

  EngineOptions options_;
  size_t series_length_ = 0;
  /// The writer mutex: Append, Save, Compact and compactor passes hold
  /// it for their whole critical section, so every serving-snapshot
  /// publication is serialized and the snapshot cannot move under a
  /// Save; it also guards the snapshot lineage. Queries never take it.
  /// Lock order: KickCompactor takes compactor_mu_ under it (ranks
  /// kEngineAppend < kCompactor).
  Mutex append_mu_{"Engine::append_mu_", LockRank::kEngineAppend}
      PARISAX_ACQUIRED_BEFORE(compactor_mu_);
  std::atomic<uint64_t> append_epoch_{0};
  std::atomic<uint64_t> compaction_count_{0};
  Mutex service_mu_{"Engine::service_mu_", LockRank::kServiceInit};
  /// Lazily created; the pointee is internally synchronized, only the
  /// pointer itself is guarded.
  std::unique_ptr<QueryService> service_ PARISAX_GUARDED_BY(service_mu_);
  BuildReport build_report_;

  /// Snapshot lineage: the chain head the next Save extends (set by
  /// Save, Compact and Open). Guarded by append_mu_.
  struct SnapshotLineage {
    std::string head_path;
    uint32_t head_header_crc = 0;
    uint64_t head_series_count = 0;
    uint32_t head_depth = 0;  // 0: full snapshot, n: n-th delta
    /// Every file of the chain, base first (so Save can refuse to
    /// write a delta over a chain member without re-walking the disk).
    std::vector<std::string> chain_paths;
  };
  std::optional<SnapshotLineage> lineage_ PARISAX_GUARDED_BY(append_mu_);

  /// Compactor thread state (compactor_mu_ guards the flags; the
  /// passes themselves synchronize through append_mu_).
  std::thread compactor_;
  Mutex compactor_mu_{"Engine::compactor_mu_", LockRank::kCompactor};
  CondVar compactor_cv_;
  bool compactor_stop_ PARISAX_GUARDED_BY(compactor_mu_) = false;
  bool compactor_kick_ PARISAX_GUARDED_BY(compactor_mu_) = false;
  /// First error a background pass hit (the pass publishes nothing on
  /// failure; the compactor parks itself and synchronous folds take
  /// over).
  Status compactor_error_ PARISAX_GUARDED_BY(compactor_mu_);

  /// The index owns the source; this records its residency.
  bool addressable_source_ = true;

  std::unique_ptr<ParisIndex> paris_;
  std::unique_ptr<MessiIndex> messi_;
  /// paris_ or messi_ seen as their shared core, set by Build and Open:
  /// every save, fold, append and compaction path goes through it; only
  /// Build, Open and Search pick the concrete index.
  SegmentedIndex* index_ = nullptr;
};

}  // namespace parisax

#endif  // PARISAX_CORE_ENGINE_H_
