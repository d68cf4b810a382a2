// The abstract serving surface every similarity-search backend
// implements.
//
// A SearchBackend answers queries, accepts appends and persists itself;
// Engine (one algorithm over one source) and ShardedEngine (N engines
// behind a query router, src/shard/) both implement it. The serve and
// net layers — QueryService, src/net/Server, parisax_server — are
// written against this interface only, so sharding (or any future
// backend) is invisible to the wire protocol, scheduling and metrics.
//
// The request/response/capability types live here rather than in
// engine.h so the serve layer can be compiled against the interface
// alone; engine.h re-exports them by including this header.
#ifndef PARISAX_CORE_SEARCH_BACKEND_H_
#define PARISAX_CORE_SEARCH_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/types.h"
#include "index/query_stats.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

class Dataset;
class QueryService;
struct SubmitOptions;

/// How the serve layer schedules concurrent queries over the shared
/// worker pool (see serve/query_service.h).
enum class SchedulingPolicy {
  /// Whole-query-per-worker: each query runs serially on one serve
  /// worker, many queries in flight at once. Maximizes queries/sec.
  kThroughput,
  /// Every query fans out over the full thread pool (the paper's
  /// intra-query parallelism); queries are serialized on the pool.
  /// Minimizes single-query latency.
  kLatency,
  /// Per-query choice by a cost heuristic: expensive queries take the
  /// parallel path when the service is otherwise idle, everything else
  /// runs whole-query-per-worker.
  kAuto,
};

/// Short lowercase name ("throughput", "latency", "auto").
const char* SchedulingPolicyName(SchedulingPolicy policy);

/// Parses a name produced by SchedulingPolicyName.
Result<SchedulingPolicy> ParseSchedulingPolicy(const std::string& name);

/// What a backend can do. For Engine this is one static table per
/// algorithm (see AlgorithmCapabilities), narrowed per instance by the
/// source it was built over (Engine::capabilities); for ShardedEngine
/// it is the intersection across shards. CheckQuery, Save and Build
/// derive every typed kNotSupported rejection from this struct -- there
/// are no per-call-site whitelists.
struct EngineCapabilities {
  /// Largest supported k for exact kNN searches (1: only 1-NN).
  size_t max_k = 1;
  /// Exact search under banded DTW.
  bool dtw = false;
  /// k > 1 under DTW (currently unimplemented everywhere).
  bool dtw_knn = false;
  /// Approximate (leaf-probe) search.
  bool approximate = false;
  /// Engine::Save / Engine::Open snapshot support.
  bool snapshot = false;
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

struct SearchRequest {
  /// Number of nearest neighbors (bounded by capabilities().max_k).
  size_t k = 1;
  /// Return the approximate answer (index engines only): the best match
  /// within the query's approximate-match leaf.
  bool approximate = false;
  /// Search under banded DTW instead of ED (capabilities().dtw).
  bool dtw = false;
  /// Sakoe-Chiba radius in points for DTW searches.
  size_t dtw_band = 12;
  /// Optional cancel/deadline token, owned by the caller and kept alive
  /// for the whole search. The index engines poll it inside their hot
  /// loops (MESSI every 64 tree-node visits and per refined leaf,
  /// ParIS/ParIS+ per batch) and the search returns kDeadlineExceeded
  /// instead of a partial answer; the scan engines and ADS+ only check
  /// it on entry. Null: never expires.
  const CancellationToken* cancel = nullptr;
  /// Optional cross-search pruning bound, owned by the caller and kept
  /// alive for the whole search. When set, the index engines fold its
  /// value into their best-so-far bound (min with the local BSF / kth
  /// kNN bound) and publish their own improvements back through
  /// UpdateMin — MESSI's shared-BSF trick lifted across searches. The
  /// shard router points every per-shard search of one routed query at
  /// one cell, so a tight bound found on any shard prunes the others.
  /// Exactness is preserved: the cell's value can never drop below the
  /// query's true global answer. Null: the search uses only its local
  /// bound.
  AtomicMinFloat* shared_bound = nullptr;
};

struct SearchResponse {
  /// Ascending (squared distance, id). Exactly min(k, collection size)
  /// entries for exact searches.
  std::vector<Neighbor> neighbors;
  QueryStats stats;
};

/// The one request-admission rule: validates `query`/`request` against a
/// backend's shape and capabilities and returns the typed rejection
/// (kInvalidArgument for malformed requests, kNotSupported for
/// capability gaps) every backend answers with, or OK when the request
/// must be served. Engine::Search applies exactly this function, so
/// external oracles (the storm harness, tests/capability_gap_test.cpp)
/// can predict a backend's rejection without a per-call-site whitelist.
/// `algorithm_name` only flavors the error message.
Status CheckRequestAgainstCapabilities(const EngineCapabilities& caps,
                                       size_t series_length,
                                       const char* algorithm_name,
                                       SeriesView query,
                                       const SearchRequest& request);

/// Summary of one SearchBackend::Append call.
struct AppendReport {
  /// Series added by this call.
  size_t appended = 0;
  /// Collection size after the call.
  size_t total_series = 0;
  /// Root subtrees of the published delta segment(s); 0 for scan
  /// engines, which have no tree. A sharded append sums its shards.
  size_t touched_subtrees = 0;
  double wall_seconds = 0.0;
};

/// Abstract query/ingest/persistence surface. Implementations must make
/// Search (both overloads), Append, Save/Compact and every accessor
/// safe to call concurrently, with the same guarantees Engine documents
/// (engine.h) — the serve layer does not know which backend it drives.
class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  SearchBackend(const SearchBackend&) = delete;
  SearchBackend& operator=(const SearchBackend&) = delete;

  /// Answers one similarity-search query with the backend's own thread
  /// pool(s). Thread-safe: concurrent calls serialize on the pool (use
  /// Submit/SearchBatch to actually overlap queries).
  virtual Result<SearchResponse> Search(SeriesView query,
                                        const SearchRequest& request = {}) = 0;

  /// Answers one query on the given executor instead of the backend's
  /// pool. Re-entrant: any number of calls may run concurrently as long
  /// as each uses its own executor (e.g. per-thread InlineExecutors).
  /// The caller is responsible for the executor's own concurrency rules.
  virtual Result<SearchResponse> Search(SeriesView query,
                                        const SearchRequest& request,
                                        Executor* exec) = 0;

  /// Asynchronously answers one query through the backend's query
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

  /// The backend's query service, created on first use. Never null.
  virtual QueryService* query_service() = 0;

  /// Incremental ingest of `count` series of series_length() values
  /// each, row-major. Requires capabilities().append; see Engine::Append
  /// (engine.h) for the thread-safety and failure contract every
  /// implementation honors.
  virtual Result<AppendReport> Append(const Value* values, size_t count) = 0;

  /// As above from a Dataset (validates the batch's series length).
  Result<AppendReport> Append(const Dataset& batch);

  /// Writes the backend's index state to `snapshot_path` (for a sharded
  /// backend, a manifest plus per-shard files derived from the path).
  /// Requires capabilities().snapshot. Thread-safe against concurrent
  /// Search and Append calls.
  virtual Status Save(const std::string& snapshot_path) = 0;

  /// Folds every live segment into the base index, then rewrites the
  /// snapshot chain as one fresh full snapshot at `snapshot_path`.
  virtual Status Compact(const std::string& snapshot_path) = 0;

  /// What this backend supports; every kNotSupported it returns is
  /// derived from this value.
  virtual EngineCapabilities capabilities() const = 0;

  /// Short lowercase algorithm name ("messi", "paris+", ...): for a
  /// sharded backend, the shards' common algorithm.
  virtual const char* algorithm_name() const = 0;

  /// Points per series in the indexed collection.
  virtual size_t series_length() const = 0;

  /// Series in the indexed collection (serve-layer cost heuristics).
  /// Grows under Append; safe to read concurrently.
  virtual size_t series_count() const = 0;

  /// Number of Append calls that have completed (monotonic). Each
  /// append publishes a new index epoch to queries atomically.
  virtual uint64_t append_epoch() const = 0;

  /// Number of compaction actions (background passes and synchronous
  /// folds) that published a merged/folded snapshot. Monotonic;
  /// exported by the serving metrics layer.
  virtual uint64_t compaction_count() const = 0;

 protected:
  SearchBackend() = default;
};

}  // namespace parisax

#endif  // PARISAX_CORE_SEARCH_BACKEND_H_
