// Concurrent query service: batched / streamed multi-query execution
// over an already-built Engine.
//
// ParIS+/MESSI parallelize *one* query at a time (intra-query worker
// fan-out); a system serving heavy traffic also needs inter-query
// concurrency. QueryService schedules many in-flight queries over one
// set of serve workers with a work-stealing per-query task model:
//
//   kThroughput  every query runs whole-query-per-worker on a per-query
//                InlineExecutor -- N workers answer N queries at once
//                with zero cross-query synchronization. Maximizes
//                queries/sec under load.
//   kLatency     every query takes the paper's intra-query parallel
//                path over the engine's full thread pool; queries
//                serialize on the pool. Minimizes single-query latency.
//   kAuto        per-query choice: a query whose estimated cost clears
//                `parallel_cost_threshold` runs the parallel path when
//                it is the only query in flight (nothing queued, nothing
//                else executing); everything else runs
//                whole-query-per-worker.
//
// Submitted tasks land in per-worker deques; an idle worker first drains
// its own deque, then steals from its siblings, so bursty clients cannot
// strand work behind a slow queue. A thread blocked in SearchBatch helps
// execute its own batch instead of just waiting.
#ifndef PARISAX_SERVE_QUERY_SERVICE_H_
#define PARISAX_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/types.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

struct QueryServiceOptions {
  /// Serve workers (concurrent whole-query lanes). The engine's own
  /// pool additionally provides intra-query parallelism for the
  /// kLatency path.
  int num_threads = 4;
  /// Scheduling policy for every query the service runs.
  SchedulingPolicy policy = SchedulingPolicy::kAuto;
  /// kAuto: a query whose estimated cost (point-pair kernel
  /// evaluations) reaches this takes the intra-query parallel path when
  /// it is the only query in flight. The default (64M point pairs, ~a
  /// 256K x 256 collection) keeps small queries in throughput mode,
  /// where a lone query gains little or nothing from the pool.
  double parallel_cost_threshold = 64.0 * 1024.0 * 1024.0;
  /// Admission control: the most queries TrySubmit accepts before
  /// completing some (queued + executing). Further TrySubmits are
  /// rejected with kOverloaded — typed backpressure instead of an
  /// unbounded queue. 0: no cap. Plain Submit never rejects.
  size_t max_inflight = 0;
};

/// Dequeue order within a worker's deque. High-priority tasks jump the
/// line; admission control and deadlines apply to both alike.
enum class QueryPriority {
  kNormal,  ///< FIFO service order
  kHigh,    ///< served before queued normal tasks
};

/// Per-submission controls for TrySubmit.
struct SubmitOptions {
  QueryPriority priority = QueryPriority::kNormal;
  /// Relative deadline: the service wraps the query in a
  /// CancellationToken expiring `timeout` after submission. A task
  /// whose deadline passes while queued completes at dequeue without
  /// running: with the admission rule's typed rejection when the
  /// request is unsupported, otherwise with kDeadlineExceeded. One that
  /// expires mid-search is cancelled by the index engines' hot-loop
  /// polls (see SearchRequest::cancel). Zero: no deadline. Ignored when
  /// the request already carries a caller-owned `cancel` token (that
  /// token governs).
  std::chrono::nanoseconds timeout{0};
};

/// Service counters, published as one coherent snapshot: stats() reads
/// every field under the same lock the submit/complete paths update
/// them under, so cross-field invariants hold in any snapshot
/// (submitted == completed + inflight; peak_inflight never exceeds the
/// admission cap). `queued` alone is sampled from the scheduler's
/// wake counter at snapshot time.
struct ServeStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  /// Queries answered whole-query-per-worker (throughput path).
  uint64_t ran_inline = 0;
  /// Queries answered via the intra-query parallel path.
  uint64_t ran_parallel = 0;
  /// Tasks executed by a worker other than the one they were queued on.
  uint64_t steals = 0;
  /// TrySubmit rejections: the in-flight cap was reached (kOverloaded).
  uint64_t rejected_overload = 0;
  /// Tasks whose deadline passed while queued: completed with
  /// kDeadlineExceeded at dequeue, without touching the engine.
  uint64_t expired_in_queue = 0;
  /// Queries accepted but not yet completed, at snapshot time.
  uint64_t inflight = 0;
  /// Highest `inflight` ever observed.
  uint64_t peak_inflight = 0;
  /// Tasks sitting in deques (accepted, not yet picked up), at
  /// snapshot time.
  uint64_t queued = 0;
};

class QueryService {
 public:
  /// Starts `options.num_threads` serve workers over `engine`, which
  /// must outlive the service. While a service is attached, route
  /// queries through it (or through the engine's thread-safe Search,
  /// which serializes on the same pool the kLatency path uses).
  static Result<std::unique_ptr<QueryService>> Create(
      Engine* engine, const QueryServiceOptions& options);

  /// Finishes every accepted query, then stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one query; the returned future yields its response. The
  /// query values are copied, so the view only needs to live until
  /// Submit returns.
  std::future<Result<SearchResponse>> Submit(
      SeriesView query, const SearchRequest& request = {});

  /// As Submit with per-query priority and deadline, and subject to
  /// admission control: when `options().max_inflight` queries are
  /// already in flight the submission is rejected with kOverloaded
  /// (nothing is enqueued; the caller should shed or retry later).
  Result<std::future<Result<SearchResponse>>> TrySubmit(
      SeriesView query, const SearchRequest& request = {},
      const SubmitOptions& submit = {});

  /// Answers a batch of queries concurrently; responses are in query
  /// order. The calling thread helps execute pending tasks instead of
  /// blocking. Fails on the first failing query.
  Result<std::vector<SearchResponse>> SearchBatch(
      const std::vector<SeriesView>& queries,
      const SearchRequest& request = {});

  /// Blocks until every query submitted so far has completed.
  void Drain();

  ServeStats stats() const;
  const QueryServiceOptions& options() const { return options_; }

 private:
  struct Task {
    std::vector<Value> query;
    SearchRequest request;
    QueryPriority priority = QueryPriority::kNormal;
    /// Deadline token the service created for this task (request.cancel
    /// points at it); heap-allocated so moves keep the pointer valid.
    std::shared_ptr<CancellationToken> cancel;
    std::promise<Result<SearchResponse>> promise;
  };

  /// One worker's deque; siblings steal from the back under `mu`.
  struct Shard {
    Mutex mu{"QueryService::Shard::mu", LockRank::kServeDeque};
    std::deque<Task> tasks PARISAX_GUARDED_BY(mu);
  };

  QueryService(Engine* engine, const QueryServiceOptions& options);

  /// Shared Submit/TrySubmit body; `enforce_cap` selects admission
  /// control. Returns kOverloaded only when it is enforced.
  Result<std::future<Result<SearchResponse>>> SubmitInternal(
      SeriesView query, const SearchRequest& request,
      const SubmitOptions& submit, bool enforce_cap);

  void WorkerLoop(int worker);
  /// Pops from shard `worker` or steals from a sibling; false when every
  /// deque is empty.
  bool TryAcquire(int worker, Task* task);
  void Execute(Task task);
  /// The kAuto cost heuristic: estimated point-pair kernel evaluations
  /// for one query against the whole collection.
  double EstimateCost(const SearchRequest& request) const;

  Engine* const engine_;
  const QueryServiceOptions options_;

  std::vector<Shard> shards_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> next_shard_{0};

  /// Tasks sitting in deques (not yet acquired). Guards the sleep/wake
  /// protocol together with wake_mu_.
  std::atomic<size_t> queued_{0};
  Mutex wake_mu_{"QueryService::wake_mu_", LockRank::kServeWake};
  CondVar wake_cv_;
  bool stopping_ PARISAX_GUARDED_BY(wake_mu_) = false;

  TaskGroup inflight_;  // submitted but not yet completed

  /// The one coherent counter block: every submit/steal/complete
  /// transition updates it under stats_mu_ (innermost lock, never held
  /// across engine calls), and stats() copies it whole — no
  /// mid-update cross-field tearing. Admission control piggybacks on
  /// the same lock, so `inflight` can never overshoot the cap.
  mutable Mutex stats_mu_{"QueryService::stats_mu_", LockRank::kServeStats};
  ServeStats stats_ PARISAX_GUARDED_BY(stats_mu_);
};

}  // namespace parisax

#endif  // PARISAX_SERVE_QUERY_SERVICE_H_
