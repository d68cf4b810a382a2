// Concurrent query service: batched / streamed multi-query execution
// over an already-built Engine.
//
// ParIS+/MESSI parallelize *one* query at a time (intra-query worker
// fan-out); a system serving heavy traffic also needs inter-query
// concurrency. QueryService provides both on one set of serve workers
// fed by one FIFO queue:
//
//   - An exact query that is alone in flight (nothing queued, nothing
//     else executing) runs the paper's fan-out: its parallel phases run
//     on the worker that took it, and every idle worker joins them.
//   - Every other query runs whole-query-per-worker on an
//     InlineExecutor: N workers answer N queries at once with no
//     cross-query synchronization.
//
// A worker takes a queued task before it joins a phase, so a query that
// arrives during a lone query's phase waits at most until one helper
// runs out of work in that phase (and then runs inline: two are now in
// flight). A thread blocked in SearchBatch helps execute pending tasks
// instead of just waiting.
#ifndef PARISAX_SERVE_QUERY_SERVICE_H_
#define PARISAX_SERVE_QUERY_SERVICE_H_

#include <chrono>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
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
  /// Serve workers: the most queries answered at once, and the most
  /// threads a lone query's parallel phases run on.
  int num_threads = 4;
  /// Scheduling policy for every query the service runs.
  SchedulingPolicy policy = SchedulingPolicy::kAuto;
  /// Admission control: the most queries TrySubmit accepts before
  /// completing some (queued + executing). Further TrySubmits are
  /// rejected with kOverloaded — typed backpressure instead of an
  /// unbounded queue. 0: no cap. Plain Submit never rejects.
  size_t max_inflight = 0;
};

/// Dequeue order in the service's queue. High-priority tasks jump the
/// whole line; admission control and deadlines apply to both alike.
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
/// admission cap). `queued` alone is sampled from the queue at snapshot
/// time.
struct ServeStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  /// Queries answered whole-query-per-worker on one serve worker.
  uint64_t ran_inline = 0;
  /// Queries answered via the intra-query parallel path: a lone exact
  /// query whose parallel phases the idle workers could join.
  uint64_t ran_parallel = 0;
  /// Helper joins: an idle worker ran its share of a lone query's
  /// parallel phase.
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
  /// Tasks sitting in the queue (accepted, not yet picked up), at
  /// snapshot time.
  uint64_t queued = 0;
};

class QueryService {
 public:
  /// Starts `options.num_threads` serve workers over `engine`, which
  /// must outlive the service.
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

  /// The parallel region a lone query has open: helpers take ids
  /// next_id, next_id + 1, ... below num_threads while fn is set, each
  /// worker at most once per region (its generation).
  struct Region {
    const std::function<void(int)>* fn = nullptr;
    int next_id = 1;
    int active = 0;            ///< helpers inside fn
    std::exception_ptr error;  ///< the first exception a helper caught
    uint64_t generation = 0;   ///< regions opened so far
  };

  /// A lone query's executor: Run is RunRegion.
  class HelperExecutor;

  QueryService(Engine* engine, const QueryServiceOptions& options);

  /// Shared Submit/TrySubmit body; `enforce_cap` selects admission
  /// control. Returns kOverloaded only when it is enforced.
  Result<std::future<Result<SearchResponse>>> SubmitInternal(
      SeriesView query, const SearchRequest& request,
      const SubmitOptions& submit, bool enforce_cap);

  void WorkerLoop();
  /// Pops the queue's front task; nullopt when the queue is empty.
  std::optional<Task> PopLocked() PARISAX_REQUIRES(mu_);
  /// True when a region is open with an id left for a helper, and it
  /// is not the region of generation `joined`.
  bool CanJoinLocked(uint64_t joined) const PARISAX_REQUIRES(mu_);
  void Execute(Task task);
  /// Publishes `fn` as the open region, wakes the idle workers and runs
  /// fn(0) on the calling thread; then closes the region, on every exit
  /// path, and waits for the helpers that joined it. A worker that
  /// wakes after the close joins nothing, so none is waited for unless
  /// it started. Rethrows what fn threw, here or in a helper. Only a
  /// query alone in flight calls this, so at most one region is open at
  /// a time.
  void RunRegion(const std::function<void(int)>& fn) PARISAX_EXCLUDES(mu_);

  Engine* const engine_;
  const QueryServiceOptions options_;

  std::vector<std::thread> workers_;

  /// Guards the queue, the open region and the stop flag. Idle workers
  /// sleep on wake_cv_, a region's owner waits for its helpers on
  /// region_cv_.
  mutable Mutex mu_{"QueryService::mu_", LockRank::kServeWake};
  CondVar wake_cv_;
  CondVar region_cv_;
  std::deque<Task> queue_ PARISAX_GUARDED_BY(mu_);
  Region region_ PARISAX_GUARDED_BY(mu_);
  bool stopping_ PARISAX_GUARDED_BY(mu_) = false;

  TaskGroup inflight_;  // submitted but not yet completed

  /// The one coherent counter block: every submit/join/complete
  /// transition updates it under stats_mu_ (innermost lock, never held
  /// across engine calls), and stats() copies it whole — no
  /// mid-update cross-field tearing. Admission control piggybacks on
  /// the same lock, so `inflight` can never overshoot the cap.
  mutable Mutex stats_mu_{"QueryService::stats_mu_", LockRank::kServeStats};
  ServeStats stats_ PARISAX_GUARDED_BY(stats_mu_);
};

}  // namespace parisax

#endif  // PARISAX_SERVE_QUERY_SERVICE_H_
