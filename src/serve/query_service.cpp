#include "serve/query_service.h"

#include <algorithm>
#include <string>
#include <utility>

namespace parisax {

Result<std::unique_ptr<QueryService>> QueryService::Create(
    Engine* engine, const QueryServiceOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (options.parallel_cost_threshold <= 0.0) {
    return Status::InvalidArgument(
        "parallel_cost_threshold must be positive");
  }
  return std::unique_ptr<QueryService>(new QueryService(engine, options));
}

QueryService::QueryService(Engine* engine, const QueryServiceOptions& options)
    : engine_(engine), options_(options), shards_(options.num_threads) {
  workers_.reserve(options_.num_threads);
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryService::~QueryService() {
  // Finish accepted work first so no promise is left unfulfilled.
  Drain();
  {
    MutexLock lock(&wake_mu_);
    stopping_ = true;
  }
  wake_cv_.NotifyAll();
  for (auto& t : workers_) t.join();
}

std::future<Result<SearchResponse>> QueryService::Submit(
    SeriesView query, const SearchRequest& request) {
  // Without the cap enforced SubmitInternal cannot fail.
  return std::move(SubmitInternal(query, request, SubmitOptions{},
                                  /*enforce_cap=*/false))
      .value();
}

Result<std::future<Result<SearchResponse>>> QueryService::TrySubmit(
    SeriesView query, const SearchRequest& request,
    const SubmitOptions& submit) {
  return SubmitInternal(query, request, submit, /*enforce_cap=*/true);
}

Result<std::future<Result<SearchResponse>>> QueryService::SubmitInternal(
    SeriesView query, const SearchRequest& request,
    const SubmitOptions& submit, bool enforce_cap) {
  Task task;
  task.query.assign(query.begin(), query.end());
  task.request = request;
  task.priority = submit.priority;
  if (submit.timeout.count() > 0 && request.cancel == nullptr) {
    task.cancel = std::make_shared<CancellationToken>(
        CancellationToken::Clock::now() + submit.timeout);
    task.request.cancel = task.cancel.get();
  }
  std::future<Result<SearchResponse>> future = task.promise.get_future();

  {
    MutexLock lock(&wake_mu_);
    if (stopping_) {
      task.promise.set_value(
          Status::Internal("query service is shutting down"));
      return future;
    }
    {
      // Admission and the submitted/inflight counters move together
      // under stats_mu_, so the cap is exact: no interleaving of two
      // TrySubmits can admit past max_inflight.
      MutexLock stats_lock(&stats_mu_);
      if (enforce_cap && options_.max_inflight > 0 &&
          stats_.inflight >= options_.max_inflight) {
        stats_.rejected_overload++;
        return Status::Overloaded(
            "in-flight query cap reached (max_inflight=" +
            std::to_string(options_.max_inflight) + ")");
      }
      stats_.submitted++;
      stats_.inflight++;
      if (stats_.inflight > stats_.peak_inflight) {
        stats_.peak_inflight = stats_.inflight;
      }
    }
    // Registering inside the lock orders this submission before the
    // destructor's Drain/stop sequence.
    inflight_.Add();
    // The count rises *before* the task becomes acquirable: a worker
    // can only fetch_sub after popping the task, and the shard mutex
    // orders that pop after this increment, so queued_ never wraps
    // below zero. (Incrementing under wake_mu_ also means a worker
    // between its wait predicate and its wait cannot miss this task.)
    // The cost is a tiny window where a woken worker finds the deque
    // still empty and re-checks.
    queued_.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t shard =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  {
    MutexLock lock(&shards_[shard].mu);
    // High priority jumps the owner's line (the owner pops the front);
    // a stealing sibling still takes the back first, which only helps.
    if (task.priority == QueryPriority::kHigh) {
      shards_[shard].tasks.push_front(std::move(task));
    } else {
      shards_[shard].tasks.push_back(std::move(task));
    }
  }
  wake_cv_.NotifyOne();
  return future;
}

Result<std::vector<SearchResponse>> QueryService::SearchBatch(
    const std::vector<SeriesView>& queries, const SearchRequest& request) {
  std::vector<std::future<Result<SearchResponse>>> futures;
  futures.reserve(queries.size());
  for (const SeriesView& query : queries) {
    futures.push_back(Submit(query, request));
  }
  // Help drain instead of blocking: the calling thread is one more
  // serve lane while its batch is pending. It may also pick up other
  // clients' tasks, which only speeds the service up.
  Task task;
  while (TryAcquire(0, &task)) Execute(std::move(task));

  std::vector<SearchResponse> responses;
  responses.reserve(queries.size());
  for (auto& future : futures) {
    Result<SearchResponse> response = future.get();
    if (!response.ok()) return response.status();
    responses.push_back(std::move(response).value());
  }
  return responses;
}

void QueryService::Drain() { inflight_.Wait(); }

ServeStats QueryService::stats() const {
  MutexLock lock(&stats_mu_);
  ServeStats s = stats_;
  s.queued = queued_.load(std::memory_order_relaxed);
  return s;
}

void QueryService::WorkerLoop(int worker) {
  for (;;) {
    Task task;
    if (TryAcquire(worker, &task)) {
      Execute(std::move(task));
      continue;
    }
    MutexLock lock(&wake_mu_);
    while (!stopping_ && queued_.load(std::memory_order_relaxed) == 0) {
      wake_cv_.Wait(wake_mu_);
    }
    if (stopping_ && queued_.load(std::memory_order_relaxed) == 0) return;
  }
}

bool QueryService::TryAcquire(int worker, Task* task) {
  const int n = static_cast<int>(shards_.size());
  // Own deque first (front: oldest, FIFO service order) ...
  {
    Shard& own = shards_[worker];
    MutexLock lock(&own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.front());
      own.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // ... then steal from a sibling's back, keeping contention off the
  // owner's end of the deque.
  for (int offset = 1; offset < n; ++offset) {
    Shard& victim = shards_[(worker + offset) % n];
    MutexLock lock(&victim.mu);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      {
        MutexLock stats_lock(&stats_mu_);
        stats_.steals++;
      }
      return true;
    }
  }
  return false;
}

double QueryService::EstimateCost(const SearchRequest& request) const {
  if (request.approximate) return 0.0;  // one leaf probe, always cheap
  const double count = static_cast<double>(engine_->series_count());
  const double length = static_cast<double>(engine_->series_length());
  double per_candidate = length;
  if (request.dtw) {
    // Banded DTW costs ~ (2*band+1) cells per point instead of 1.
    const double band_width = std::min(
        length, static_cast<double>(2 * request.dtw_band + 1));
    per_candidate *= band_width;
  }
  return count * per_candidate;
}

void QueryService::Execute(Task task) {
  // Deadline enforcement at dequeue: a task that expired while queued
  // completes without touching the engine, so a backlog of dead work
  // drains at queue-pop speed instead of occupying serve lanes. The
  // admission rule still answers first, as Engine::Search does, so an
  // unsupported request gets its typed rejection whatever the queue
  // timing; otherwise the task answers kDeadlineExceeded.
  if (Expired(task.request.cancel)) {
    const Status gate = CheckRequestAgainstCapabilities(
        engine_->capabilities(), engine_->series_length(),
        engine_->algorithm_name(),
        SeriesView(task.query.data(), task.query.size()), task.request);
    {
      MutexLock lock(&stats_mu_);
      if (gate.ok()) stats_.expired_in_queue++;
      stats_.completed++;
      stats_.inflight--;
    }
    task.promise.set_value(
        gate.ok()
            ? Status::DeadlineExceeded("query deadline expired while queued")
            : gate);
    inflight_.Done();
    return;
  }

  bool parallel = false;
  switch (options_.policy) {
    case SchedulingPolicy::kThroughput:
      parallel = false;
      break;
    case SchedulingPolicy::kLatency:
      parallel = true;
      break;
    case SchedulingPolicy::kAuto:
      // The intra-query parallel path is for an expensive query that is
      // the only one in flight. Under load the pool would serialize the
      // queries, and an empty deque is no sign of idleness: closed-loop
      // clients keep the deques empty while every worker is busy.
      if (EstimateCost(task.request) >= options_.parallel_cost_threshold) {
        MutexLock lock(&stats_mu_);
        parallel = stats_.inflight == 1;
      }
      break;
  }

  const SeriesView view(task.query.data(), task.query.size());
  // Exceptions must not escape: the promise and the inflight counter
  // have to resolve even if the engine throws (e.g. bad_alloc), or the
  // submitter's future breaks and Drain blocks forever.
  Result<SearchResponse> response = [&]() -> Result<SearchResponse> {
    try {
      if (parallel) return engine_->Search(view, task.request);
      InlineExecutor inline_exec;
      return engine_->Search(view, task.request, &inline_exec);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("query threw: ") + e.what());
    } catch (...) {
      return Status::Internal("query threw an unknown exception");
    }
  }();
  {
    MutexLock lock(&stats_mu_);
    (parallel ? stats_.ran_parallel : stats_.ran_inline)++;
    stats_.completed++;
    stats_.inflight--;
  }
  task.promise.set_value(std::move(response));
  inflight_.Done();
}

}  // namespace parisax
