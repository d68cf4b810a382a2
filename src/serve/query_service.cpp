#include "serve/query_service.h"

#include <exception>
#include <string>
#include <utility>

namespace parisax {

class QueryService::HelperExecutor : public Executor {
 public:
  explicit HelperExecutor(QueryService* service) : service_(service) {}
  int num_threads() const override { return service_->options_.num_threads; }
  void Run(const std::function<void(int)>& fn) override {
    service_->RunRegion(fn);
  }

 private:
  QueryService* const service_;
};

Result<std::unique_ptr<QueryService>> QueryService::Create(
    Engine* engine, const QueryServiceOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  return std::unique_ptr<QueryService>(new QueryService(engine, options));
}

QueryService::QueryService(Engine* engine, const QueryServiceOptions& options)
    : engine_(engine), options_(options) {
  workers_.reserve(options_.num_threads);
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  // Finish accepted work first so no promise is left unfulfilled.
  Drain();
  {
    MutexLock lock(&mu_);
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
    MutexLock lock(&mu_);
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
    if (task.priority == QueryPriority::kHigh) {
      queue_.push_front(std::move(task));
    } else {
      queue_.push_back(std::move(task));
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
  for (;;) {
    std::optional<Task> task;
    {
      MutexLock lock(&mu_);
      task = PopLocked();
    }
    if (!task) break;
    Execute(std::move(*task));
  }

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
  size_t queued = 0;
  {
    MutexLock lock(&mu_);
    queued = queue_.size();
  }
  MutexLock lock(&stats_mu_);
  ServeStats s = stats_;
  s.queued = queued;
  return s;
}

void QueryService::WorkerLoop() {
  uint64_t joined = 0;  // the generation of the last region joined
  for (;;) {
    std::optional<Task> task;
    const std::function<void(int)>* fn = nullptr;
    int id = 0;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !CanJoinLocked(joined) && !stopping_) {
        wake_cv_.Wait(mu_);
      }
      // A queued task first; failing that, a share of the open region.
      task = PopLocked();
      if (!task) {
        if (!CanJoinLocked(joined)) return;  // stopping, nothing queued
        fn = region_.fn;
        id = region_.next_id++;
        region_.active++;
        joined = region_.generation;
        MutexLock stats_lock(&stats_mu_);
        stats_.steals++;
      }
    }
    if (task) {
      Execute(std::move(*task));
      continue;
    }
    // An exception must not end the worker; the owner rethrows it.
    std::exception_ptr error;
    try {
      (*fn)(id);
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(&mu_);
    if (error && !region_.error) region_.error = error;
    if (--region_.active == 0) region_cv_.NotifyAll();
  }
}

std::optional<QueryService::Task> QueryService::PopLocked() {
  if (queue_.empty()) return std::nullopt;
  std::optional<Task> task(std::move(queue_.front()));
  queue_.pop_front();
  return task;
}

bool QueryService::CanJoinLocked(uint64_t joined) const {
  return region_.fn != nullptr && region_.next_id < options_.num_threads &&
         region_.generation != joined;
}

void QueryService::RunRegion(const std::function<void(int)>& fn) {
  {
    MutexLock lock(&mu_);
    region_ = Region{.fn = &fn, .generation = region_.generation + 1};
  }
  wake_cv_.NotifyAll();
  // The region closes even when fn(0) throws: Execute catches the
  // exception, and an open region would hand helpers a dangling fn.
  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  {
    MutexLock lock(&mu_);
    region_.fn = nullptr;
    while (region_.active > 0) region_cv_.Wait(mu_);
    if (!error) error = region_.error;
  }
  if (error) std::rethrow_exception(error);
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

  // The paper's fan-out is for an exact query that is the only one in
  // flight; under load every query keeps to its own worker. An empty
  // queue is no sign of idleness: closed-loop clients keep it empty
  // while every worker is busy.
  bool parallel = false;
  if (!task.request.approximate) {
    MutexLock lock(&stats_mu_);
    parallel = stats_.inflight == 1;
  }

  const SeriesView view(task.query.data(), task.query.size());
  // Exceptions must not escape: the promise and the inflight counter
  // have to resolve even if the engine throws (e.g. bad_alloc), or the
  // submitter's future breaks and Drain blocks forever.
  Result<SearchResponse> response = [&]() -> Result<SearchResponse> {
    try {
      if (parallel) {
        HelperExecutor helpers(this);
        return engine_->Search(view, task.request, &helpers);
      }
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
