#include "storm/storm_runner.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/engine.h"
#include "io/format.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/query_service.h"
#include "storm/wire_client.h"
#include "storm/workload_model.h"
#include "support/failing_source.h"
#include "support/temp_dir.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace parisax {
namespace storm {
namespace {

constexpr size_t kMaxRecordedFailures = 16;
/// Seed-stream tags: queries must never collide with the data stream.
constexpr uint64_t kQuerySeedTag = 0x9C13;

/// A fixed pool of actor threads draining one task queue. The driver
/// dispatches query checks here and uses Drain() as the quiesce barrier
/// before engine teardown. The queue lock is kLeaf and is never held
/// while a task runs, so actor tasks may take engine locks freely.
class ActorPool {
 public:
  explicit ActorPool(size_t actors) {
    threads_.reserve(actors);
    for (size_t i = 0; i < actors; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  ~ActorPool() {
    {
      MutexLock lock(&mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    for (auto& t : threads_) t.join();
  }

  void Dispatch(std::function<void()> task) {
    {
      MutexLock lock(&mu_);
      ++pending_;
      queue_.push_back(std::move(task));
    }
    cv_.NotifyOne();
  }

  /// Blocks until every dispatched task has finished.
  void Drain() {
    MutexLock lock(&mu_);
    while (pending_ != 0) done_cv_.Wait(mu_);
  }

 private:
  void Loop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(&mu_);
        while (queue_.empty() && !stop_) cv_.Wait(mu_);
        if (queue_.empty()) return;  // stop_ and nothing left to run
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        MutexLock lock(&mu_);
        --pending_;
      }
      done_cv_.NotifyAll();
    }
  }

  Mutex mu_{"storm::ActorPool::mu_", LockRank::kLeaf};
  CondVar cv_;
  CondVar done_cv_;
  std::deque<std::function<void()>> queue_ PARISAX_GUARDED_BY(mu_);
  size_t pending_ PARISAX_GUARDED_BY(mu_) = 0;
  bool stop_ PARISAX_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

std::string DescribeNeighbors(const std::vector<Neighbor>& neighbors) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < neighbors.size() && i < 6; ++i) {
    if (i != 0) out << ", ";
    out << "(" << neighbors[i].id << ", " << neighbors[i].distance_sq
        << ")";
  }
  if (neighbors.size() > 6) out << ", ...x" << neighbors.size();
  out << "]";
  return out.str();
}

class StormRunner {
 public:
  explicit StormRunner(const StormPlan& plan)
      : plan_(plan),
        config_(plan.config),
        tmp_("parisax_storm"),
        model_(config_.kind, config_.data_seed, config_.initial_series,
               config_.series_length) {}

  Result<StormReport> Run() {
    PARISAX_RETURN_IF_ERROR(SetupEngine());
    if (config_.wire) PARISAX_RETURN_IF_ERROR(StartServer());
    pool_ = std::make_unique<ActorPool>(config_.actors);
    for (size_t i = 0; i < plan_.ops.size(); ++i) {
      if (engine_ == nullptr) break;  // lost beyond recovery
      ExecuteOp(i, plan_.ops[i]);
    }
    pool_->Drain();
    pool_.reset();
    server_.reset();

    StormReport report;
    {
      MutexLock lock(&failures_mu_);
      report.failures = failures_;
      report.failure_count = failure_count_;
    }
    report.stats.queries_checked = stats_.queries_checked.load();
    report.stats.rejections_predicted = stats_.rejections_predicted.load();
    report.stats.deadlines_expired = stats_.deadlines_expired.load();
    report.stats.overloaded = stats_.overloaded.load();
    report.stats.appends = stats_.appends.load();
    report.stats.saves = stats_.saves.load();
    report.stats.compacts = stats_.compacts.load();
    report.stats.reopens = stats_.reopens.load();
    report.stats.rebuilds = stats_.rebuilds.load();
    report.stats.failed_rebuilds = stats_.failed_rebuilds.load();
    report.stats.wire_garbage = stats_.wire_garbage.load();
    report.stats.wire_health = stats_.wire_health.load();
    report.final_count = model_.count();
    report.passed = report.failure_count == 0;
    return report;
  }

 private:
  // --- setup ---------------------------------------------------------------

  Status SetupEngine() {
    eopts_.algorithm = config_.algorithm;
    eopts_.num_threads = 2;
    eopts_.tree.segments = 8;
    eopts_.tree.leaf_capacity = 32;
    eopts_.compaction_trigger_segments = 4;

    Dataset initial = model_.CopyData();
    residency_ = config_.residency;
    SourceSpec spec = SourceSpec::InMemory(std::move(initial));
    if (config_.residency != SourceResidency::kOwnedMemory) {
      data_file_ = tmp_.Path("data.bin");
      PARISAX_RETURN_IF_ERROR(WriteDataset(model_.CopyData(), data_file_));
      if (config_.residency == SourceResidency::kMmap) {
        spec = SourceSpec::Mmap(data_file_);
      } else {
        eopts_.leaf_storage_path = tmp_.Path("data.leaves");
        spec = SourceSpec::File(data_file_);
      }
    }
    PARISAX_ASSIGN_OR_RETURN(engine_,
                             Engine::Build(std::move(spec), eopts_));
    return Status::OK();
  }

  Status StartServer() {
    ServerOptions sopts;
    sopts.serve_threads = 3;
    sopts.max_inflight = 64;
    PARISAX_ASSIGN_OR_RETURN(server_, Server::Start(engine_.get(), sopts));
    port_.store(server_->port(), std::memory_order_release);
    return Status::OK();
  }

  // --- failure recording ---------------------------------------------------

  void Fail(size_t index, const StormOp& op, std::string what) {
    MutexLock lock(&failures_mu_);
    ++failure_count_;
    if (failures_.size() < kMaxRecordedFailures) {
      failures_.push_back(
          {index, std::string("[op ") + std::to_string(index) + " " +
                      StormOpKindName(op.kind) + "] " + std::move(what)});
    }
  }

  // --- op dispatch ---------------------------------------------------------

  void ExecuteOp(size_t index, const StormOp& op) {
    switch (op.kind) {
      case StormOpKind::kQueryNn:
      case StormOpKind::kQueryKnn:
      case StormOpKind::kQueryDtw:
      case StormOpKind::kQueryApprox:
      case StormOpKind::kBadQuery:
        pool_->Dispatch([this, index, op] { RunQuery(index, op); });
        break;
      case StormOpKind::kAppend:
        DoAppend(index, op);
        break;
      case StormOpKind::kSave:
        DoSave(index, op);
        break;
      case StormOpKind::kCompact:
        DoCompact(index, op);
        break;
      case StormOpKind::kReopen:
        DoReopen(index, op);
        break;
      case StormOpKind::kRebuild:
        DoRebuild(index, op);
        break;
      case StormOpKind::kRebuildFail:
        DoRebuildFail(index, op);
        break;
      case StormOpKind::kWireGarbage:
        DoWireGarbage(index, op);
        break;
      case StormOpKind::kWireHealth:
        DoWireHealth(index, op);
        break;
    }
  }

  // --- queries -------------------------------------------------------------

  /// The op's query series: deterministic in (seed, op index), drawn
  /// from the collection's distribution but a disjoint seed stream.
  std::vector<Value> MakeQueryValues(size_t index, size_t length) const {
    std::vector<Value> values(length);
    GenerateSeriesInto(config_.kind, MixSeed(config_.seed, kQuerySeedTag),
                       index, MutableSeriesView(values.data(), length));
    return values;
  }

  /// Builds the (possibly deliberately malformed) request + values.
  void ShapeQuery(size_t index, const StormOp& op, SearchRequest* request,
                  std::vector<Value>* values) const {
    size_t length = config_.series_length;
    switch (op.kind) {
      case StormOpKind::kQueryNn:
        break;
      case StormOpKind::kQueryKnn:
        request->k = op.k;
        break;
      case StormOpKind::kQueryDtw:
        request->dtw = true;
        request->dtw_band = op.band;
        break;
      case StormOpKind::kQueryApprox:
        request->approximate = true;
        break;
      case StormOpKind::kBadQuery:
        if (op.variant == 0) {
          request->k = 0;
        } else if (op.variant == 1) {
          length += 3;  // wrong length: kInvalidArgument
        } else {
          request->dtw = true;
          request->k = op.k;  // DTW k>1: kNotSupported everywhere
        }
        break;
      default:
        break;
    }
    *values = MakeQueryValues(index, length);
  }

  /// The oracle's prediction of the typed admission outcome, from the
  /// very same rule Engine::Search applies.
  Status PredictAdmission(SeriesView query,
                          const SearchRequest& request) const {
    return CheckRequestAgainstCapabilities(
        engine_->capabilities(), engine_->series_length(),
        engine_->algorithm_name(), query, request);
  }

  void RunQuery(size_t index, const StormOp& op) {
    SearchRequest request;
    std::vector<Value> values;
    ShapeQuery(index, op, &request, &values);

    if (config_.wire) {
      RunQueryWire(index, op, request, values);
      return;
    }

    const SeriesView query(values.data(), values.size());
    const Status expected = PredictAdmission(query, request);
    const size_t n_lo = model_.published_floor();

    SubmitOptions submit;
    if (op.timeout_us != 0) {
      submit.timeout = std::chrono::microseconds(op.timeout_us);
    }
    auto pending = engine_->TrySubmit(query, request, submit);
    if (!pending.ok()) {
      if (pending.status().code() == StatusCode::kOverloaded) {
        ++stats_.overloaded;
      } else {
        Fail(index, op,
             "TrySubmit failed: " + pending.status().ToString());
      }
      return;
    }
    auto response = pending->get();

    if (!expected.ok()) {
      if (response.ok()) {
        Fail(index, op,
             "expected rejection (" + expected.ToString() +
                 ") but the query was answered");
      } else if (response.status().code() != expected.code()) {
        Fail(index, op,
             "rejection mismatch: predicted " + expected.ToString() +
                 ", got " + response.status().ToString());
      } else {
        ++stats_.rejections_predicted;
      }
      return;
    }
    if (!response.ok()) {
      const StatusCode code = response.status().code();
      if (code == StatusCode::kDeadlineExceeded && op.timeout_us != 0) {
        ++stats_.deadlines_expired;
      } else if (code == StatusCode::kOverloaded) {
        ++stats_.overloaded;
      } else {
        Fail(index, op,
             "query failed: " + response.status().ToString());
      }
      return;
    }
    CheckAnswer(index, op, request, query, n_lo, response->neighbors);
  }

  void RunQueryWire(size_t index, const StormOp& op,
                    const SearchRequest& intent,
                    const std::vector<Value>& values) {
    QueryFrame frame;
    frame.request_id = index;
    frame.k = static_cast<uint32_t>(intent.k);
    frame.dtw_band = static_cast<uint32_t>(intent.dtw_band);
    frame.approximate = intent.approximate;
    frame.timeout_us = op.timeout_us;
    frame.values = values;
    FrameType type = FrameType::kQuery;
    if (intent.dtw) {
      type = FrameType::kDtw;
    } else if (intent.k > 1 || intent.k == 0) {
      type = FrameType::kKnn;
    }

    // The request the *server* will build from this frame — it takes k
    // from kKnn frames only (kQuery/kDtw force k = 1), so the oracle
    // must predict from the server's mapping, not the raw intent.
    SearchRequest request;
    request.k = type == FrameType::kKnn ? frame.k : 1;
    request.approximate = frame.approximate;
    request.dtw = type == FrameType::kDtw;
    request.dtw_band = frame.dtw_band;
    const Status expected = PredictAdmission(
        SeriesView(values.data(), values.size()), request);
    const size_t n_lo = model_.published_floor();

    WireClient client;
    Status io = client.Connect(port_.load(std::memory_order_acquire));
    if (io.ok()) io = client.SendFrame(EncodeQueryFrame(type, frame));
    Result<WireFrame> reply = io.ok() ? client.ReadFrame()
                                      : Result<WireFrame>(io);
    if (!reply.ok()) {
      Fail(index, op, "wire I/O failed: " + reply.status().ToString());
      return;
    }

    if (reply->header.type == FrameType::kError) {
      auto error = DecodeErrorFrame(reply->body);
      if (!error.ok()) {
        Fail(index, op,
             "undecodable error frame: " + error.status().ToString());
        return;
      }
      if (error->request_id != index) {
        Fail(index, op, "error frame echoed wrong request id");
        return;
      }
      if (!expected.ok()) {
        const WireError want = WireErrorFromStatus(expected);
        if (error->code != want) {
          Fail(index, op,
               std::string("wire rejection mismatch: predicted ") +
                   WireErrorName(want) + ", got " +
                   WireErrorName(error->code) + " (" + error->message +
                   ")");
        } else {
          ++stats_.rejections_predicted;
        }
        return;
      }
      if (error->code == WireError::kDeadlineExceeded &&
          op.timeout_us != 0) {
        ++stats_.deadlines_expired;
      } else if (error->code == WireError::kOverloaded) {
        ++stats_.overloaded;
      } else {
        Fail(index, op,
             std::string("unexpected wire error ") +
                 WireErrorName(error->code) + ": " + error->message);
      }
      return;
    }

    if (reply->header.type != FrameType::kResult) {
      Fail(index, op, "unexpected response frame type");
      return;
    }
    if (!expected.ok()) {
      Fail(index, op,
           "expected rejection (" + expected.ToString() +
               ") but got a result frame");
      return;
    }
    auto result = DecodeResultFrame(reply->body);
    if (!result.ok()) {
      Fail(index, op,
           "undecodable result frame: " + result.status().ToString());
      return;
    }
    if (result->request_id != index) {
      Fail(index, op, "result frame echoed wrong request id");
      return;
    }
    CheckAnswer(index, op, request,
                SeriesView(values.data(), values.size()), n_lo,
                result->neighbors);
  }

  /// Exact-oracle check: the answer must byte-match the brute-force
  /// oracle at some batch-boundary prefix in the query's execution
  /// window. An append publishes its whole batch in one step, so every
  /// answer has such a prefix; there is no weaker fallback.
  void CheckAnswer(size_t index, const StormOp& op,
                   const SearchRequest& request, SeriesView query,
                   size_t n_lo, const std::vector<Neighbor>& got) {
    const size_t n_hi = model_.count();
    std::vector<size_t> candidates = model_.CandidateCounts(n_lo, n_hi);
    if (candidates.empty()) candidates.push_back(n_lo);

    if (request.approximate) {
      CheckApproximate(index, op, query, n_hi, got);
      return;
    }

    for (const size_t c : candidates) {
      std::vector<Neighbor> want;
      if (request.dtw) {
        want = {model_.ExactDtwNn(query, request.dtw_band, c)};
      } else if (request.k > 1) {
        want = model_.ExactKnn(query, request.k, c);
      } else {
        want = {model_.ExactNn(query, c)};
      }
      if (got == want) {
        ++stats_.queries_checked;
        return;
      }
    }

    std::ostringstream what;
    what << "answer matches no candidate prefix in [" << n_lo << ", "
         << n_hi << "]: got " << DescribeNeighbors(got)
         << ", oracle at " << candidates.back() << " is "
         << DescribeNeighbors([&] {
              if (request.dtw) {
                return std::vector<Neighbor>{model_.ExactDtwNn(
                    query, request.dtw_band, candidates.back())};
              }
              if (request.k > 1) {
                return model_.ExactKnn(query, request.k,
                                       candidates.back());
              }
              return std::vector<Neighbor>{
                  model_.ExactNn(query, candidates.back())};
            }());
    Fail(index, op, what.str());
  }

  /// An approximate probe must return one live id whose distance
  /// recomputes exactly — the leaf it probed is load-dependent, so the
  /// id itself is not pinned by the oracle.
  void CheckApproximate(size_t index, const StormOp& op, SeriesView query,
                        size_t n_hi, const std::vector<Neighbor>& got) {
    if (got.size() != 1) {
      Fail(index, op,
           "approximate probe returned " + std::to_string(got.size()) +
               " neighbors, want 1");
      return;
    }
    if (got[0].id >= n_hi) {
      Fail(index, op,
           "approximate probe returned id " + std::to_string(got[0].id) +
               " beyond the collection (" + std::to_string(n_hi) + ")");
      return;
    }
    if (model_.DistanceTo(query, got[0].id) != got[0].distance_sq) {
      Fail(index, op, "approximate distance does not recompute");
      return;
    }
    ++stats_.queries_checked;
  }

  // --- mutations (driver thread) -------------------------------------------

  void DoAppend(size_t index, const StormOp& op) {
    const std::vector<Value> values = model_.AppendBatch(op.append_count);
    if (config_.wire) {
      AppendFrame frame;
      frame.request_id = index;
      frame.count = op.append_count;
      frame.series_len = static_cast<uint32_t>(config_.series_length);
      frame.values = values;
      WireClient client;
      Status io = client.Connect(port_.load(std::memory_order_acquire));
      if (io.ok()) io = client.SendFrame(EncodeAppendFrame(frame));
      Result<WireFrame> reply = io.ok() ? client.ReadFrame()
                                        : Result<WireFrame>(io);
      if (!reply.ok()) {
        Fail(index, op,
             "wire append I/O failed: " + reply.status().ToString());
        return;
      }
      if (reply->header.type != FrameType::kAppendOk) {
        Fail(index, op, "append answered a non-AppendOk frame");
        return;
      }
      auto ok = DecodeAppendOkFrame(reply->body);
      if (!ok.ok() || ok->request_id != index) {
        Fail(index, op, "malformed AppendOk frame");
        return;
      }
      if (ok->total_series != model_.count()) {
        Fail(index, op,
             "append total " + std::to_string(ok->total_series) +
                 " != model count " + std::to_string(model_.count()));
        return;
      }
    } else {
      auto report = engine_->Append(values.data(), op.append_count);
      if (!report.ok()) {
        Fail(index, op,
             "append failed: " + report.status().ToString());
        return;
      }
      if (report->total_series != model_.count()) {
        Fail(index, op,
             "append total " + std::to_string(report->total_series) +
                 " != model count " + std::to_string(model_.count()));
        return;
      }
    }
    model_.MarkPublished(model_.count());
    ++stats_.appends;
  }

  void DoSave(size_t index, const StormOp& op) {
    const Status s = engine_->Save(SnapshotPath(op.variant));
    if (!s.ok()) {
      Fail(index, op, "save failed: " + s.ToString());
      return;
    }
    ++stats_.saves;
  }

  void DoCompact(size_t index, const StormOp& op) {
    const Status s = engine_->Compact(
        tmp_.Path("compact" + std::to_string(op.variant)));
    if (!s.ok()) {
      Fail(index, op, "compact failed: " + s.ToString());
      return;
    }
    ++stats_.compacts;
  }

  std::string SnapshotPath(uint8_t variant) const {
    return tmp_.Path("snap" + std::to_string(variant));
  }

  // --- engine swaps (driver thread, quiesced) ------------------------------

  void DoReopen(size_t index, const StormOp& op) {
    pool_->Drain();
    server_.reset();

    const std::string snap =
        tmp_.Path("reopen" + std::to_string(reopen_counter_++));
    Status s = engine_->Save(snap);
    std::string data = data_file_;
    if (s.ok() && residency_ == SourceResidency::kOwnedMemory) {
      // No backing file yet: materialize the model collection (the
      // quiesced engine holds exactly the same series).
      data = tmp_.Path("reopen_data" + std::to_string(reopen_counter_) +
                       ".bin");
      s = WriteDataset(model_.CopyData(), data);
    }
    if (s.ok()) {
      engine_.reset();
      auto reopened = Engine::Open(snap, data);
      if (reopened.ok()) {
        engine_ = std::move(*reopened);
        data_file_ = data;
        residency_ = SourceResidency::kMmap;
      } else {
        s = reopened.status();
      }
    }

    if (!s.ok()) {
      Fail(index, op, "reopen failed: " + s.ToString());
      if (engine_ == nullptr) RecoverByRebuild(index, op);
    } else {
      ++stats_.reopens;
    }
    if (engine_ != nullptr && config_.wire) {
      const Status up = StartServer();
      if (!up.ok()) {
        Fail(index, op, "server restart failed: " + up.ToString());
        engine_.reset();  // wire plans cannot continue serverless
      }
    }
  }

  void DoRebuild(size_t index, const StormOp& op) {
    pool_->Drain();
    server_.reset();
    if (!RecoverByRebuild(index, op)) return;
    ++stats_.rebuilds;
    if (config_.wire) {
      const Status up = StartServer();
      if (!up.ok()) {
        Fail(index, op, "server restart failed: " + up.ToString());
        engine_.reset();
      }
    }
  }

  /// Fresh in-memory Build from the model collection. Returns false
  /// (and clears engine_) when even that fails.
  bool RecoverByRebuild(size_t index, const StormOp& op) {
    Dataset copy = model_.CopyData();
    engine_.reset();
    auto built =
        Engine::Build(SourceSpec::InMemory(std::move(copy)), eopts_);
    if (!built.ok()) {
      Fail(index, op, "rebuild failed: " + built.status().ToString());
      return false;
    }
    engine_ = std::move(*built);
    residency_ = SourceResidency::kOwnedMemory;
    return true;
  }

  /// A Build over a tripping source must fail typed and leave the live
  /// engine serving — exercised concurrently with in-flight queries.
  void DoRebuildFail(size_t index, const StormOp& op) {
    testsupport::FailingSourceOptions fopts;
    fopts.fail_after_id = 16;
    auto failing = std::make_unique<testsupport::FailingSource>(
        config_.initial_series, config_.series_length, fopts);
    EngineOptions fail_opts = eopts_;
    fail_opts.leaf_storage_path = tmp_.Path("failbuild.leaves");
    auto built = Engine::Build(SourceSpec::Custom(std::move(failing)),
                               fail_opts);
    if (built.ok()) {
      Fail(index, op,
           "build over a tripping source unexpectedly succeeded");
      return;
    }
    const StatusCode code = built.status().code();
    if (code != StatusCode::kIoError && code != StatusCode::kNotSupported) {
      Fail(index, op,
           "injected build failure surfaced untyped: " +
               built.status().ToString());
      return;
    }
    if (engine_->series_count() != model_.count()) {
      Fail(index, op, "live engine disturbed by the failed build");
      return;
    }
    ++stats_.failed_rebuilds;
  }

  // --- wire chaos (driver thread) ------------------------------------------

  void DoWireGarbage(size_t index, const StormOp& op) {
    WireClient client;
    if (!client.Connect(port_.load(std::memory_order_acquire)).ok()) {
      Fail(index, op, "chaos connection refused");
      return;
    }
    switch (op.variant) {
      case 0: {  // bad magic: one kBadFrame error, then close
        const uint8_t junk[kFrameHeaderSize] = {'X', 'X', 'X', 'X'};
        ExpectErrorThenEof(index, op, client,
                           client.SendBytes(junk, sizeof(junk)),
                           WireError::kBadFrame);
        break;
      }
      case 1: {  // future protocol version
        uint8_t hdr[kFrameHeaderSize];
        EncodeFrameHeader(FrameType::kHealth, 8, hdr);
        hdr[4] = kProtocolVersion + 1;
        ExpectErrorThenEof(index, op, client,
                           client.SendBytes(hdr, sizeof(hdr)),
                           WireError::kBadVersion);
        break;
      }
      case 2: {  // oversized body announcement
        uint8_t hdr[kFrameHeaderSize];
        EncodeFrameHeader(FrameType::kQuery, 8, hdr);
        const uint32_t huge = kMaxBodyLen + 1;
        std::memcpy(hdr + 8, &huge, sizeof(huge));
        ExpectErrorThenEof(index, op, client,
                           client.SendBytes(hdr, sizeof(hdr)),
                           WireError::kFrameTooLarge);
        break;
      }
      case 3: {  // body shorter than its type's layout: typed error,
                 // request id echoed, connection survives
        QueryFrame q;
        q.request_id = index;
        q.values.assign(config_.series_length, 0.0f);
        auto frame = EncodeQueryFrame(FrameType::kQuery, q);
        frame.resize(frame.size() - 40);
        const uint32_t short_len =
            static_cast<uint32_t>(frame.size() - kFrameHeaderSize);
        std::memcpy(frame.data() + 8, &short_len, sizeof(short_len));
        if (!ExpectError(index, op, client, client.SendFrame(frame),
                         WireError::kBadFrame, index)) {
          break;
        }
        ExpectHealthOk(index, op, client, index + 1);
        break;
      }
      case 4: {  // unknown request type: typed error, connection survives
        auto frame = EncodePlainRequest(FrameType::kHealth, index);
        frame[5] = 0x55;
        if (!ExpectError(index, op, client, client.SendFrame(frame),
                         WireError::kBadFrame, std::nullopt)) {
          break;
        }
        ExpectHealthOk(index, op, client, index + 1);
        break;
      }
      default: {  // pipelined burst: responses must come back in order
        constexpr size_t kBurst = 4;
        Status io = Status::OK();
        for (size_t i = 0; i < kBurst && io.ok(); ++i) {
          io = client.SendFrame(
              EncodePlainRequest(FrameType::kHealth, index * 100 + i));
        }
        if (!io.ok()) {
          Fail(index, op, "pipelined send failed: " + io.ToString());
          break;
        }
        bool all_ok = true;
        for (size_t i = 0; i < kBurst && all_ok; ++i) {
          all_ok = ExpectHealthOk(index, op, client, index * 100 + i);
        }
        break;
      }
    }
    ++stats_.wire_garbage;
  }

  /// Reads one frame and requires a kError with `want` (optionally with
  /// an exact request-id echo). Returns false after recording a Fail.
  bool ExpectError(size_t index, const StormOp& op, WireClient& client,
                   Status sent, WireError want,
                   std::optional<uint64_t> echo_id) {
    if (!sent.ok()) {
      Fail(index, op, "chaos send failed: " + sent.ToString());
      return false;
    }
    auto reply = client.ReadFrame();
    if (!reply.ok()) {
      Fail(index, op, "chaos read failed: " + reply.status().ToString());
      return false;
    }
    if (reply->header.type != FrameType::kError) {
      Fail(index, op, "garbage answered a non-error frame");
      return false;
    }
    auto error = DecodeErrorFrame(reply->body);
    if (!error.ok()) {
      Fail(index, op, "undecodable chaos error frame");
      return false;
    }
    if (error->code != want) {
      Fail(index, op,
           std::string("garbage error code mismatch: want ") +
               WireErrorName(want) + ", got " +
               WireErrorName(error->code));
      return false;
    }
    if (echo_id.has_value() && error->request_id != *echo_id) {
      Fail(index, op, "garbage error frame echoed wrong request id");
      return false;
    }
    return true;
  }

  void ExpectErrorThenEof(size_t index, const StormOp& op,
                          WireClient& client, Status sent,
                          WireError want) {
    if (!ExpectError(index, op, client, sent, want, std::nullopt)) return;
    if (!client.ReadEof()) {
      Fail(index, op,
           "connection survived header-level garbage (must close)");
    }
  }

  bool ExpectHealthOk(size_t index, const StormOp& op, WireClient& client,
                      uint64_t request_id) {
    Status io = client.SendFrame(
        EncodePlainRequest(FrameType::kHealth, request_id));
    Result<WireFrame> reply = io.ok() ? client.ReadFrame()
                                      : Result<WireFrame>(io);
    if (!reply.ok() || reply->header.type != FrameType::kHealthOk) {
      Fail(index, op, "health probe after recoverable garbage failed");
      return false;
    }
    auto health = DecodeHealthOkFrame(reply->body);
    if (!health.ok() || health->request_id != request_id) {
      Fail(index, op, "malformed HealthOk frame");
      return false;
    }
    return true;
  }

  void DoWireHealth(size_t index, const StormOp& op) {
    const size_t floor_before = model_.published_floor();
    WireClient client;
    Status io = client.Connect(port_.load(std::memory_order_acquire));
    if (io.ok()) {
      io = client.SendFrame(EncodePlainRequest(FrameType::kHealth, index));
    }
    Result<WireFrame> reply = io.ok() ? client.ReadFrame()
                                      : Result<WireFrame>(io);
    if (!reply.ok() || reply->header.type != FrameType::kHealthOk) {
      Fail(index, op, "health request failed");
      return;
    }
    auto health = DecodeHealthOkFrame(reply->body);
    if (!health.ok()) {
      Fail(index, op, "malformed HealthOk frame");
      return;
    }
    const size_t count_after = model_.count();
    if (health->request_id != index ||
        health->series_length != config_.series_length ||
        health->series_count < floor_before ||
        health->series_count > count_after ||
        health->algorithm != AlgorithmName(config_.algorithm)) {
      Fail(index, op,
           "health shape mismatch: count " +
               std::to_string(health->series_count) + " not in [" +
               std::to_string(floor_before) + ", " +
               std::to_string(count_after) + "], algorithm '" +
               health->algorithm + "'");
      return;
    }
    ++stats_.wire_health;
  }

  // --- state ---------------------------------------------------------------

  const StormPlan& plan_;
  const StormConfig& config_;
  testsupport::ScopedTempDir tmp_;
  WorkloadModel model_;

  EngineOptions eopts_;
  SourceResidency residency_ = SourceResidency::kOwnedMemory;
  std::string data_file_;
  size_t reopen_counter_ = 0;

  std::unique_ptr<Engine> engine_;
  /// Declared after the engine so it is destroyed first (it serves it)
  /// on every exit path.
  std::unique_ptr<Server> server_;
  std::atomic<uint16_t> port_{0};

  std::unique_ptr<ActorPool> pool_;

  Mutex failures_mu_{"storm::StormRunner::failures_mu_", LockRank::kLeaf};
  std::vector<StormFailure> failures_ PARISAX_GUARDED_BY(failures_mu_);
  size_t failure_count_ PARISAX_GUARDED_BY(failures_mu_) = 0;

  /// All counters are atomic: the first five are bumped from actor
  /// threads concurrently, the rest from the driver.
  struct Counters {
    std::atomic<size_t> queries_checked{0};
    std::atomic<size_t> rejections_predicted{0};
    std::atomic<size_t> deadlines_expired{0};
    std::atomic<size_t> overloaded{0};
    std::atomic<size_t> appends{0};
    std::atomic<size_t> saves{0};
    std::atomic<size_t> compacts{0};
    std::atomic<size_t> reopens{0};
    std::atomic<size_t> rebuilds{0};
    std::atomic<size_t> failed_rebuilds{0};
    std::atomic<size_t> wire_garbage{0};
    std::atomic<size_t> wire_health{0};
  };
  Counters stats_;
};

}  // namespace

Result<StormReport> RunStorm(const StormPlan& plan) {
  StormRunner runner(plan);
  return runner.Run();
}

std::string FormatReport(const StormPlan& plan, const StormReport& report) {
  const StormConfig& c = plan.config;
  std::ostringstream out;
  out << (report.passed ? "PASS" : "FAIL") << " seed=" << c.seed
      << " profile=" << c.profile << " backend="
      << AlgorithmName(c.algorithm) << " residency="
      << SourceResidencyName(c.residency)
      << " wire=" << (c.wire ? "on" : "off") << " ops="
      << plan.ops.size() << " final_count=" << report.final_count << "\n";
  const StormStats& s = report.stats;
  out << "  checked=" << s.queries_checked << " rejected-as-predicted="
      << s.rejections_predicted << " deadline=" << s.deadlines_expired
      << " overloaded=" << s.overloaded << " appends=" << s.appends
      << " saves="
      << s.saves << " compacts=" << s.compacts << " reopens="
      << s.reopens << " rebuilds=" << s.rebuilds << " failed-rebuilds="
      << s.failed_rebuilds << " garbage=" << s.wire_garbage
      << " health=" << s.wire_health << "\n";
  for (const StormFailure& f : report.failures) {
    out << "  " << f.description << "\n";
  }
  if (report.failure_count > report.failures.size()) {
    out << "  ... and "
        << (report.failure_count - report.failures.size())
        << " more failures\n";
  }
  return out.str();
}

}  // namespace storm
}  // namespace parisax
