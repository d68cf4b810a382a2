#include "layers.h"

#include <atomic>
#include <filesystem>
#include <limits>
#include <thread>

#include "dist/dtw.h"
#include "dist/euclidean.h"
#include "net/protocol.h"
#include "net/server.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "sax/word.h"

namespace parisax::suite {

namespace {

/// The serve replay stops after the whole pool or this long, whichever
/// comes first.
constexpr int64_t kReplayBudgetNs = 2'000'000'000;
/// The core replays run a fixed prefix of the seeded order, so their
/// per-query counters repeat for a given seed.
constexpr size_t kCoreReplayQueries = 128;
/// Kernel timings run batches of calls until this long has elapsed.
constexpr int64_t kKernelBudgetNs = 50'000'000;
/// Query/candidate pairs the kernels are timed on.
constexpr size_t kKernelPairs = 256;

volatile float g_sink = 0.0f;

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

SearchRequest RequestFor(OpKind kind) {
  SearchRequest request;
  request.k = kind == OpKind::kKnn ? kKnnK : 1;
  request.approximate = kind == OpKind::kApprox;
  request.dtw = kind == OpKind::kDtw;
  request.dtw_band = kDtwBand;
  return request;
}

/// Nanoseconds per call of `fn(i)` (i cycles over kKernelPairs).
template <typename Fn>
double NsPerCall(Fn&& fn) {
  float sink = 0.0f;
  size_t calls = 0;
  const int64_t start = NowNs();
  int64_t elapsed = 0;
  while (elapsed < kKernelBudgetNs) {
    for (size_t i = 0; i < kKernelPairs; ++i) sink += fn(i);
    calls += kKernelPairs;
    elapsed = NowNs() - start;
  }
  g_sink = sink;
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

struct ServeReplay {
  std::vector<double> latency_us;
  std::vector<double> wait_us;  // serve latency - engine time
};

/// The wire window's request sequence, replayed through a QueryService
/// configured like the server's, at the same concurrency.
ServeReplay ReplayServe(const LayerContext& ctx) {
  const ServerOptions server_defaults;
  QueryServiceOptions options;
  options.num_threads = server_defaults.serve_threads;
  options.policy = server_defaults.policy;
  options.max_inflight = server_defaults.max_inflight;
  auto service = QueryService::Create(ctx.served.engine.get(), options);
  if (!service.ok()) Fatal("serve replay", service.status());

  const QueryPool& pool = ctx.inputs.pool;
  std::atomic<size_t> next{0};
  const int64_t deadline = NowNs() + kReplayBudgetNs;
  std::vector<ServeReplay> per_thread(ctx.spec.query_conns);
  std::vector<std::thread> threads;
  for (int t = 0; t < ctx.spec.query_conns; ++t) {
    threads.emplace_back([&, t] {
      ServeReplay& mine = per_thread[t];
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= kPoolSize || NowNs() > deadline) break;
        const uint32_t slot = pool.order[i];
        const int64_t start = NowNs();
        auto future = (*service)->TrySubmit(pool.queries.series(slot),
                                            RequestFor(pool.kinds[slot]), {});
        if (!future.ok()) Fatal("serve replay submit", future.status());
        const Result<SearchResponse> response = future->get();
        const int64_t end = NowNs();
        if (!response.ok()) Fatal("serve replay query", response.status());
        mine.latency_us.push_back(Us(end - start));
        mine.wait_us.push_back(Us(end - start) -
                               response->stats.total_seconds * 1e6);
        ctx.trace->Add("serve.request", start, end, 0, 0, slot);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ServeReplay all;
  for (const ServeReplay& r : per_thread) {
    all.latency_us.insert(all.latency_us.end(), r.latency_us.begin(),
                          r.latency_us.end());
    all.wait_us.insert(all.wait_us.end(), r.wait_us.begin(), r.wait_us.end());
  }
  return all;
}

struct CoreReplay {
  std::vector<double> latency_us;
  QueryStats sums;  // counters and phase seconds summed over queries
  double refine_est_frac_sum = 0.0;
  DiskStats disk;  // delta over the replay (file workloads)
  size_t queries() const { return latency_us.size(); }
};

/// The request sequence again, one query at a time, straight into
/// SearchBackend::Search on `exec` (null: the engine's own pool).
CoreReplay ReplayCore(const LayerContext& ctx, Executor* exec,
                      double ed_ns, double dtw_ns) {
  Engine* engine = ctx.served.engine.get();
  const QueryPool& pool = ctx.inputs.pool;
  const DiskStats disk_before =
      ctx.served.file != nullptr ? ctx.served.file->disk()->stats()
                                 : DiskStats{};
  CoreReplay replay;
  for (size_t i = 0; i < kCoreReplayQueries; ++i) {
    const uint32_t slot = pool.order[i];
    const SearchRequest request = RequestFor(pool.kinds[slot]);
    const int64_t start = NowNs();
    const auto response =
        exec != nullptr
            ? engine->Search(pool.queries.series(slot), request, exec)
            : engine->Search(pool.queries.series(slot), request);
    const int64_t end = NowNs();
    if (!response.ok()) Fatal("core replay query", response.status());
    replay.latency_us.push_back(Us(end - start));
    if (exec == nullptr) continue;
    ctx.trace->Add("core.search", start, end, 0, 0, slot);
    const QueryStats& s = response->stats;
    replay.sums.MergeCounters(s);
    replay.sums.total_seconds += s.total_seconds;
    replay.sums.approx_phase_seconds += s.approx_phase_seconds;
    replay.sums.filter_phase_seconds += s.filter_phase_seconds;
    replay.sums.refine_phase_seconds += s.refine_phase_seconds;
    if (s.total_seconds > 0.0) {
      const double per_call = request.dtw ? dtw_ns : ed_ns;
      replay.refine_est_frac_sum +=
          static_cast<double>(s.real_dist_calcs) * per_call * 1e-9 /
          s.total_seconds;
    }
  }
  if (ctx.served.file != nullptr) {
    const DiskStats after = ctx.served.file->disk()->stats();
    replay.disk.read_calls = after.read_calls - disk_before.read_calls;
    replay.disk.bytes_read = after.bytes_read - disk_before.bytes_read;
  }
  return replay;
}

struct Kernels {
  double ed_ns = 0.0;
  double dtw_ns = 0.0;
  double lb_keogh_ns = 0.0;
  double mindist_ns = 0.0;
  double summarize_ns = 0.0;
  double codec_us = 0.0;
};

/// Times the distance, SAX and codec kernels on pool queries against
/// members of the served collection.
Kernels TimeKernels(const LayerContext& ctx) {
  const Engine& engine = *ctx.served.engine;
  const QueryPool& pool = ctx.inputs.pool;
  const size_t n = engine.series_length();
  const int w = static_cast<int>(engine.options().tree.segments);
  const size_t count = engine.series_count();

  Dataset members(kKernelPairs, n);
  std::vector<std::vector<Value>> lower(kKernelPairs), upper(kKernelPairs);
  std::vector<std::vector<float>> query_paa(kKernelPairs,
                                            std::vector<float>(w));
  std::vector<SaxSymbols> member_sax(kKernelPairs);
  std::vector<float> paa(w);
  for (size_t i = 0; i < kKernelPairs; ++i) {
    const Status got = engine.source().GetSeries(
        i * count / kKernelPairs, members.mutable_series(i).data());
    if (!got.ok()) Fatal("reading kernel inputs", got);
    const SeriesView query = pool.queries.series(pool.order[i]);
    ComputeEnvelope(query, kDtwBand, &lower[i], &upper[i]);
    ComputePaa(query, w, query_paa[i].data());
    ComputePaa(members.series(i), w, paa.data());
    SymbolsFromPaa(paa.data(), w, &member_sax[i]);
  }
  const auto query = [&](size_t i) {
    return pool.queries.series(pool.order[i]);
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();

  Kernels k;
  k.ed_ns = NsPerCall(
      [&](size_t i) { return SquaredEuclidean(query(i), members.series(i)); });
  k.dtw_ns = NsPerCall([&](size_t i) {
    return DtwBand(query(i), members.series(i), kDtwBand, kInf);
  });
  k.lb_keogh_ns = NsPerCall([&](size_t i) {
    return LbKeoghSq(lower[i], upper[i], members.series(i), kInf);
  });
  k.mindist_ns = NsPerCall([&](size_t i) {
    return MinDistPaaToSymbolsSq(query_paa[i].data(), member_sax[i], w, n);
  });
  k.summarize_ns = NsPerCall([&](size_t i) {
    SaxSymbols sax;
    ComputePaa(members.series(i), w, paa.data());
    SymbolsFromPaa(paa.data(), w, &sax);
    return static_cast<float>(sax.symbols[0]);
  });
  // One request's client-side codec work: encode the query, decode it
  // (the server's side of the same bytes), encode and decode the result.
  k.codec_us = 1e-3 * NsPerCall([&](size_t i) {
    const uint32_t slot = pool.order[i];
    QueryFrame frame;
    frame.request_id = i;
    const SeriesView values = pool.queries.series(slot);
    frame.values.assign(values.begin(), values.end());
    const auto query_bytes = EncodeQueryFrame(FrameType::kQuery, frame);
    const auto decoded = DecodeQueryFrame(std::span<const uint8_t>(
        query_bytes.data() + kFrameHeaderSize,
        query_bytes.size() - kFrameHeaderSize));
    const auto result_bytes = EncodeResultFrame(
        ResultFrame{i, ctx.inputs.oracle.answers[slot]});
    const auto result = DecodeResultFrame(std::span<const uint8_t>(
        result_bytes.data() + kFrameHeaderSize,
        result_bytes.size() - kFrameHeaderSize));
    if (!decoded.ok() || !result.ok()) Fatal("codec round trip failed");
    return static_cast<float>(decoded->values.size() +
                              result->neighbors.size());
  });
  return k;
}

struct IndexReplay {
  std::vector<double> append_ms;
  double touched_subtrees = 0.0;
};

/// The open-loop batch stream, appended back to back in process to a
/// freshly built base engine.
IndexReplay ReplayAppends(const LayerContext& ctx) {
  IndexReplay replay;
  auto engine = BuildBase(ctx.spec, ctx.inputs);
  const size_t values = ctx.spec.append_batch * ctx.spec.length;
  for (uint64_t b = 0; b < ctx.append_batches; ++b) {
    const int64_t start = NowNs();
    const auto report = engine->Append(
        ctx.inputs.appended.raw() + b * values, ctx.spec.append_batch);
    const int64_t end = NowNs();
    if (!report.ok()) Fatal("append replay", report.status());
    replay.append_ms.push_back(static_cast<double>(end - start) * 1e-6);
    replay.touched_subtrees += static_cast<double>(report->touched_subtrees);
    ctx.trace->Add("index.append", start, end, 0, 0,
                   static_cast<int64_t>(b));
  }
  return replay;
}

double PerQuery(double sum, size_t queries) {
  return queries > 0 ? sum / static_cast<double>(queries) : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> MeasureLayers(const LayerContext& ctx) {
  const Engine& engine = *ctx.served.engine;
  const Kernels kernels = TimeKernels(ctx);
  ServeReplay serve = ReplayServe(ctx);
  InlineExecutor inline_exec;
  CoreReplay core =
      ReplayCore(ctx, &inline_exec, kernels.ed_ns, kernels.dtw_ns);
  CoreReplay core_pool = ReplayCore(ctx, nullptr, 0.0, 0.0);
  IndexReplay index;
  if (ctx.append_batches > 0) index = ReplayAppends(ctx);

  const size_t q = core.queries();
  const QueryStats& sums = core.sums;
  std::vector<double> rtt_us = ctx.traced.await_us;
  const double rtt_p50_us = Percentile(&rtt_us, 0.5);
  const double serve_p50_us = Percentile(&serve.latency_us, 0.5);
  const ServeStats& sw = ctx.serve_window;
  const double completed = static_cast<double>(sw.completed);

  double messi_summarize_s = 0.0, messi_tree_s = 0.0;
  if (engine.messi_index() != nullptr) {
    messi_summarize_s =
        engine.messi_index()->build_stats().summarize_wall_seconds;
    messi_tree_s = engine.messi_index()->build_stats().tree_wall_seconds;
  }
  double paris_read_s = 0.0, paris_stage3_s = 0.0, paris_flush_s = 0.0;
  if (engine.paris_index() != nullptr) {
    const ParisBuildStats& b = engine.paris_index()->build_stats();
    paris_read_s = b.read_wall_seconds;
    paris_stage3_s = b.stage3_wall_seconds;
    paris_flush_s = b.final_flush_wall_seconds;
  }
  const bool messi = engine.messi_index() != nullptr;
  const bool snapshot = ctx.spec.residency == Residency::kSnapshot;

  std::vector<double> untraced_knn = ctx.untraced.knn_ms;
  std::vector<double> untraced_dtw = ctx.untraced.dtw_ms;
  std::vector<double> untraced_append = ctx.untraced.append_ms;
  std::vector<double> untraced_late = ctx.untraced.late_ms;
  std::vector<double> append_replay = index.append_ms;

  return {
      {"net.rtt_p50_us", rtt_p50_us, "us"},
      {"net.self_p50_us", rtt_p50_us - serve_p50_us, "us"},
      {"net.codec_us", kernels.codec_us, "us"},
      {"serve.latency_p50_us", serve_p50_us, "us"},
      {"serve.latency_p99_us", Percentile(&serve.latency_us, 0.99), "us"},
      {"serve.wait_p50_us", Percentile(&serve.wait_us, 0.5), "us"},
      {"serve.parallel_frac",
       Ratio(static_cast<double>(sw.ran_parallel), completed), "fraction"},
      {"serve.steals_per_query",
       Ratio(static_cast<double>(sw.steals), completed), "count"},
      {"serve.rejected_frac",
       Ratio(static_cast<double>(sw.rejected_overload),
             static_cast<double>(sw.submitted + sw.rejected_overload)),
       "fraction"},
      {"core.search_p50_us", Percentile(&core.latency_us, 0.5), "us"},
      {"core.search_p90_us", Percentile(&core.latency_us, 0.90), "us"},
      {"core.search_pool_p50_us", Percentile(&core_pool.latency_us, 0.5),
       "us"},
      {"core.approx_us", PerQuery(sums.approx_phase_seconds * 1e6, q), "us"},
      {"core.filter_us", PerQuery(sums.filter_phase_seconds * 1e6, q), "us"},
      {"core.refine_us", PerQuery(sums.refine_phase_seconds * 1e6, q), "us"},
      {"messi.leaves_per_query",
       messi ? PerQuery(static_cast<double>(sums.leaves_inspected), q) : 0.0,
       "count"},
      {"messi.nodes_per_query",
       messi ? PerQuery(static_cast<double>(sums.nodes_visited), q) : 0.0,
       "count"},
      {"messi.queue_abandons_per_query",
       messi ? PerQuery(static_cast<double>(sums.queue_abandons), q) : 0.0,
       "count"},
      {"messi.build_summarize_s", messi_summarize_s, "s"},
      {"messi.build_tree_s", messi_tree_s, "s"},
      {"paris.candidates_per_query",
       messi ? 0.0 : PerQuery(static_cast<double>(sums.candidates), q),
       "count"},
      {"paris.build_read_s", paris_read_s, "s"},
      {"paris.build_stage3_s", paris_stage3_s, "s"},
      {"paris.build_flush_s", paris_flush_s, "s"},
      {"sax.lb_checks_per_query",
       PerQuery(static_cast<double>(sums.lb_checks), q), "count"},
      {"sax.mindist_ns", kernels.mindist_ns, "ns"},
      {"sax.summarize_ns", kernels.summarize_ns, "ns"},
      {"sax.prune_frac",
       1.0 - PerQuery(static_cast<double>(sums.real_dist_calcs), q) /
                 static_cast<double>(engine.series_count()),
       "fraction"},
      {"dist.real_dist_per_query",
       PerQuery(static_cast<double>(sums.real_dist_calcs), q), "count"},
      {"dist.ed_ns", kernels.ed_ns, "ns"},
      {"dist.dtw_us", kernels.dtw_ns * 1e-3, "us"},
      {"dist.lb_keogh_ns", kernels.lb_keogh_ns, "ns"},
      {"dist.refine_est_frac", PerQuery(core.refine_est_frac_sum, q),
       "fraction"},
      {"index.append_p50_ms", Percentile(&append_replay, 0.5), "ms"},
      {"index.append_p99_ms", Percentile(&append_replay, 0.99), "ms"},
      {"index.touched_subtrees_per_append",
       PerQuery(index.touched_subtrees, index.append_ms.size()), "count"},
      {"index.compactions", static_cast<double>(ctx.compactions), "count"},
      {"io.read_calls_per_query",
       PerQuery(static_cast<double>(core.disk.read_calls), q), "count"},
      {"io.bytes_read_per_query",
       PerQuery(static_cast<double>(core.disk.bytes_read), q), "bytes"},
      {"persist.open_s", snapshot ? Median(ctx.served.setup_seconds) : 0.0,
       "s"},
      {"persist.snapshot_bytes",
       snapshot ? static_cast<double>(
                      std::filesystem::file_size(ctx.inputs.snapshot_path))
                : 0.0,
       "bytes"},
      {"wire.knn_p50_ms", Percentile(&untraced_knn, 0.5), "ms"},
      {"wire.dtw_p50_ms", Percentile(&untraced_dtw, 0.5), "ms"},
      {"wire.append_p50_ms", Percentile(&untraced_append, 0.5), "ms"},
      {"wire.append_p95_ms", Percentile(&untraced_append, 0.95), "ms"},
      {"gen.late_p99_ms", Percentile(&untraced_late, 0.99), "ms"},
      {"gen.cpu_frac", Ratio(ctx.untraced.gen_cpu_s, ctx.untraced.wall_s),
       "fraction"},
      {"trace.overhead_frac",
       1.0 - Ratio(ctx.traced.qps(), ctx.untraced.qps()), "fraction"},
  };
}

}  // namespace parisax::suite
