// parisax_bench: the wire-level benchmark.
//
// One invocation runs one workload (see workload.cpp): it derives every
// input from --seed, sets the engine up kSetupReps times (timed), serves
// the last engine through parisax::Server on loopback, drives it from
// one load-generator thread, checks every answer against the oracle, and
// prints its metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 measures the same
// traffic for half the time without and half with spans, replays it into
// each layer and reports the per-layer metrics, writing the spans to a
// trace file.
// A full result with provenance is written under --work-dir/results.
//
// Usage (normally through run.py, which builds this binary first):
//   parisax_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--work-dir DIR] [--git-sha SHA]
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "layers.h"
#include "loadgen.h"
#include "net/server.h"
#include "trace.h"
#include "workload.h"

#ifndef PARISAX_BENCH_BUILD_TYPE
#define PARISAX_BENCH_BUILD_TYPE "unknown"
#endif

namespace parisax::suite {
namespace {

/// Unmeasured traffic before the measured window.
constexpr double kWarmupSeconds = 2.0;
/// Span capacity of a traced run: the traced half at up to 100k
/// requests/s (five spans each), plus the set-up and replay spans. A run
/// that drops a span fails.
constexpr double kTraceSpansPerSecond = 500000;
constexpr size_t kTraceReplaySpans = 4096;
/// Worker threads for input generation and the oracle.
constexpr int kPrepThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = "bench/suite/.work";
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "parisax_bench: " << why << "\n"
            << "usage: parisax_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--git-sha SHA]\nworkloads:";
  for (const WorkloadSpec& spec : AllWorkloads()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EngineOptionsJson(const Engine& engine) {
  const EngineOptions& o = engine.options();
  return JsonObject()
      .Add("algorithm", JsonObject::Str(engine.algorithm_name()))
      .Add("num_threads", JsonObject::Num(o.num_threads))
      .Add("segments", JsonObject::Num(o.tree.segments))
      .Add("leaf_capacity", JsonObject::Num(o.tree.leaf_capacity))
      .Add("build_profile", JsonObject::Str(o.build_profile.name))
      .Add("query_profile", JsonObject::Str(o.query_profile.name))
      .Add("leaf_storage", JsonObject::Str(o.leaf_storage_path.empty()
                                               ? "none"
                                               : "on disk"))
      .Add("batch_series", JsonObject::Num(o.batch_series))
      .Add("chunk_series", JsonObject::Num(o.chunk_series))
      .Add("background_compaction",
           o.background_compaction ? "true" : "false")
      .Add("compaction_trigger_segments",
           JsonObject::Num(o.compaction_trigger_segments))
      .Add("kernel", JsonObject::Str(o.kernel == KernelPolicy::kAuto
                                         ? "auto"
                                         : "fixed"))
      .Render();
}

std::string ServerOptionsJson(const ServerOptions& o) {
  return JsonObject()
      .Add("serve_threads", JsonObject::Num(o.serve_threads))
      .Add("policy", JsonObject::Str(SchedulingPolicyName(o.policy)))
      .Add("max_inflight", JsonObject::Num(static_cast<double>(o.max_inflight)))
      .Add("default_timeout_us",
           JsonObject::Num(static_cast<double>(o.default_timeout_us)))
      .Add("max_connections", JsonObject::Num(o.max_connections))
      .Render();
}

ServeStats Delta(const ServeStats& after, const ServeStats& before) {
  ServeStats d;
  d.submitted = after.submitted - before.submitted;
  d.completed = after.completed - before.completed;
  d.ran_inline = after.ran_inline - before.ran_inline;
  d.ran_parallel = after.ran_parallel - before.ran_parallel;
  d.steals = after.steals - before.steals;
  d.rejected_overload = after.rejected_overload - before.rejected_overload;
  d.expired_in_queue = after.expired_in_queue - before.expired_in_queue;
  return d;
}

/// Folds a phase's failures and mismatches into the run totals.
struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;

  void Add(const WindowStats& w) {
    attempted += w.attempted;
    failed += w.failed;
    if (mismatches == 0 && w.mismatches > 0) {
      first_mismatch = w.first_mismatch;
    }
    mismatches += w.mismatches;
  }
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (std::string(PARISAX_BENCH_BUILD_TYPE) != "Release") {
    Fatal(std::string("refusing to measure a ") + PARISAX_BENCH_BUILD_TYPE +
          " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
#ifndef NDEBUG
  Fatal("refusing to measure a build with assertions enabled");
#endif
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage("unknown workload " + args.workload);
  std::filesystem::create_directories(args.work_dir + "/results");

  // A traced run splits --seconds into an untraced and a traced half:
  // the same traffic with and without spans gives the tracing overhead.
  const double window_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const uint64_t batches = AppendBatches(*spec, kWarmupSeconds + args.seconds);
  TraceLog trace(args.trace,
                 static_cast<size_t>(window_seconds * kTraceSpansPerSecond) +
                     kTraceReplaySpans + batches);

  const int64_t prep_start = NowNs();
  const Inputs inputs = [&] {
    ThreadPool prep_pool(kPrepThreads);
    return Prepare(*spec, args.seed, batches, args.work_dir, &prep_pool);
  }();
  const double prep_s = static_cast<double>(NowNs() - prep_start) * 1e-9;
  Served served = SetUp(*spec, inputs, &trace);

  const ServerOptions server_options;
  auto server = Server::Start(served.engine.get(), server_options);
  if (!server.ok()) Fatal("starting the server", server.status());
  QueryService* service = (*server)->query_service();

  const Checker checker(*spec, inputs, served.engine.get());
  LoadGenerator gen(*spec, inputs, checker, batches);
  const Status connected = gen.Connect((*server)->port());
  if (!connected.ok()) Fatal("connecting", connected);

  Totals totals;
  totals.Add(gen.Run(kWarmupSeconds, nullptr));
  const ServeStats before = service->stats();
  const uint64_t compactions_before = served.engine->compaction_count();
  const WindowStats window = gen.Run(window_seconds, nullptr);
  const ServeStats serve_window = Delta(service->stats(), before);
  const uint64_t compactions =
      served.engine->compaction_count() - compactions_before;
  totals.Add(window);
  WindowStats traced;
  if (args.trace) {
    traced = gen.Run(window_seconds, &trace);
    totals.Add(traced);
  }
  if (batches > 0) {
    if (gen.appends_acked() != batches) {
      Fatal("only " + std::to_string(gen.appends_acked()) + " of " +
            std::to_string(batches) + " append batches were acknowledged");
    }
    totals.Add(gen.Verify());
  }
  server->reset();

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = MeasureLayers(LayerContext{*spec, inputs, served, window,
                                         traced, serve_window, compactions,
                                         batches, &trace});
  } else {
    std::vector<double> latency = window.query_ms;
    metrics = {
        {"setup_s", Median(served.setup_seconds), "s"},
        {"qps", window.qps(), "1/s"},
        {"query_p50_ms", Percentile(&latency, 0.5), "ms"},
        {"query_p99_ms", Percentile(&latency, 0.99), "ms"},
    };
  }

  const std::string stem = args.work_dir + "/results/" + spec->name +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace) {
    if (trace.dropped() > 0) {
      Fatal(std::to_string(trace.dropped()) + " spans did not fit in the " +
            "trace capacity; the per-layer numbers would be partial");
    }
    const Status written = trace.WriteJson(stem + ".trace.json");
    if (!written.ok()) Fatal("writing the trace", written);
  }
  const bool correct = totals.mismatches == 0;
  std::string setups = "[";
  for (size_t i = 0; i < served.setup_seconds.size(); ++i) {
    setups += (i > 0 ? ", " : "") + JsonObject::Num(served.setup_seconds[i]);
  }
  setups += "]";
  const std::string result =
      JsonObject()
          .Add("workload", JsonObject::Str(spec->name))
          .Add("seed", std::to_string(args.seed))
          .Add("trace", args.trace ? "true" : "false")
          .Add("seconds", JsonObject::Num(args.seconds))
          .Add("warmup_seconds", JsonObject::Num(kWarmupSeconds))
          .Add("git_sha", JsonObject::Str(args.git_sha))
          .Add("build_type", JsonObject::Str(PARISAX_BENCH_BUILD_TYPE))
          .Add("hw_threads",
               JsonObject::Num(std::thread::hardware_concurrency()))
          .Add("cpu", JsonObject::Str(CpuModel()))
          .Add("series", JsonObject::Num(static_cast<double>(spec->series)))
          .Add("length", JsonObject::Num(static_cast<double>(spec->length)))
          .Add("append_batches",
               JsonObject::Num(static_cast<double>(batches)))
          .Add("engine_options", EngineOptionsJson(*served.engine))
          .Add("server_options", ServerOptionsJson(server_options))
          .Add("prep_seconds", JsonObject::Num(prep_s))
          .Add("setup_runs_s", setups)
          .Add("correct", correct ? "true" : "false")
          .Add("first_mismatch", JsonObject::Str(totals.first_mismatch))
          .Add("attempted",
               JsonObject::Num(static_cast<double>(totals.attempted)))
          .Add("failed", JsonObject::Num(static_cast<double>(totals.failed)))
          .Add("window_queries",
               JsonObject::Num(static_cast<double>(window.queries)))
          .Add("trace_spans",
               JsonObject::Num(static_cast<double>(trace.recorded())))
          .Add("metrics", RenderMetrics(metrics))
          .Render();
  std::ofstream(stem + ".json") << result << "\n";

  std::cout << spec->name << " seed " << args.seed << ": "
            << window.queries << " queries in " << window.wall_s << " s, "
            << served.setup_seconds.size() << " timed set-ups\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (!correct) {
    std::cerr << "parisax_bench: ORACLE MISMATCH (" << totals.mismatches
              << "): " << totals.first_mismatch << "\n";
  }
  std::cout << JsonObject()
                   .Add("correct", correct ? "true" : "false")
                   .Add("attempted", std::to_string(totals.attempted))
                   .Add("failed", std::to_string(totals.failed))
                   .Add("metrics", RenderMetrics(metrics))
                   .Render()
            << std::endl;
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace parisax::suite

int main(int argc, char** argv) { return parisax::suite::Main(argc, argv); }
