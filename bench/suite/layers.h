// Per-layer numbers of a traced run. Each is measured from outside the
// layer: by timing calls into its public functions on the workload's
// own data and requests, or by reading the counters those functions
// return (QueryStats, ServeStats, DiskStats, build stats).
#ifndef PARISAX_BENCH_SUITE_LAYERS_H_
#define PARISAX_BENCH_SUITE_LAYERS_H_

#include <vector>

#include "common.h"
#include "loadgen.h"
#include "serve/query_service.h"
#include "trace.h"
#include "workload.h"

namespace parisax::suite {

struct LayerContext {
  const WorkloadSpec& spec;
  const Inputs& inputs;
  const Served& served;
  /// The measured wire window without spans, and the same traffic with.
  const WindowStats& untraced;
  const WindowStats& traced;
  /// The server's QueryService counters over the untraced window.
  const ServeStats& serve_window;
  /// Compactions the served engine published over the untraced window.
  uint64_t compactions;
  uint64_t append_batches;
  TraceLog* trace;
};

/// Every per-layer metric, in a fixed order; a layer the workload does
/// not exercise reports 0.
std::vector<Metric> MeasureLayers(const LayerContext& ctx);

}  // namespace parisax::suite

#endif  // PARISAX_BENCH_SUITE_LAYERS_H_
