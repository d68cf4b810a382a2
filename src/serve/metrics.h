// Serving metrics: counters, gauges and histograms in a registry that
// renders the Prometheus text exposition format.
//
// The server answers a STATS frame with RenderPrometheusText() output,
// so any Prometheus-compatible scraper (or a human with netcat) can
// watch admission rejections, queue depths, append epochs and latency
// distributions live. The registry is also introspectable
// (MetricsRegistry::List), which is what tools/dump_metrics uses to
// generate docs/metrics.md — the metric reference cannot drift from the
// code because CI diffs the committed doc against the binary's output,
// mirroring the capabilities-doc gate.
//
// Concurrency: instrument updates are lock-free atomics; registration
// and rendering take the registry mutex. Families hand out one child
// instrument per label-value tuple; children live as long as the
// registry and are safe to cache and update from any thread.
#ifndef PARISAX_SERVE_METRICS_H_
#define PARISAX_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace parisax {

class Engine;
class QueryService;

/// A monotonically increasing count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Monotonic set: raises the stored value to `v` (used when mirroring
  /// an external monotonic counter like ServeStats into the registry at
  /// scrape time). Never lowers it.
  void UpdateTo(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (sampled state: queue depth, open
/// connections).
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  void Add(double delta) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    for (;;) {
      const uint64_t next = Encode(Decode(cur) + delta);
      if (bits_.compare_exchange_weak(cur, next,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }
  double Value() const {
    return Decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static uint64_t Encode(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::atomic<uint64_t> bits_{0};  // IEEE-754 bits of 0.0
};

/// A distribution over fixed upper-bound buckets (Prometheus histogram
/// semantics: cumulative `le` buckets plus sum and count).
class Histogram {
 public:
  /// `upper_bounds` must be ascending; an implicit +Inf bucket is
  /// appended.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket (non-cumulative) counts, one per upper bound plus the
  /// +Inf bucket.
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // one per bound + Inf
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // IEEE-754 bits, CAS-accumulated

  friend class MetricsRegistry;
};

/// Default latency buckets (seconds): 100us .. ~100s, ~x3 steps.
std::vector<double> DefaultLatencySecondsBuckets();

enum class MetricType { kCounter, kGauge, kHistogram };

/// Returns "counter", "gauge" or "histogram".
const char* MetricTypeName(MetricType type);

/// One registered metric family: a name, help text, a label schema, and
/// one child instrument per label-value tuple. Untyped base; the
/// registry returns the typed wrappers below.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<std::string> label_names;
  /// Histogram bucket bounds (empty for counters/gauges).
  std::vector<double> buckets;

  /// Children keyed by label values (one entry with the empty key for
  /// an unlabeled family). Guarded by the registry mutex on insert;
  /// the instruments themselves are thread-safe.
  std::map<std::vector<std::string>, std::unique_ptr<Counter>> counters;
  std::map<std::vector<std::string>, std::unique_ptr<Gauge>> gauges;
  std::map<std::vector<std::string>, std::unique_ptr<Histogram>> histograms;
};

/// Owns every metric family of one server. Registration is idempotent
/// by name (same name returns the same family).
class MetricsRegistry {
 public:
  /// Registers (or returns) a counter family. `label_names` empty: the
  /// family is a single unlabeled counter, returned by WithLabels({}).
  Counter* AddCounter(const std::string& name, const std::string& help);
  /// Labeled variant: call CounterWithLabels to get per-tuple children.
  MetricFamily* AddCounterFamily(const std::string& name,
                                 const std::string& help,
                                 std::vector<std::string> label_names);
  Gauge* AddGauge(const std::string& name, const std::string& help);
  Histogram* AddHistogram(const std::string& name, const std::string& help,
                          std::vector<double> upper_bounds);
  MetricFamily* AddHistogramFamily(const std::string& name,
                                   const std::string& help,
                                   std::vector<std::string> label_names,
                                   std::vector<double> upper_bounds);

  /// The child counter/histogram for one label-value tuple (created on
  /// first use; `values` must match the family's label_names length).
  Counter* CounterWithLabels(MetricFamily* family,
                             std::vector<std::string> values);
  Histogram* HistogramWithLabels(MetricFamily* family,
                                 std::vector<std::string> values);

  /// The full Prometheus text exposition (HELP/TYPE headers, one line
  /// per child sample, histograms as cumulative le-buckets + sum +
  /// count).
  std::string RenderPrometheusText() const;

  /// Introspection for the generated metric reference: every family in
  /// registration order.
  struct MetricInfo {
    std::string name;
    MetricType type;
    std::vector<std::string> label_names;
    std::string help;
  };
  std::vector<MetricInfo> List() const;

 private:
  MetricFamily* AddFamily(const std::string& name, const std::string& help,
                          MetricType type,
                          std::vector<std::string> label_names,
                          std::vector<double> buckets);

  mutable Mutex mu_{"MetricsRegistry::mu_", LockRank::kMetrics};
  /// Registration order preserved for rendering and List().
  std::vector<std::unique_ptr<MetricFamily>> families_
      PARISAX_GUARDED_BY(mu_);
};

/// The standard parisax_server metric set, registered against one
/// registry. Construction registers every family (this is what
/// tools/dump_metrics dumps); the server increments the request-path
/// instruments inline and mirrors engine/service state via Update()
/// right before each scrape.
struct ServerMetrics {
  explicit ServerMetrics(MetricsRegistry* registry);

  /// Mirrors engine + service state into the registered gauges and
  /// counters (ServeStats arrives as one coherent snapshot). Call
  /// before rendering; either pointer may be null.
  void Update(const Engine* engine, QueryService* service);

  MetricsRegistry* registry;

  // Request path (incremented inline by the server).
  MetricFamily* requests_total;       ///< label: type (query|knn|...)
  MetricFamily* responses_total;      ///< label: code (ok|overloaded|...)
  Counter* frame_errors_total;
  Counter* bytes_read_total;
  Counter* bytes_written_total;
  Gauge* connections_open;
  MetricFamily* request_seconds;      ///< label: type; accepted requests

  // Query service (mirrored from the coherent ServeStats snapshot).
  Counter* queries_submitted_total;
  Counter* queries_completed_total;
  Counter* queries_rejected_overload_total;
  Counter* queries_expired_in_queue_total;
  Counter* query_steals_total;
  Counter* queries_ran_inline_total;
  Counter* queries_ran_parallel_total;
  Gauge* queries_inflight;
  Gauge* queries_inflight_peak;
  Gauge* queue_depth;

  // Engine state.
  Gauge* series_count;
  Gauge* series_length;
  Counter* append_epoch_total;
  Counter* compactions_total;
};

}  // namespace parisax

#endif  // PARISAX_SERVE_METRICS_H_
