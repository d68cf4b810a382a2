#include "serve/metrics.h"

#include <cassert>
#include <cstdio>
#include <utility>

#include "core/engine.h"
#include "serve/query_service.h"

namespace parisax {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// One sample line: `name{k1="v1",k2="v2"} value`.
void AppendSample(std::string* out, const std::string& name,
                  const std::vector<std::string>& label_names,
                  const std::vector<std::string>& label_values,
                  const std::string& extra_label_name,
                  const std::string& extra_label_value,
                  const std::string& value) {
  *out += name;
  const bool has_labels =
      !label_names.empty() || !extra_label_name.empty();
  if (has_labels) {
    *out += '{';
    bool first = true;
    for (size_t i = 0; i < label_names.size(); ++i) {
      if (!first) *out += ',';
      first = false;
      *out += label_names[i];
      *out += "=\"";
      *out += label_values[i];
      *out += '"';
    }
    if (!extra_label_name.empty()) {
      if (!first) *out += ',';
      *out += extra_label_name;
      *out += "=\"";
      *out += extra_label_value;
      *out += '"';
    }
    *out += '}';
  }
  *out += ' ';
  *out += value;
  *out += '\n';
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1) {}

void Histogram::Observe(double v) {
  size_t bucket = upper_bounds_.size();  // +Inf by default
  for (size_t i = 0; i < upper_bounds_.size(); ++i) {
    if (v <= upper_bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double sum;
    __builtin_memcpy(&sum, &cur, sizeof(sum));
    sum += v;
    uint64_t next;
    __builtin_memcpy(&next, &sum, sizeof(next));
    if (sum_bits_.compare_exchange_weak(cur, next,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::Sum() const {
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double sum;
  __builtin_memcpy(&sum, &bits, sizeof(sum));
  return sum;
}

std::vector<double> DefaultLatencySecondsBuckets() {
  return {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
          30.0, 100.0};
}

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricFamily* MetricsRegistry::AddFamily(
    const std::string& name, const std::string& help, MetricType type,
    std::vector<std::string> label_names, std::vector<double> buckets) {
  MutexLock lock(&mu_);
  for (const auto& family : families_) {
    if (family->name == name) {
      assert(family->type == type);
      return family.get();
    }
  }
  auto family = std::make_unique<MetricFamily>();
  family->name = name;
  family->help = help;
  family->type = type;
  family->label_names = std::move(label_names);
  family->buckets = std::move(buckets);
  families_.push_back(std::move(family));
  return families_.back().get();
}

Counter* MetricsRegistry::AddCounter(const std::string& name,
                                     const std::string& help) {
  MetricFamily* family =
      AddFamily(name, help, MetricType::kCounter, {}, {});
  return CounterWithLabels(family, {});
}

MetricFamily* MetricsRegistry::AddCounterFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names) {
  return AddFamily(name, help, MetricType::kCounter,
                   std::move(label_names), {});
}

Gauge* MetricsRegistry::AddGauge(const std::string& name,
                                 const std::string& help) {
  MetricFamily* family = AddFamily(name, help, MetricType::kGauge, {}, {});
  MutexLock lock(&mu_);
  auto& slot = family->gauges[{}];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> upper_bounds) {
  MetricFamily* family = AddFamily(name, help, MetricType::kHistogram, {},
                                   upper_bounds);
  MutexLock lock(&mu_);
  auto& slot = family->histograms[{}];
  if (slot == nullptr) slot = std::make_unique<Histogram>(upper_bounds);
  return slot.get();
}

MetricFamily* MetricsRegistry::AddHistogramFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names,
    std::vector<double> upper_bounds) {
  return AddFamily(name, help, MetricType::kHistogram,
                   std::move(label_names), std::move(upper_bounds));
}

Counter* MetricsRegistry::CounterWithLabels(
    MetricFamily* family, std::vector<std::string> values) {
  assert(family->type == MetricType::kCounter);
  assert(values.size() == family->label_names.size());
  MutexLock lock(&mu_);
  auto& slot = family->counters[std::move(values)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::HistogramWithLabels(
    MetricFamily* family, std::vector<std::string> values) {
  assert(family->type == MetricType::kHistogram);
  assert(values.size() == family->label_names.size());
  MutexLock lock(&mu_);
  auto& slot = family->histograms[std::move(values)];
  if (slot == nullptr) slot = std::make_unique<Histogram>(family->buckets);
  return slot.get();
}

std::string MetricsRegistry::RenderPrometheusText() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& family : families_) {
    out += "# HELP " + family->name + " " + family->help + "\n";
    out += "# TYPE " + family->name + " " +
           MetricTypeName(family->type) + "\n";
    switch (family->type) {
      case MetricType::kCounter:
        for (const auto& [values, counter] : family->counters) {
          AppendSample(&out, family->name, family->label_names, values,
                       "", "", std::to_string(counter->Value()));
        }
        break;
      case MetricType::kGauge:
        for (const auto& [values, gauge] : family->gauges) {
          AppendSample(&out, family->name, family->label_names, values,
                       "", "", FormatDouble(gauge->Value()));
        }
        break;
      case MetricType::kHistogram:
        for (const auto& [values, histogram] : family->histograms) {
          const std::vector<uint64_t> counts = histogram->BucketCounts();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < counts.size(); ++i) {
            cumulative += counts[i];
            const std::string le =
                i < histogram->upper_bounds().size()
                    ? FormatDouble(histogram->upper_bounds()[i])
                    : "+Inf";
            AppendSample(&out, family->name + "_bucket",
                         family->label_names, values, "le", le,
                         std::to_string(cumulative));
          }
          AppendSample(&out, family->name + "_sum", family->label_names,
                       values, "", "", FormatDouble(histogram->Sum()));
          AppendSample(&out, family->name + "_count",
                       family->label_names, values, "", "",
                       std::to_string(histogram->Count()));
        }
        break;
    }
  }
  return out;
}

std::vector<MetricsRegistry::MetricInfo> MetricsRegistry::List() const {
  MutexLock lock(&mu_);
  std::vector<MetricInfo> infos;
  infos.reserve(families_.size());
  for (const auto& family : families_) {
    infos.push_back(MetricInfo{family->name, family->type,
                               family->label_names, family->help});
  }
  return infos;
}

ServerMetrics::ServerMetrics(MetricsRegistry* registry)
    : registry(registry) {
  requests_total = registry->AddCounterFamily(
      "parisax_requests_total",
      "Frames received, by request type "
      "(query|knn|dtw|append|stats|health).",
      {"type"});
  responses_total = registry->AddCounterFamily(
      "parisax_responses_total",
      "Responses sent, by outcome code (ok plus every Status code name, "
      "lowercased, e.g. overloaded|deadline_exceeded|invalid_argument).",
      {"code"});
  frame_errors_total = registry->AddCounter(
      "parisax_frame_errors_total",
      "Malformed frames (bad magic, bad version, oversized or truncated "
      "bodies); each also closes or errors its connection.");
  bytes_read_total = registry->AddCounter(
      "parisax_bytes_read_total", "Bytes read from client connections.");
  bytes_written_total = registry->AddCounter(
      "parisax_bytes_written_total",
      "Bytes written to client connections.");
  connections_open = registry->AddGauge(
      "parisax_connections_open", "Client connections currently open.");
  request_seconds = registry->AddHistogramFamily(
      "parisax_request_seconds",
      "End-to-end server-side latency of accepted requests (decode to "
      "response write), by request type.",
      {"type"}, DefaultLatencySecondsBuckets());

  queries_submitted_total = registry->AddCounter(
      "parisax_queries_submitted_total",
      "Queries accepted into the query service.");
  queries_completed_total = registry->AddCounter(
      "parisax_queries_completed_total",
      "Queries completed (successes and typed failures).");
  queries_rejected_overload_total = registry->AddCounter(
      "parisax_queries_rejected_overload_total",
      "Admission-control rejections: the in-flight cap was reached "
      "(kOverloaded).");
  queries_expired_in_queue_total = registry->AddCounter(
      "parisax_queries_expired_in_queue_total",
      "Queries whose deadline passed while queued; completed with "
      "kDeadlineExceeded at dequeue without running.");
  query_steals_total = registry->AddCounter(
      "parisax_query_steals_total",
      "Helper joins: an idle serve worker ran its share of a lone "
      "query's parallel phase.");
  queries_ran_inline_total = registry->AddCounter(
      "parisax_queries_ran_inline_total",
      "Queries answered whole-query-per-worker on one serve worker.");
  queries_ran_parallel_total = registry->AddCounter(
      "parisax_queries_ran_parallel_total",
      "Queries answered via the intra-query parallel path: exact "
      "queries alone in flight, whose phases idle workers may join.");
  queries_inflight = registry->AddGauge(
      "parisax_queries_inflight",
      "Queries accepted but not yet completed.");
  queries_inflight_peak = registry->AddGauge(
      "parisax_queries_inflight_peak",
      "Highest in-flight query count observed (bounded by the admission "
      "cap when one is set).");
  queue_depth = registry->AddGauge(
      "parisax_queue_depth",
      "Tasks sitting in the serve queue, not yet picked up.");

  series_count = registry->AddGauge(
      "parisax_series_count", "Series in the indexed collection.");
  series_length = registry->AddGauge(
      "parisax_series_length", "Points per series.");
  append_epoch_total = registry->AddCounter(
      "parisax_append_epoch_total",
      "Completed Engine::Append calls; each published a new index epoch "
      "to queries atomically.");
  compactions_total = registry->AddCounter(
      "parisax_compactions_total",
      "Compaction actions (background passes and synchronous folds) "
      "that published a merged or folded snapshot.");
}

void ServerMetrics::Update(const Engine* engine, QueryService* service) {
  if (engine != nullptr) {
    series_count->Set(static_cast<double>(engine->series_count()));
    series_length->Set(static_cast<double>(engine->series_length()));
    append_epoch_total->UpdateTo(engine->append_epoch());
    compactions_total->UpdateTo(engine->compaction_count());
  }
  if (service != nullptr) {
    const ServeStats s = service->stats();
    queries_submitted_total->UpdateTo(s.submitted);
    queries_completed_total->UpdateTo(s.completed);
    queries_rejected_overload_total->UpdateTo(s.rejected_overload);
    queries_expired_in_queue_total->UpdateTo(s.expired_in_queue);
    query_steals_total->UpdateTo(s.steals);
    queries_ran_inline_total->UpdateTo(s.ran_inline);
    queries_ran_parallel_total->UpdateTo(s.ran_parallel);
    queries_inflight->Set(static_cast<double>(s.inflight));
    queries_inflight_peak->Set(static_cast<double>(s.peak_inflight));
    queue_depth->Set(static_cast<double>(s.queued));
  }
}

}  // namespace parisax
