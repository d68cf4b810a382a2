// Shared helpers of parisax_bench: clocks, order statistics,
// fatal-error reporting and a tiny JSON writer.
#ifndef PARISAX_BENCH_SUITE_COMMON_H_
#define PARISAX_BENCH_SUITE_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace parisax::suite {

/// Monotonic nanoseconds (steady_clock), the time base of every span.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Prints "parisax_bench: <what>: <status>" to stderr and exits 2.
[[noreturn]] void Fatal(const std::string& what);
[[noreturn]] void Fatal(const std::string& what, const Status& status);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
/// Sorts in place.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

/// Thread CPU seconds (RUSAGE_THREAD user + system).
double ThreadCpuSeconds();

/// One named, unit-tagged metric as printed and written to JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Minimal JSON object writer: keys in insertion order, values already
/// rendered (use Str/Num for scalars).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, std::string rendered);
  std::string Render() const;

  static std::string Str(const std::string& s);
  /// Full precision (17 significant digits); non-finite values render
  /// as null.
  static std::string Num(double v);

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders {"name": {"value": v, "unit": u}, ...}.
std::string RenderMetrics(const std::vector<Metric>& metrics);

}  // namespace parisax::suite

#endif  // PARISAX_BENCH_SUITE_COMMON_H_
