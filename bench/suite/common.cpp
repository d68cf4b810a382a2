#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace parisax::suite {

void Fatal(const std::string& what) {
  std::cerr << "parisax_bench: " << what << std::endl;
  std::exit(2);
}

void Fatal(const std::string& what, const Status& status) {
  Fatal(what + ": " + status.ToString());
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p * static_cast<double>(values->size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*values)[std::min(idx, values->size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

double ThreadCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

JsonObject& JsonObject::Add(const std::string& key, std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Str(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string JsonObject::Str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonObject::Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RenderMetrics(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    out.Add(m.name, JsonObject()
                        .Add("value", JsonObject::Num(m.value))
                        .Add("unit", JsonObject::Str(m.unit))
                        .Render());
  }
  return out.Render();
}

}  // namespace parisax::suite
