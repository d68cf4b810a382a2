#include "bench_common.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <thread>

#include "io/format.h"
#include "util/threading.h"

namespace parisax {
namespace bench {

namespace {

[[noreturn]] void Usage(const char* argv0, const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: " << argv0
            << " [--series N] [--queries N] [--length N]"
            << " [--threads a,b,c] [--seed N] [--quick]\n";
  std::exit(2);
}

std::vector<int> ParseThreadList(const std::string& arg) {
  std::vector<int> threads;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    threads.push_back(std::atoi(item.c_str()));
    if (threads.back() <= 0) threads.pop_back();
  }
  return threads;
}

}  // namespace

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0], "missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--series") {
      args.series = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--queries") {
      args.queries = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--length") {
      args.length = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--threads") {
      args.threads = ParseThreadList(next());
    } else if (flag == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--help" || flag == "-h") {
      Usage(argv[0], "help requested");
    } else {
      Usage(argv[0], "unknown flag " + flag);
    }
  }
  return args;
}

size_t SeriesOrDefault(const BenchArgs& args, size_t dflt,
                       size_t quick_value) {
  if (args.series != 0) return args.series;
  return args.quick ? quick_value : dflt;
}

size_t QueriesOrDefault(const BenchArgs& args, size_t dflt,
                        size_t quick_value) {
  if (args.queries != 0) return args.queries;
  return args.quick ? quick_value : dflt;
}

std::vector<int> ThreadsOrDefault(const BenchArgs& args,
                                  std::vector<int> dflt) {
  return args.threads.empty() ? dflt : args.threads;
}

Table::Table(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print(std::ostream& out) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    out << "  ";
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cell;
    }
    out << "\n";
  };
  print_row(columns_);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  out << "  " << rule << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string FmtSeconds(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << seconds << "s";
  return out.str();
}

std::string FmtMillis(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << seconds * 1e3 << "ms";
  return out.str();
}

std::string FmtRatio(double ratio) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << ratio << "x";
  return out.str();
}

std::string FmtCount(uint64_t n) { return std::to_string(n); }

std::string GitSha() {
  const char* env = std::getenv("GITHUB_SHA");
  if (env != nullptr && env[0] != '\0') return env;
#ifdef PARISAX_GIT_SHA
  return PARISAX_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string BuildTypeName() {
#ifdef PARISAX_BUILD_TYPE
  return PARISAX_BUILD_TYPE;
#else
  return "unknown";
#endif
}

void PrintFigureHeader(const std::string& figure_id,
                       const std::string& description) {
  std::cout << "\n=== " << figure_id << ": " << description << " ===\n";
}

void PrintPaperShape(const std::string& claim, const std::string& measured) {
  std::cout << "paper_shape: " << claim << "\n";
  std::cout << "   measured: " << measured << "\n";
}

void PrintHardwareNote() {
  std::cout << "note: this host exposes "
            << std::thread::hardware_concurrency()
            << " hardware thread(s); thread sweeps exercise the "
               "synchronization code paths but cannot show real parallel "
               "speedup here (the paper used 24 cores / 2 sockets).\n";
}

std::string BenchDataDir() {
  const char* env = std::getenv("PARISAX_BENCH_DIR");
  std::string dir = env != nullptr ? env : "/tmp/parisax_bench";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

Result<std::string> EnsureDatasetFile(DatasetKind kind, size_t count,
                                      size_t length, uint64_t seed) {
  std::ostringstream name;
  name << BenchDataDir() << "/" << DatasetKindName(kind) << "_" << count
       << "x" << length << "_s" << seed << ".psax";
  const std::string path = name.str();
  // Reuse if the header matches exactly.
  auto info = ReadDatasetInfo(path);
  if (info.ok() && info->count == count && info->length == length) {
    return path;
  }
  const Dataset dataset = MakeDataset(kind, count, length, seed);
  PARISAX_RETURN_IF_ERROR(WriteDataset(dataset, path));
  return path;
}

Dataset MakeDataset(DatasetKind kind, size_t count, size_t length,
                    uint64_t seed) {
  GeneratorOptions options;
  options.kind = kind;
  options.count = count;
  options.length = length;
  options.seed = seed;
  ThreadPool pool(4);
  return GenerateDataset(options, &pool);
}

Dataset MakeQueryWorkload(DatasetKind kind, size_t count, size_t length,
                          uint64_t seed, size_t dataset_count) {
  if (kind == DatasetKind::kRandomWalk) {
    return GenerateQueries(kind, count, length, seed);
  }
  return GeneratePerturbedQueries(kind, count, length, seed, dataset_count);
}

std::unique_ptr<InMemorySource> MemSource(const Dataset& data) {
  return std::make_unique<InMemorySource>(&data);
}

std::unique_ptr<FileSource> MustOpenFileSource(const std::string& path,
                                               DiskProfile random_profile,
                                               DiskProfile stream_profile) {
  auto source = FileSource::Open(path, random_profile, stream_profile);
  if (!source.ok()) {
    std::cerr << "open " << path << ": " << source.status().ToString()
              << "\n";
    std::exit(1);
  }
  return std::move(*source);
}

}  // namespace bench
}  // namespace parisax
