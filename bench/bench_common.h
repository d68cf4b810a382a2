// Shared infrastructure for the figure-reproduction benchmarks.
//
// Every bench binary reproduces one figure of the paper's evaluation:
// it builds the figure's workload, runs the same engines the paper ran,
// prints a table of measured numbers, and then a "paper shape" block
// stating the qualitative claim the figure makes and how the
// measurement compares. Sizes are scaled down from the paper's 100GB
// datasets (README.md, Benchmarks, lists the mapping) and can be
// overridden:
//   --series N      collection size          --queries N   query count
//   --length N      points per series        --seed N      generator seed
//   --threads a,b,c worker-count sweep       --quick       tiny smoke run
#ifndef PARISAX_BENCH_BENCH_COMMON_H_
#define PARISAX_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/raw_source.h"
#include "io/dataset.h"
#include "io/generator.h"
#include "util/status.h"

namespace parisax {
namespace bench {

struct BenchArgs {
  size_t series = 0;   // 0 = figure default
  size_t queries = 0;  // 0 = figure default
  size_t length = 0;   // 0 = dataset default
  std::vector<int> threads;
  uint64_t seed = 42;
  bool quick = false;
};

/// Parses the common flags; exits with a usage message on error.
BenchArgs ParseArgs(int argc, char** argv);

/// `args.series` if set; `quick_value` under --quick; else `dflt`.
size_t SeriesOrDefault(const BenchArgs& args, size_t dflt,
                       size_t quick_value);
size_t QueriesOrDefault(const BenchArgs& args, size_t dflt,
                        size_t quick_value);
std::vector<int> ThreadsOrDefault(const BenchArgs& args,
                                  std::vector<int> dflt);

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& out = std::cout) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FmtSeconds(double seconds);
std::string FmtMillis(double seconds);
std::string FmtRatio(double ratio);
std::string FmtCount(uint64_t n);

/// The git SHA this binary was built from: $GITHUB_SHA when set (CI), else
/// the SHA baked in at configure time, else "unknown". Recorded in
/// micro_kernels' JSON so baseline comparisons are attributable.
std::string GitSha();

/// CMAKE_BUILD_TYPE baked in at configure time ("Release", "Debug", ...).
std::string BuildTypeName();

/// Prints the figure banner.
void PrintFigureHeader(const std::string& figure_id,
                       const std::string& description);

/// Prints one "paper_shape" line: the paper's qualitative claim and the
/// measured counterpart, so a reader can set one beside the other.
void PrintPaperShape(const std::string& claim, const std::string& measured);

/// Prints the standard caveat for thread sweeps on this host.
void PrintHardwareNote();

/// Generates (or reuses a cached copy of) an on-disk dataset file under
/// the bench data directory; returns its path.
Result<std::string> EnsureDatasetFile(DatasetKind kind, size_t count,
                                      size_t length, uint64_t seed);

/// In-memory dataset generation with a transient thread pool.
Dataset MakeDataset(DatasetKind kind, size_t count, size_t length,
                    uint64_t seed);

/// The query workload used by the figure benches: fresh same-distribution
/// draws for the random-walk collection (the paper's synthetic
/// methodology), noise-perturbed dataset members for the SALD/Seismic
/// stand-ins (modeling the paper's real-data query workloads, which have
/// close neighbors in the collection).
Dataset MakeQueryWorkload(DatasetKind kind, size_t count, size_t length,
                          uint64_t seed, size_t dataset_count);

/// The directory bench files (datasets, leaf storage) live in.
std::string BenchDataDir();

/// Wraps a caller-owned dataset for the source-based build APIs.
std::unique_ptr<InMemorySource> MemSource(const Dataset& data);

/// Opens the streaming file source the on-disk pipelines consume
/// (random: query-time fetches, stream: build-time sequential passes);
/// prints the error and exits on failure.
std::unique_ptr<FileSource> MustOpenFileSource(const std::string& path,
                                               DiskProfile random_profile,
                                               DiskProfile stream_profile);

}  // namespace bench
}  // namespace parisax

#endif  // PARISAX_BENCH_BENCH_COMMON_H_
