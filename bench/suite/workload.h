// The five workloads of the suite: what each serves, the traffic it
// sends, the inputs it derives from --seed, its timed set-up, and the
// oracle check every answer must pass.
#ifndef PARISAX_BENCH_SUITE_WORKLOAD_H_
#define PARISAX_BENCH_SUITE_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/dataset.h"
#include "io/generator.h"
#include "oracle.h"
#include "trace.h"
#include "util/threading.h"

namespace parisax::suite {

/// Distinct seeded queries per workload; each slot has a fixed op.
inline constexpr size_t kPoolSize = 1024;
inline constexpr size_t kKnnK = 10;
inline constexpr size_t kDtwBand = 12;
/// Timed set-ups per run: at least kMinSetupReps, more while their total
/// stays under kSetupBudgetSeconds (fast set-ups get more samples), at
/// most kMaxSetupReps. setup_s is their median; the last one is served.
inline constexpr size_t kMinSetupReps = 5;
inline constexpr size_t kMaxSetupReps = 50;
inline constexpr double kSetupBudgetSeconds = 1.0;

enum class OpKind : uint8_t {
  kNn,      ///< exact ED 1-NN (QUERY frame)
  kKnn,     ///< exact ED k-NN, k = kKnnK (KNN frame)
  kDtw,     ///< exact DTW 1-NN, band kDtwBand (DTW frame)
  kApprox,  ///< approximate ED 1-NN (QUERY frame, approximate flag)
};

/// How the served engine gets its data (and what set-up means).
enum class Residency {
  kInMemory,  ///< Engine::Build over SourceSpec::InMemory
  kFile,      ///< Engine::Build over a FileSource (streamed build)
  kSnapshot,  ///< Engine::Open of a snapshot written during prep
};

struct WorkloadSpec {
  const char* name;
  Algorithm algorithm;
  DatasetKind data;
  size_t series;
  size_t length;
  Residency residency;
  /// Queries are noise-perturbed members (close neighbours) instead of
  /// fresh draws from the data distribution.
  bool perturbed_queries;
  OpKind primary;
  OpKind secondary;
  /// Share of pool slots that carry `secondary`.
  double secondary_share;
  /// Closed-loop query connections.
  int query_conns;
  /// Open-loop APPEND stream on one extra connection (0: none).
  double append_hz;
  size_t append_batch;
};

const std::vector<WorkloadSpec>& AllWorkloads();
/// Null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

struct QueryPool {
  Dataset queries;              // kPoolSize series
  std::vector<OpKind> kinds;    // per slot
  std::vector<uint32_t> order;  // seeded permutation of the slots
};

/// APPEND batches sent over the whole run (warm-up included) for a run
/// of `total_seconds`; 0 for read-only workloads.
uint64_t AppendBatches(const WorkloadSpec& spec, double total_seconds);

/// Everything a run derives from (workload, seed) before timing starts.
struct Inputs {
  uint64_t seed = 0;
  /// The collection itself; kept for kInMemory, whose set-ups copy it.
  Dataset base;
  std::string data_path;      // kFile / kSnapshot
  std::string snapshot_path;  // kSnapshot
  QueryPool pool;
  /// Series the open-loop stream appends, in order (ingest only).
  Dataset appended;
  Oracle oracle;
};

/// Generates the collection, the pool and the appended series, writes
/// the data and snapshot files, and loads (when this binary cached it
/// for this seed) or computes the oracle. Untimed. `work_dir` holds
/// every file.
Inputs Prepare(const WorkloadSpec& spec, uint64_t seed, uint64_t batches,
               const std::string& work_dir, ThreadPool* pool);

struct Served {
  std::unique_ptr<Engine> engine;
  /// The engine-owned FileSource of kFile workloads (for DiskStats).
  FileSource* file = nullptr;
  std::vector<double> setup_seconds;
};

/// Repeated timed set-ups (copying the input collection is untimed);
/// keeps the last engine. Set-up spans go to `trace`.
Served SetUp(const WorkloadSpec& spec, const Inputs& inputs,
             TraceLog* trace);

/// Builds one engine over an in-memory workload's base collection
/// (untimed helper for the traced index replay).
std::unique_ptr<Engine> BuildBase(const WorkloadSpec& spec,
                                  const Inputs& inputs);

/// Checks one answer. `settled`: no appends are in flight any more, so
/// ingest answers must equal the final-collection oracle exactly.
/// Returns "" when correct, else what is wrong.
class Checker {
 public:
  Checker(const WorkloadSpec& spec, const Inputs& inputs,
          const Engine* engine);
  std::string Check(uint32_t slot, const std::vector<Neighbor>& got,
                    bool settled) const;

 private:
  /// The true squared distance of `id` to slot `slot`'s query.
  float Recompute(uint32_t slot, SeriesId id) const;

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const Engine* engine_;
};

}  // namespace parisax::suite

#endif  // PARISAX_BENCH_SUITE_WORKLOAD_H_
