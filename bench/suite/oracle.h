// Exact answers every served answer is checked against, computed once
// per (workload, seed, collection) and cached on disk.
//
// ED answers use the same kernel (SquaredEuclidean, kAuto) and the same
// (distance, id) tie-break as BruteForceKnn, evaluated block-by-block
// over many queries at once so a 300k-series collection is read once
// instead of once per query; ComputeEdKnn cross-checks itself against
// BruteForceKnn. DTW answers come from DtwScanParallel.
#ifndef PARISAX_BENCH_SUITE_ORACLE_H_
#define PARISAX_BENCH_SUITE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "io/dataset.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax::suite {

struct Oracle {
  /// Per pool slot: the exact answer to the slot's op over the
  /// collection the run ends with.
  std::vector<std::vector<Neighbor>> answers;
  /// Ingest workloads: per slot, the ED 1-NN over the base collection
  /// (an upper bound for answers given while appends are landing).
  std::vector<Neighbor> base_nn;
};

/// Exact ED top-k of queries.series(slots[i]) over `data`, for every i.
/// Aborts if the result disagrees with BruteForceKnn on a probe query.
std::vector<std::vector<Neighbor>> ComputeEdKnn(
    const Dataset& data, const Dataset& queries,
    const std::vector<uint32_t>& slots, size_t k, ThreadPool* pool);

/// Loads `path` if it holds an oracle written under exactly `key`.
bool LoadOracle(const std::string& path, const std::string& key,
                Oracle* oracle);
Status SaveOracle(const std::string& path, const std::string& key,
                  const Oracle& oracle);

}  // namespace parisax::suite

#endif  // PARISAX_BENCH_SUITE_ORACLE_H_
