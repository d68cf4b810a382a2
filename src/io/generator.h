// Synthetic data series generators.
//
// The paper evaluates on three collections:
//   * Synthetic — random walks (the standard benchmark for this line of
//     work; 100M series x 256 points in the paper),
//   * SALD      — EEG recordings (200M x 128),
//   * Seismic   — seismic activity records (100M x 256).
// The two real datasets are not redistributable, so this module provides
// synthetic stand-ins whose *statistical character* matches what drives
// the paper's results: random walks have near-independent PAA segments
// (best pruning), EEG-like band-limited oscillations make series resemble
// one another (worse pruning), and burst-dominated seismic-like records
// concentrate energy in a few segments (worst pruning). README.md,
// Benchmarks, lists the scaled-down sizes the figure drivers use.
//
// Generation is deterministic per (seed, series index) and therefore
// identical whether produced serially or in parallel, and independent of
// generation order.
#ifndef PARISAX_IO_GENERATOR_H_
#define PARISAX_IO_GENERATOR_H_

#include <cstdint>
#include <string>

#include "io/dataset.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

/// Which synthetic collection to generate.
enum class DatasetKind {
  kRandomWalk,    ///< "Synthetic" in the paper: cumulative N(0,1) steps.
  kSaldEeg,       ///< SALD stand-in: band-limited sinusoid mixture + noise.
  kSeismicBurst,  ///< Seismic stand-in: quiet background + decaying bursts.
};

/// Short lowercase name ("randomwalk", "sald", "seismic").
const char* DatasetKindName(DatasetKind kind);

/// Parses a name produced by DatasetKindName.
Result<DatasetKind> ParseDatasetKind(const std::string& name);

/// Series length used for this collection in the paper (256 or 128).
size_t DefaultSeriesLength(DatasetKind kind);

/// Parameters for dataset generation.
struct GeneratorOptions {
  DatasetKind kind = DatasetKind::kRandomWalk;
  size_t count = 1000;
  size_t length = 256;
  uint64_t seed = 42;
  /// Z-normalize every generated series (required for iSAX indexing).
  bool znormalize = true;
};

/// Writes series number `index` of the collection identified by
/// (kind, seed) into `out`. Deterministic and order-independent.
void GenerateSeriesInto(DatasetKind kind, uint64_t seed, uint64_t index,
                        MutableSeriesView out, bool znormalize = true);

/// Generates a whole in-memory dataset; uses `pool` for parallel
/// generation when provided.
Dataset GenerateDataset(const GeneratorOptions& options,
                        ThreadPool* pool = nullptr);

/// Generates a query workload for a dataset produced with `data_seed`:
/// `count` fresh series drawn from the same distribution but a disjoint
/// seed stream. Matches the paper's methodology (queries follow the data
/// distribution but are not dataset members).
Dataset GenerateQueries(DatasetKind kind, size_t count, size_t length,
                        uint64_t data_seed);

/// Generates `count` queries as noise-perturbed copies of random members
/// of the dataset identified by (kind, data_seed, dataset_count):
/// query = znorm(member + noise_stddev * N(0,1)). This models the
/// "find series similar to this one" exploration workload over real
/// collections, where queries have close neighbors (unlike fresh draws
/// from a high-entropy synthetic distribution).
Dataset GeneratePerturbedQueries(DatasetKind kind, size_t count,
                                 size_t length, uint64_t data_seed,
                                 size_t dataset_count,
                                 double noise_stddev = 0.25);

}  // namespace parisax

#endif  // PARISAX_IO_GENERATOR_H_
