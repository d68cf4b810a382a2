// The storm operation grammar and the seeded plan generator.
//
// One uint64 seed determines everything: the engine configuration
// (algorithm x residency x wire), the collection, and the full
// operation sequence — so `storm_test --seed=S --profile=P` is a
// complete, bit-reproducible repro line. The generator draws only from
// util/rng.h (deterministic across platforms); query and append
// *values* are not stored in the plan but re-derived at execution time
// from (seed, op index) and the model count, which the in-order driver
// makes deterministic too.
#ifndef PARISAX_TESTS_STORM_STORM_PLAN_H_
#define PARISAX_TESTS_STORM_STORM_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/generator.h"
#include "util/status.h"

namespace parisax {
namespace storm {

enum class StormOpKind : uint8_t {
  kQueryNn,      ///< exact ED 1-NN, checked against the model
  kQueryKnn,     ///< exact ED k-NN (k may exceed max_k: typed rejection)
  kQueryDtw,     ///< DTW 1-NN (typed rejection where !caps.dtw)
  kQueryApprox,  ///< approximate probe: well-formedness checked
  kBadQuery,     ///< deliberately malformed (k=0 / wrong length / dtw k>1)
  kAppend,       ///< deterministic batch through the backend (or wire)
  kSave,         ///< snapshot (delta chains exercised via path rotation)
  kCompact,      ///< fold segments + full snapshot
  kReopen,       ///< save -> teardown -> Open from the snapshot
  kRebuild,      ///< teardown -> fresh Build from the model data
  kRebuildFail,  ///< Build over a FailingSource: must fail typed, old
                 ///< backend keeps serving
  kWireGarbage,  ///< malformed/oversized/pipelined frames (wire mode)
  kWireHealth,   ///< health/stats frame, shape cross-checked (wire mode)
};

const char* StormOpKindName(StormOpKind kind);

struct StormOp {
  StormOpKind kind = StormOpKind::kQueryNn;
  uint32_t k = 1;
  uint32_t band = 12;
  /// Series per kAppend batch.
  uint32_t append_count = 0;
  /// Per-query deadline (0: none). Small values race real work, so both
  /// completion and kDeadlineExceeded are legal outcomes.
  uint64_t timeout_us = 0;
  /// Flavor selector: kBadQuery 0..2 (k=0, wrong length, dtw k>1),
  /// kWireGarbage 0..5 (bad magic, bad version, oversized, short body,
  /// unknown type, pipelined burst), kSave/kCompact path rotation.
  uint8_t variant = 0;
};

struct StormConfig {
  uint64_t seed = 1;
  std::string profile = "query-heavy";
  Algorithm algorithm = Algorithm::kMessi;
  SourceResidency residency = SourceResidency::kOwnedMemory;
  bool wire = false;   // drive through a live TCP Server
  DatasetKind kind = DatasetKind::kRandomWalk;
  uint64_t data_seed = 0;  // derived from seed
  size_t initial_series = 240;
  size_t series_length = 64;
  size_t ops = 40;
  size_t actors = 3;
};

struct StormPlan {
  StormConfig config;
  std::vector<StormOp> ops;
};

/// Caller knobs; anything unset is drawn from the seed.
struct StormOverrides {
  std::optional<std::string> backend;    // "messi" | "paris" | "paris+"
  std::optional<std::string> residency;  // "in-memory" | "mmap" | "file"
  std::optional<bool> wire;
  std::optional<size_t> initial_series;
  std::optional<size_t> series_length;
  std::optional<size_t> ops;
  std::optional<size_t> actors;
};

const std::vector<std::string>& StormProfiles();

/// Generates the full plan for (seed, profile). Pure function of its
/// arguments: same inputs, same plan, bit for bit. Fails on an unknown
/// profile or contradictory overrides (e.g. residency=file with a
/// non-streaming backend).
Result<StormPlan> MakeStormPlan(uint64_t seed, const std::string& profile,
                                const StormOverrides& overrides = {});

/// Human-readable plan listing (--dump-plan, and the determinism test's
/// comparison key).
std::string DumpPlan(const StormPlan& plan);

}  // namespace storm
}  // namespace parisax

#endif  // PARISAX_TESTS_STORM_STORM_PLAN_H_
