#include "storm/storm_plan.h"

#include <sstream>

#include "util/rng.h"

namespace parisax {
namespace storm {
namespace {

/// Weighted op table: one row per drawable op kind.
struct OpWeight {
  StormOpKind kind;
  uint32_t weight;
};

/// The profile mixes. Weights are relative; rows with weight 0 are
/// never drawn. Wire-only ops get nonzero weight only when the config
/// runs through the server.
std::vector<OpWeight> ProfileWeights(const std::string& profile, bool wire) {
  std::vector<OpWeight> w;
  if (profile == "query-heavy") {
    w = {{StormOpKind::kQueryNn, 30},    {StormOpKind::kQueryKnn, 20},
         {StormOpKind::kQueryDtw, 10},   {StormOpKind::kQueryApprox, 8},
         {StormOpKind::kBadQuery, 4},    {StormOpKind::kAppend, 14},
         {StormOpKind::kSave, 6},        {StormOpKind::kCompact, 3},
         {StormOpKind::kReopen, 2},      {StormOpKind::kRebuild, 2},
         {StormOpKind::kRebuildFail, 1}, {StormOpKind::kWireHealth, 2}};
  } else if (profile == "ingest-heavy") {
    w = {{StormOpKind::kQueryNn, 12},    {StormOpKind::kQueryKnn, 8},
         {StormOpKind::kQueryDtw, 4},    {StormOpKind::kQueryApprox, 4},
         {StormOpKind::kBadQuery, 2},    {StormOpKind::kAppend, 40},
         {StormOpKind::kSave, 12},       {StormOpKind::kCompact, 8},
         {StormOpKind::kReopen, 5},      {StormOpKind::kRebuild, 3},
         {StormOpKind::kRebuildFail, 2}, {StormOpKind::kWireHealth, 2}};
  } else {  // chaos
    w = {{StormOpKind::kQueryNn, 12},    {StormOpKind::kQueryKnn, 8},
         {StormOpKind::kQueryDtw, 6},    {StormOpKind::kQueryApprox, 6},
         {StormOpKind::kBadQuery, 10},   {StormOpKind::kAppend, 12},
         {StormOpKind::kSave, 8},        {StormOpKind::kCompact, 5},
         {StormOpKind::kReopen, 6},      {StormOpKind::kRebuild, 4},
         {StormOpKind::kRebuildFail, 5}, {StormOpKind::kWireGarbage, 12},
         {StormOpKind::kWireHealth, 6}};
  }
  for (auto& row : w) {
    if (!wire && (row.kind == StormOpKind::kWireGarbage ||
                  row.kind == StormOpKind::kWireHealth)) {
      row.weight = 0;
    }
  }
  return w;
}

StormOpKind DrawKind(Rng& rng, const std::vector<OpWeight>& weights) {
  uint64_t total = 0;
  for (const auto& row : weights) total += row.weight;
  uint64_t pick = rng.NextBelow(total);
  for (const auto& row : weights) {
    if (pick < row.weight) return row.kind;
    pick -= row.weight;
  }
  return StormOpKind::kQueryNn;
}

Result<SourceResidency> ParseResidencyOverride(const std::string& name) {
  if (name == "in-memory") return SourceResidency::kOwnedMemory;
  if (name == "mmap") return SourceResidency::kMmap;
  if (name == "file") return SourceResidency::kStreamedFile;
  return Status::InvalidArgument(
      "storm residencies are in-memory, mmap and file (got " + name + ")");
}

}  // namespace

const char* StormOpKindName(StormOpKind kind) {
  switch (kind) {
    case StormOpKind::kQueryNn:
      return "query-nn";
    case StormOpKind::kQueryKnn:
      return "query-knn";
    case StormOpKind::kQueryDtw:
      return "query-dtw";
    case StormOpKind::kQueryApprox:
      return "query-approx";
    case StormOpKind::kBadQuery:
      return "bad-query";
    case StormOpKind::kAppend:
      return "append";
    case StormOpKind::kSave:
      return "save";
    case StormOpKind::kCompact:
      return "compact";
    case StormOpKind::kReopen:
      return "reopen";
    case StormOpKind::kRebuild:
      return "rebuild";
    case StormOpKind::kRebuildFail:
      return "rebuild-fail";
    case StormOpKind::kWireGarbage:
      return "wire-garbage";
    case StormOpKind::kWireHealth:
      return "wire-health";
  }
  return "unknown";
}

const std::vector<std::string>& StormProfiles() {
  static const std::vector<std::string> kProfiles = {
      "query-heavy", "ingest-heavy", "chaos"};
  return kProfiles;
}

Result<StormPlan> MakeStormPlan(uint64_t seed, const std::string& profile,
                                const StormOverrides& overrides) {
  bool known = false;
  for (const auto& p : StormProfiles()) known = known || p == profile;
  if (!known) {
    return Status::InvalidArgument("unknown storm profile: " + profile);
  }

  StormConfig config;
  config.seed = seed;
  config.profile = profile;
  config.data_seed = MixSeed(seed, 0x5707B);

  // One dedicated stream for the configuration draw, so changing op
  // weights never reshuffles which backend a seed lands on.
  Rng cfg_rng(MixSeed(seed, 0xC0F16));

  if (overrides.backend.has_value()) {
    PARISAX_ASSIGN_OR_RETURN(config.algorithm,
                             ParseAlgorithm(*overrides.backend));
  } else {
    const uint64_t pick = cfg_rng.NextBelow(100);
    config.algorithm = pick < 50   ? Algorithm::kMessi
                       : pick < 80 ? Algorithm::kParisPlus
                                   : Algorithm::kParis;
  }

  if (overrides.residency.has_value()) {
    PARISAX_ASSIGN_OR_RETURN(config.residency,
                             ParseResidencyOverride(*overrides.residency));
  } else {
    const uint64_t pick = cfg_rng.NextBelow(100);
    config.residency = pick < 45   ? SourceResidency::kOwnedMemory
                       : pick < 80 ? SourceResidency::kMmap
                                   : SourceResidency::kStreamedFile;
    if (!CanBuildOver(config.algorithm, config.residency)) {
      config.residency = SourceResidency::kMmap;
    }
  }

  // The contradiction check mirrors Engine::Build's own rule so a bad
  // CLI combination fails at plan time with a clear message.
  if (!CanBuildOver(config.algorithm, config.residency)) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(config.algorithm)) +
        " cannot build over a streamed source (no streaming_build)");
  }

  if (overrides.wire.has_value()) {
    config.wire = *overrides.wire;
  } else {
    // Chaos is the wire-fuzzing profile; the others go through the
    // server some of the time so the frame codecs see every backend.
    config.wire = profile == "chaos" || cfg_rng.NextBelow(100) < 30;
  }
  if (profile == "chaos" && !config.wire) {
    return Status::InvalidArgument(
        "the chaos profile fuzzes the wire; --wire=off contradicts it");
  }

  {
    const uint64_t pick = cfg_rng.NextBelow(100);
    config.kind = pick < 60   ? DatasetKind::kRandomWalk
                  : pick < 80 ? DatasetKind::kSaldEeg
                              : DatasetKind::kSeismicBurst;
  }
  config.initial_series = 192 + cfg_rng.NextBelow(128);
  config.series_length = cfg_rng.NextBelow(2) == 0 ? 64 : 96;

  if (overrides.initial_series.has_value()) {
    config.initial_series = *overrides.initial_series;
  }
  if (overrides.series_length.has_value()) {
    config.series_length = *overrides.series_length;
  }
  if (overrides.ops.has_value()) config.ops = *overrides.ops;
  if (overrides.actors.has_value()) config.actors = *overrides.actors;
  if (config.initial_series == 0 || config.series_length == 0 ||
      config.actors == 0) {
    return Status::InvalidArgument(
        "storm needs at least one initial series, a positive series "
        "length and at least one actor");
  }

  // The op stream draws from its own generator, seeded independently of
  // the config stream.
  Rng rng(MixSeed(seed, 0x09501));
  const auto weights = ProfileWeights(profile, config.wire);

  StormPlan plan;
  plan.config = config;
  plan.ops.reserve(config.ops);
  for (size_t i = 0; i < config.ops; ++i) {
    StormOp op;
    op.kind = DrawKind(rng, weights);
    switch (op.kind) {
      case StormOpKind::kQueryNn:
      case StormOpKind::kQueryApprox:
        break;
      case StormOpKind::kQueryKnn:
        // Mostly small k; occasionally far beyond the collection, which
        // is legal for max_k-unbounded backends (answer truncates to
        // the collection size) and a typed rejection for max_k == 1.
        op.k = rng.NextBelow(10) == 0
                   ? 5000
                   : static_cast<uint32_t>(2 + rng.NextBelow(7));
        break;
      case StormOpKind::kQueryDtw:
        op.band = static_cast<uint32_t>(4 + rng.NextBelow(13));
        break;
      case StormOpKind::kBadQuery:
        op.variant = static_cast<uint8_t>(rng.NextBelow(3));
        if (op.variant == 2) op.k = 3;  // dtw k>1: unsupported everywhere
        break;
      case StormOpKind::kAppend:
        op.append_count = static_cast<uint32_t>(1 + rng.NextBelow(24));
        break;
      case StormOpKind::kSave:
      case StormOpKind::kCompact:
        op.variant = static_cast<uint8_t>(rng.NextBelow(3));  // path slot
        break;
      case StormOpKind::kReopen:
      case StormOpKind::kRebuild:
      case StormOpKind::kRebuildFail:
      case StormOpKind::kWireHealth:
        break;
      case StormOpKind::kWireGarbage:
        op.variant = static_cast<uint8_t>(rng.NextBelow(6));
        break;
    }
    // A sprinkle of per-query deadlines: tight enough to sometimes
    // expire mid-search, so kDeadlineExceeded stays a live outcome.
    if ((op.kind == StormOpKind::kQueryNn ||
         op.kind == StormOpKind::kQueryKnn ||
         op.kind == StormOpKind::kQueryDtw) &&
        rng.NextBelow(100) < 8) {
      op.timeout_us = 100 + rng.NextBelow(2900);
    }
    plan.ops.push_back(op);
  }
  return plan;
}

std::string DumpPlan(const StormPlan& plan) {
  const StormConfig& c = plan.config;
  std::ostringstream out;
  out << "storm plan seed=" << c.seed << " profile=" << c.profile
      << " backend=" << AlgorithmName(c.algorithm)
      << " residency=" << SourceResidencyName(c.residency)
      << " wire=" << (c.wire ? "on" : "off")
      << " kind=" << DatasetKindName(c.kind)
      << " data_seed=" << c.data_seed << " series=" << c.initial_series
      << "x" << c.series_length << " ops=" << plan.ops.size()
      << " actors=" << c.actors << "\n";
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const StormOp& op = plan.ops[i];
    out << "  [" << i << "] " << StormOpKindName(op.kind);
    if (op.kind == StormOpKind::kQueryKnn) out << " k=" << op.k;
    if (op.kind == StormOpKind::kQueryDtw) out << " band=" << op.band;
    if (op.kind == StormOpKind::kAppend) {
      out << " count=" << op.append_count;
    }
    if (op.kind == StormOpKind::kBadQuery ||
        op.kind == StormOpKind::kWireGarbage ||
        op.kind == StormOpKind::kSave ||
        op.kind == StormOpKind::kCompact) {
      out << " variant=" << static_cast<int>(op.variant);
    }
    if (op.timeout_us != 0) out << " timeout_us=" << op.timeout_us;
    out << "\n";
  }
  return out.str();
}

}  // namespace storm
}  // namespace parisax
