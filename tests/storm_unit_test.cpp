// Unit tests for the storm harness's own pieces: the seeded plan
// generator (determinism, overrides, contradiction rejection), the
// workload model oracle, the shared test-support helpers, and one
// short end-to-end storm run per profile. The real fuzzing lives in
// the storm_test binary's ctest sweeps (see docs/testing.md); this TU
// is the fast gtest-shaped safety net around the harness itself.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/generator.h"
#include "scan/ucr_scan.h"
#include "storm/storm_plan.h"
#include "storm/storm_runner.h"
#include "storm/workload_model.h"
#include "support/failing_source.h"
#include "support/temp_dir.h"

namespace parisax {
namespace storm {
namespace {

using testsupport::FailingSource;
using testsupport::FailingSourceOptions;
using testsupport::ScopedTempDir;

TEST(StormPlanTest, SameSeedSameProfileIsBitIdentical) {
  for (const std::string& profile : StormProfiles()) {
    auto a = MakeStormPlan(7, profile);
    auto b = MakeStormPlan(7, profile);
    ASSERT_TRUE(a.ok()) << profile;
    ASSERT_TRUE(b.ok()) << profile;
    EXPECT_EQ(DumpPlan(*a), DumpPlan(*b)) << profile;
  }
}

TEST(StormPlanTest, DifferentSeedsDiverge) {
  auto a = MakeStormPlan(1, "chaos");
  auto b = MakeStormPlan(2, "chaos");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(DumpPlan(*a), DumpPlan(*b));
}

TEST(StormPlanTest, ProfilesAreRegistered) {
  const auto profiles = StormProfiles();
  EXPECT_EQ(profiles.size(), 3u);
  EXPECT_NE(std::find(profiles.begin(), profiles.end(), "query-heavy"),
            profiles.end());
  EXPECT_NE(std::find(profiles.begin(), profiles.end(), "ingest-heavy"),
            profiles.end());
  EXPECT_NE(std::find(profiles.begin(), profiles.end(), "chaos"),
            profiles.end());
  EXPECT_FALSE(MakeStormPlan(1, "no-such-profile").ok());
}

TEST(StormPlanTest, OverridesAreRespected) {
  StormOverrides overrides;
  overrides.backend = "messi";
  overrides.residency = "in-memory";
  overrides.wire = false;
  overrides.ops = 12;
  overrides.actors = 2;
  auto plan = MakeStormPlan(3, "query-heavy", overrides);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->config.algorithm, Algorithm::kMessi);
  EXPECT_EQ(plan->config.residency, SourceResidency::kOwnedMemory);
  EXPECT_FALSE(plan->config.wire);
  EXPECT_EQ(plan->ops.size(), 12u);
  EXPECT_EQ(plan->config.actors, 2u);
}

TEST(StormPlanTest, ContradictoryOverridesAreTypedErrors) {
  {
    // chaos is defined by wire-level garbage; wire=off contradicts it.
    StormOverrides overrides;
    overrides.wire = false;
    EXPECT_FALSE(MakeStormPlan(1, "chaos", overrides).ok());
  }
  {
    // MESSI cannot build over a streamed source.
    StormOverrides overrides;
    overrides.backend = "messi";
    overrides.residency = "file";
    EXPECT_FALSE(MakeStormPlan(1, "query-heavy", overrides).ok());
  }
  {
    StormOverrides overrides;
    overrides.backend = "no-such-backend";
    EXPECT_FALSE(MakeStormPlan(1, "query-heavy", overrides).ok());
  }
}

TEST(WorkloadModelTest, OracleMatchesEngineBruteForce) {
  // The model's ExactNn/ExactKnn and the brute-force scans over the
  // identical generated dataset, with the engine's default kernel, must
  // agree byte for byte — this is the exactness the storm checks lean
  // on.
  const uint64_t data_seed = 1234;
  constexpr size_t kCount = 120;
  constexpr size_t kLength = 64;
  WorkloadModel model(DatasetKind::kRandomWalk, data_seed, kCount, kLength);

  GeneratorOptions gen;
  gen.kind = DatasetKind::kRandomWalk;
  gen.count = kCount;
  gen.length = kLength;
  gen.seed = data_seed;
  const Dataset data = GenerateDataset(gen);
  const InMemorySource source(&data);
  const KernelPolicy kernel = EngineOptions().kernel;

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, kLength, 555);
  for (size_t q = 0; q < queries.count(); ++q) {
    const Neighbor want = model.ExactNn(queries.series(q), kCount);
    EXPECT_EQ(BruteForceNn(source, queries.series(q), kernel), want);

    const std::vector<Neighbor> want_k =
        model.ExactKnn(queries.series(q), 5, kCount);
    EXPECT_EQ(BruteForceKnn(source, queries.series(q), 5, kernel), want_k);
  }
}

TEST(WorkloadModelTest, CandidateCountsAreBatchBoundaries) {
  WorkloadModel model(DatasetKind::kRandomWalk, 9, 100, 32);
  model.MarkPublished(100);
  (void)model.AppendBatch(10);  // 110
  (void)model.AppendBatch(5);   // 115
  EXPECT_EQ(model.count(), 115u);
  EXPECT_EQ(model.published_floor(), 100u);
  const std::vector<size_t> counts = model.CandidateCounts(100, 115);
  EXPECT_EQ(counts, (std::vector<size_t>{100, 110, 115}));
  // A window that saw no appends has exactly one legal prefix.
  EXPECT_EQ(model.CandidateCounts(110, 110),
            (std::vector<size_t>{110}));
}

TEST(WorkloadModelTest, AppendBatchIsDeterministic) {
  WorkloadModel a(DatasetKind::kSaldEeg, 77, 50, 32);
  WorkloadModel b(DatasetKind::kSaldEeg, 77, 50, 32);
  // Different batch shapes, same cumulative contents.
  (void)a.AppendBatch(7);
  (void)a.AppendBatch(3);
  (void)b.AppendBatch(10);
  const Dataset da = a.CopyData();
  const Dataset db = b.CopyData();
  ASSERT_EQ(da.count(), db.count());
  for (size_t i = 0; i < da.count(); ++i) {
    for (size_t j = 0; j < da.length(); ++j) {
      ASSERT_EQ(da.series(i)[j], db.series(i)[j]) << i << "," << j;
    }
  }
}

TEST(ScopedTempDirTest, CreatesUniqueDirsAndCleansUp) {
  std::string first;
  {
    ScopedTempDir a("parisax_unit");
    ScopedTempDir b("parisax_unit");
    first = a.path();
    EXPECT_NE(a.path(), b.path());
    EXPECT_TRUE(std::filesystem::is_directory(a.path()));
    std::ofstream(a.Path("nested.txt")) << "x";
    EXPECT_TRUE(std::filesystem::exists(a.Path("nested.txt")));
  }
  EXPECT_FALSE(std::filesystem::exists(first));
}

TEST(FailingSourceTest, ByteOffsetTripIsCumulative) {
  FailingSourceOptions fail;
  fail.fail_at_byte_offset = 3 * 16 * sizeof(Value);
  FailingSource source(10, 16, fail);
  std::vector<Value> buf(16);
  EXPECT_TRUE(source.GetSeries(0, buf.data()).ok());
  EXPECT_TRUE(source.GetSeries(1, buf.data()).ok());
  EXPECT_TRUE(source.GetSeries(2, buf.data()).ok());
  // The fourth read crosses the budget — regardless of which id it is.
  EXPECT_EQ(source.GetSeries(0, buf.data()).code(), StatusCode::kIoError);
  EXPECT_EQ(source.bytes_read(), 4 * 16 * sizeof(Value));
}

TEST(FailingSourceTest, AppendTripAndAppendableGate) {
  std::vector<Value> row(16, 1.0f);
  {
    FailingSource source(4, 16);  // not appendable by default
    EXPECT_EQ(source.AppendSeries(row.data(), 1).code(),
              StatusCode::kNotSupported);
  }
  FailingSourceOptions fail;
  fail.appendable = true;
  fail.fail_after_appends = 2;
  FailingSource source(4, 16, fail);
  EXPECT_TRUE(source.AppendSeries(row.data(), 1).ok());
  EXPECT_TRUE(source.AppendSeries(row.data(), 1).ok());
  EXPECT_EQ(source.AppendSeries(row.data(), 1).code(), StatusCode::kIoError);
  EXPECT_EQ(source.count(), 6u);  // the failed batch was not applied
}

TEST(StormRunTest, ShortRunPerProfilePasses) {
  // A fast end-to-end smoke per profile: small plan, forced in-memory
  // messi so the whole matrix stays in milliseconds. The
  // broad config sweep lives in the storm_test ctest entries.
  for (const std::string& profile : StormProfiles()) {
    StormOverrides overrides;
    overrides.backend = "messi";
    overrides.residency = "in-memory";
    overrides.initial_series = 96;
    overrides.ops = 12;
    overrides.actors = 2;
    auto plan = MakeStormPlan(5, profile, overrides);
    ASSERT_TRUE(plan.ok()) << profile << ": " << plan.status().ToString();
    auto report = RunStorm(*plan);
    ASSERT_TRUE(report.ok()) << profile << ": " << report.status().ToString();
    EXPECT_TRUE(report->passed) << FormatReport(*plan, *report);
  }
}

}  // namespace
}  // namespace storm
}  // namespace parisax
