// QueryService: concurrent multi-query execution must return exactly
// the answers the serial brute-force oracle returns, whether a query
// runs alone with helpers or beside others, under storms of
// simultaneous Submits with mixed request types (ED 1-NN, kNN, DTW) and
// mixed engines sharing one process. These tests are the ASan/UBSan
// matrix leg's main target.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "io/generator.h"
#include "scan/ucr_scan.h"
#include "serve/query_service.h"
#include "support/latched_source.h"
#include "support/temp_dir.h"
#include "util/threading.h"

namespace parisax {
namespace {

constexpr size_t kLength = 64;
constexpr size_t kDtwBand = 6;

Dataset MakeData(size_t count, uint64_t seed) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = kLength;
  gen.seed = seed;
  return GenerateDataset(gen);
}

Dataset MakeQueries(size_t count, uint64_t data_seed) {
  return GenerateQueries(DatasetKind::kRandomWalk, count, kLength,
                         data_seed);
}

/// Null (with a recorded failure) when the build fails; call sites
/// ASSERT on the result so a broken build fails one test cleanly.
std::unique_ptr<Engine> BuildEngine(const Dataset& data,
                                    Algorithm algorithm) {
  EngineOptions options;
  options.algorithm = algorithm;
  options.num_threads = 4;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  if (!engine.ok()) {
    ADD_FAILURE() << engine.status().ToString();
    return nullptr;
  }
  return std::move(*engine);
}

uint32_t Bits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// ParIS+ over a LatchedSource: every series a query reads goes
/// through the latch. Null (with a recorded failure) when the build
/// fails.
std::unique_ptr<Engine> BuildLatchedEngine(
    const Dataset& data, const testsupport::ScopedTempDir& dir,
    testsupport::LatchedSource** latch) {
  auto latched = std::make_unique<testsupport::LatchedSource>(
      std::make_unique<InMemorySource>(&data));
  *latch = latched.get();
  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.num_threads = 2;
  options.leaf_storage_path = dir.Path("latched.leaves");
  auto engine = Engine::Build(SourceSpec::Custom(std::move(latched)), options);
  if (!engine.ok()) {
    ADD_FAILURE() << engine.status().ToString();
    return nullptr;
  }
  return std::move(*engine);
}

TEST(QueryServiceTest, PolicyNamesRoundTrip) {
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kAuto), "auto");
}

TEST(QueryServiceTest, CreateRejectsBadOptions) {
  const Dataset data = MakeData(200, 1);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);
  QueryServiceOptions sopts;
  sopts.num_threads = 0;
  EXPECT_FALSE(QueryService::Create(engine.get(), sopts).ok());
  EXPECT_FALSE(QueryService::Create(nullptr, QueryServiceOptions{}).ok());
}

// A batch gets oracle-exact answers.
TEST(QueryServiceTest, BatchMatchesOracleUnderEveryPolicy) {
  const Dataset data = MakeData(2000, 7);
  const Dataset queries = MakeQueries(32, 7);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  std::vector<SeriesView> views;
  for (size_t q = 0; q < queries.count(); ++q) {
    views.push_back(queries.series(q));
  }

  QueryServiceOptions sopts;
  sopts.num_threads = 4;
  auto service = QueryService::Create(engine.get(), sopts);
  ASSERT_TRUE(service.ok());

  auto responses = (*service)->SearchBatch(views);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), queries.count());
  for (size_t q = 0; q < queries.count(); ++q) {
    const Neighbor oracle =
        BruteForceNn(InMemorySource(&data), queries.series(q));
    EXPECT_EQ((*responses)[q].neighbors[0].id, oracle.id) << "query " << q;
    EXPECT_FLOAT_EQ((*responses)[q].neighbors[0].distance_sq,
                    oracle.distance_sq);
  }
  const ServeStats stats = (*service)->stats();
  EXPECT_EQ(stats.submitted, queries.count());
  EXPECT_EQ(stats.completed, queries.count());
  EXPECT_EQ(stats.ran_inline + stats.ran_parallel, queries.count());
}

// A query takes the parallel path only when it is alone in the
// service. The first query starts alone and parks inside the engine; a
// second exact query submitted while it is still executing finds the
// queue empty but one query in flight, so it must run inline instead of
// sharing the first one's helpers. Both readers are released only once
// both queries are executing, so each decision sees a fixed state.
// ParIS+ over the latched (streamed) source reads its approximate
// leaf's series through GetSeries on the query's own thread, before
// any fan-out, so each query parks exactly one reader.
TEST(QueryServiceTest, AutoGoesParallelOnlyForALoneQuery) {
  const Dataset data = MakeData(300, 29);
  const Dataset queries = MakeQueries(2, 29);
  testsupport::ScopedTempDir dir("parisax_serve");
  testsupport::LatchedSource* latch = nullptr;
  auto engine = BuildLatchedEngine(data, dir, &latch);
  ASSERT_NE(engine, nullptr);

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  auto service = QueryService::Create(engine.get(), sopts);
  ASSERT_TRUE(service.ok());

  latch->Arm(0);
  auto first = (*service)->Submit(queries.series(0));
  latch->WaitArrived(1);
  auto second = (*service)->Submit(queries.series(1));
  latch->WaitArrived(2);
  latch->ReleaseAll();
  for (size_t q = 0; q < 2; ++q) {
    auto response = (q == 0 ? first : second).get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const Neighbor oracle =
        BruteForceNn(InMemorySource(&data), queries.series(q));
    EXPECT_EQ(response->neighbors[0].id, oracle.id);
    EXPECT_EQ(response->neighbors[0].distance_sq, oracle.distance_sq);
  }
  const ServeStats stats = (*service)->stats();
  EXPECT_EQ(stats.ran_parallel, 1u);  // the first: alone when it started
  EXPECT_EQ(stats.ran_inline, 1u);    // the second: one already in flight
}

/// The reads the approximate probe of `query` makes: a latch armed to
/// pass them parks the first refinement read of an exact `query`.
size_t ProbeReads(Engine* engine, const testsupport::LatchedSource& latch,
                  SeriesView query) {
  InlineExecutor inline_exec;
  SearchRequest approximate;
  approximate.approximate = true;
  const size_t before = latch.log().size();
  EXPECT_TRUE(engine->Search(query, approximate, &inline_exec).ok());
  return latch.log().size() - before;
}

/// Waits up to 20 s for `n` readers and returns how many arrived: a
/// lone worker never brings a second reader, so a missing helper fails
/// a test instead of hanging it.
size_t WaitForReaders(const testsupport::LatchedSource& latch, size_t n) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (latch.arrived() < n && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return latch.arrived();
}

// An idle worker joins a lone query's parallel phase. The approximate
// probe's reads pass; the first refinement read parks its reader, and
// only a second thread reading in the same phase, a helper, arrives as
// the second reader. The owner claims the first four survivors, so the
// collection is sized to leave a helper more.
TEST(QueryServiceTest, IdleWorkerJoinsALoneQuerysPhase) {
  const Dataset data = MakeData(2000, 37);
  const Dataset queries = MakeQueries(1, 37);
  const SeriesView query = queries.series(0);
  testsupport::ScopedTempDir dir("parisax_serve_helper");
  testsupport::LatchedSource* latch = nullptr;
  auto engine = BuildLatchedEngine(data, dir, &latch);
  ASSERT_NE(engine, nullptr);
  const size_t probe_reads = ProbeReads(engine.get(), *latch, query);
  InlineExecutor inline_exec;
  auto inline_answer = engine->Search(query, {}, &inline_exec);
  ASSERT_TRUE(inline_answer.ok()) << inline_answer.status().ToString();
  ASSERT_GT(inline_answer->stats.candidates, 8u);

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  auto service = QueryService::Create(engine.get(), sopts);
  ASSERT_TRUE(service.ok());

  latch->Arm(probe_reads);
  auto future = (*service)->Submit(query);
  EXPECT_EQ(WaitForReaders(*latch, 2), 2u);
  latch->ReleaseAll();

  auto response = future.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Neighbor oracle = BruteForceNn(InMemorySource(&data), query);
  EXPECT_EQ(response->neighbors[0].id, oracle.id);
  EXPECT_EQ(Bits(response->neighbors[0].distance_sq), Bits(oracle.distance_sq));
  const ServeStats stats = (*service)->stats();
  EXPECT_EQ(stats.ran_parallel, 1u);
  EXPECT_GE(stats.steals, 1u);
}

// A phase that throws fails only its query, whichever thread it threw
// on: both readers of a lone query's refinement, the owner and its
// helper, throw. The query answers kInternal, and the same two workers
// then answer the next query.
TEST(QueryServiceTest, AThrowingPhaseFailsOnlyItsQuery) {
  const Dataset data = MakeData(2000, 37);
  const Dataset queries = MakeQueries(1, 37);
  const SeriesView query = queries.series(0);
  testsupport::ScopedTempDir dir("parisax_serve_throw");
  testsupport::LatchedSource* latch = nullptr;
  auto engine = BuildLatchedEngine(data, dir, &latch);
  ASSERT_NE(engine, nullptr);
  const size_t probe_reads = ProbeReads(engine.get(), *latch, query);

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  auto service = QueryService::Create(engine.get(), sopts);
  ASSERT_TRUE(service.ok());

  latch->Arm(probe_reads);
  auto failing = (*service)->Submit(query);
  EXPECT_EQ(WaitForReaders(*latch, 2), 2u);
  latch->ReleaseAll(/*fail=*/true);
  const auto failed = failing.get();
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);

  auto next = (*service)->Submit(query).get();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->neighbors[0].id,
            BruteForceNn(InMemorySource(&data), query).id);
}

// kHigh jumps the whole queue, not one worker's share of it. Both
// workers are held on approximate queries while four more queue behind
// them, the last one high-priority; then one worker is released and
// drains the queue alone while the other stays held. Each query is a
// collection series whose approximate probe reads only that series, so
// the read log shows the order the worker took them in.
TEST(QueryServiceTest, HighPriorityJumpsTheWholeQueue) {
  const Dataset data = MakeData(300, 43);
  testsupport::ScopedTempDir dir("parisax_serve_priority");
  testsupport::LatchedSource* latch = nullptr;
  auto engine = BuildLatchedEngine(data, dir, &latch);
  ASSERT_NE(engine, nullptr);

  InlineExecutor inline_exec;
  SearchRequest approximate;
  approximate.approximate = true;
  std::vector<SeriesId> solo;  // series whose probe reads only them
  for (SeriesId id = 0; id < data.count() && solo.size() < 6; ++id) {
    const size_t before = latch->log().size();
    ASSERT_TRUE(
        engine->Search(data.series(id), approximate, &inline_exec).ok());
    const std::vector<SeriesId> log = latch->log();
    if (log.size() == before + 1 && log.back() == id) solo.push_back(id);
  }
  ASSERT_EQ(solo.size(), 6u);

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  auto service = QueryService::Create(engine.get(), sopts);
  ASSERT_TRUE(service.ok());

  latch->Arm(0);
  auto held = (*service)->Submit(data.series(solo[0]), approximate);
  latch->WaitArrived(1);
  auto draining = (*service)->Submit(data.series(solo[1]), approximate);
  latch->WaitArrived(2);
  std::vector<std::future<Result<SearchResponse>>> normal;
  for (size_t i = 2; i < 5; ++i) {
    normal.push_back((*service)->Submit(data.series(solo[i]), approximate));
  }
  SubmitOptions high;
  high.priority = QueryPriority::kHigh;
  auto urgent = (*service)->TrySubmit(data.series(solo[5]), approximate, high);
  ASSERT_TRUE(urgent.ok());
  EXPECT_EQ((*service)->stats().queued, 4u);

  const size_t mark = latch->log().size();
  latch->Release(1);
  EXPECT_TRUE(draining.get().ok());
  EXPECT_TRUE(urgent->get().ok());
  for (auto& future : normal) EXPECT_TRUE(future.get().ok());
  const std::vector<SeriesId> log = latch->log();
  latch->ReleaseAll();
  EXPECT_TRUE(held.get().ok());

  const std::vector<SeriesId> order(log.begin() + mark, log.end());
  const std::vector<SeriesId> expected = {solo[1], solo[5], solo[2],
                                          solo[3], solo[4]};
  EXPECT_EQ(order, expected);
}

// A storm of simultaneous Submits with mixed request types: ED 1-NN,
// kNN and DTW interleaved from many client threads.
TEST(QueryServiceTest, MixedRequestStormMatchesOracle) {
  const Dataset data = MakeData(1500, 11);
  const Dataset queries = MakeQueries(24, 11);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  QueryServiceOptions sopts;
  sopts.num_threads = 4;
  auto service = QueryService::Create(engine.get(), sopts);
  ASSERT_TRUE(service.ok());

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = c; q < queries.count(); q += kClients) {
        const SeriesView query = queries.series(q);
        SearchRequest request;
        Neighbor oracle;
        std::vector<Neighbor> oracle_knn;
        switch (q % 3) {
          case 0:  // ED 1-NN
            oracle = BruteForceNn(InMemorySource(&data), query);
            break;
          case 1:  // ED kNN
            request.k = 5;
            oracle_knn = BruteForceKnn(InMemorySource(&data), query, request.k);
            break;
          case 2:  // DTW 1-NN
            request.dtw = true;
            request.dtw_band = kDtwBand;
            oracle = BruteForceDtwNn(InMemorySource(&data), query, kDtwBand);
            break;
        }
        auto response = (*service)->Submit(query, request).get();
        if (!response.ok()) {
          ++failures;
          continue;
        }
        if (q % 3 == 1) {
          if (response->neighbors.size() != oracle_knn.size()) {
            ++failures;
            continue;
          }
          for (size_t i = 0; i < oracle_knn.size(); ++i) {
            if (response->neighbors[i].id != oracle_knn[i].id) ++failures;
          }
        } else {
          if (response->neighbors[0].id != oracle.id ||
              response->neighbors[0].distance_sq != oracle.distance_sq) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServeStats stats = (*service)->stats();
  EXPECT_EQ(stats.completed, queries.count());
}

// Mixed engines: MESSI, ParIS+ and ParIS services all answering storms
// in the same process, sharing nothing but the CPU.
TEST(QueryServiceTest, MixedEnginesServeConcurrently) {
  const Dataset data = MakeData(1200, 23);
  const Dataset queries = MakeQueries(18, 23);

  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(BuildEngine(data, Algorithm::kMessi));
  engines.push_back(BuildEngine(data, Algorithm::kParisPlus));
  engines.push_back(BuildEngine(data, Algorithm::kParis));
  for (const auto& engine : engines) ASSERT_NE(engine, nullptr);

  std::vector<Neighbor> oracles;
  for (size_t q = 0; q < queries.count(); ++q) {
    oracles.push_back(BruteForceNn(InMemorySource(&data), queries.series(q)));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (auto& engine : engines) {
    clients.emplace_back([&, e = engine.get()] {
      std::vector<std::future<Result<SearchResponse>>> futures;
      for (size_t q = 0; q < queries.count(); ++q) {
        futures.push_back(e->Submit(queries.series(q)));
      }
      for (size_t q = 0; q < futures.size(); ++q) {
        auto response = futures[q].get();
        if (!response.ok() ||
            response->neighbors[0].id != oracles[q].id ||
            response->neighbors[0].distance_sq != oracles[q].distance_sq) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Direct Engine::Search from many threads goes through the engine's
// service: the queries overlap instead of crashing (the pre-serve
// behaviour was an abort).
TEST(QueryServiceTest, DirectConcurrentEngineSearchIsSafe) {
  const Dataset data = MakeData(800, 31);
  const Dataset queries = MakeQueries(12, 31);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = c; q < queries.count(); q += 4) {
        auto response = engine->Search(queries.series(q));
        const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), queries.series(q));
        if (!response.ok() || response->neighbors[0].id != oracle.id) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Engine facade: SearchBatch and Submit lazily create one service.
TEST(QueryServiceTest, EngineFacadeBatchAndSubmit) {
  const Dataset data = MakeData(900, 41);
  const Dataset queries = MakeQueries(16, 41);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  std::vector<SeriesView> views;
  for (size_t q = 0; q < queries.count(); ++q) {
    views.push_back(queries.series(q));
  }
  auto responses = engine->SearchBatch(views);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), queries.count());
  for (size_t q = 0; q < queries.count(); ++q) {
    EXPECT_EQ((*responses)[q].neighbors[0].id,
              BruteForceNn(InMemorySource(&data), queries.series(q)).id);
  }

  auto future = engine->Submit(views[0]);
  auto response = future.get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->neighbors[0].id,
            BruteForceNn(InMemorySource(&data), views[0]).id);
  EXPECT_EQ(engine->query_service(), engine->query_service());
}

// Submitted queries are copied: the caller's buffer may die right after
// Submit returns.
TEST(QueryServiceTest, SubmitCopiesTheQuery) {
  const Dataset data = MakeData(600, 51);
  const Dataset queries = MakeQueries(1, 51);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  const Neighbor oracle =
      BruteForceNn(InMemorySource(&data), queries.series(0));
  std::future<Result<SearchResponse>> future;
  {
    std::vector<Value> ephemeral(queries.series(0).begin(),
                                 queries.series(0).end());
    future = engine->Submit(SeriesView(ephemeral.data(), ephemeral.size()));
    ephemeral.assign(ephemeral.size(), 0.0f);  // scribble before get()
  }
  auto response = future.get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->neighbors[0].id, oracle.id);
}

// Invalid requests surface per-query Status through the future without
// poisoning the service.
TEST(QueryServiceTest, PerQueryErrorsDoNotPoisonTheService) {
  const Dataset data = MakeData(500, 61);
  const Dataset queries = MakeQueries(2, 61);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  std::vector<Value> short_query(kLength / 2, 0.0f);
  auto bad = engine->Submit(
      SeriesView(short_query.data(), short_query.size()));
  EXPECT_FALSE(bad.get().ok());

  // k-NN under DTW is unimplemented and must say so, not silently
  // answer 1-NN.
  SearchRequest knn_dtw;
  knn_dtw.k = 3;
  knn_dtw.dtw = true;
  auto unsupported = engine->Submit(queries.series(0), knn_dtw);
  EXPECT_FALSE(unsupported.get().ok());

  auto good = engine->Submit(queries.series(0));
  auto response = good.get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->neighbors[0].id,
            BruteForceNn(InMemorySource(&data), queries.series(0)).id);
}

// Drain returns only after every outstanding query completed.
TEST(QueryServiceTest, DrainWaitsForOutstandingQueries) {
  const Dataset data = MakeData(1000, 71);
  const Dataset queries = MakeQueries(20, 71);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  auto service = QueryService::Create(engine.get(), sopts);
  ASSERT_TRUE(service.ok());

  std::vector<std::future<Result<SearchResponse>>> futures;
  for (size_t q = 0; q < queries.count(); ++q) {
    futures.push_back((*service)->Submit(queries.series(q)));
  }
  (*service)->Drain();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_EQ((*service)->stats().completed, queries.count());
}

}  // namespace
}  // namespace parisax
