// QueryService: concurrent multi-query execution must return exactly
// the answers the serial brute-force oracle returns, for every
// scheduling policy, under storms of simultaneous Submits with mixed
// request types (ED 1-NN, kNN, DTW) and mixed engines sharing one
// process. These tests are the ASan/UBSan matrix leg's main target.
#include <gtest/gtest.h>

#include <atomic>
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

TEST(QueryServiceTest, PolicyNamesRoundTrip) {
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kThroughput),
               "throughput");
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kLatency), "latency");
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kAuto), "auto");
}

TEST(QueryServiceTest, CreateRejectsBadOptions) {
  const Dataset data = MakeData(200, 1);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);
  QueryServiceOptions sopts;
  sopts.num_threads = 0;
  EXPECT_FALSE(QueryService::Create(engine.get(), sopts).ok());
  sopts.num_threads = 2;
  sopts.parallel_cost_threshold = 0.0;
  EXPECT_FALSE(QueryService::Create(engine.get(), sopts).ok());
  EXPECT_FALSE(QueryService::Create(nullptr, QueryServiceOptions{}).ok());
}

// Every policy must produce oracle-exact answers for a batch.
TEST(QueryServiceTest, BatchMatchesOracleUnderEveryPolicy) {
  const Dataset data = MakeData(2000, 7);
  const Dataset queries = MakeQueries(32, 7);
  auto engine = BuildEngine(data, Algorithm::kMessi);
  ASSERT_NE(engine, nullptr);

  std::vector<SeriesView> views;
  for (size_t q = 0; q < queries.count(); ++q) {
    views.push_back(queries.series(q));
  }

  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kThroughput, SchedulingPolicy::kLatency,
        SchedulingPolicy::kAuto}) {
    QueryServiceOptions sopts;
    sopts.num_threads = 4;
    sopts.policy = policy;
    auto service = QueryService::Create(engine.get(), sopts);
    ASSERT_TRUE(service.ok());

    auto responses = (*service)->SearchBatch(views);
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    ASSERT_EQ(responses->size(), queries.count());
    for (size_t q = 0; q < queries.count(); ++q) {
      const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), queries.series(q));
      EXPECT_EQ((*responses)[q].neighbors[0].id, oracle.id)
          << SchedulingPolicyName(policy) << " query " << q;
      EXPECT_FLOAT_EQ((*responses)[q].neighbors[0].distance_sq,
                      oracle.distance_sq);
    }
    const ServeStats stats = (*service)->stats();
    EXPECT_EQ(stats.submitted, queries.count());
    EXPECT_EQ(stats.completed, queries.count());
    if (policy == SchedulingPolicy::kThroughput) {
      EXPECT_EQ(stats.ran_parallel, 0u);
    }
    if (policy == SchedulingPolicy::kLatency) {
      EXPECT_EQ(stats.ran_inline, 0u);
    }
  }
}

// kAuto takes the parallel path only for a query that is alone in the
// service. The first query starts alone and parks inside the engine; a
// second expensive query submitted while it is still executing finds
// the deques empty but one query in flight, so it must run inline
// instead of queueing on the engine's pool. The latch opens only once
// both queries are executing, so each decision sees a fixed state.
// ParIS+ over the latched (streamed) source reads its approximate
// leaf's series through GetSeries on the query's own thread, before
// any fan-out, so each query parks exactly one reader.
TEST(QueryServiceTest, AutoGoesParallelOnlyForALoneQuery) {
  const Dataset data = MakeData(300, 29);
  const Dataset queries = MakeQueries(2, 29);
  auto latched = std::make_unique<testsupport::LatchedSource>(
      std::make_unique<InMemorySource>(&data), /*readers=*/2);
  const testsupport::LatchedSource* latch = latched.get();
  testsupport::ScopedTempDir dir("parisax_serve");
  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.num_threads = 2;
  options.leaf_storage_path = dir.Path("latched.leaves");
  auto engine = Engine::Build(SourceSpec::Custom(std::move(latched)), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  QueryServiceOptions sopts;
  sopts.num_threads = 2;
  sopts.policy = SchedulingPolicy::kAuto;
  sopts.parallel_cost_threshold = 1.0;  // every exact query clears it
  auto service = QueryService::Create(engine->get(), sopts);
  ASSERT_TRUE(service.ok());

  auto first = (*service)->Submit(queries.series(0));
  latch->WaitParked(1);
  auto second = (*service)->Submit(queries.series(1));
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

// Direct Engine::Search from many threads must serialize on the pool
// instead of crashing (the pre-serve behaviour was an abort).
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
