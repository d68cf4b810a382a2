// Capability-table gap sweep: every capabilities()==false cell must
// come back as the documented typed Status — never a crash, a silent
// wrong answer, or an undifferentiated error — through both surfaces:
// Engine and the wire protocol. The expected
// Status for each probe is taken from CheckRequestAgainstCapabilities,
// the single shared gate, so this sweep fails if an implementation
// drifts from the documented table (docs/capabilities.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/generator.h"
#include "net/protocol.h"
#include "net/server.h"
#include "storm/wire_client.h"

namespace parisax {
namespace {

constexpr size_t kLength = 64;

Dataset MakeData(size_t count = 160, uint64_t seed = 97) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = kLength;
  gen.seed = seed;
  return GenerateDataset(gen);
}

SeriesView ProbeQuery() {
  static const Dataset* queries = new Dataset(
      GenerateQueries(DatasetKind::kRandomWalk, 1, kLength, 11));
  return queries->series(0);
}

EngineOptions BaseOptions(Algorithm algorithm) {
  EngineOptions o;
  o.algorithm = algorithm;
  o.num_threads = 2;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 32;
  return o;
}

struct GapProbe {
  std::string name;
  SearchRequest request;
};

/// One probe per false search-capability cell of `caps`. (The append
/// cell is probed separately — it is not a SearchRequest.)
std::vector<GapProbe> GapProbes(const EngineCapabilities& caps) {
  std::vector<GapProbe> probes;
  if (caps.max_k != SIZE_MAX) {
    SearchRequest r;
    r.k = caps.max_k + 1;
    probes.push_back({"k-beyond-max", r});
  }
  if (!caps.dtw) {
    SearchRequest r;
    r.dtw = true;
    probes.push_back({"dtw", r});
  }
  if (caps.dtw && caps.max_k >= 2) {
    // k > 1 under DTW is rejected everywhere; it is a *distinct* gap
    // only where dtw and k=2 are each individually legal.
    SearchRequest r;
    r.dtw = true;
    r.k = 2;
    probes.push_back({"dtw-knn", r});
  }
  return probes;
}

/// Every gap probe must fail with exactly the Status the shared
/// capability gate documents, and that Status must be kNotSupported.
void ExpectGapsTyped(Engine* engine) {
  const EngineCapabilities caps = engine->capabilities();
  for (const GapProbe& probe : GapProbes(caps)) {
    const Status want = CheckRequestAgainstCapabilities(
        caps, engine->series_length(), engine->algorithm_name(),
        ProbeQuery(), probe.request);
    ASSERT_FALSE(want.ok()) << engine->algorithm_name() << " " << probe.name;
    EXPECT_EQ(want.code(), StatusCode::kNotSupported)
        << engine->algorithm_name() << " " << probe.name;
    auto got = engine->Search(ProbeQuery(), probe.request);
    ASSERT_FALSE(got.ok()) << engine->algorithm_name() << " " << probe.name;
    EXPECT_EQ(got.status().code(), want.code())
        << engine->algorithm_name() << " " << probe.name << ": "
        << got.status().ToString();
  }
}

/// An engine whose capabilities say no appends must reject them typed.
void ExpectAppendGapTyped(Engine* engine) {
  if (engine->capabilities().append) return;
  const Dataset extra = MakeData(2, 41);
  auto report = engine->Append(extra);
  ASSERT_FALSE(report.ok()) << engine->algorithm_name();
  EXPECT_EQ(report.status().code(), StatusCode::kNotSupported)
      << engine->algorithm_name();
}

TEST(CapabilityGapTest, EngineEveryFalseCellIsTyped) {
  for (const Algorithm algorithm :
       {Algorithm::kParis, Algorithm::kParisPlus, Algorithm::kMessi}) {
    auto engine =
        Engine::Build(SourceSpec::InMemory(MakeData()), BaseOptions(algorithm));
    ASSERT_TRUE(engine.ok())
        << AlgorithmName(algorithm) << ": " << engine.status().ToString();
    ExpectGapsTyped(engine->get());
    ExpectAppendGapTyped(engine->get());
  }
}

TEST(CapabilityGapTest, BorrowedSourceNarrowsAppendToTypedRejection) {
  // Borrowed collections cannot grow, so append narrows to false even
  // for algorithms whose table row says true.
  const Dataset data = MakeData();
  auto engine = Engine::Build(SourceSpec::Borrowed(&data),
                              BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_FALSE((*engine)->capabilities().append);
  ExpectAppendGapTyped(engine->get());
}

// --- the wire surface -------------------------------------------------------

std::vector<Value> ProbeValues() {
  const SeriesView view = ProbeQuery();
  return std::vector<Value>(view.data(), view.data() + view.size());
}

/// Sends one query frame and expects a kError reply carrying the wire
/// mapping of kNotSupported, echoing the request id.
void ExpectWireNotSupported(uint16_t port, FrameType type,
                            const QueryFrame& frame) {
  storm::WireClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  ASSERT_TRUE(client.SendFrame(EncodeQueryFrame(type, frame)).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->header.type, FrameType::kError);
  auto error = DecodeErrorFrame(reply->body);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->request_id, frame.request_id);
  EXPECT_EQ(error->code, WireErrorFromStatus(Status::NotSupported("")));
}

TEST(CapabilityGapTest, WireRejectsMaxKAndDtwGapsTyped) {
  // ParIS carries both "k > max_k" and "no dtw" false cells.
  auto engine = Engine::Build(SourceSpec::InMemory(MakeData()),
                              BaseOptions(Algorithm::kParis));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto server = Server::Start(engine->get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  QueryFrame knn;
  knn.request_id = 21;
  knn.k = 2;
  knn.values = ProbeValues();
  ExpectWireNotSupported((*server)->port(), FrameType::kKnn, knn);

  QueryFrame dtw;
  dtw.request_id = 22;
  dtw.values = ProbeValues();
  ExpectWireNotSupported((*server)->port(), FrameType::kDtw, dtw);
}

TEST(CapabilityGapTest, WireRejectsAppendGapTyped) {
  // A borrowed collection cannot grow, so append is a false cell.
  const Dataset data = MakeData();
  auto engine = Engine::Build(SourceSpec::Borrowed(&data),
                              BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_FALSE((*engine)->capabilities().append);
  auto server = Server::Start(engine->get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  AppendFrame append;
  append.request_id = 24;
  append.count = 1;
  append.series_len = kLength;
  append.values = ProbeValues();
  storm::WireClient client;
  ASSERT_TRUE(client.Connect((*server)->port()).ok());
  ASSERT_TRUE(client.SendFrame(EncodeAppendFrame(append)).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->header.type, FrameType::kError);
  auto error = DecodeErrorFrame(reply->body);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->request_id, 24u);
  EXPECT_EQ(error->code, WireErrorFromStatus(Status::NotSupported("")));
}

TEST(CapabilityGapTest, WireCannotExpressDtwKnn) {
  // The k > 1 under DTW gap is unreachable over the wire by
  // construction: kDtw frames are served as 1-NN regardless of the
  // frame's k field, so a k>1 DTW request degrades to a legal query
  // instead of an error. Pin that mapping down so a protocol change
  // that opens the gap has to revisit this test.
  auto engine = Engine::Build(SourceSpec::InMemory(MakeData()),
                              BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto server = Server::Start(engine->get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  QueryFrame dtw_knn;
  dtw_knn.request_id = 25;
  dtw_knn.k = 3;  // ignored by the server for kDtw
  dtw_knn.values = ProbeValues();
  storm::WireClient client;
  ASSERT_TRUE(client.Connect((*server)->port()).ok());
  ASSERT_TRUE(
      client.SendFrame(EncodeQueryFrame(FrameType::kDtw, dtw_knn)).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->header.type, FrameType::kResult);
  auto result = DecodeResultFrame(reply->body);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->request_id, 25u);
  EXPECT_EQ(result->neighbors.size(), 1u);
}

}  // namespace
}  // namespace parisax
