// The serving front end: frame codec roundtrips and malformed-input
// fuzz (typed errors, never crashes), deadline and admission-control
// semantics at the query-service layer, and end-to-end parisax_server
// behaviour over real sockets — pipelined ordering, append + query +
// stats storms, overload rejections, and oracle-exact answers.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "index/raw_source.h"
#include "io/generator.h"
#include "net/protocol.h"
#include "net/server.h"
#include "scan/ucr_scan.h"
#include "serve/query_service.h"
#include "util/cancellation.h"

namespace parisax {
namespace {

constexpr size_t kLength = 64;

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

// --- codec -----------------------------------------------------------------

TEST(ProtocolTest, FrameHeaderRoundTrip) {
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(FrameType::kQuery, 1234, buf);
  auto header = DecodeFrameHeader(buf);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kQuery);
  EXPECT_EQ(header->body_len, 1234u);
  EXPECT_EQ(header->version, kProtocolVersion);
}

TEST(ProtocolTest, FrameHeaderRejectsBadMagicVersionAndOversize) {
  uint8_t buf[kFrameHeaderSize];
  EncodeFrameHeader(FrameType::kQuery, 8, buf);
  buf[0] = 'X';  // corrupt the magic
  auto bad_magic = DecodeFrameHeader(buf);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.status().message().find("magic"), std::string::npos);

  EncodeFrameHeader(FrameType::kQuery, 8, buf);
  buf[4] = kProtocolVersion + 1;
  auto bad_version = DecodeFrameHeader(buf);
  ASSERT_FALSE(bad_version.ok());
  EXPECT_NE(bad_version.status().message().find("version"),
            std::string::npos);

  EncodeFrameHeader(FrameType::kQuery, 8, buf);
  const uint32_t huge = kMaxBodyLen + 1;
  std::memcpy(buf + 8, &huge, sizeof(huge));
  auto oversize = DecodeFrameHeader(buf);
  ASSERT_FALSE(oversize.ok());
  EXPECT_NE(oversize.status().message().find("exceeds"), std::string::npos);
}

TEST(ProtocolTest, AllBodiesRoundTrip) {
  QueryFrame q;
  q.request_id = 42;
  q.k = 5;
  q.dtw_band = 7;
  q.approximate = true;
  q.high_priority = true;
  q.timeout_us = 123456;
  q.values = {1.0f, -2.5f, 3.25f};
  const auto qf = EncodeQueryFrame(FrameType::kKnn, q);
  auto qd = DecodeQueryFrame(
      std::span<const uint8_t>(qf.data() + kFrameHeaderSize,
                               qf.size() - kFrameHeaderSize));
  ASSERT_TRUE(qd.ok());
  EXPECT_EQ(qd->request_id, 42u);
  EXPECT_EQ(qd->k, 5u);
  EXPECT_EQ(qd->dtw_band, 7u);
  EXPECT_TRUE(qd->approximate);
  EXPECT_TRUE(qd->high_priority);
  EXPECT_EQ(qd->timeout_us, 123456u);
  EXPECT_EQ(qd->values, q.values);

  AppendFrame a;
  a.request_id = 7;
  a.count = 2;
  a.series_len = 3;
  a.values = {1, 2, 3, 4, 5, 6};
  const auto af = EncodeAppendFrame(a);
  auto ad = DecodeAppendFrame(
      std::span<const uint8_t>(af.data() + kFrameHeaderSize,
                               af.size() - kFrameHeaderSize));
  ASSERT_TRUE(ad.ok());
  EXPECT_EQ(ad->count, 2u);
  EXPECT_EQ(ad->series_len, 3u);
  EXPECT_EQ(ad->values, a.values);

  const auto pf = EncodePlainRequest(FrameType::kStats, 11);
  auto pd = DecodePlainRequest(
      std::span<const uint8_t>(pf.data() + kFrameHeaderSize,
                               pf.size() - kFrameHeaderSize));
  ASSERT_TRUE(pd.ok());
  EXPECT_EQ(*pd, 11u);

  ResultFrame r;
  r.request_id = 9;
  r.neighbors = {{3, 1.5f}, {8, 2.5f}};
  const auto rf = EncodeResultFrame(r);
  auto rd = DecodeResultFrame(
      std::span<const uint8_t>(rf.data() + kFrameHeaderSize,
                               rf.size() - kFrameHeaderSize));
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd->neighbors.size(), 2u);
  EXPECT_EQ(rd->neighbors[1].id, 8u);
  EXPECT_FLOAT_EQ(rd->neighbors[1].distance_sq, 2.5f);

  const auto okf = EncodeAppendOkFrame(AppendOkFrame{5, 1000, 3});
  auto okd = DecodeAppendOkFrame(
      std::span<const uint8_t>(okf.data() + kFrameHeaderSize,
                               okf.size() - kFrameHeaderSize));
  ASSERT_TRUE(okd.ok());
  EXPECT_EQ(okd->total_series, 1000u);
  EXPECT_EQ(okd->append_epoch, 3u);

  const auto sf = EncodeStatsTextFrame(StatsTextFrame{6, "metric 1\n"});
  auto sd = DecodeStatsTextFrame(
      std::span<const uint8_t>(sf.data() + kFrameHeaderSize,
                               sf.size() - kFrameHeaderSize));
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->text, "metric 1\n");

  const auto hf = EncodeHealthOkFrame(HealthOkFrame{2, 777, 64, "messi"});
  auto hd = DecodeHealthOkFrame(
      std::span<const uint8_t>(hf.data() + kFrameHeaderSize,
                               hf.size() - kFrameHeaderSize));
  ASSERT_TRUE(hd.ok());
  EXPECT_EQ(hd->series_count, 777u);
  EXPECT_EQ(hd->algorithm, "messi");

  const auto ef = EncodeErrorFrame(
      ErrorFrame{1, WireError::kOverloaded, "busy"});
  auto ed = DecodeErrorFrame(
      std::span<const uint8_t>(ef.data() + kFrameHeaderSize,
                               ef.size() - kFrameHeaderSize));
  ASSERT_TRUE(ed.ok());
  EXPECT_EQ(ed->code, WireError::kOverloaded);
  EXPECT_EQ(ed->message, "busy");
}

// Every strict prefix of every valid body must decode to a typed error,
// never crash or succeed.
TEST(ProtocolTest, TruncatedBodiesAreTypedErrors) {
  QueryFrame q;
  q.request_id = 1;
  q.values = {1.0f, 2.0f, 3.0f, 4.0f};
  AppendFrame a;
  a.request_id = 2;
  a.count = 1;
  a.series_len = 4;
  a.values = {1, 2, 3, 4};
  const std::vector<std::vector<uint8_t>> frames = {
      EncodeQueryFrame(FrameType::kQuery, q),
      EncodeAppendFrame(a),
      EncodePlainRequest(FrameType::kStats, 3),
      EncodeResultFrame(ResultFrame{4, {{1, 1.0f}}}),
      EncodeAppendOkFrame(AppendOkFrame{5, 10, 1}),
      EncodeStatsTextFrame(StatsTextFrame{6, "x"}),
      EncodeHealthOkFrame(HealthOkFrame{7, 1, 4, "messi"}),
      EncodeErrorFrame(ErrorFrame{8, WireError::kUnknown, "m"}),
  };
  for (size_t f = 0; f < frames.size(); ++f) {
    const size_t body_len = frames[f].size() - kFrameHeaderSize;
    const uint8_t* body = frames[f].data() + kFrameHeaderSize;
    for (size_t cut = 0; cut < body_len; ++cut) {
      const std::span<const uint8_t> prefix(body, cut);
      EXPECT_FALSE(DecodeQueryFrame(prefix).ok() &&
                   DecodeAppendFrame(prefix).ok())
          << "frame " << f << " cut " << cut;
      switch (f) {
        case 0:
          EXPECT_FALSE(DecodeQueryFrame(prefix).ok());
          break;
        case 1:
          EXPECT_FALSE(DecodeAppendFrame(prefix).ok());
          break;
        case 2:
          EXPECT_FALSE(DecodePlainRequest(prefix).ok());
          break;
        case 3:
          EXPECT_FALSE(DecodeResultFrame(prefix).ok());
          break;
        case 4:
          EXPECT_FALSE(DecodeAppendOkFrame(prefix).ok());
          break;
        case 5:
          // The stats text runs to the end of the body, so any prefix
          // holding the full request id is a valid shorter-text frame;
          // only a truncated id must fail.
          if (cut < sizeof(uint64_t)) {
            EXPECT_FALSE(DecodeStatsTextFrame(prefix).ok());
          }
          break;
        case 6:
          EXPECT_FALSE(DecodeHealthOkFrame(prefix).ok());
          break;
        case 7:
          EXPECT_FALSE(DecodeErrorFrame(prefix).ok());
          break;
      }
    }
  }
}

// Random bytes through every decoder: typed Status or success, never a
// crash, and declared lengths never read past the buffer (ASan leg).
TEST(ProtocolTest, RandomBytesNeverCrashDecoders) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> len(0, 96);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> junk(len(rng));
    for (auto& b : junk) b = static_cast<uint8_t>(byte(rng));
    const std::span<const uint8_t> body(junk.data(), junk.size());
    (void)DecodeQueryFrame(body);
    (void)DecodeAppendFrame(body);
    (void)DecodePlainRequest(body);
    (void)DecodeResultFrame(body);
    (void)DecodeAppendOkFrame(body);
    (void)DecodeStatsTextFrame(body);
    (void)DecodeHealthOkFrame(body);
    (void)DecodeErrorFrame(body);
    if (junk.size() >= kFrameHeaderSize) (void)DecodeFrameHeader(junk.data());
  }
}

TEST(ProtocolTest, WireErrorFromStatusMapsTypedFailures) {
  EXPECT_EQ(WireErrorFromStatus(Status::DeadlineExceeded("x")),
            WireError::kDeadlineExceeded);
  EXPECT_EQ(WireErrorFromStatus(Status::Overloaded("x")),
            WireError::kOverloaded);
  EXPECT_EQ(WireErrorFromStatus(Status::InvalidArgument("x")),
            WireError::kInvalidArgument);
  EXPECT_EQ(WireErrorFromStatus(Status::NotSupported("x")),
            WireError::kNotSupported);
  EXPECT_STREQ(WireErrorName(WireError::kOverloaded), "overloaded");
  EXPECT_STREQ(WireErrorName(WireError::kDeadlineExceeded),
               "deadline_exceeded");
}

// --- cancellation / deadlines ----------------------------------------------

TEST(CancellationTest, TokenExpiresAndLatches) {
  CancellationToken no_deadline;
  EXPECT_FALSE(no_deadline.Expired());

  CancellationToken expired =
      CancellationToken::After(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(expired.Expired());
  EXPECT_TRUE(expired.Expired());  // latched

  CancellationToken far =
      CancellationToken::After(std::chrono::hours(24));
  EXPECT_FALSE(far.Expired());
  far.Cancel();
  EXPECT_TRUE(far.Expired());

  EXPECT_FALSE(Expired(static_cast<const CancellationToken*>(nullptr)));
}

// A pre-expired token must yield kDeadlineExceeded from every index
// engine, not a partial answer.
TEST(CancellationTest, EngineSearchHonorsExpiredToken) {
  const Dataset data = MakeData(1200, 3);
  const Dataset queries = MakeQueries(2, 3);
  for (const Algorithm algorithm :
       {Algorithm::kMessi, Algorithm::kParisPlus}) {
    EngineOptions options;
    options.algorithm = algorithm;
    options.num_threads = 2;
    options.tree.segments = 8;
    options.tree.leaf_capacity = 32;
    auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    const CancellationToken expired =
        CancellationToken::After(std::chrono::nanoseconds(-1));
    SearchRequest request;
    request.cancel = &expired;
    auto response = (*engine)->Search(queries.series(0), request);
    ASSERT_FALSE(response.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);

    // Without the token the same query answers normally.
    auto fine = (*engine)->Search(queries.series(0));
    EXPECT_TRUE(fine.ok());
  }
}

// --- admission control -----------------------------------------------------

TEST(AdmissionTest, TrySubmitRejectsOverCapWithTypedError) {
  const Dataset data = MakeData(4000, 13);
  const Dataset queries = MakeQueries(8, 13);
  EngineOptions options;
  options.num_threads = 2;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  ASSERT_TRUE(engine.ok());

  QueryServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.max_inflight = 2;
  auto service = QueryService::Create(engine->get(), sopts);
  ASSERT_TRUE(service.ok());

  // Back-to-back submission is orders of magnitude faster than query
  // execution on one worker, so the cap must trip.
  std::vector<std::future<Result<SearchResponse>>> accepted;
  size_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    auto r = (*service)->TrySubmit(queries.series(i % queries.count()));
    if (r.ok()) {
      accepted.push_back(std::move(*r));
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kOverloaded);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  for (auto& f : accepted) EXPECT_TRUE(f.get().ok());

  const ServeStats stats = (*service)->stats();
  EXPECT_EQ(stats.rejected_overload, rejected);
  EXPECT_LE(stats.peak_inflight, 2u);
  EXPECT_EQ(stats.submitted, accepted.size());
  EXPECT_EQ(stats.completed, accepted.size());
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(AdmissionTest, QueuedQueryPastDeadlineAnswersTyped) {
  const Dataset data = MakeData(4000, 17);
  const Dataset queries = MakeQueries(4, 17);
  EngineOptions options;
  options.num_threads = 2;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  ASSERT_TRUE(engine.ok());

  QueryServiceOptions sopts;
  sopts.num_threads = 1;
  auto service = QueryService::Create(engine->get(), sopts);
  ASSERT_TRUE(service.ok());

  // Occupy the single worker, then queue queries whose 1ns deadlines
  // are long gone by dequeue time.
  auto slow = (*service)->Submit(queries.series(0));
  SubmitOptions submit;
  submit.timeout = std::chrono::nanoseconds(1);
  std::vector<std::future<Result<SearchResponse>>> doomed;
  for (int i = 0; i < 4; ++i) {
    auto r = (*service)->TrySubmit(queries.series(1), {}, submit);
    ASSERT_TRUE(r.ok());
    doomed.push_back(std::move(*r));
  }
  // An expired request the engine would refuse anyway answers with the
  // admission rule's typed rejection, not with the deadline.
  SearchRequest dtw_knn;
  dtw_knn.dtw = true;
  dtw_knn.k = 2;
  auto unsupported = (*service)->TrySubmit(queries.series(2), dtw_knn, submit);
  ASSERT_TRUE(unsupported.ok());
  EXPECT_TRUE(slow.get().ok());
  for (auto& f : doomed) {
    auto response = f.get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  }
  auto refused = unsupported->get();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kNotSupported);
  const ServeStats stats = (*service)->stats();
  EXPECT_EQ(stats.expired_in_queue, doomed.size());
  EXPECT_EQ(stats.completed, doomed.size() + 2);
}

// --- end-to-end server -----------------------------------------------------

/// A minimal blocking protocol client over a real socket.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void SendRaw(const void* data, size_t n) {
    ASSERT_EQ(::send(fd_, data, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }
  void SendFrame(const std::vector<uint8_t>& frame) {
    SendRaw(frame.data(), frame.size());
  }

  /// Reads one frame; fails the test on EOF or a malformed header.
  void ReadFrame(FrameHeader* header, std::vector<uint8_t>* body) {
    uint8_t hdr[kFrameHeaderSize];
    ASSERT_TRUE(ReadFull(hdr, kFrameHeaderSize)) << "EOF reading header";
    auto decoded = DecodeFrameHeader(hdr);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    *header = *decoded;
    body->resize(decoded->body_len);
    if (!body->empty()) {
      ASSERT_TRUE(ReadFull(body->data(), body->size()))
          << "EOF reading body";
    }
  }

  /// True when the peer has closed (clean EOF).
  bool ReadEof() {
    uint8_t b;
    return ::recv(fd_, &b, 1, 0) == 0;
  }

 private:
  bool ReadFull(uint8_t* buf, size_t n) {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

struct ServerFixture {
  Dataset oracle;  // mirror of the served collection
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
};

/// Serves `count` series over one MESSI engine that receives them in
/// `pieces` parts -- built over the first, the rest appended -- so it
/// serves the collection from `pieces` index segments (the background
/// compactor waits for eight). `oracle` stays an exact
/// client-side mirror (Dataset::Append keeps it in lockstep after wire
/// appends).
ServerFixture StartServer(size_t count, uint64_t seed, size_t pieces,
                          ServerOptions sopts = {}) {
  ServerFixture fx;
  fx.oracle = MakeData(count, seed);
  EngineOptions eopts;
  eopts.num_threads = 2;
  eopts.tree.segments = 8;
  eopts.tree.leaf_capacity = 32;
  // Rows [first, first + n) of the collection as their own dataset.
  auto rows = [&fx](size_t first, size_t n) {
    Dataset out(n, fx.oracle.length());
    for (size_t i = 0; i < n; ++i) {
      const SeriesView src = fx.oracle.series(first + i);
      std::copy(src.begin(), src.end(), out.mutable_series(i).begin());
    }
    return out;
  };
  const size_t part = count / pieces;
  size_t first = count - part * (pieces - 1);
  auto engine = Engine::Build(SourceSpec::InMemory(rows(0, first)), eopts);
  if (!engine.ok()) {
    ADD_FAILURE() << engine.status().ToString();
    return fx;
  }
  fx.engine = std::move(*engine);
  for (; first < count; first += part) {
    auto report = fx.engine->Append(rows(first, part));
    if (!report.ok()) {
      ADD_FAILURE() << report.status().ToString();
      return fx;
    }
  }
  EXPECT_EQ(fx.engine->segmented_index()->serving()->segments.size(),
            pieces - 1);
  auto server = Server::Start(fx.engine.get(), sopts);
  if (!server.ok()) {
    ADD_FAILURE() << server.status().ToString();
    return fx;
  }
  fx.server = std::move(*server);
  return fx;
}

/// The live-server suite runs identically over a collection served
/// from one segment and from four: same frames, same oracle-exact
/// answers. (The suite and case names date from when the four pieces
/// were four engines behind a router.)
class ServerShardTest : public ::testing::TestWithParam<size_t> {};

QueryFrame WireQuery(uint64_t request_id, SeriesView query) {
  QueryFrame q;
  q.request_id = request_id;
  q.values.assign(query.begin(), query.end());
  return q;
}

TEST_P(ServerShardTest, AnswersMixedQueriesExactly) {
  ServerFixture fx = StartServer(2000, 101, GetParam());
  ASSERT_NE(fx.server, nullptr);
  const Dataset queries = MakeQueries(9, 101);

  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());

  for (size_t q = 0; q < queries.count(); ++q) {
    QueryFrame wire = WireQuery(1000 + q, queries.series(q));
    FrameType type = FrameType::kQuery;
    std::vector<Neighbor> expect;
    switch (q % 3) {
      case 0:
        expect = {BruteForceNn(InMemorySource(&fx.oracle),
                               queries.series(q))};
        break;
      case 1:
        type = FrameType::kKnn;
        wire.k = 5;
        expect = BruteForceKnn(InMemorySource(&fx.oracle),
                               queries.series(q), 5);
        break;
      case 2:
        type = FrameType::kDtw;
        wire.dtw_band = 6;
        expect = {BruteForceDtwNn(InMemorySource(&fx.oracle),
                                  queries.series(q), 6)};
        break;
    }
    client.SendFrame(EncodeQueryFrame(type, wire));

    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    ASSERT_EQ(header.type, FrameType::kResult) << "query " << q;
    auto result = DecodeResultFrame(body);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->request_id, 1000 + q);
    ASSERT_EQ(result->neighbors.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(result->neighbors[i].id, expect[i].id)
          << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(result->neighbors[i].distance_sq,
                      expect[i].distance_sq);
    }
  }
}

TEST_P(ServerShardTest, AppendsThenServesGrownCollection) {
  ServerFixture fx = StartServer(1000, 103, GetParam());
  ASSERT_NE(fx.server, nullptr);
  const Dataset extra = MakeData(50, 9103);

  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());

  AppendFrame append;
  append.request_id = 1;
  append.count = static_cast<uint32_t>(extra.count());
  append.series_len = static_cast<uint32_t>(extra.length());
  append.values.assign(extra.raw(), extra.raw() + extra.TotalValues());
  client.SendFrame(EncodeAppendFrame(append));
  fx.oracle.Append(extra.raw(), extra.count());

  FrameHeader header;
  std::vector<uint8_t> body;
  client.ReadFrame(&header, &body);
  ASSERT_EQ(header.type, FrameType::kAppendOk);
  auto ok = DecodeAppendOkFrame(body);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->total_series, 1050u);
  EXPECT_GE(ok->append_epoch, 1u);

  // Query one of the appended series verbatim: the nearest neighbor
  // must be that series at distance 0.
  const SeriesId target = 1000 + 7;
  client.SendFrame(EncodeQueryFrame(
      FrameType::kQuery, WireQuery(2, fx.oracle.series(target))));
  client.ReadFrame(&header, &body);
  ASSERT_EQ(header.type, FrameType::kResult);
  auto result = DecodeResultFrame(body);
  ASSERT_TRUE(result.ok());
  const Neighbor oracle =
      BruteForceNn(InMemorySource(&fx.oracle), fx.oracle.series(target));
  EXPECT_EQ(result->neighbors[0].id, oracle.id);
  EXPECT_FLOAT_EQ(result->neighbors[0].distance_sq, oracle.distance_sq);
  EXPECT_FLOAT_EQ(result->neighbors[0].distance_sq, 0.0f);
}

TEST_P(ServerShardTest, StatsAndHealthAnswer) {
  ServerFixture fx = StartServer(600, 107, GetParam());
  ASSERT_NE(fx.server, nullptr);

  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());

  client.SendFrame(EncodePlainRequest(FrameType::kHealth, 5));
  FrameHeader header;
  std::vector<uint8_t> body;
  client.ReadFrame(&header, &body);
  ASSERT_EQ(header.type, FrameType::kHealthOk);
  auto health = DecodeHealthOkFrame(body);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->request_id, 5u);
  EXPECT_EQ(health->series_count, 600u);
  EXPECT_EQ(health->series_length, kLength);
  EXPECT_EQ(health->algorithm, "messi");

  client.SendFrame(EncodePlainRequest(FrameType::kStats, 6));
  client.ReadFrame(&header, &body);
  ASSERT_EQ(header.type, FrameType::kStatsText);
  auto stats = DecodeStatsTextFrame(body);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->text.find("# TYPE parisax_requests_total counter"),
            std::string::npos);
  EXPECT_NE(stats->text.find("parisax_series_count 600"),
            std::string::npos);
  EXPECT_NE(stats->text.find("parisax_request_seconds_bucket"),
            std::string::npos);
}

TEST_P(ServerShardTest, MalformedFramesGetTypedErrors) {
  ServerFixture fx = StartServer(500, 109, GetParam());
  ASSERT_NE(fx.server, nullptr);

  {  // bad magic: one error frame, then close — the stream cannot resync
    TestClient client(fx.server->port());
    ASSERT_TRUE(client.connected());
    const uint8_t junk[kFrameHeaderSize] = {'X', 'X', 'X', 'X'};
    client.SendRaw(junk, sizeof(junk));
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    ASSERT_EQ(header.type, FrameType::kError);
    auto error = DecodeErrorFrame(body);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, WireError::kBadFrame);
    EXPECT_TRUE(client.ReadEof());
  }
  {  // future protocol version
    TestClient client(fx.server->port());
    ASSERT_TRUE(client.connected());
    uint8_t hdr[kFrameHeaderSize];
    EncodeFrameHeader(FrameType::kHealth, 8, hdr);
    hdr[4] = kProtocolVersion + 1;
    client.SendRaw(hdr, sizeof(hdr));
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    auto error = DecodeErrorFrame(body);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, WireError::kBadVersion);
    EXPECT_TRUE(client.ReadEof());
  }
  {  // oversized body announcement: rejected before any allocation
    TestClient client(fx.server->port());
    ASSERT_TRUE(client.connected());
    uint8_t hdr[kFrameHeaderSize];
    EncodeFrameHeader(FrameType::kQuery, 8, hdr);
    const uint32_t huge = kMaxBodyLen + 1;
    std::memcpy(hdr + 8, &huge, sizeof(huge));
    client.SendRaw(hdr, sizeof(hdr));
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    auto error = DecodeErrorFrame(body);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, WireError::kFrameTooLarge);
    EXPECT_TRUE(client.ReadEof());
  }
  {  // body that does not match its type: typed error, connection lives
    TestClient client(fx.server->port());
    ASSERT_TRUE(client.connected());
    QueryFrame q;
    q.request_id = 9;
    q.values.assign(kLength, 0.0f);
    auto frame = EncodeQueryFrame(FrameType::kQuery, q);
    frame.resize(frame.size() - 40);  // truncate the body...
    const uint32_t short_len =
        static_cast<uint32_t>(frame.size() - kFrameHeaderSize);
    std::memcpy(frame.data() + 8, &short_len, sizeof(short_len));
    client.SendFrame(frame);
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    ASSERT_EQ(header.type, FrameType::kError);
    auto error = DecodeErrorFrame(body);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, WireError::kBadFrame);
    // The request-id prefix survived the truncation, so the error
    // echoes it — pipelined clients can tell which request died.
    EXPECT_EQ(error->request_id, 9u);

    client.SendFrame(EncodePlainRequest(FrameType::kHealth, 10));
    client.ReadFrame(&header, &body);
    EXPECT_EQ(header.type, FrameType::kHealthOk);
  }
  {  // unknown request type: typed error, connection lives
    TestClient client(fx.server->port());
    ASSERT_TRUE(client.connected());
    auto frame = EncodePlainRequest(FrameType::kHealth, 11);
    frame[5] = 0x55;
    client.SendFrame(frame);
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    ASSERT_EQ(header.type, FrameType::kError);
    auto error = DecodeErrorFrame(body);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, WireError::kBadFrame);
    client.SendFrame(EncodePlainRequest(FrameType::kHealth, 12));
    client.ReadFrame(&header, &body);
    EXPECT_EQ(header.type, FrameType::kHealthOk);
  }
}

// An overload storm must yield typed kOverloaded rejections, responses
// for every request in order, an in-flight count that never exceeds the
// cap — and oracle-exact answers once the storm passes.
TEST_P(ServerShardTest, OverloadStormRejectsTypedThenRecovers) {
  ServerOptions sopts;
  sopts.serve_threads = 1;
  sopts.max_inflight = 2;
  ServerFixture fx = StartServer(4000, 113, GetParam(), sopts);
  ASSERT_NE(fx.server, nullptr);
  const Dataset queries = MakeQueries(8, 113);

  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());

  constexpr int kStorm = 64;
  for (int i = 0; i < kStorm; ++i) {
    client.SendFrame(EncodeQueryFrame(
        FrameType::kQuery,
        WireQuery(i, queries.series(i % queries.count()))));
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kStorm; ++i) {
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    if (header.type == FrameType::kResult) {
      auto result = DecodeResultFrame(body);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->request_id, static_cast<uint64_t>(i));
      ++ok;
    } else {
      ASSERT_EQ(header.type, FrameType::kError);
      auto error = DecodeErrorFrame(body);
      ASSERT_TRUE(error.ok());
      EXPECT_EQ(error->code, WireError::kOverloaded);
      EXPECT_EQ(error->request_id, static_cast<uint64_t>(i));
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kStorm);
  EXPECT_GE(overloaded, 1);
  EXPECT_GE(ok, 1);  // accepted work still completed
  const ServeStats stats = fx.server->query_service()->stats();
  EXPECT_LE(stats.peak_inflight, 2u);
  EXPECT_EQ(stats.rejected_overload, static_cast<uint64_t>(overloaded));

  // Settled phase: the same connection now gets oracle-exact answers.
  for (size_t q = 0; q < queries.count(); ++q) {
    client.SendFrame(EncodeQueryFrame(
        FrameType::kQuery, WireQuery(500 + q, queries.series(q))));
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    ASSERT_EQ(header.type, FrameType::kResult);
    auto result = DecodeResultFrame(body);
    ASSERT_TRUE(result.ok());
    const Neighbor oracle =
        BruteForceNn(InMemorySource(&fx.oracle), queries.series(q));
    EXPECT_EQ(result->neighbors[0].id, oracle.id);
    EXPECT_FLOAT_EQ(result->neighbors[0].distance_sq, oracle.distance_sq);
  }
}

// Queries carrying microsecond deadlines through a saturated
// single-worker server must answer deadline_exceeded, not hang or
// crash; an undeadlined query afterwards succeeds.
TEST_P(ServerShardTest, WireDeadlinesAnswerTyped) {
  ServerOptions sopts;
  sopts.serve_threads = 1;
  ServerFixture fx = StartServer(4000, 127, GetParam(), sopts);
  ASSERT_NE(fx.server, nullptr);
  const Dataset queries = MakeQueries(4, 127);

  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());

  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    QueryFrame wire = WireQuery(i, queries.series(i % queries.count()));
    wire.timeout_us = 1;
    client.SendFrame(EncodeQueryFrame(FrameType::kQuery, wire));
  }
  int expired = 0, answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    if (header.type == FrameType::kError) {
      auto error = DecodeErrorFrame(body);
      ASSERT_TRUE(error.ok());
      EXPECT_EQ(error->code, WireError::kDeadlineExceeded);
      ++expired;
    } else {
      ASSERT_EQ(header.type, FrameType::kResult);
      ++answered;
    }
  }
  EXPECT_EQ(expired + answered, kBurst);
  EXPECT_GE(expired, 1);  // 1us cannot survive the queue

  QueryFrame fine = WireQuery(99, queries.series(0));
  client.SendFrame(EncodeQueryFrame(FrameType::kQuery, fine));
  FrameHeader header;
  std::vector<uint8_t> body;
  client.ReadFrame(&header, &body);
  EXPECT_EQ(header.type, FrameType::kResult);
}

// The acceptance storm: concurrent query, append and stats clients on
// separate connections. Zero crashes, every response well-formed, and
// settled-phase answers byte-identical to the brute-force oracle over
// the grown collection.
TEST_P(ServerShardTest, ConcurrentQueryAppendStatsStorm) {
  ServerOptions sopts;
  sopts.serve_threads = 2;
  sopts.max_inflight = 16;
  ServerFixture fx = StartServer(1500, 131, GetParam(), sopts);
  ASSERT_NE(fx.server, nullptr);
  const Dataset queries = MakeQueries(12, 131);
  const Dataset extra = MakeData(60, 9131);

  std::atomic<int> malformed{0};
  std::vector<std::thread> clients;

  for (int c = 0; c < 3; ++c) {  // query storm
    clients.emplace_back([&, c] {
      TestClient client(fx.server->port());
      if (!client.connected()) {
        ++malformed;
        return;
      }
      for (int i = 0; i < 40; ++i) {
        client.SendFrame(EncodeQueryFrame(
            FrameType::kQuery,
            WireQuery(c * 1000 + i,
                      queries.series((c + i) % queries.count()))));
        FrameHeader header;
        std::vector<uint8_t> body;
        client.ReadFrame(&header, &body);
        if (header.type == FrameType::kResult) {
          if (!DecodeResultFrame(body).ok()) ++malformed;
        } else if (header.type == FrameType::kError) {
          auto error = DecodeErrorFrame(body);
          if (!error.ok() || error->code != WireError::kOverloaded) {
            ++malformed;
          }
        } else {
          ++malformed;
        }
      }
    });
  }
  clients.emplace_back([&] {  // append storm: 6 batches of 10
    TestClient client(fx.server->port());
    if (!client.connected()) {
      ++malformed;
      return;
    }
    for (int batch = 0; batch < 6; ++batch) {
      AppendFrame append;
      append.request_id = 5000 + batch;
      append.count = 10;
      append.series_len = kLength;
      const Value* start = extra.raw() + batch * 10 * kLength;
      append.values.assign(start, start + 10 * kLength);
      client.SendFrame(EncodeAppendFrame(append));
      FrameHeader header;
      std::vector<uint8_t> body;
      client.ReadFrame(&header, &body);
      if (header.type != FrameType::kAppendOk ||
          !DecodeAppendOkFrame(body).ok()) {
        ++malformed;
      }
    }
  });
  clients.emplace_back([&] {  // stats + health hammering
    TestClient client(fx.server->port());
    if (!client.connected()) {
      ++malformed;
      return;
    }
    for (int i = 0; i < 30; ++i) {
      const FrameType type =
          i % 2 == 0 ? FrameType::kStats : FrameType::kHealth;
      client.SendFrame(EncodePlainRequest(type, 7000 + i));
      FrameHeader header;
      std::vector<uint8_t> body;
      client.ReadFrame(&header, &body);
      const bool ok =
          (header.type == FrameType::kStatsText &&
           DecodeStatsTextFrame(body).ok()) ||
          (header.type == FrameType::kHealthOk &&
           DecodeHealthOkFrame(body).ok());
      if (!ok) ++malformed;
    }
  });
  for (auto& t : clients) t.join();
  EXPECT_EQ(malformed.load(), 0);

  // Settled phase over the grown collection.
  fx.oracle.Append(extra.raw(), extra.count());
  ASSERT_EQ(fx.engine->series_count(), fx.oracle.count());
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  for (size_t q = 0; q < queries.count(); ++q) {
    client.SendFrame(EncodeQueryFrame(
        FrameType::kQuery, WireQuery(q, queries.series(q))));
    FrameHeader header;
    std::vector<uint8_t> body;
    client.ReadFrame(&header, &body);
    ASSERT_EQ(header.type, FrameType::kResult);
    auto result = DecodeResultFrame(body);
    ASSERT_TRUE(result.ok());
    const Neighbor oracle =
        BruteForceNn(InMemorySource(&fx.oracle), queries.series(q));
    EXPECT_EQ(result->neighbors[0].id, oracle.id) << "query " << q;
    EXPECT_FLOAT_EQ(result->neighbors[0].distance_sq, oracle.distance_sq);
  }

  // Stop() under no load: clean shutdown, no hang (the test timing out
  // would be the failure).
  fx.server->Stop();
}

INSTANTIATE_TEST_SUITE_P(Shards, ServerShardTest,
                         ::testing::Values<size_t>(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "Shard" +
                                  (info.param == 1 ? "" : "s");
                         });

}  // namespace
}  // namespace parisax
