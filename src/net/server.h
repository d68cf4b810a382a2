// The parisax serving front end: a TCP server speaking the frame
// protocol of net/protocol.h in front of one Engine + QueryService.
//
// Threading model: one acceptor thread; per connection, a reader thread
// (decodes frames, submits queries, answers stats/health/append inline)
// and a writer thread (drains a FIFO of pending responses — ready
// frames and query futures alike — so each connection's responses go
// out in request order even when clients pipeline).
//
// Admission control: queries enter through QueryService::TrySubmit
// under `max_inflight`; a full service yields a typed `overloaded`
// error frame immediately instead of queueing without bound. Per-query
// deadlines (frame `timeout_us`, or the server default) are enforced at
// dequeue and polled inside the index hot loops via the cancellation
// token; expired queries answer `deadline_exceeded`. docs/serving.md is
// the operations guide.
#ifndef PARISAX_NET_SERVER_H_
#define PARISAX_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/protocol.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "util/mutex.h"
#include "util/status.h"

namespace parisax {

struct ServerOptions {
  /// Bind address. The default serves loopback only; bind 0.0.0.0
  /// explicitly to expose the port.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Serve workers of the server-owned QueryService.
  int serve_threads = 4;
  /// Scheduling policy of the server-owned QueryService.
  SchedulingPolicy policy = SchedulingPolicy::kAuto;
  /// Admission cap: queries in flight (queued + executing) before
  /// TrySubmit rejects with kOverloaded. 0: unbounded (not recommended
  /// for exposed servers).
  size_t max_inflight = 128;
  /// Deadline applied to queries whose frame carries timeout_us == 0.
  /// 0: no default deadline.
  uint64_t default_timeout_us = 0;
  /// Connections beyond this are accepted and immediately closed.
  int max_connections = 64;
};

class Server {
 public:
  /// Binds, listens and starts serving `engine` (which must outlive
  /// the server). Returns kIoError when the address cannot be bound.
  static Result<std::unique_ptr<Server>> Start(Engine* engine,
                                               const ServerOptions& options);

  /// Stops accepting, closes every connection, finishes in-flight
  /// queries and joins all threads.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void Stop();

  /// The bound port (the chosen one when options.port was 0).
  uint16_t port() const { return port_; }
  const ServerOptions& options() const { return options_; }

  MetricsRegistry* metrics_registry() { return &registry_; }
  ServerMetrics* server_metrics() { return &metrics_; }
  QueryService* query_service() { return service_.get(); }

  /// Mirrors live engine/service state into the registry and renders
  /// the Prometheus text exposition (what a STATS frame answers).
  std::string RenderMetricsText();

 private:
  /// One queued response: either a ready-encoded frame or a pending
  /// query future the writer resolves in FIFO order.
  struct Outgoing {
    std::vector<uint8_t> frame;  // used when `pending` is invalid
    std::future<Result<SearchResponse>> pending;
    bool is_pending = false;
    uint64_t request_id = 0;
    const char* type_label = "";
    std::chrono::steady_clock::time_point start{};
  };

  struct Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;
    Mutex mu{"Server::Connection::mu", LockRank::kNetConnection};
    CondVar cv;
    std::deque<Outgoing> outbox PARISAX_GUARDED_BY(mu);
    bool reader_done PARISAX_GUARDED_BY(mu) = false;
    bool write_failed PARISAX_GUARDED_BY(mu) = false;
    std::atomic<bool> finished{false};  // both threads exited
  };

  Server(Engine* engine, const ServerOptions& options);

  Status Listen();
  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void WriterLoop(Connection* conn);
  /// Decodes and acts on one frame body; appends the response(s) to the
  /// connection's outbox. Returns false when the connection must close
  /// (header-level corruption).
  bool HandleFrame(Connection* conn, const FrameHeader& header,
                   std::span<const uint8_t> body);
  void Enqueue(Connection* conn, Outgoing outgoing);
  void EnqueueError(Connection* conn, uint64_t request_id, WireError code,
                    std::string message, const char* type_label);
  /// Joins and frees connections whose threads have exited.
  void ReapFinished();

  Engine* const engine_;
  const ServerOptions options_;
  MetricsRegistry registry_;
  ServerMetrics metrics_;
  std::unique_ptr<QueryService> service_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  Mutex conns_mu_{"Server::conns_mu_", LockRank::kNetConnections};
  std::vector<std::unique_ptr<Connection>> conns_
      PARISAX_GUARDED_BY(conns_mu_);
};

}  // namespace parisax

#endif  // PARISAX_NET_SERVER_H_
