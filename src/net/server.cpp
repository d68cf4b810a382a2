#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace parisax {

namespace {

/// recv() until `n` bytes or EOF/error. Returns n on success, 0 on
/// clean EOF at a frame boundary (nothing read), -1 otherwise.
ssize_t ReadFull(int fd, uint8_t* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return got == 0 ? 0 : -1;  // mid-frame EOF is an error
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(n);
}

bool WriteFull(int fd, const uint8_t* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

const char* RequestTypeLabel(FrameType type) {
  switch (type) {
    case FrameType::kQuery:
      return "query";
    case FrameType::kKnn:
      return "knn";
    case FrameType::kDtw:
      return "dtw";
    case FrameType::kAppend:
      return "append";
    case FrameType::kStats:
      return "stats";
    case FrameType::kHealth:
      return "health";
    default:
      return "unknown";
  }
}

}  // namespace

Server::Server(Engine* engine, const ServerOptions& options)
    : engine_(engine), options_(options), metrics_(&registry_) {}

Result<std::unique_ptr<Server>> Server::Start(Engine* engine,
                                              const ServerOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  std::unique_ptr<Server> server(new Server(engine, options));

  QueryServiceOptions sopts;
  sopts.num_threads = options.serve_threads;
  sopts.policy = options.policy;
  sopts.max_inflight = options.max_inflight;
  PARISAX_ASSIGN_OR_RETURN(server->service_,
                           QueryService::Create(engine, sopts));

  PARISAX_RETURN_IF_ERROR(server->Listen());
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable bind address: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  // Unblock the acceptor, then every connection reader.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(&conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    ::close(conn->fd);
  }
  // The QueryService destructor (member order) then drains any
  // still-executing queries; their promise consumers are gone with the
  // connections, which is fine — promises resolve into dropped futures.
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatal
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    ReapFinished();
    {
      MutexLock lock(&conns_mu_);
      if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
        // Over the connection cap: refuse with a typed error so the
        // client can tell backpressure from a network failure.
        const auto frame = EncodeErrorFrame(
            ErrorFrame{0, WireError::kOverloaded,
                       "connection limit reached"});
        WriteFull(fd, frame.data(), frame.size());
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      Connection* raw = conn.get();
      conn->reader = std::thread([this, raw] { ReaderLoop(raw); });
      conn->writer = std::thread([this, raw] { WriterLoop(raw); });
      conns_.push_back(std::move(conn));
    }
    metrics_.connections_open->Add(1.0);
  }
}

void Server::ReapFinished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    MutexLock lock(&conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    ::close(conn->fd);
  }
}

void Server::ReaderLoop(Connection* conn) {
  std::vector<uint8_t> body;
  for (;;) {
    uint8_t header_buf[kFrameHeaderSize];
    const ssize_t r = ReadFull(conn->fd, header_buf, kFrameHeaderSize);
    if (r <= 0) break;  // clean EOF, connection reset, or shutdown
    metrics_.bytes_read_total->Increment(kFrameHeaderSize);

    auto header = DecodeFrameHeader(header_buf);
    if (!header.ok()) {
      // Header-level corruption: there is no way to find the next frame
      // boundary in the stream, so answer once and close.
      metrics_.frame_errors_total->Increment();
      const std::string msg = header.status().message();
      WireError code = WireError::kBadFrame;
      if (msg.find("version") != std::string::npos) {
        code = WireError::kBadVersion;
      } else if (msg.find("exceeds") != std::string::npos) {
        code = WireError::kFrameTooLarge;
      }
      EnqueueError(conn, 0, code, msg, "unknown");
      break;
    }

    body.resize(header->body_len);
    if (header->body_len > 0) {
      if (ReadFull(conn->fd, body.data(), body.size()) !=
          static_cast<ssize_t>(body.size())) {
        break;  // truncated mid-body: peer is gone
      }
      metrics_.bytes_read_total->Increment(body.size());
    }

    if (!HandleFrame(conn, *header,
                     std::span<const uint8_t>(body.data(), body.size()))) {
      break;
    }
  }
  MutexLock lock(&conn->mu);
  conn->reader_done = true;
  conn->cv.NotifyAll();
}

bool Server::HandleFrame(Connection* conn, const FrameHeader& header,
                         std::span<const uint8_t> body) {
  const char* label = RequestTypeLabel(header.type);
  const auto start = std::chrono::steady_clock::now();
  metrics_.registry->CounterWithLabels(metrics_.requests_total, {label})
      ->Increment();

  // Every body leads with the request id; echo it in body-level error
  // frames whenever that prefix survived, so pipelined clients can
  // correlate the failure (0 only when even the id is missing).
  uint64_t body_request_id = 0;
  if (body.size() >= sizeof(uint64_t)) {
    std::memcpy(&body_request_id, body.data(), sizeof(uint64_t));
  }

  switch (header.type) {
    case FrameType::kQuery:
    case FrameType::kKnn:
    case FrameType::kDtw: {
      auto decoded = DecodeQueryFrame(body);
      if (!decoded.ok()) {
        metrics_.frame_errors_total->Increment();
        EnqueueError(conn, body_request_id, WireError::kBadFrame,
                     decoded.status().message(), label);
        return true;  // framing was intact; the connection survives
      }
      const QueryFrame& q = *decoded;

      SearchRequest request;
      request.k = header.type == FrameType::kKnn ? q.k : 1;
      request.approximate = q.approximate;
      request.dtw = header.type == FrameType::kDtw;
      request.dtw_band = q.dtw_band;

      SubmitOptions submit;
      submit.priority = q.high_priority ? QueryPriority::kHigh
                                        : QueryPriority::kNormal;
      const uint64_t timeout_us =
          q.timeout_us > 0 ? q.timeout_us : options_.default_timeout_us;
      if (timeout_us > 0) {
        submit.timeout = std::chrono::microseconds(timeout_us);
      }

      auto future = service_->TrySubmit(
          SeriesView(q.values.data(), q.values.size()), request, submit);
      if (!future.ok()) {
        EnqueueError(conn, q.request_id,
                     WireErrorFromStatus(future.status()),
                     future.status().message(), label);
        return true;
      }
      Outgoing out;
      out.pending = std::move(future).value();
      out.is_pending = true;
      out.request_id = q.request_id;
      out.type_label = label;
      out.start = start;
      Enqueue(conn, std::move(out));
      return true;
    }

    case FrameType::kAppend: {
      auto decoded = DecodeAppendFrame(body);
      if (!decoded.ok()) {
        metrics_.frame_errors_total->Increment();
        EnqueueError(conn, body_request_id, WireError::kBadFrame,
                     decoded.status().message(), label);
        return true;
      }
      const AppendFrame& a = *decoded;
      if (a.count > 0 && a.series_len != engine_->series_length()) {
        EnqueueError(conn, a.request_id, WireError::kInvalidArgument,
                     "appended series length does not match the "
                     "collection",
                     label);
        return true;
      }
      // Appends run inline on the reader thread: the engine's Append
      // serializes on its append mutex anyway, and back-to-back frames
      // on one connection should apply in order.
      auto report = engine_->Append(a.values.data(), a.count);
      if (!report.ok()) {
        EnqueueError(conn, a.request_id,
                     WireErrorFromStatus(report.status()),
                     report.status().message(), label);
        return true;
      }
      Outgoing out;
      out.frame = EncodeAppendOkFrame(AppendOkFrame{
          a.request_id, report->total_series, engine_->append_epoch()});
      out.request_id = a.request_id;
      out.type_label = label;
      out.start = start;
      Enqueue(conn, std::move(out));
      return true;
    }

    case FrameType::kStats: {
      auto request_id = DecodePlainRequest(body);
      if (!request_id.ok()) {
        metrics_.frame_errors_total->Increment();
        EnqueueError(conn, body_request_id, WireError::kBadFrame,
                     request_id.status().message(), label);
        return true;
      }
      Outgoing out;
      out.frame = EncodeStatsTextFrame(
          StatsTextFrame{*request_id, RenderMetricsText()});
      out.request_id = *request_id;
      out.type_label = label;
      out.start = start;
      Enqueue(conn, std::move(out));
      return true;
    }

    case FrameType::kHealth: {
      auto request_id = DecodePlainRequest(body);
      if (!request_id.ok()) {
        metrics_.frame_errors_total->Increment();
        EnqueueError(conn, body_request_id, WireError::kBadFrame,
                     request_id.status().message(), label);
        return true;
      }
      Outgoing out;
      out.frame = EncodeHealthOkFrame(HealthOkFrame{
          *request_id, engine_->series_count(),
          static_cast<uint32_t>(engine_->series_length()),
          engine_->algorithm_name()});
      out.request_id = *request_id;
      out.type_label = label;
      out.start = start;
      Enqueue(conn, std::move(out));
      return true;
    }

    default:
      metrics_.frame_errors_total->Increment();
      EnqueueError(conn, body_request_id, WireError::kBadFrame,
                   "unknown request type " +
                       std::to_string(static_cast<unsigned>(header.type)),
                   label);
      return true;
  }
}

void Server::Enqueue(Connection* conn, Outgoing outgoing) {
  {
    MutexLock lock(&conn->mu);
    conn->outbox.push_back(std::move(outgoing));
  }
  conn->cv.NotifyOne();
}

void Server::EnqueueError(Connection* conn, uint64_t request_id,
                          WireError code, std::string message,
                          const char* type_label) {
  Outgoing out;
  out.frame = EncodeErrorFrame(
      ErrorFrame{request_id, code, std::move(message)});
  out.request_id = request_id;
  out.type_label = type_label;
  out.start = std::chrono::steady_clock::now();
  Enqueue(conn, std::move(out));
}

void Server::WriterLoop(Connection* conn) {
  for (;;) {
    Outgoing out;
    {
      MutexLock lock(&conn->mu);
      while (conn->outbox.empty() && !conn->reader_done) {
        conn->cv.Wait(conn->mu);
      }
      if (conn->outbox.empty()) break;  // reader done and outbox drained
      out = std::move(conn->outbox.front());
      conn->outbox.pop_front();
    }

    const char* code_label = "ok";
    if (out.is_pending) {
      // FIFO resolution keeps responses in request order per
      // connection; the query service may complete them in any order.
      Result<SearchResponse> response = out.pending.get();
      if (response.ok()) {
        out.frame = EncodeResultFrame(
            ResultFrame{out.request_id, std::move(response->neighbors)});
      } else {
        out.frame = EncodeErrorFrame(
            ErrorFrame{out.request_id,
                       WireErrorFromStatus(response.status()),
                       response.status().message()});
        code_label = WireErrorName(WireErrorFromStatus(response.status()));
      }
    } else if (!out.frame.empty() &&
               static_cast<FrameType>(out.frame[5]) == FrameType::kError) {
      // Byte 5 of the encoded frame is the header's type field.
      auto decoded = DecodeErrorFrame(std::span<const uint8_t>(
          out.frame.data() + kFrameHeaderSize,
          out.frame.size() - kFrameHeaderSize));
      if (decoded.ok()) code_label = WireErrorName(decoded->code);
    }

    metrics_.registry
        ->CounterWithLabels(metrics_.responses_total, {code_label})
        ->Increment();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      out.start)
            .count();
    metrics_.registry
        ->HistogramWithLabels(metrics_.request_seconds, {out.type_label})
        ->Observe(seconds);

    bool failed;
    {
      MutexLock lock(&conn->mu);
      failed = conn->write_failed;
    }
    if (!failed) {
      if (WriteFull(conn->fd, out.frame.data(), out.frame.size())) {
        metrics_.bytes_written_total->Increment(out.frame.size());
      } else {
        // Keep draining futures (their queries must still complete) but
        // stop writing to the dead socket.
        MutexLock lock(&conn->mu);
        conn->write_failed = true;
      }
    }
  }
  // The reader is done and every response is out (or the write side
  // failed): send FIN now so clients see EOF promptly — the fd itself
  // is reclaimed by ReapFinished or Stop.
  ::shutdown(conn->fd, SHUT_RDWR);
  metrics_.connections_open->Add(-1.0);
  conn->finished.store(true, std::memory_order_release);
}

std::string Server::RenderMetricsText() {
  metrics_.Update(engine_, service_.get());
  return registry_.RenderPrometheusText();
}

}  // namespace parisax
