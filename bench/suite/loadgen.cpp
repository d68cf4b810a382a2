#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iostream>

#include "common.h"

namespace parisax::suite {

namespace {

constexpr int64_t kIdlePollNs = 50'000'000;
constexpr size_t kRecvChunk = 64 * 1024;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

LoadGenerator::LoadGenerator(const WorkloadSpec& spec, const Inputs& inputs,
                             const Checker& checker, uint64_t append_batches)
    : spec_(spec),
      inputs_(inputs),
      checker_(checker),
      append_batches_(append_batches) {}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

Status LoadGenerator::Connect(uint16_t port) {
  const int total = spec_.query_conns + (append_batches_ > 0 ? 1 : 0);
  for (int i = 0; i < total; ++i) {
    Conn conn;
    conn.append = i >= spec_.query_conns;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) return Status::IOError("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    const int one = 1;
    const bool ok =
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0 &&
        ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) ==
            0 &&
        ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK) ==
            0;
    conns_.push_back(std::move(conn));
    if (!ok) {
      return Status::IOError(std::string("connecting the load generator: ") +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

WindowStats LoadGenerator::Run(double seconds, TraceLog* trace) {
  return Loop(Mode::kTimed, seconds, trace);
}

WindowStats LoadGenerator::Verify() {
  verify_next_ = 0;
  return Loop(Mode::kVerify, 0.0, nullptr);
}

int64_t LoadGenerator::DueNs(uint64_t batch) const {
  return schedule_start_ns_ +
         static_cast<int64_t>(static_cast<double>(batch) * 1e9 /
                              spec_.append_hz);
}

WindowStats LoadGenerator::Loop(Mode mode, double seconds, TraceLog* trace) {
  if (trace != nullptr && !trace->enabled()) trace = nullptr;
  WindowStats stats;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  if (schedule_start_ns_ < 0) schedule_start_ns_ = start;
  const double cpu_start = ThreadCpuSeconds();
  std::vector<pollfd> fds(conns_.size());

  while (true) {
    const int64_t now = NowNs();
    bool busy = false;
    for (Conn& conn : conns_) {
      if (conn.append) {
        while (mode == Mode::kTimed && next_batch_ < append_batches_ &&
               DueNs(next_batch_) <= now && DueNs(next_batch_) < end) {
          SendAppend(&conn, next_batch_, DueNs(next_batch_));
          ++next_batch_;
          ++stats.attempted;
        }
      } else if (conn.inflight.empty()) {
        if (mode == Mode::kTimed && now < end) {
          SendQuery(&conn, inputs_.pool.order[next_op_++ % kPoolSize],
                     trace);
          ++stats.attempted;
        } else if (mode == Mode::kVerify && verify_next_ < kPoolSize) {
          SendQuery(&conn, verify_next_++, nullptr);
          ++stats.attempted;
        }
      }
      busy = busy || !conn.inflight.empty();
    }
    if (!busy) {
      const bool more = mode == Mode::kTimed ? now < end
                                             : verify_next_ < kPoolSize;
      if (!more) break;
      continue;
    }

    int64_t wait_ns = kIdlePollNs;
    if (mode == Mode::kTimed && now < end) {
      wait_ns = std::min(wait_ns, end - now);
      if (next_batch_ < append_batches_) {
        wait_ns = std::min(wait_ns, std::max<int64_t>(0, DueNs(next_batch_) - now));
      }
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN;
      if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      Fatal(std::string("ppoll: ") + std::strerror(errno));
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        Fatal("load-generator connection failed");
      }
      if ((fds[i].revents & POLLOUT) != 0) Flush(&conns_[i]);
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        Receive(&conns_[i], mode, &stats, trace);
      }
    }
  }
  stats.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  stats.gen_cpu_s = ThreadCpuSeconds() - cpu_start;
  return stats;
}

void LoadGenerator::SendQuery(Conn* conn, uint32_t slot, TraceLog* trace) {
  const OpKind kind = inputs_.pool.kinds[slot];
  Inflight f;
  f.request_id = next_request_id_++;
  f.slot = slot;
  f.start_ns = NowNs();
  if (trace != nullptr) {
    f.span = trace->Add("wire.request", f.start_ns, f.start_ns, 0,
                        f.request_id, slot);
  }
  QueryFrame query;
  query.request_id = f.request_id;
  query.k = kind == OpKind::kKnn ? kKnnK : 1;
  query.dtw_band = kDtwBand;
  query.approximate = kind == OpKind::kApprox;
  const SeriesView values = inputs_.pool.queries.series(slot);
  query.values.assign(values.begin(), values.end());
  const FrameType type = kind == OpKind::kKnn   ? FrameType::kKnn
                         : kind == OpKind::kDtw ? FrameType::kDtw
                                                : FrameType::kQuery;
  const std::vector<uint8_t> frame = EncodeQueryFrame(type, query);
  f.sent_ns = NowNs();
  if (f.span != 0) {
    trace->Add("net.encode", f.start_ns, f.sent_ns, f.span, f.request_id,
               slot);
  }
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  conn->inflight.push_back(f);
  Flush(conn);
}

void LoadGenerator::SendAppend(Conn* conn, uint64_t batch, int64_t due_ns) {
  Inflight f;
  f.request_id = next_request_id_++;
  f.append = true;
  f.start_ns = due_ns;
  f.sent_ns = NowNs();
  AppendFrame append;
  append.request_id = f.request_id;
  append.count = static_cast<uint32_t>(spec_.append_batch);
  append.series_len = static_cast<uint32_t>(spec_.length);
  const size_t values = spec_.append_batch * spec_.length;
  const Value* first = inputs_.appended.raw() + batch * values;
  append.values.assign(first, first + values);
  const std::vector<uint8_t> frame = EncodeAppendFrame(append);
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  conn->inflight.push_back(f);
  Flush(conn);
}

void LoadGenerator::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      Fatal(std::string("send: ") + std::strerror(errno));
    }
  }
  conn->out.clear();
  conn->out_off = 0;
}

void LoadGenerator::Receive(Conn* conn, Mode mode, WindowStats* stats,
                            TraceLog* trace) {
  while (true) {
    const size_t old = conn->in.size();
    conn->in.resize(old + kRecvChunk);
    const ssize_t n = ::recv(conn->fd, conn->in.data() + old, kRecvChunk, 0);
    conn->in.resize(old + (n > 0 ? static_cast<size_t>(n) : 0));
    if (n > 0) continue;
    if (n == 0) Fatal("the server closed a load-generator connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    Fatal(std::string("recv: ") + std::strerror(errno));
  }
  const int64_t recv_ns = NowNs();
  while (conn->in.size() - conn->in_off >= kFrameHeaderSize) {
    const auto header = DecodeFrameHeader(conn->in.data() + conn->in_off);
    if (!header.ok()) Fatal("malformed response header", header.status());
    const size_t frame_end =
        conn->in_off + kFrameHeaderSize + header->body_len;
    if (conn->in.size() < frame_end) break;
    Handle(conn, *header,
           std::span<const uint8_t>(
               conn->in.data() + conn->in_off + kFrameHeaderSize,
               header->body_len),
           recv_ns, mode, stats, trace);
    conn->in_off = frame_end;
  }
  if (conn->in_off == conn->in.size()) {
    conn->in.clear();
    conn->in_off = 0;
  }
}

void LoadGenerator::Handle(Conn* conn, const FrameHeader& header,
                           std::span<const uint8_t> body, int64_t recv_ns,
                           Mode mode, WindowStats* stats, TraceLog* trace) {
  if (conn->inflight.empty()) Fatal("response without a request");
  const Inflight f = conn->inflight.front();
  conn->inflight.pop_front();

  if (header.type == FrameType::kError) {
    const auto error = DecodeErrorFrame(body);
    if (!error.ok()) Fatal("malformed error frame", error.status());
    if (stats->failed++ < 5) {
      std::cerr << "parisax_bench: " << spec_.name << " request "
                << f.request_id << " failed: " << WireErrorName(error->code)
                << " " << error->message << "\n";
    }
    return;
  }

  if (f.append) {
    if (header.type != FrameType::kAppendOk) Fatal("unexpected append reply");
    const auto ok = DecodeAppendOkFrame(body);
    if (!ok.ok() || ok->request_id != f.request_id) {
      Fatal("malformed append reply");
    }
    ++appends_acked_;
    stats->append_ms.push_back(Ms(NowNs() - f.start_ns));
    stats->late_ms.push_back(Ms(f.sent_ns - f.start_ns));
    return;
  }

  if (header.type != FrameType::kResult) Fatal("unexpected query reply");
  const auto result = DecodeResultFrame(body);
  if (!result.ok()) Fatal("malformed result frame", result.status());
  if (result->request_id != f.request_id) Fatal("reply out of order");
  const int64_t decoded_ns = NowNs();
  const double ms = Ms(decoded_ns - f.start_ns);
  ++stats->queries;
  stats->query_ms.push_back(ms);
  stats->await_us.push_back(static_cast<double>(recv_ns - f.sent_ns) * 1e-3);
  const OpKind kind = inputs_.pool.kinds[f.slot];
  if (kind == OpKind::kKnn) stats->knn_ms.push_back(ms);
  if (kind == OpKind::kDtw) stats->dtw_ms.push_back(ms);

  const std::string wrong =
      checker_.Check(f.slot, result->neighbors, mode == Mode::kVerify);
  const int64_t checked_ns = NowNs();
  if (!wrong.empty() && stats->mismatches++ == 0) {
    stats->first_mismatch = wrong;
  }
  if (f.span != 0) {
    trace->Add("net.await", f.sent_ns, recv_ns, f.span, f.request_id,
               f.slot);
    trace->Add("net.decode", recv_ns, decoded_ns, f.span, f.request_id,
               f.slot);
    trace->Add("check.oracle", decoded_ns, checked_ns, f.span, f.request_id,
               f.slot);
    trace->Finish(f.span, checked_ns);
  }
}

}  // namespace parisax::suite
