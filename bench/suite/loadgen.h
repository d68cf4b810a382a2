// The load generator: ONE thread multiplexing up to four TCP
// connections with ppoll. Query connections run closed loop (the next
// request goes out when the previous answer is back); the optional
// append connection runs open loop on a fixed schedule, each request
// timed from its due time so a stall is charged to every request it
// delays.
#ifndef PARISAX_BENCH_SUITE_LOADGEN_H_
#define PARISAX_BENCH_SUITE_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "trace.h"
#include "workload.h"

namespace parisax::suite {

/// What one phase of traffic measured.
struct WindowStats {
  uint64_t attempted = 0;  // requests sent (queries + appends)
  uint64_t failed = 0;     // error frames
  uint64_t queries = 0;    // query answers received
  uint64_t mismatches = 0;
  std::string first_mismatch;
  std::vector<double> query_ms;  // every query op
  std::vector<double> await_us;  // send -> reply received, per query
  std::vector<double> knn_ms;
  std::vector<double> dtw_ms;
  std::vector<double> append_ms;  // from the due time
  std::vector<double> late_ms;    // send time - due time
  double wall_s = 0.0;
  double gen_cpu_s = 0.0;

  double qps() const {
    return wall_s > 0.0 ? static_cast<double>(queries) / wall_s : 0.0;
  }
};

class LoadGenerator {
 public:
  /// `append_batches`: the whole open-loop schedule, spread evenly from
  /// the start of the first phase at spec.append_hz.
  LoadGenerator(const WorkloadSpec& spec, const Inputs& inputs,
                const Checker& checker, uint64_t append_batches);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens the connections (TCP_NODELAY, non-blocking).
  Status Connect(uint16_t port);

  /// One phase: sends traffic for `seconds`, then waits for every
  /// request in flight. Spans go to `trace` when it is non-null and
  /// enabled.
  WindowStats Run(double seconds, TraceLog* trace);

  /// Sends every pool slot once, closed loop, and checks each answer as
  /// settled (the collection no longer changes).
  WindowStats Verify();

  /// Append batches acknowledged so far.
  uint64_t appends_acked() const { return appends_acked_; }

 private:
  struct Inflight {
    uint64_t request_id = 0;
    bool append = false;
    uint32_t slot = 0;
    int64_t start_ns = 0;  // closed loop: before encode; append: due
    int64_t sent_ns = 0;
    uint32_t span = 0;
  };

  struct Conn {
    int fd = -1;
    bool append = false;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    std::vector<uint8_t> in;
    size_t in_off = 0;
    std::deque<Inflight> inflight;
  };

  enum class Mode { kTimed, kVerify };

  WindowStats Loop(Mode mode, double seconds, TraceLog* trace);
  void SendQuery(Conn* conn, uint32_t slot, TraceLog* trace);
  void SendAppend(Conn* conn, uint64_t batch, int64_t due_ns);
  void Flush(Conn* conn);
  /// Reads what is available; handles every complete frame.
  void Receive(Conn* conn, Mode mode, WindowStats* stats, TraceLog* trace);
  void Handle(Conn* conn, const FrameHeader& header,
              std::span<const uint8_t> body, int64_t recv_ns, Mode mode,
              WindowStats* stats, TraceLog* trace);
  int64_t DueNs(uint64_t batch) const;

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const Checker& checker_;
  const uint64_t append_batches_;

  std::vector<Conn> conns_;
  uint64_t next_request_id_ = 1;
  uint64_t next_op_ = 0;  // position in the pool's seeded order
  uint64_t next_batch_ = 0;
  uint64_t appends_acked_ = 0;
  int64_t schedule_start_ns_ = -1;
  uint32_t verify_next_ = 0;
};

}  // namespace parisax::suite

#endif  // PARISAX_BENCH_SUITE_LOADGEN_H_
