// Load generator: one thread drives every connection to a localhost
// NDJSON server with poll(), in one of two modes.
//
//   open loop   request i is due at a fixed offset from the phase start
//               (Poisson arrivals, drawn by the caller from the seed) and
//               is sent then, whether or not earlier requests answered.
//               Latency is counted from the *intended* send time, so a
//               stall is charged to every request scheduled behind it
//               (no coordinated omission); how late the generator itself
//               ran is reported separately.
//   closed loop every connection keeps `depth` requests in flight until
//               the phase ends: each response releases the next send.
//
// Responses come back in request order per connection (the server's
// reorder contract), so a per-connection FIFO maps each response line to
// its request. An optional control connection carries synchronous calls
// (stats scrapes) between phases.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Sample {
  uint32_t index = 0;       // request index in the phase's list
  uint32_t conn = 0;        // load connection it went out on
  int64_t intended_ns = 0;  // when it was due (closed loop: = sent_ns)
  int64_t sent_ns = 0;      // when the write was issued
  int64_t done_ns = 0;      // when its response line arrived; 0 = never

  double LatencyMs() const { return (done_ns - intended_ns) / 1e6; }
  double WireMs() const { return (done_ns - sent_ns) / 1e6; }
  double LateMs() const { return (sent_ns - intended_ns) / 1e6; }
};

struct PhaseResult {
  int64_t start_ns = 0;
  int64_t end_ns = 0;               // schedule end (open) / stop (closed)
  std::vector<Sample> samples;      // load requests, in send order
  size_t unanswered = 0;            // sent but never answered
  size_t depth_min = 0;             // closed loop: in flight per
  size_t depth_max = 0;             //   connection after each refill
  bool io_error = false;            // a connection failed mid-phase

  size_t Answered() const { return samples.size() - unanswered; }
  // Answered load requests whose response arrived by end_ns, per second
  // of the phase window.
  double CompletedPerSecond() const;
  std::vector<double> LatenciesMs() const;  // answered, from intended
  std::vector<double> WireMs() const;       // answered, from actual send
  std::vector<double> LateMs() const;       // every sent request
};

// Called on the generator thread for every load response line.
using ResponseFn = std::function<void(const Sample&, std::string_view line)>;

class LoadGenerator {
 public:
  // Connects `load_conns` load connections, plus one control connection
  // when `control` is set, to 127.0.0.1:`port`.
  LoadGenerator(int port, size_t load_conns, bool control);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool ok() const { return ok_; }

  // Open loop: lines[i] is due at offsets_ns[i] (non-decreasing) after
  // the phase start and goes out on the load connection with the fewest
  // requests in flight. Waits at most `drain_s` after the last send for
  // outstanding responses.
  PhaseResult RunOpen(const std::vector<std::string>& lines,
                      const std::vector<int64_t>& offsets_ns,
                      const ResponseFn& on_response, double drain_s);

  // Closed loop for `seconds`: each connection keeps `depth` requests in
  // flight; the k-th request sent overall is lines[k % lines.size()].
  PhaseResult RunClosed(const std::vector<std::string>& lines, size_t depth,
                        double seconds, const ResponseFn& on_response,
                        double drain_s);

  // One synchronous request on the control connection (stats scrapes).
  // Returns false on an I/O error or timeout.
  bool Call(const std::string& line, std::string* response,
            double timeout_s = 30.0);

 private:
  struct Conn;
  PhaseResult Drive(const std::vector<std::string>& lines,
                    const std::vector<int64_t>* offsets_ns, size_t depth,
                    double seconds, const ResponseFn& on_response,
                    double drain_s);

  bool ok_ = false;
  size_t load_conns_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;  // load, then control
  Conn* control_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
