// Self-test of the benchmark's load generator against a stub server with
// a known per-request delay and one injected stall. Checks that
//   1. open-loop latency is counted from the intended send time, so the
//      stall is charged to every request scheduled behind it (no
//      coordinated omission),
//   2. the generator's own lateness (bench.late_ms) is reported, and a
//      generator-side stall shows up in it,
//   3. the closed-loop phase holds its pipeline depth.
//
// Run: ctest in the benchmark build dir, or `python3 perfbench/run.py
// --selftest`. Exits non-zero on the first failed check.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "report.h"

namespace {

using perfbench::LoadGenerator;
using perfbench::PhaseResult;
using perfbench::Sample;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) ++failures;
}

// Answers every line with {"ok":true} after `delay_us`, serially per
// connection; the `stall_at`-th line overall (0-based) waits `stall_us`
// instead.
class StubServer {
 public:
  StubServer(int delay_us, int stall_at, int stall_us)
      : delay_us_(delay_us), stall_at_(stall_at), stall_us_(stall_us) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  ~StubServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    for (std::thread& t : handlers_) t.join();
  }

  int port() const { return port_; }

 private:
  void AcceptLoop() {
    while (true) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      handlers_.emplace_back([this, fd] { Handle(fd); });
    }
  }

  void Handle(int fd) {
    std::string buffer;
    char chunk[4096];
    while (true) {
      ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) break;
      buffer.append(chunk, static_cast<size_t>(got));
      size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        buffer.erase(0, newline + 1);
        int index = served_.fetch_add(1);
        int wait_us = index == stall_at_ ? stall_us_ : delay_us_;
        std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
        const char reply[] = "{\"ok\":true}\n";
        if (::send(fd, reply, sizeof(reply) - 1, MSG_NOSIGNAL) < 0) break;
      }
    }
    ::close(fd);
  }

  int delay_us_;
  int stall_at_;
  int stall_us_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<int> served_{0};
  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

// Open loop on one connection, one request per ms; the server stalls
// 100 ms on request 100. Every request due during the stall must carry
// the rest of the stall in its latency.
void TestOpenLoopChargesStall() {
  constexpr int kRequests = 400;
  constexpr int kStallAt = 100;
  constexpr double kStallMs = 100.0;
  constexpr double kIntervalMs = 1.0;
  StubServer server(/*delay_us=*/100, kStallAt,
                    static_cast<int>(kStallMs * 1000));
  LoadGenerator gen(server.port(), 1, false);
  Expect(gen.ok(), "generator connects to the stub server");
  std::vector<std::string> lines(kRequests, "{\"op\":\"ping\"}");
  std::vector<int64_t> offsets(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    offsets[i] = static_cast<int64_t>(i * kIntervalMs * 1e6);
  }
  PhaseResult r = gen.RunOpen(lines, offsets, nullptr, 5.0);
  Expect(r.samples.size() == kRequests && r.unanswered == 0,
         "every open-loop request is sent and answered");

  const Sample& stalled = r.samples[kStallAt];
  int64_t stall_end = stalled.done_ns;
  size_t behind = 0;
  size_t charged = 0;
  for (const Sample& s : r.samples) {
    if (s.index <= kStallAt || s.intended_ns >= stall_end) continue;
    ++behind;
    // Served no earlier than the stall ends, so latency from the
    // intended time is at least the stall time left when it was due.
    double owed_ms = (stall_end - s.intended_ns) / 1e6;
    if (s.LatencyMs() + 0.05 >= owed_ms) ++charged;
  }
  Expect(behind >= 80, "about 100 requests were due during the stall (" +
                           std::to_string(behind) + ")");
  Expect(charged == behind,
         "each of them carries the remaining stall in its latency (" +
             std::to_string(charged) + "/" + std::to_string(behind) + ")");
  std::vector<double> lat = r.LatenciesMs();
  size_t slow = 0;
  for (double ms : lat) {
    if (ms > kStallMs / 2) ++slow;
  }
  Expect(slow >= 40,
         "a closed loop would show one slow request; the open loop shows " +
             std::to_string(slow));
  double p99 = perfbench::Quantile(lat, 0.99);
  Expect(p99 >= kStallMs / 2, "p99 reflects the stall (" +
                                  std::to_string(p99) + " ms)");
  std::vector<double> late = r.LateMs();
  double late_p99 = perfbench::Quantile(late, 0.99);
  Expect(late.size() == kRequests && late_p99 >= 0.0 && late_p99 < 5.0,
         "bench.late_ms is reported and small while the generator keeps "
         "up (p99 " + std::to_string(late_p99) + " ms)");
}

// The generator itself stalls for 50 ms inside one response callback:
// the late sends must show in bench.late_ms and in latency.
void TestGeneratorStallIsLate() {
  constexpr int kRequests = 200;
  StubServer server(/*delay_us=*/50, -1, 0);
  LoadGenerator gen(server.port(), 2, false);
  std::vector<std::string> lines(kRequests, "{\"op\":\"ping\"}");
  std::vector<int64_t> offsets(kRequests);
  for (int i = 0; i < kRequests; ++i) offsets[i] = i * 500'000LL;
  bool stalled = false;
  PhaseResult r = gen.RunOpen(
      lines, offsets,
      [&](const Sample& s, std::string_view) {
        if (s.index == 50 && !stalled) {
          stalled = true;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      },
      5.0);
  std::vector<double> late = r.LateMs();
  double late_max = 0.0;
  for (double ms : late) late_max = std::max(late_max, ms);
  Expect(r.unanswered == 0, "every request answered");
  Expect(late_max >= 40.0, "a generator stall shows in bench.late_ms (max " +
                               std::to_string(late_max) + " ms)");
  double lat_max = 0.0;
  for (double ms : r.LatenciesMs()) lat_max = std::max(lat_max, ms);
  Expect(lat_max >= late_max, "latency from the intended time includes it");
}

// Closed loop: 3 connections x depth 4 against a 200 us server.
void TestClosedLoopHoldsDepth() {
  constexpr size_t kDepth = 4;
  StubServer server(/*delay_us=*/200, -1, 0);
  LoadGenerator gen(server.port(), 3, false);
  std::vector<std::string> lines = {"{\"op\":\"a\"}", "{\"op\":\"b\"}"};
  PhaseResult r = gen.RunClosed(lines, kDepth, 0.5, nullptr, 5.0);
  Expect(r.unanswered == 0 && !r.io_error, "closed loop drains cleanly");
  Expect(r.depth_min == kDepth && r.depth_max == kDepth,
         "every refill restores the pipeline depth (min " +
             std::to_string(r.depth_min) + ", max " +
             std::to_string(r.depth_max) + ")");
  // Serial 200 us per request per connection: about 5000/s per conn.
  double qps = r.CompletedPerSecond();
  Expect(qps > 3 * 1000 && qps < 3 * 6000,
         "throughput matches the stub's service rate (" +
             std::to_string(qps) + "/s)");
}

}  // namespace

int main() {
  TestOpenLoopChargesStall();
  TestGeneratorStallIsLate();
  TestClosedLoopHoldsDepth();
  std::printf("%s\n", failures == 0 ? "loadgen self-test passed"
                                    : "loadgen self-test FAILED");
  return failures == 0 ? 0 : 1;
}
