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
#include <deque>

#include "report.h"

namespace perfbench {

struct LoadGenerator::Conn {
  int fd = -1;
  bool dead = false;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<uint32_t> in_flight;  // sample indices awaiting a response

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  // Writes as much of `out` as the socket takes without blocking.
  void Flush() {
    while (!dead && out_off < out.size()) {
      ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                         MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        dead = true;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }
};

namespace {

int ConnectLocal(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

std::vector<double> Collect(const std::vector<Sample>& samples,
                            double (Sample::*field)() const,
                            bool answered_only) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (answered_only && s.done_ns == 0) continue;
    out.push_back((s.*field)());
  }
  return out;
}

}  // namespace

double PhaseResult::CompletedPerSecond() const {
  size_t done = 0;
  for (const Sample& s : samples) {
    if (s.done_ns != 0 && s.done_ns <= end_ns) ++done;
  }
  double seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  return seconds > 0 ? static_cast<double>(done) / seconds : 0.0;
}

std::vector<double> PhaseResult::LatenciesMs() const {
  return Collect(samples, &Sample::LatencyMs, true);
}

std::vector<double> PhaseResult::WireMs() const {
  return Collect(samples, &Sample::WireMs, true);
}

std::vector<double> PhaseResult::LateMs() const {
  return Collect(samples, &Sample::LateMs, false);
}

LoadGenerator::LoadGenerator(int port, size_t load_conns, bool control)
    : load_conns_(load_conns) {
  size_t total = load_conns + (control ? 1 : 0);
  for (size_t i = 0; i < total; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ConnectLocal(port);
    if (conn->fd < 0) return;
    conns_.push_back(std::move(conn));
  }
  if (control) control_ = conns_.back().get();
  ok_ = load_conns > 0;
}

LoadGenerator::~LoadGenerator() = default;

PhaseResult LoadGenerator::RunOpen(const std::vector<std::string>& lines,
                                   const std::vector<int64_t>& offsets_ns,
                                   const ResponseFn& on_response,
                                   double drain_s) {
  return Drive(lines, &offsets_ns, 0, 0.0, on_response, drain_s);
}

PhaseResult LoadGenerator::RunClosed(const std::vector<std::string>& lines,
                                     size_t depth, double seconds,
                                     const ResponseFn& on_response,
                                     double drain_s) {
  return Drive(lines, nullptr, std::max<size_t>(1, depth), seconds,
               on_response, drain_s);
}

PhaseResult LoadGenerator::Drive(const std::vector<std::string>& lines,
                                 const std::vector<int64_t>* offsets_ns,
                                 size_t depth, double seconds,
                                 const ResponseFn& on_response,
                                 double drain_s) {
  PhaseResult r;
  const bool open = offsets_ns != nullptr;
  const size_t n = open ? lines.size() : SIZE_MAX;
  r.samples.reserve(open ? lines.size() : 1 << 16);
  r.start_ns = NowNs();
  r.end_ns = r.start_ns +
             (open ? (offsets_ns->empty() ? 0 : offsets_ns->back())
                   : static_cast<int64_t>(seconds * 1e9));
  if (!ok_ || lines.empty()) return r;
  r.depth_min = SIZE_MAX;
  size_t next = 0;

  auto send_load = [&](Conn& conn, uint32_t conn_index, int64_t intended) {
    conn.out += lines[open ? next : next % lines.size()];
    conn.out += '\n';
    Sample s;
    s.index = static_cast<uint32_t>(open ? next : next % lines.size());
    s.conn = conn_index;
    s.sent_ns = NowNs();
    s.intended_ns = open ? intended : s.sent_ns;
    conn.in_flight.push_back(static_cast<uint32_t>(r.samples.size()));
    r.samples.push_back(s);
    ++next;
    conn.Flush();
  };

  if (!open) {
    for (size_t c = 0; c < load_conns_; ++c) {
      for (size_t d = 0; d < depth; ++d) {
        send_load(*conns_[c], static_cast<uint32_t>(c), 0);
      }
    }
  }

  std::vector<pollfd> fds(conns_.size());
  char buf[1 << 16];
  int64_t drain_deadline = 0;
  while (true) {
    int64_t now = NowNs();
    if (open) {
      while (next < n && r.start_ns + (*offsets_ns)[next] <= now) {
        // Like a client pool: the connection with the fewest requests in
        // flight takes the next one (ties in turn), so a request does
        // not queue behind another's slow answer when a connection idles.
        uint32_t c = static_cast<uint32_t>(next % load_conns_);
        for (size_t k = 1; k < load_conns_; ++k) {
          auto other = static_cast<uint32_t>((next + k) % load_conns_);
          if (conns_[other]->in_flight.size() < conns_[c]->in_flight.size()) {
            c = other;
          }
        }
        send_load(*conns_[c], c, r.start_ns + (*offsets_ns)[next]);
      }
    }
    bool sending_done = open ? next >= n : now >= r.end_ns;
    bool idle = true;
    for (const auto& conn : conns_) {
      if (!conn->dead && !conn->in_flight.empty()) idle = false;
      if (conn->dead) r.io_error = true;
    }
    if (sending_done) {
      if (idle) break;
      if (drain_deadline == 0) {
        drain_deadline = now + static_cast<int64_t>(drain_s * 1e9);
      }
      if (now > drain_deadline) break;
    }

    int64_t wake = now + 5'000'000;  // re-check at least every 5 ms
    if (open && next < n) {
      wake = std::min(wake, r.start_ns + (*offsets_ns)[next]);
    }
    if (!open && now < r.end_ns) wake = std::min(wake, r.end_ns);
    int64_t timeout_ns = std::max<int64_t>(0, wake - now);
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = *conns_[i];
      fds[i].fd = conn.dead ? -1 : conn.fd;
      fds[i].events = POLLIN;
      if (!conn.out.empty()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = *conns_[i];
      if (fds[i].revents == 0 || conn.dead) continue;
      if (fds[i].revents & POLLOUT) conn.Flush();
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      while (true) {
        ssize_t got = ::read(conn.fd, buf, sizeof(buf));
        if (got > 0) {
          conn.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.dead = true;
        }
        break;
      }
      int64_t arrived = NowNs();
      size_t begin = 0;
      size_t newline;
      while ((newline = conn.in.find('\n', begin)) != std::string::npos) {
        std::string_view line(conn.in.data() + begin, newline - begin);
        begin = newline + 1;
        if (conn.in_flight.empty()) {
          conn.dead = true;  // an answer nobody asked for
          break;
        }
        uint32_t idx = conn.in_flight.front();
        conn.in_flight.pop_front();
        Sample& s = r.samples[idx];
        s.done_ns = arrived;
        if (on_response) on_response(s, line);
        if (!open && NowNs() < r.end_ns) {
          send_load(conn, static_cast<uint32_t>(i), 0);
          r.depth_min = std::min(r.depth_min, conn.in_flight.size());
          r.depth_max = std::max(r.depth_max, conn.in_flight.size());
        }
      }
      conn.in.erase(0, begin);
    }
  }
  if (r.depth_min == SIZE_MAX) r.depth_min = 0;
  for (const Sample& s : r.samples) {
    if (s.done_ns == 0) ++r.unanswered;
  }
  // Anything still unanswered is abandoned: its connection would answer
  // out of step with the next phase, so retire it.
  for (const auto& conn : conns_) {
    if (!conn->in_flight.empty()) conn->dead = true;
    if (conn->dead) r.io_error = true;
  }
  return r;
}

bool LoadGenerator::Call(const std::string& line, std::string* response,
                         double timeout_s) {
  if (control_ == nullptr || control_->dead) return false;
  Conn& conn = *control_;
  conn.out += line;
  conn.out += '\n';
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  char buf[1 << 16];
  while (NowNs() < deadline && !conn.dead) {
    conn.Flush();
    size_t newline = conn.in.find('\n');
    if (newline != std::string::npos) {
      response->assign(conn.in, 0, newline);
      conn.in.erase(0, newline + 1);
      return true;
    }
    pollfd pfd{conn.fd, static_cast<short>(POLLIN | (conn.out.empty()
                                                          ? 0
                                                          : POLLOUT)),
               0};
    if (::poll(&pfd, 1, 10) <= 0) continue;
    ssize_t got = ::read(conn.fd, buf, sizeof(buf));
    if (got > 0) {
      conn.in.append(buf, static_cast<size_t>(got));
    } else if (got == 0 ||
               (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      conn.dead = true;
    }
  }
  return false;
}

}  // namespace perfbench
