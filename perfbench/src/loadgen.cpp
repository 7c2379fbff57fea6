#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace perfbench {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string("loadgen: ") + what + ": " +
                           std::strerror(errno));
}

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    fail_errno("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void write_id(char* at, std::uint64_t id) {
  for (std::size_t i = kIdWidth; i-- > 0;) {
    at[i] = static_cast<char>('0' + id % 10);
    id /= 10;
  }
}

std::uint64_t parse_id(std::string_view digits) {
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return 0;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

LoadGen::LoadGen(int port, std::size_t connections) : port_(port) {
  // Wake-ups on time matter more than batching them: default timer slack
  // (50 µs) would show up as generator lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_ < 0) fail_errno("epoll_create1");
  conns_.resize(connections + 1);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    conns_[i].fd = connect_local(port);
  }
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epoll_ >= 0) ::close(epoll_);
}

void LoadGen::reconnect_control() {
  Conn& c = conns_.back();
  if (c.fd >= 0) ::close(c.fd);
  c = Conn{};
  c.fd = connect_local(port_);
}

void LoadGen::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      fail_errno("send");
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  const bool want = !c.out.empty();
  if (want != c.want_out) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
    if (::epoll_ctl(epoll_, EPOLL_CTL_MOD, c.fd, &ev) != 0) fail_errno("epoll_ctl");
    c.want_out = want;
  }
}

template <class OnLine>
bool LoadGen::drain_input(Conn& c, OnLine&& on_line) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n == 0) return false;  // server closed the connection
    fail_errno("recv");
  }
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    on_line(std::string_view(c.in).substr(start, nl - start));
    start = nl + 1;
  }
  c.in.erase(0, start);
  return true;
}

PhaseResult LoadGen::run(const std::vector<PhaseRequest>& requests,
                         const PhaseOptions& options) {
  const std::size_t n = requests.size();
  const std::size_t data_conns = conns_.size() - 1;
  // The server reaps connections idle for its idle timeout (30 s by
  // default); the control connection is opened afresh for each phase.
  reconnect_control();
  Conn& control = conns_.back();
  PhaseResult r;
  r.scheduled = n;
  r.first_id = next_id_;
  next_id_ += n;
  r.latency_ms.assign(n, kMissing);
  r.lag_ms.assign(n, 0.0);
  r.op.resize(n);
  r.due_wall_us.resize(n);
  // 0 = outstanding, 1 = answered, 2 = already counted as a miss (overdue)
  std::vector<std::uint8_t> state(n, 0);

  for (std::size_t i = 0; i < conns_.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, conns_[i].fd, &ev) != 0) {
      fail_errno("epoll_ctl add");
    }
    conns_[i].want_out = false;
  }

  const double t0 = now_us() + 2000.0;
  const double limit_us = options.limit_ms * 1000.0;
  std::size_t next = 0, send_end = n, answered = 0, overdue_scan = 0;
  double next_poll = t0;
  std::size_t polls_pending = 0;
  bool closed = false;

  auto on_reply = [&](std::string_view line, double at) {
    const std::uint64_t id = parse_id(response_id(line));
    if (id < r.first_id || id >= r.first_id + n) return;  // not this phase
    const std::size_t i = static_cast<std::size_t>(id - r.first_id);
    if (i >= next || state[i] == 1) return;
    const Verdict v = check_response(line, *requests[i].prepared,
                                     response_id(line));
    const double lat = (at - r.due_wall_us[i]) / 1000.0;
    switch (v) {
      case Verdict::kOk: ++r.ok; r.latency_ms[i] = lat; break;
      case Verdict::kWrong:
        ++r.wrong;
        if (r.first_mismatch.empty()) {
          r.first_mismatch = std::string(line.substr(0, 400));
        }
        break;
      case Verdict::kRefused: ++r.refused; break;
      case Verdict::kError:
        ++r.errors;
        if (r.first_mismatch.empty()) {
          r.first_mismatch = std::string(line.substr(0, 400));
        }
        break;
    }
    if (state[i] == 0 && (v != Verdict::kOk || lat > options.limit_ms)) {
      ++r.misses;
    }
    state[i] = 1;
    ++answered;
  };

  epoll_event events[64];
  while (true) {
    double now = now_us();
    const bool sending = next < send_end;
    while (next < send_end && t0 + requests[next].due_s * 1e6 <= now) {
      const PhaseRequest& req = requests[next];
      Conn& c = conns_[next % data_conns];
      const std::size_t at = c.out.size();
      c.out += req.prepared->request;
      write_id(c.out.data() + at + req.prepared->request_id_off,
               r.first_id + next);
      r.due_wall_us[next] = t0 + req.due_s * 1e6;
      r.lag_ms[next] = (now - r.due_wall_us[next]) / 1000.0;
      r.op[next] = req.prepared->op;
      ++next;
    }
    if (sending) {
      for (std::size_t i = 0; i < data_conns; ++i) {
        if (!conns_[i].out.empty() && !conns_[i].want_out) flush(conns_[i]);
      }
    }
    if (!options.poll_line.empty() && next < send_end && now >= next_poll) {
      control.out += options.poll_line;
      flush(control);
      ++polls_pending;
      next_poll += options.poll_every_s * 1e6;
    }
    // Requests past their limit and still unanswered are misses already.
    while (overdue_scan < next &&
           r.due_wall_us[overdue_scan] + limit_us < now) {
      if (state[overdue_scan] == 0) {
        state[overdue_scan] = 2;
        ++r.misses;
      }
      ++overdue_scan;
    }
    if (options.abort_miss_frac > 0.0 && !r.aborted &&
        static_cast<double>(r.misses) > options.abort_miss_frac * n) {
      r.aborted = true;
      send_end = next;
    }
    if (next >= send_end) {
      const double last_due =
          next > 0 ? r.due_wall_us[next - 1] : t0;
      if ((answered == next && polls_pending == 0) || closed ||
          now > last_due + options.drain_s * 1e6) {
        break;
      }
    }

    double wait_us = next < send_end
                         ? t0 + requests[next].due_s * 1e6 - now
                         : 5000.0;
    if (!options.poll_line.empty() && next < send_end) {
      wait_us = std::min(wait_us, next_poll - now);
    }
    if (wait_us < 0) wait_us = 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_us / 1e6);
    ts.tv_nsec = static_cast<long>((wait_us - ts.tv_sec * 1e6) * 1000.0);
    const int ne = ::epoll_pwait2(epoll_, events, 64, &ts, nullptr);
    if (ne < 0) {
      if (errno == EINTR) continue;
      fail_errno("epoll_pwait2");
    }
    for (int e = 0; e < ne; ++e) {
      Conn& c = conns_[events[e].data.u64];
      if (events[e].events & EPOLLOUT) flush(c);
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        const double at = now_us();
        const bool is_control = &c == &control;
        const bool open = drain_input(c, [&](std::string_view line) {
          if (is_control) {
            r.polls.emplace_back(line);
            if (polls_pending > 0) --polls_pending;
          } else {
            on_reply(line, at);
          }
        });
        if (!open) closed = true;
      }
    }
  }

  for (Conn& c : conns_) ::epoll_ctl(epoll_, EPOLL_CTL_DEL, c.fd, nullptr);
  r.sent = next;
  r.latency_ms.resize(next);
  r.lag_ms.resize(next);
  r.op.resize(next);
  r.due_wall_us.resize(next);
  for (std::size_t i = 0; i < next; ++i) {
    if (state[i] == 1) continue;
    ++r.lost;
    if (state[i] == 0) ++r.misses;  // lost before the overdue scan saw it
  }
  if (closed) {
    throw std::runtime_error("loadgen: the server closed a connection");
  }
  return r;
}

std::string LoadGen::call(const std::string& line) {
  reconnect_control();
  Conn& c = conns_.back();
  c.out += line;
  while (!c.out.empty()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    c.out_off += static_cast<std::size_t>(w);
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }
  char buf[1 << 16];
  while (true) {
    const std::size_t nl = c.in.find('\n');
    if (nl != std::string::npos) {
      std::string reply = c.in.substr(0, nl);
      c.in.erase(0, nl + 1);
      return reply;
    }
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("loadgen: control connection closed");
    }
  }
}

}  // namespace perfbench
