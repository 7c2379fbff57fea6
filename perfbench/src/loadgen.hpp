// loadgen.hpp — the open-loop request generator.
//
// One thread drives every connection through epoll: it writes each request
// when it falls due (never waiting for earlier replies), reads replies in
// completion order, correlates them by id and byte-checks each against the
// oracle. Latency runs from the request's *scheduled* send time, so a
// stall that delays later sends is charged to them; how late the generator
// itself ran is recorded per request as its lag.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace perfbench {

/// One request of a phase: due `due_s` after the phase starts.
struct PhaseRequest {
  double due_s = 0.0;
  const Prepared* prepared = nullptr;
};

struct PhaseOptions {
  double limit_ms = 1.0;  ///< latency limit: slower replies are misses
  /// Stop sending once misses exceed this share of the phase (0 = never).
  /// The rate search uses it so an overloaded step ends early.
  double abort_miss_frac = 0.0;
  /// How long to wait for outstanding replies after the last send.
  double drain_s = 10.0;
  /// When non-empty, this line is sent on the control connection every
  /// `poll_every_s` and the replies are kept in PhaseResult::polls.
  std::string poll_line;
  double poll_every_s = 0.25;
};

inline constexpr double kMissing = std::numeric_limits<double>::infinity();

struct PhaseResult {
  std::size_t scheduled = 0;
  std::size_t sent = 0;
  std::size_t ok = 0, wrong = 0, refused = 0, errors = 0, lost = 0;
  std::size_t misses = 0;  ///< over the limit, refused, failed, wrong or lost
  bool aborted = false;
  std::uint64_t first_id = 0;
  /// Per sent request, in send order: latency from the due time (kMissing
  /// unless the reply was ok and correct), generator lag, and the op.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<Op> op;
  std::vector<double> due_wall_us;  ///< due time, steady clock µs
  std::vector<std::string> polls;
  std::string first_mismatch;  ///< the first wrong reply, for the log
};

class LoadGen {
 public:
  /// Connect `connections` data connections plus one control connection
  /// to 127.0.0.1:port.
  LoadGen(int port, std::size_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  PhaseResult run(const std::vector<PhaseRequest>& requests,
                  const PhaseOptions& options);

  /// One blocking request on a fresh control connection; returns the
  /// reply line without its newline.
  std::string call(const std::string& line);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    bool want_out = false;
  };
  void reconnect_control();
  void flush(Conn& c);
  template <class OnLine>
  bool drain_input(Conn& c, OnLine&& on_line);

  int port_ = 0;
  int epoll_ = -1;
  std::vector<Conn> conns_;  ///< data connections, then the control one
  std::uint64_t next_id_ = 1;
};

/// Steady-clock microseconds (shared time base of loadgen and spans).
double now_us();

}  // namespace perfbench
