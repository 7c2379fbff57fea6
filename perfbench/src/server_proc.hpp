// server_proc.hpp — one `codesign serve` child process.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Spawn `codesign serve --port=0 <args>`, confined to `cpus` (all when
  /// empty), and wait for its listening line. Throws when it exits or
  /// prints something else.
  ServerProcess(const std::string& codesign, const std::vector<std::string>& args,
                const std::vector<int>& cpus);
  /// Kills (SIGKILL) and reaps the child if stop() was not called.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// The child's peak resident set so far (VmHWM), in MiB.
  double peak_rss_mb() const;
  /// CPU time the child's live threads have used, in seconds.
  double cpu_seconds() const;

  struct Exit {
    int status = -1;          ///< exit code, or -1 when killed by a signal
    double drain_ms = 0.0;    ///< SIGINT to exit
    double cpu_s = 0.0;       ///< user + system time of the whole life
  };
  /// SIGINT (graceful drain) and wait for the exit.
  Exit stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Confine the calling thread (and the children it spawns) to `cpus`.
void pin_to(const std::vector<int>& cpus);

/// Run `argv` to completion with stdout captured (stdin from /dev/null,
/// stderr inherited). Returns the exit code (-1 on a signal), the wall
/// time from spawn to exit, the child's CPU time (user + system) and its
/// peak RSS.
struct RunResult {
  int status = -1;
  std::string out;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
RunResult run_capture(const std::vector<std::string>& argv);

}  // namespace perfbench
