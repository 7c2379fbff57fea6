#include "server_proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "loadgen.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// posix_spawn `argv` with stdout on a pipe; returns the pid and sets
/// *out_fd to the read end.
pid_t spawn_piped(const std::vector<std::string>& argv, int* out_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  *out_fd = fds[0];
  return pid;
}

/// Read everything until EOF.
std::string read_all(int fd) {
  std::string out;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return out;
    }
  }
}

int decode_status(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double rusage_cpu_s(const rusage& ru) {
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
  }
}

ServerProcess::ServerProcess(const std::string& codesign,
                             const std::vector<std::string>& args,
                             const std::vector<int>& cpus) {
  std::vector<std::string> argv = {codesign, "serve", "--port=0"};
  argv.insert(argv.end(), args.begin(), args.end());
  // The child inherits the affinity of the spawning thread.
  cpu_set_t own;
  ::sched_getaffinity(0, sizeof own, &own);
  if (!cpus.empty()) pin_to(cpus);
  pid_ = spawn_piped(argv, &out_fd_);
  ::sched_setaffinity(0, sizeof own, &own);
  // "codesign serve listening on 127.0.0.1:PORT (...)"
  std::string line;
  char c = 0;
  while (line.find('\n') == std::string::npos) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 10000) <= 0 || ::read(out_fd_, &c, 1) != 1) {
      throw std::runtime_error("codesign serve did not start: '" + line + "'");
    }
    line += c;
  }
  const std::size_t colon = line.rfind(':', line.find(" ("));
  port_ = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
  if (line.find("listening on") == std::string::npos || port_ <= 0) {
    throw std::runtime_error("unexpected codesign serve banner: " + line);
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for the server process");
}

double ServerProcess::cpu_seconds() const {
  // Nanoseconds on the CPU per thread (schedstat), summed over the
  // threads; /proc/<pid>/stat counts only whole clock ticks.
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) throw std::runtime_error("cannot list " + dir);
  double ns = 0.0;
  while (const dirent* e = ::readdir(tasks)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream stat(dir + "/" + e->d_name + "/schedstat");
    double run_ns = 0.0;
    if (stat >> run_ns) ns += run_ns;
  }
  ::closedir(tasks);
  return ns / 1e9;
}

ServerProcess::Exit ServerProcess::stop() {
  Exit e;
  const double t0 = now_us();
  ::kill(pid_, SIGINT);
  read_all(out_fd_);  // EOF once the server has exited
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  e.drain_ms = (now_us() - t0) / 1000.0;
  e.status = decode_status(status);
  e.cpu_s = rusage_cpu_s(ru);
  pid_ = -1;
  return e;
}

RunResult run_capture(const std::vector<std::string>& argv) {
  RunResult r;
  const double t0 = now_us();
  int fd = -1;
  const pid_t pid = spawn_piped(argv, &fd);
  r.out = read_all(fd);
  ::close(fd);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_s = (now_us() - t0) / 1e6;
  r.status = decode_status(status);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.cpu_s = rusage_cpu_s(ru);
  return r;
}

}  // namespace perfbench
