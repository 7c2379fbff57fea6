#include "speed.hpp"

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "loadgen.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

volatile unsigned long long g_sink = 0;

/// How far back pass_ms() looks when it widens an interval.
constexpr double kLookBackUs = 30e6;

/// One pass of the reference kernel: floating-point cost arithmetic with
/// divisions and rounding, number formatting into a growing string,
/// hash-map inserts and lookups, and a sort: the mix of work the system
/// does when it estimates, searches and renders. Returns a checksum.
unsigned long long reference_pass() {
  unsigned long long h = 1469598103934665603ull;
  auto mix = [&h](unsigned long long x) { h = (h ^ x) * 1099511628211ull; };

  // Roofline-style cost arithmetic over a fixed grid of shapes.
  double total = 0.0;
  for (int i = 1; i <= 7500; ++i) {
    const double m = 64.0 * (i % 61 + 1), n = 128.0 * (i % 37 + 1), k = 32.0 * (i % 23 + 1);
    const double tiles = std::ceil(m / 128.0) * std::ceil(n / 256.0);
    const double waves = std::ceil(tiles / 108.0);
    const double compute = 2.0 * m * n * k / 312e12;
    const double memory = 2.0 * (m * k + k * n + m * n) / 1.5e12;
    total += std::max(compute * waves * 108.0 / tiles, memory) + 4e-6;
  }
  mix(static_cast<unsigned long long>(total * 1e9));

  // Number formatting into one growing string, as a JSON render does.
  std::string text;
  char buf[32];
  for (int i = 0; i < 3500; ++i) {
    const int len = std::snprintf(buf, sizeof buf, "%.6g,", 1.0 / (i + 3) + i * 0.37);
    text.append(buf, static_cast<std::size_t>(len));
  }
  for (const char c : text) mix(static_cast<unsigned char>(c));

  // Hash-map inserts and lookups, as the estimate cache does.
  std::unordered_map<unsigned long long, double> map;
  for (unsigned long long i = 0; i < 3000; ++i) map.emplace(i * 2654435761ull, static_cast<double>(i));
  double found = 0.0;
  for (unsigned long long i = 0; i < 12000; ++i) {
    const auto it = map.find((i % 4500) * 2654435761ull);
    if (it != map.end()) found += it->second;
  }
  mix(static_cast<unsigned long long>(found));

  // A sort of a scrambled vector, as a top-k merge does.
  std::vector<double> v(7500);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>((i * 7919) % 7499);
  std::sort(v.begin(), v.end());
  mix(static_cast<unsigned long long>(v[v.size() / 2]));
  return h;
}

}  // namespace

/// The passes one probe thread has finished, newest last; the writer
/// publishes each with a release store of `count`.
struct SpeedProbe::Ring {
  static constexpr std::size_t kSize = 16384;  // ~18 s of passes at 1.1 ms
  struct Pass {
    double end_us = 0.0;
    double cpu_ms = 0.0;
  };
  std::atomic<std::uint64_t> count{0};
  Pass passes[kSize];
};

SpeedProbe::SpeedProbe(const std::vector<int>& cpus) : cpus_(cpus) {
  if (cpus_.empty()) cpus_.push_back(0);
  rings_bytes_ = sizeof(Ring) * cpus_.size();
  void* mem = ::mmap(nullptr, rings_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error(std::string("mmap: ") + std::strerror(errno));
  rings_ = static_cast<Ring*>(mem);
  for (std::size_t i = 0; i < cpus_.size(); ++i) new (&rings_[i]) Ring();

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid_ > 0) return;
  // The child: die with the benchmark, drop to idle priority (inherited
  // by the threads), run passes.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(0);
  sched_param idle{};
  ::sched_setscheduler(0, SCHED_IDLE, &idle);
  auto probe = [this](std::size_t i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[i], &set);
    ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
    Ring& ring = rings_[i];
    for (std::uint64_t n = 0;; ++n) {
      const double c0 = thread_cpu_ms();
      g_sink = g_sink + reference_pass();
      Ring::Pass& p = ring.passes[n % Ring::kSize];
      p.cpu_ms = thread_cpu_ms() - c0;
      p.end_us = now_us();
      ring.count.store(n + 1, std::memory_order_release);
    }
  };
  try {
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < cpus_.size(); ++i) threads.emplace_back(probe, i);
    probe(0);
  } catch (...) {
    ::_exit(1);  // never back into the benchmark's own code
  }
}

SpeedProbe::~SpeedProbe() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (rings_ != nullptr) ::munmap(rings_, rings_bytes_);
}

double SpeedProbe::pass_ms(double t0_us, double t1_us, const std::vector<int>& cpus) const {
  // Every pass of the chosen CPUs from kLookBackUs before t0 on, except
  // the oldest slots of each ring, which the writer may be reusing.
  std::vector<Ring::Pass> seen;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (!cpus.empty() && std::find(cpus.begin(), cpus.end(), cpus_[i]) == cpus.end()) continue;
    const Ring& ring = rings_[i];
    const std::uint64_t count = ring.count.load(std::memory_order_acquire);
    const std::uint64_t keep = std::min<std::uint64_t>(count, Ring::kSize - 256);
    for (std::uint64_t n = count; n > count - keep; --n) {
      const Ring::Pass& p = ring.passes[(n - 1) % Ring::kSize];
      if (p.end_us < t0_us - kLookBackUs) break;
      seen.push_back(p);
    }
  }
  double lo = t0_us, hi = t1_us;
  while (true) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const Ring::Pass& p : seen) {
      if (p.end_us >= lo && p.end_us <= hi) {
        sum += p.cpu_ms;
        ++n;
      }
    }
    if (n >= kMinPasses || (n > 0 && hi - lo > 2 * kLookBackUs)) return sum / static_cast<double>(n);
    if (hi - lo > 2 * kLookBackUs) {
      throw std::runtime_error("speed probe: no reference pass finished in the last 30 s");
    }
    const double mid = 0.5 * (lo + hi), half = 0.75 * (hi - lo) + 1000.0;
    lo = mid - half;
    hi = mid + half;
  }
}

double SpeedProbe::scaled(double raw, double t0_us, double t1_us, const std::vector<int>& cpus) {
  readings_.push_back(pass_ms(t0_us, t1_us, cpus));
  return raw * kReferencePassMs / readings_.back();
}

void report_speed(const SpeedProbe& probe, Metrics& m) {
  const std::vector<double>& r = probe.readings();
  m.set("host.reference_pass_ms", median(r), "ms");
  note("  reference pass: %.3f ms median over %zu measured intervals, %.3f to "
       "%.3f (10th to 90th percentile), max %.3f; %.3f ms at the reference "
       "speed", median(r), r.size(), quantile(r, 0.1), quantile(r, 0.9),
       quantile(r, 1.0), kReferencePassMs);
}

}  // namespace perfbench
