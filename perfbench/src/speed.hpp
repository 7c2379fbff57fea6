// speed.hpp — the host's CPU speed while the measured work runs, read from
// a fixed reference kernel, so CPU-time figures can be scaled to one
// reference speed.
//
// The recording host is a VM on a shared machine: the speed of its vCPUs
// swings by up to ~2.5x, in spells from tens of milliseconds to minutes
// (busy neighbours on shared cores and caches), while the ratio of two
// pieces of work run side by side holds far better. A cost figure divided
// by the reference kernel's pass time, measured on the same CPUs over the
// same interval, therefore repeats where the raw CPU time does not. The
// kernel is the benchmark's own code and never changes with the system, so
// a slower system still reads slower.
//
// The passes run in a child process, one SCHED_IDLE thread pinned to each
// CPU: any other thread that becomes runnable preempts a probe at once, so
// the probes take only CPU time no one else wants, and the benchmark's own
// CPU-time figures never include them. Keeping every CPU busy also keeps
// the vCPUs from halting: a vCPU that halts hands its core back to the
// hypervisor, and the thread that wakes on it next pays for cold caches
// and the wake-up exit, by an amount that depends on the neighbours.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <vector>

namespace perfbench {

class Metrics;

/// CPU ms of one reference pass on the recording host (Intel Xeon VM, 4
/// vCPUs) in a calm spell, with every CPU running passes. Scaled figures
/// read as CPU time on that host at that speed.
inline constexpr double kReferencePassMs = 1.1;

class SpeedProbe {
 public:
  /// Fork the probe process, one thread per CPU of `cpus`. Call it before
  /// the process starts any thread. The child dies with this process.
  explicit SpeedProbe(const std::vector<int>& cpus);
  /// Kills and reaps the probe process.
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// `raw` CPU time of work run between `t0_us` and `t1_us` (now_us()
  /// clock) on `cpus` (every probed CPU when empty), scaled to the
  /// reference speed: raw x kReferencePassMs / pass_ms(...). The pass time
  /// is kept as a reading.
  double scaled(double raw, double t0_us, double t1_us, const std::vector<int>& cpus = {});

  /// The pass time behind every scaled() call so far, in ms.
  const std::vector<double>& readings() const { return readings_; }

 private:
  /// Mean CPU ms of the passes that ended between `t0_us` and `t1_us` on
  /// `cpus`. When the CPUs were too busy for kMinPasses passes, the
  /// interval is widened about its middle until it holds them.
  double pass_ms(double t0_us, double t1_us, const std::vector<int>& cpus) const;

  static constexpr std::size_t kMinPasses = 12;
  struct Ring;
  std::vector<int> cpus_;
  Ring* rings_ = nullptr;  ///< one per CPU of cpus_, shared with the child
  std::size_t rings_bytes_ = 0;
  pid_t pid_ = -1;
  std::vector<double> readings_;
};

/// Log the probe's readings, how fast the host ran over the run, and set
/// their median as host.reference_pass_ms (reported, never bounded).
void report_speed(const SpeedProbe& probe, Metrics& m);

}  // namespace perfbench
