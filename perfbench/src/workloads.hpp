// workloads.hpp — the benchmark workloads and the per-layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gemmsim/gemm_problem.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "transformer/config.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string codesign;  ///< path of the `codesign` binary
  std::string out_dir;   ///< where configs and spans are written
  std::vector<int> cpus;  ///< the CPUs this process may run on
  unsigned nproc = 1;     ///< cpus.size()
};

struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  SpanLog spans;
};

class SpeedProbe;

/// Each workload scales its CPU-time figures with `speed` (speed.hpp).
void run_serve_workload(const RunArgs& args, SpeedProbe& speed, Outcome& out);
void run_sweep_workload(const RunArgs& args, SpeedProbe& speed, Outcome& out);

/// Inputs for the traced run's direct calls into each layer, taken from the
/// workload's own requests. Empty lists skip their probes.
struct ProbeInputs {
  /// GEMM shapes (with their GPU) for GemmSimulator::estimate.
  std::vector<std::pair<codesign::gemm::GemmProblem, std::string>> gemms;
  /// (config, gpu) pairs for layer_total_time, render_advise and the
  /// joint run_shape_search.
  using Point = std::pair<codesign::tfm::TransformerConfig, std::string>;
  std::vector<Point> layers;
  std::vector<Point> advise;
  std::vector<Point> searches;
  /// Sweep config texts, run with `sweep_threads` workers.
  std::vector<std::string> sweeps;
  std::size_t sweep_threads = 1;
};

/// Time the layer calls for `in`, setting the gemmsim/transformer/advisor/
/// sweep per-layer metrics and recording one span per call batch.
void run_probes(const ProbeInputs& in, Metrics& m, SpanLog& spans);

/// Print one line of the human-readable report (stdout, flushed).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
