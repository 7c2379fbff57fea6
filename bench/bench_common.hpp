// bench_common.hpp — shared harness for the paper-figure benches.
//
// Every bench/bench_*.cpp (but google-benchmark's bench_kernels_cpu)
// regenerates the rows/series of one figure or table from the paper and
// runs as `codesign-bench figure bench_<name>`. Conventions:
//   * stdout carries the data (ASCII tables by default, --format=csv for
//     machine-readable output); stderr carries logs.
//   * --gpu=<id> selects the simulated device (default a100; the registry
//     ids/aliases of gpuarch are accepted).
//   * --policy=auto|fixed selects the tile-selection policy.
//   * Unknown flags are rejected with the documented usage exit code 2
//     (common/error.hpp); each figure declares its extra flags in a
//     BenchSpec so typos fail loudly instead of silently running the
//     defaults.
//   * Each figure prints a header naming the paper figure it reproduces.
//
// Each source has one registration hook (CODESIGN_BENCH below) that adds
// its figure and its named timing cases to a Roster; `codesign-bench`
// prints the figures and lists/filters/times the cases, writing the
// machine-readable perf trajectory (docs/BENCHMARKS.md).
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "benchlib/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "gemmsim/simulator.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::bench {

/// Identity + command-line contract of one figure. `flags` lists
/// the extra --name flags the body reads beyond the standard
/// gpu/policy/format trio; anything else on the command line is a
/// UsageError (exit 2).
struct BenchSpec {
  std::string name;                 ///< e.g. "bench_fig05_gemm_sweep"
  std::string summary;              ///< one line for the usage message
  std::vector<std::string> flags;   ///< extra accepted flag names
  std::string default_gpu = "a100";
};

class BenchContext {
 public:
  static BenchContext from_args(int argc, const char* const* argv,
                                const BenchSpec& spec = {});

  const CliArgs& args() const { return args_; }
  const gpu::GpuSpec& gpu() const { return *gpu_; }
  const gemm::GemmSimulator& sim() const { return sim_; }
  TableFormat format() const { return format_; }

  /// Print the figure banner: which figure, which GPU, which policy.
  void banner(const std::string& figure, const std::string& description) const;

  /// Print a section heading (suppressed in CSV mode where a "# section"
  /// comment line is used instead).
  void section(const std::string& title) const;

  /// Render a table to stdout in the selected format.
  void emit(const TableWriter& table) const;

 private:
  BenchContext(CliArgs args, const gpu::GpuSpec& g, gemm::TilePolicy policy,
               TableFormat format)
      : args_(std::move(args)), gpu_(&g), sim_(g, policy), format_(format) {}

  CliArgs args_;
  const gpu::GpuSpec* gpu_;
  gemm::GemmSimulator sim_;
  TableFormat format_;
};

using FigureBody = int (*)(BenchContext&);

/// Runs one figure: parses flags (argv[0] is skipped), catches
/// codesign::Error with a clean message, and exits with the documented
/// taxonomy of common/error.hpp (unknown flag -> 2, unknown GPU -> 5, ...).
int run_bench(int argc, const char* const* argv, FigureBody body,
              const BenchSpec& spec = {});

/// One paper figure: its command-line contract and the body printing it.
struct Figure {
  BenchSpec spec;
  FigureBody body;
};

/// What the registration hooks fill: every figure (`codesign-bench
/// figure`) and every timing case (`codesign-bench list|run`).
struct Roster {
  benchlib::BenchRegistry cases;
  std::vector<Figure> figures;

  void add(benchlib::BenchCase c) { cases.add(std::move(c)); }
  /// Throws codesign::Error when a figure of that name is registered.
  void figure(const BenchSpec& spec, FigureBody body);
  /// Exact-name lookup; nullptr when absent.
  const Figure* find_figure(const std::string& name) const;
};

}  // namespace codesign::bench

/// Defines a bench source's registration hook: a uniquely named extern
/// function that bench/bench_cases.cpp calls. Use at namespace scope:
///   CODESIGN_BENCH(fig05_gemm_sweep) {
///     reg.figure(kSpec, body);
///     reg.add({...});
///   }
#define CODESIGN_BENCH(id) \
  void codesign_bench_register_##id(::codesign::bench::Roster& reg)
