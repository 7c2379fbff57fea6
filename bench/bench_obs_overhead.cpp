// bench_obs_overhead — cost of the observability layer on the hot path.
//
// Times GemmSimulator::estimate() in three instrumentation states:
//   off       — metrics disabled, no recorder (the default); the guard is
//               one relaxed atomic load, so this must match the seed's cost
//   metrics   — MetricsRegistry enabled (counters on every estimate), on
//               one thread and — reported, not gated — on 4 threads at
//               once, where a lock on the counting path would show as
//               contention that the 1-thread row cannot see
//   recorder  — metrics + an installed EventRecorder (selection trail
//               events on every kernel selection)
// plus the attribution state:
//   breakdown — gemm::bound_breakdown() computed after every estimate (the
//               `codesign analyze` hot path); contract: <= 1.1x "off".
//               When attribution is not requested the breakdown is simply
//               never called, so the disabled cost IS the "off" row.
// The "off" row is the zero-overhead contract of docs/OBSERVABILITY.md.
// Writes the measurements as a schema-versioned BenchReport
// (--out=BENCH_obs.json) so the overhead trajectory is machine-readable.
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "benchlib/bench_report.hpp"
#include "benchlib/runner.hpp"
#include "common/strings.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_obs_overhead",
    "obs overhead: estimate() latency off / metrics / metrics+recorder",
    {"iters", "out"}};

using Clock = std::chrono::steady_clock;

std::vector<gemm::GemmProblem> hot_problems() {
  std::vector<gemm::GemmProblem> problems;
  for (const std::int64_t n : {2560, 5120, 7680, 12288, 50304}) {
    gemm::GemmProblem p;
    p.m = 8192;
    p.n = n;
    p.k = 2560;
    problems.push_back(p);
  }
  return problems;
}

double ns_per_estimate(const gemm::GemmSimulator& sim,
                       const std::vector<gemm::GemmProblem>& problems,
                       int iters) {
  // One untimed pass to warm whatever needs warming.
  double sink = 0.0;
  for (const auto& p : problems) sink += sim.estimate(p).time;
  const auto start = Clock::now();
  for (int it = 0; it < iters; ++it) {
    for (const auto& p : problems) sink += sim.estimate(p).time;
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  // Keep the estimates observable so the loop cannot be elided.
  if (sink < 0.0) std::cerr << sink;
  return ns / (static_cast<double>(iters) * problems.size());
}

/// ns_per_estimate on `threads` threads at once, all sharing `sim`: the
/// mean of the threads' per-estimate wall times.
double ns_per_estimate_concurrent(
    const gemm::GemmSimulator& sim,
    const std::vector<gemm::GemmProblem>& problems, int iters,
    std::size_t threads) {
  std::vector<double> ns(threads, 0.0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&, t] { ns[t] = ns_per_estimate(sim, problems, iters); });
  }
  for (std::thread& w : workers) w.join();
  double sum = 0.0;
  for (const double v : ns) sum += v;
  return sum / static_cast<double>(threads);
}

/// The attribution hot loop: estimate, then decompose. The breakdown is a
/// handful of divisions over fields the estimate already carries, so this
/// must stay within 1.1x of the bare loop.
double ns_per_estimate_with_breakdown(
    const gemm::GemmSimulator& sim,
    const std::vector<gemm::GemmProblem>& problems, int iters) {
  double sink = 0.0;
  for (const auto& p : problems) sink += sim.estimate(p).time;
  const auto start = Clock::now();
  for (int it = 0; it < iters; ++it) {
    for (const auto& p : problems) {
      const gemm::KernelEstimate e = sim.estimate(p);
      const gemm::BoundBreakdown b = gemm::bound_breakdown(e);
      sink += e.time + b.compute + b.tile_waste;
    }
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  if (sink < 0.0) std::cerr << sink;
  return ns / (static_cast<double>(iters) * problems.size());
}

int body(bench::BenchContext& ctx) {
  ctx.banner("obs overhead",
             "estimate() latency with instrumentation off / metrics / "
             "metrics+recorder");

  const std::vector<gemm::GemmProblem> problems = hot_problems();
  const int iters = static_cast<int>(ctx.args().get_int("iters", 200));
  const std::string out_path = ctx.args().get_string("out", "BENCH_obs.json");

  obs::MetricsRegistry::set_enabled(false);
  const double off_ns = ns_per_estimate(ctx.sim(), problems, iters);
  const double breakdown_ns =
      ns_per_estimate_with_breakdown(ctx.sim(), problems, iters);

  obs::MetricsRegistry::set_enabled(true);
  const double metrics_ns = ns_per_estimate(ctx.sim(), problems, iters);
  const double metrics_4t_ns =
      ns_per_estimate_concurrent(ctx.sim(), problems, iters, 4);

  double recorder_ns = 0.0;
  {
    obs::ScopedRecorder scoped;
    recorder_ns = ns_per_estimate(ctx.sim(), problems, iters);
  }
  obs::MetricsRegistry::set_enabled(false);
  obs::MetricsRegistry::global().reset_values();

  TableWriter t({"state", "ns/estimate", "overhead"});
  const auto row = [&](const char* state, double ns) {
    t.new_row()
        .cell(state)
        .cell(ns, 0)
        .cell(str_format("%.2fx", ns / off_ns));
  };
  row("off", off_ns);
  row("off+breakdown", breakdown_ns);
  row("metrics", metrics_ns);
  row("metrics, 4 threads", metrics_4t_ns);
  row("metrics+recorder", recorder_ns);
  ctx.emit(t);

  // Machine-readable trajectory record (schema: codesign.bench_report).
  // The estimate results themselves are the data checksum: identical in
  // every instrumentation state or the states are not comparable.
  std::uint64_t checksum = benchlib::kChecksumSeed;
  for (const auto& p : problems) {
    checksum = benchlib::checksum_fold(checksum, ctx.sim().estimate(p).time);
  }

  benchlib::BenchReport report;
  report.run.suite = "trajectory";
  report.run.filter = "obs_overhead";
  report.run.gpu = ctx.gpu().id;
  report.run.policy = benchlib::tile_policy_name(ctx.sim().policy());
  report.run.warmup = 1;
  report.run.repeats = iters;
  report.run.threads = 1;
  report.host = benchlib::HostFingerprint::current();
  report.context["bench"] = "obs_overhead";
  report.context["overhead_metrics_vs_off"] =
      str_format("%.3f", metrics_ns / off_ns);
  report.context["overhead_metrics_4threads_vs_off"] =
      str_format("%.3f", metrics_4t_ns / off_ns);
  report.context["overhead_recorder_vs_off"] =
      str_format("%.3f", recorder_ns / off_ns);
  report.context["overhead_breakdown_vs_off"] =
      str_format("%.3f", breakdown_ns / off_ns);
  const auto add_case = [&](const std::string& name, double ns) {
    benchlib::CaseStats s;
    s.name = name;
    s.bench = "bench_obs_overhead";
    s.suites = {benchlib::kSuitePerf};
    s.samples_ms = {ns * 1e-6};
    s.checksum = checksum;
    benchlib::summarize(s);
    report.cases.push_back(std::move(s));
  };
  add_case("obs.estimate_off", off_ns);
  add_case("obs.estimate_breakdown", breakdown_ns);
  add_case("obs.estimate_metrics", metrics_ns);
  add_case("obs.estimate_metrics_4threads", metrics_4t_ns);
  add_case("obs.estimate_metrics_recorder", recorder_ns);
  report.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(obs_overhead) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"obs.estimate_hot_loop", "bench_obs_overhead",
           "GemmSimulator::estimate() hot loop on the logit-shaped set",
           {benchlib::kSuitePerf, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const auto problems = hot_problems();
             double sink = 0.0;
             for (int it = 0; it < 40; ++it) {
               for (const auto& p : problems) sink += c.sim().estimate(p).time;
             }
             c.consume(sink);
           },
           /*threshold_frac=*/0.30});
  reg.add({"obs.estimate_breakdown_loop", "bench_obs_overhead",
           "estimate() + bound_breakdown() attribution hot loop",
           {benchlib::kSuitePerf, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const auto problems = hot_problems();
             double sink = 0.0;
             for (int it = 0; it < 40; ++it) {
               for (const auto& p : problems) {
                 const gemm::KernelEstimate e = c.sim().estimate(p);
                 sink += gemm::bound_breakdown(e).compute + e.time;
               }
             }
             c.consume(sink);
           },
           /*threshold_frac=*/0.30});
}
