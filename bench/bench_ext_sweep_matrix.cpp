// Extension — the scenario matrix engine (docs/SWEEP.md): a small
// workload x hardware sweep run end-to-end through the SweepDriver, both
// as the figure's cross-hardware ranking table and as the timed
// `sweep.matrix_small` case guarding the matrix-planning + grid-search
// hot path in the smoke/perf suites. Two perf-only rungs time the big
// stages alone: `sweep.run_matrix` runs a fixed 2012-variant matrix on 4
// threads, and `render.sweep_report` renders the compact JSON report of a
// fixed 412-variant matrix.
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "gemmsim/estimate_cache.hpp"
#include "sweep/driver.hpp"
#include "sweep/plan.hpp"
#include "sweep/report.hpp"

#include <memory>
#include <string>

namespace codesign {
namespace {

// Two families x two parts (one HBM, one bandwidth-starved edge part),
// two variants per workload: 4 cells / 8 variants — big enough to walk
// every driver stage, small enough for a smoke-suite sample.
constexpr const char* kMatrixConfig =
    "[sweep]\n"
    "name = bench-matrix\n"
    "gpus = a100, npu-edge\n"
    "[workload]\n"
    "family = gqa\n"
    "name = gqa-125m\n"
    "model = gpt3-125m\n"
    "kv_ratios = 1, 4\n"
    "[workload]\n"
    "family = prefill\n"
    "name = prefill-125m\n"
    "model = gpt3-125m\n"
    "seq_lens = 512, 2048\n";

/// The render rung's fixed matrix: a gpt3-2.7b heads x hidden grid (5 head
/// counts x 40 hidden sizes, every hidden a multiple of 320 so each pair
/// is legal) plus six GQA ratios, on a100 and h100 — 412 variant rows,
/// about 150 KB of compact report. Run once per process; the case times
/// only the rendering.
const sweep::SweepResult& render_matrix() {
  static const sweep::SweepResult result = [] {
    std::string config =
        "[sweep]\nname = render-matrix\ngpus = a100, h100\n"
        "[workload]\nfamily = decoder\nname = heads-x-hidden\n"
        "model = gpt3-2.7b\nheads = 20, 32, 40, 64, 80\nhidden = ";
    for (int i = 0; i < 40; ++i) {
      config += (i > 0 ? ", " : "") + std::to_string(2560 + 320 * i);
    }
    config +=
        "\n[workload]\nfamily = gqa\nname = gqa-7b\nmodel = llama2-7b\n"
        "kv_ratios = 1, 2, 4, 8, 16, 32\n";
    sweep::SweepOptions options;
    options.threads = 1;
    return sweep::run_sweep(
        sweep::parse_sweep_config(config, "render-matrix"), options);
  }();
  return result;
}

/// The run rung's fixed matrix: a gpt3-2.7b heads x hidden grid (5 head
/// counts x 200 hidden sizes on multiples of 320) plus six GQA ratios, on
/// a100 and h100 — 2012 variants, the shape of one generated sweep's
/// decoder workload.
const sweep::SweepPlan& run_plan() {
  static const sweep::SweepPlan plan = [] {
    std::string config =
        "[sweep]\nname = run-matrix\ngpus = a100, h100\n"
        "[workload]\nfamily = decoder\nname = heads-x-hidden\n"
        "model = gpt3-2.7b\nheads = 20, 32, 40, 64, 80\nhidden = ";
    for (int i = 0; i < 200; ++i) {
      config += (i > 0 ? ", " : "") + std::to_string(2560 + 320 * i);
    }
    config +=
        "\n[workload]\nfamily = gqa\nname = gqa-7b\nmodel = llama2-7b\n"
        "kv_ratios = 1, 2, 4, 8, 16, 32\n";
    return sweep::parse_sweep_config(config, "run-matrix");
  }();
  return plan;
}

/// FNV-1a of a report's bytes, folded into the case checksum.
void consume_report(benchlib::CaseContext& c, const std::string& json) {
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (const char ch : json) {
    fnv = (fnv ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
  }
  c.consume(static_cast<std::int64_t>(json.size()));
  c.consume(static_cast<std::int64_t>(fnv >> 32));
  c.consume(static_cast<std::int64_t>(fnv & 0xffffffffull));
}

const bench::BenchSpec kSpec{
    "bench_ext_sweep_matrix",
    "Extension: workload x hardware scenario matrix (codesign sweep)",
    {}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Extension: scenario matrix",
             "2 workload families x {a100, npu-edge} through the SweepDriver");

  const sweep::SweepPlan plan =
      sweep::parse_sweep_config(kMatrixConfig, "bench-matrix");
  sweep::SweepOptions options;
  options.threads = 1;
  options.cache = std::make_shared<gemm::EstimateCache>();
  const sweep::SweepResult result = sweep::run_sweep(plan, options);

  TableWriter t({"workload", "gpu", "winner", "time/token", "TFLOP/s"});
  for (const sweep::SweepCell& c : result.cells) {
    const sweep::SweepVariantResult& win = c.variants.front();
    t.new_row()
        .cell(c.workload)
        .cell(c.gpu)
        .cell(win.label)
        .cell(human_time(win.time_per_token))
        .cell(win.layer_tflops, 1);
  }
  ctx.emit(t);
  std::cout << "(the full matrix — 5 families x 4 parts with checkpointed "
               "resume — runs via `codesign sweep "
               "--config=examples/sweeps/full_matrix.conf`)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(ext_sweep_matrix) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"sweep.matrix_small", "bench_ext_sweep_matrix",
           "4-cell scenario matrix end-to-end through the SweepDriver",
           {benchlib::kSuitePerf, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const sweep::SweepPlan plan =
                 sweep::parse_sweep_config(kMatrixConfig, "bench-matrix");
             sweep::SweepOptions options;
             options.threads = 1;
             options.cache = std::make_shared<gemm::EstimateCache>();
             const sweep::SweepResult result = sweep::run_sweep(plan, options);
             for (const sweep::SweepCell& cell : result.cells) {
               for (const sweep::SweepVariantResult& v : cell.variants) {
                 c.consume(v.time_per_token);
                 c.consume(v.layer_tflops);
               }
             }
           }});
  reg.add({"render.sweep_report", "bench_ext_sweep_matrix",
           "compact codesign.sweep JSON of a fixed 412-variant matrix "
           "(render only; FNV-1a of the bytes is the checksum)",
           {benchlib::kSuitePerf},
           [](benchlib::CaseContext& c) {
             consume_report(c, sweep::sweep_report_json(render_matrix(),
                                                        /*compact=*/true));
           }});
  reg.add({"sweep.run_matrix", "bench_ext_sweep_matrix",
           "run_sweep over a fixed 2012-variant matrix on 4 threads, "
           "uncached (FNV-1a of the compact report is the checksum)",
           {benchlib::kSuitePerf},
           [](benchlib::CaseContext& c) {
             sweep::SweepOptions options;
             options.threads = 4;
             const sweep::SweepResult result =
                 sweep::run_sweep(run_plan(), options);
             consume_report(c, sweep::sweep_report_json(result,
                                                        /*compact=*/true));
           }});
}
