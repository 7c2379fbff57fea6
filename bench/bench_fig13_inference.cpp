// Fig 13 — inference latency of the Pythia suite (DeepSpeed-MII-style
// serving): latency follows a power-law trend in parameter count, with
// Pythia-410M above the trend and Pythia-1B below it — the paper's
// demonstration that train-efficient shapes are also infer-efficient.
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "transformer/inference.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig13_inference",
    "Fig 13: Pythia-suite inference latency vs parameters",
    {"prompt", "gen", "batch"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 13", "Pythia-suite inference latency vs parameters");

  tfm::InferenceWorkload w;
  w.prompt_len = ctx.args().get_int("prompt", 128);
  w.generate_tokens = ctx.args().get_int("gen", 128);
  w.batch = ctx.args().get_int("batch", 1);

  const auto suite = tfm::pythia_suite();
  std::vector<double> params, latencies;
  std::vector<tfm::InferenceEstimate> ests;
  for (const auto& cfg : suite) {
    const auto e = tfm::estimate_inference(cfg, ctx.sim(), w);
    params.push_back(static_cast<double>(tfm::exact_param_count(cfg)));
    latencies.push_back(e.per_token_time);
    ests.push_back(e);
  }
  const PowerLawFit fit = power_law_fit(params, latencies);

  TableWriter t({"model", "params", "L", "h", "a", "per-token", "tokens/s",
                 "prefill", "vs trend"});
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const double dev = latencies[i] / fit.predict(params[i]);
    t.new_row()
        .cell(suite[i].name)
        .cell(human_count(params[i]))
        .cell(suite[i].num_layers)
        .cell(suite[i].hidden_size)
        .cell(suite[i].num_heads)
        .cell(human_time(ests[i].per_token_time))
        .cell(ests[i].tokens_per_second, 0)
        .cell(human_time(ests[i].prefill_time))
        .cell(str_format("%+.1f%%", 100.0 * (dev - 1.0)));
  }
  ctx.emit(t);
  std::cout << str_format(
      "trend: latency = %.3g * params^%.3f (log-log R^2 = %.3f)\n",
      fit.coefficient, fit.exponent, fit.r2);
  std::cout << "(paper: 410M sits ABOVE the trend — 24 thin layers of "
               "h=1024 — while 1B sits below it with 16 wide layers)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig13_inference) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig13.pythia_inference", "bench_fig13_inference",
           "inference estimates + power-law fit over the Pythia suite",
           {benchlib::kSuiteFig, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             tfm::InferenceWorkload w;
             w.prompt_len = 128;
             w.generate_tokens = 128;
             w.batch = 1;
             std::vector<double> params, latencies;
             for (const auto& cfg : tfm::pythia_suite()) {
               const auto e = tfm::estimate_inference(cfg, c.sim(), w);
               params.push_back(
                   static_cast<double>(tfm::exact_param_count(cfg)));
               latencies.push_back(e.per_token_time);
               c.consume(e.per_token_time);
               c.consume(e.prefill_time);
             }
             const PowerLawFit fit = power_law_fit(params, latencies);
             c.consume(fit.coefficient);
             c.consume(fit.exponent);
             c.consume(fit.r2);
           }});
}
