// Case study (§VI-B / Fig 1) — re-shaping GPT-3 2.7B: the full advisor
// workflow on the paper's headline example, end to end: diagnose the
// default shape, search alternatives, report the predicted training-step
// and inference impact of the C2 re-shape, and show the clones that
// inherited the inefficiency.
#include "advisor/report.hpp"
#include "advisor/search.hpp"
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/inference.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_case_gpt3_27b",
    "Case study: the GPT-3 2.7B re-shape (a: 32 -> 40)",
    {}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Case study: GPT-3 2.7B re-shape",
             "the ~1.18x fix the paper derives (a: 32 -> 40)");

  const auto& base = tfm::model_by_name("gpt3-2.7b");
  const auto& c2 = tfm::model_by_name("gpt3-2.7b-c2");

  ctx.section("advisor report for the default shape");
  advisor::ReportOptions opt;
  opt.suggestions_per_search = 6;
  std::cout << advisor::advise(base, ctx.sim(), opt);

  ctx.section("end-to-end impact of the C2 re-shape");
  const auto mb = tfm::analyze_model(base, ctx.sim());
  const auto mc = tfm::analyze_model(c2, ctx.sim());
  TableWriter t({"metric", "default (a=32)", "C2 (a=40)", "ratio"});
  t.new_row()
      .cell("fwd step time")
      .cell(human_time(mb.total_time))
      .cell(human_time(mc.total_time))
      .cell(str_format("%.3fx", mb.total_time / mc.total_time));
  t.new_row()
      .cell("fwd tokens/s")
      .cell(mb.tokens_per_second, 0)
      .cell(mc.tokens_per_second, 0)
      .cell(str_format("%.3fx", mc.tokens_per_second / mb.tokens_per_second));
  const auto ib = tfm::estimate_inference(base, ctx.sim());
  const auto ic = tfm::estimate_inference(c2, ctx.sim());
  t.new_row()
      .cell("inference prefill")
      .cell(human_time(ib.prefill_time))
      .cell(human_time(ic.prefill_time))
      .cell(str_format("%.3fx", ib.prefill_time / ic.prefill_time));
  ctx.emit(t);

  ctx.section("architectures that copied the inefficient shape (§VI-B)");
  TableWriter tc({"model", "h/a", "layer TFLOP/s", "if reshaped to h/a=64"});
  for (const char* name :
       {"gpt3-2.7b", "gpt-neo-2.7b", "opt-2.7b", "redpajama-incite-3b",
        "pythia-2.8b"}) {
    const auto cfg = tfm::model_by_name(name);
    const auto r = tfm::analyze_layer(cfg, ctx.sim());
    const auto fixed = tfm::analyze_layer(cfg.with_heads(40), ctx.sim());
    tc.new_row()
        .cell(name)
        .cell(cfg.head_dim())
        .cell(r.throughput_tflops, 1)
        .cell(str_format("%.1f (%.3fx)", fixed.throughput_tflops,
                         r.total_time / fixed.total_time));
  }
  ctx.emit(tc);
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(case_gpt3_27b) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"case.gpt3_27b_reshape", "bench_case_gpt3_27b",
           "full-model + inference impact of the C2 re-shape and its clones",
           {benchlib::kSuiteExt},
           [](benchlib::CaseContext& c) {
             const auto& base = tfm::model_by_name("gpt3-2.7b");
             const auto& c2 = tfm::model_by_name("gpt3-2.7b-c2");
             c.consume(tfm::analyze_model(base, c.sim()).total_time);
             c.consume(tfm::analyze_model(c2, c.sim()).total_time);
             c.consume(tfm::estimate_inference(base, c.sim()).prefill_time);
             c.consume(tfm::estimate_inference(c2, c.sim()).prefill_time);
             for (const char* name :
                  {"gpt3-2.7b", "gpt-neo-2.7b", "opt-2.7b",
                   "redpajama-incite-3b", "pythia-2.8b"}) {
               const auto cfg = tfm::model_by_name(name);
               c.consume(tfm::analyze_layer(cfg, c.sim()).total_time);
               c.consume(
                   tfm::analyze_layer(cfg.with_heads(40), c.sim()).total_time);
             }
           }});
}
