// Fig 1 — transformer single-layer throughput of the 2.7B-parameter shape
// family: the GPT-3 default (h=2560, a=32, h/a=80), the paper's C1
// (a=64, h/a=40) and C2 (a=40, h/a=64), further same-h head counts, and
// the h=4096 (6.7B) comparison point the paper discusses.
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig01_layer_family",
    "Fig 1: single-layer throughput of the 2.7B-parameter shape family",
    {"b", "s"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 1",
             "single-layer throughput of 2.7B-parameter shape variants");

  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);

  std::vector<tfm::TransformerConfig> family = tfm::gpt3_27b_family();
  // The paper's alternative fix: raise h to 4096 (doubles parameters).
  family.push_back(tfm::model_by_name("gpt3-6.7b"));

  const tfm::TransformerConfig base =
      tfm::model_by_name("gpt3-2.7b").with_microbatch(b).with_seq_len(s);
  const double base_time = tfm::analyze_layer(base, ctx.sim()).total_time;

  TableWriter t({"model", "h", "a", "h/a", "params", "layer time",
                 "TFLOP/s", "vs default"});
  for (tfm::TransformerConfig cfg : family) {
    cfg = cfg.with_microbatch(b).with_seq_len(s);
    const auto r = tfm::analyze_layer(cfg, ctx.sim());
    t.new_row()
        .cell(cfg.name)
        .cell(cfg.hidden_size)
        .cell(cfg.num_heads)
        .cell(cfg.head_dim())
        .cell(human_count(static_cast<double>(tfm::exact_param_count(cfg))))
        .cell(human_time(r.total_time))
        .cell(r.throughput_tflops, 1)
        .cell(str_format("%.3fx", base_time / r.total_time));
  }
  ctx.emit(t);

  ctx.section("headline");
  const auto c2 = tfm::analyze_layer(
      tfm::model_by_name("gpt3-2.7b-c2").with_microbatch(b).with_seq_len(s),
      ctx.sim());
  std::cout << "C2 (a=40, h/a=64) vs GPT-3 2.7B default (a=32, h/a=80): "
            << str_format("%.3fx", base_time / c2.total_time)
            << " (paper: ~1.18x)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig01_layer_family) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig01.layer_family", "bench_fig01_layer_family",
           "analyze_layer over the 2.7B shape family + the 6.7B point",
           {benchlib::kSuiteFig, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             std::vector<tfm::TransformerConfig> family =
                 tfm::gpt3_27b_family();
             family.push_back(tfm::model_by_name("gpt3-6.7b"));
             for (tfm::TransformerConfig cfg : family) {
               cfg = cfg.with_microbatch(4).with_seq_len(2048);
               const auto r = tfm::analyze_layer(cfg, c.sim());
               c.consume(r.total_time);
               c.consume(r.throughput_tflops);
             }
           }});
}
