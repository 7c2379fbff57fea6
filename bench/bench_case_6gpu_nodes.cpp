// Case study (§VII-A) — 6-GPU nodes (ORNL Summit): tensor-parallel degree
// equal to the node size is the common layout, but t = 6 conflicts with
// power-of-two-aligned hidden sizes. Reproduces the paper's three points:
//   1. 8-GPU-node architectures may be impossible on 6-GPU nodes;
//   2. even when possible they may be inefficient (h/t loses its pow2);
//   3. concessions for 6-GPU pretraining can break 2/4/8-GPU deployment.
#include "advisor/cluster.hpp"
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_case_6gpu_nodes",
    "Case study: TP feasibility/efficiency across node sizes (Summit)",
    {}};

void tp_table(const bench::BenchContext& ctx,
              const tfm::TransformerConfig& cfg,
              const std::vector<std::int64_t>& degrees) {
  TableWriter t({"t", "feasible", "h/t", "pow2(h/t)", "layer TFLOP/s",
                 "rules", "why not"});
  for (const auto& o : advisor::analyze_tp_options(cfg, ctx.sim(), degrees)) {
    t.new_row()
        .cell(o.t)
        .cell(o.feasibility.feasible ? "yes" : "NO")
        .cell(o.feasibility.feasible ? std::to_string(cfg.hidden_size / o.t)
                                     : std::string("-"))
        .cell(o.feasibility.feasible ? std::to_string(o.hidden_per_tp_pow2)
                                     : std::string("-"))
        .cell(o.feasibility.feasible ? str_format("%.1f", o.layer_tflops)
                                     : std::string("-"))
        .cell(o.feasibility.feasible ? (o.rules_pass ? "PASS" : "FAIL")
                                     : std::string("-"))
        .cell(o.feasibility.reason);
  }
  ctx.emit(t);
}

int body(bench::BenchContext& ctx) {
  ctx.banner("Case study: 6-GPU nodes (Summit)",
             "tensor-parallel feasibility and efficiency across node sizes");

  const std::vector<std::int64_t> degrees = {1, 2, 4, 6, 8};

  ctx.section("point 1 — GPT-3 2.7B (8-GPU-node shape) on a 6-GPU node");
  tp_table(ctx, tfm::model_by_name("gpt3-2.7b").with_vocab(50304), degrees);

  ctx.section("point 2 — a Summit-feasible 20B shape: h=6144, a=48, v pads "
              "to a multiple of 6·64");
  tfm::TransformerConfig summit =
      tfm::model_by_name("gpt-neox-20b").with_heads(48).with_vocab(50688);
  summit.name = "neox-20b-summit";
  tp_table(ctx, summit, degrees);

  ctx.section("point 3 — a shape tuned ONLY for t=6 breaks 4- and 8-GPU "
              "deployment (a = 42)");
  tfm::TransformerConfig sixonly =
      summit.with_heads(42).with_hidden(5376).with_vocab(50688);
  sixonly.name = "six-only-20b";
  tp_table(ctx, sixonly, degrees);

  ctx.section("portable hidden sizes near h = 6144 (efficient for all of "
              "t in {2,4,6,8})");
  TableWriter tp({"h", "h%192", "nearest to 6144"});
  for (const std::int64_t h :
       advisor::portable_hidden_sizes(summit, {2, 4, 6, 8}, 4)) {
    tp.new_row().cell(h).cell(h % 192).cell(
        h == 6144 ? "exact" : str_format("%+lld", static_cast<long long>(h - 6144)));
  }
  ctx.emit(tp);
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(case_6gpu_nodes) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"case.six_gpu_nodes", "bench_case_6gpu_nodes",
           "TP option analysis for the three §VII-A configurations",
           {benchlib::kSuiteExt},
           [](benchlib::CaseContext& c) {
             const std::vector<std::int64_t> degrees = {1, 2, 4, 6, 8};
             tfm::TransformerConfig summit = tfm::model_by_name("gpt-neox-20b")
                                                 .with_heads(48)
                                                 .with_vocab(50688);
             summit.name = "neox-20b-summit";
             tfm::TransformerConfig sixonly =
                 summit.with_heads(42).with_hidden(5376).with_vocab(50688);
             sixonly.name = "six-only-20b";
             for (const auto& cfg :
                  {tfm::model_by_name("gpt3-2.7b").with_vocab(50304), summit,
                   sixonly}) {
               for (const auto& o :
                    advisor::analyze_tp_options(cfg, c.sim(), degrees)) {
                 c.consume(static_cast<std::int64_t>(o.feasibility.feasible));
                 if (o.feasibility.feasible) c.consume(o.layer_tflops);
               }
             }
             for (const std::int64_t h :
                  advisor::portable_hidden_sizes(summit, {2, 4, 6, 8}, 4)) {
               c.consume(h);
             }
           }});
}
