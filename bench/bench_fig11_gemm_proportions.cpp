// Fig 11 — the proportion of GEMM latency per GEMM module in a transformer
// layer, across model sizes: the paper's evidence that QKV + MLP dominate
// large models and attention-over-value is the smallest GEMM.
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig11_gemm_proportions",
    "Fig 11: share of GEMM latency per GEMM module",
    {}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 11", "share of GEMM latency per GEMM module");

  TableWriter t({"model", "h", "qkv", "score", "aov", "proj", "mlp h->4h",
                 "mlp 4h->h"});
  for (const char* name : {"gpt3-125m", "gpt3-760m", "gpt3-2.7b", "gpt3-6.7b",
                           "gpt3-13b", "gpt3-175b"}) {
    const auto r = tfm::analyze_layer(tfm::model_by_name(name), ctx.sim());
    auto pct = [&r](tfm::LayerOp op) {
      return str_format("%5.1f%%", 100.0 * r.gemm_share_of(op));
    };
    t.new_row()
        .cell(name)
        .cell(r.config.hidden_size)
        .cell(pct(tfm::LayerOp::kQkvTransform))
        .cell(pct(tfm::LayerOp::kAttentionScore))
        .cell(pct(tfm::LayerOp::kAttentionOverValue))
        .cell(pct(tfm::LayerOp::kPostAttnProjection))
        .cell(pct(tfm::LayerOp::kMlpUp))
        .cell(pct(tfm::LayerOp::kMlpDown));
  }
  ctx.emit(t);
  std::cout << "(paper: as models grow, QKV and the MLP pair dominate; "
               "attention-over-value is the smallest GEMM)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig11_gemm_proportions) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig11.gemm_proportions", "bench_fig11_gemm_proportions",
           "per-GEMM-module latency share across model sizes",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (const char* name :
                  {"gpt3-125m", "gpt3-760m", "gpt3-2.7b", "gpt3-6.7b",
                   "gpt3-13b", "gpt3-175b"}) {
               const auto r =
                   tfm::analyze_layer(tfm::model_by_name(name), c.sim());
               for (const auto op :
                    {tfm::LayerOp::kQkvTransform, tfm::LayerOp::kAttentionScore,
                     tfm::LayerOp::kAttentionOverValue,
                     tfm::LayerOp::kPostAttnProjection, tfm::LayerOp::kMlpUp,
                     tfm::LayerOp::kMlpDown}) {
                 c.consume(r.gemm_share_of(op));
               }
             }
           }});
}
