// Fig 6 — batched matrix multiplication (BMM) throughput for the attention
// shapes: score (s, h/a) x (h/a, s) and attention-over-value (s, s) x
// (s, h/a), swept over hidden size and head count.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig06_bmm_sweep",
    "Fig 6: BMM throughput for attention-shaped batches",
    {"b", "s", "heads"}};

tfm::TransformerConfig bmm_cfg(std::int64_t h, std::int64_t a) {
  tfm::TransformerConfig cfg;
  cfg.name = "sweep";
  cfg.hidden_size = h;
  cfg.num_heads = a;
  cfg.num_layers = 1;
  cfg.seq_len = 2048;
  cfg.microbatch = 4;
  cfg.vocab_size = 50304;
  return cfg;
}

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 6", "BMM throughput for attention-shaped batches");

  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);
  const auto heads = ctx.args().get_int_list("heads", {16, 32, 64});

  for (const std::int64_t a : heads) {
    ctx.section(str_format("a = %lld heads (batch = b*a = %lld)",
                           static_cast<long long>(a),
                           static_cast<long long>(b * a)));
    TableWriter t({"h", "h/a", "pow2(h/a)", "score TFLOP/s", "score bound",
                   "AOV TFLOP/s", "AOV bound"});
    for (std::int64_t h = a * 16; h <= a * 192; h += a * 16) {
      tfm::TransformerConfig cfg;
      cfg.name = "sweep";
      cfg.hidden_size = h;
      cfg.num_heads = a;
      cfg.num_layers = 1;
      cfg.seq_len = s;
      cfg.microbatch = b;
      cfg.vocab_size = 50304;
      const auto score = ctx.sim().estimate(tfm::attention_score_bmm(cfg));
      const auto aov =
          ctx.sim().estimate(tfm::attention_over_value_bmm(cfg));
      t.new_row()
          .cell(h)
          .cell(cfg.head_dim())
          .cell(static_cast<std::int64_t>(largest_pow2_dividing(
              static_cast<std::uint64_t>(cfg.head_dim()))))
          .cell(score.tflops(), 1)
          .cell(gemm::bound_name(score.bound))
          .cell(aov.tflops(), 1)
          .cell(gemm::bound_name(aov.bound));
    }
    ctx.emit(t);
  }
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig06_bmm_sweep) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig06.bmm_sweep", "bench_fig06_bmm_sweep",
           "score and attention-over-value BMMs over h for a in {16,32,64}",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (const std::int64_t a : {16, 32, 64}) {
               for (std::int64_t h = a * 16; h <= a * 192; h += a * 16) {
                 const auto cfg = bmm_cfg(h, a);
                 c.consume(
                     c.sim().estimate(tfm::attention_score_bmm(cfg)).tflops());
                 c.consume(c.sim()
                               .estimate(tfm::attention_over_value_bmm(cfg))
                               .tflops());
               }
             }
           }});
}
