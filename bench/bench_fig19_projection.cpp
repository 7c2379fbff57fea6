// Fig 19 (appendix) — the post-attention linear projection
// (b·s, h/t) x (h/t, h) swept over hidden size and tensor-parallel degree.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig19_projection",
    "Fig 19: post-attention linear projection vs h",
    {"b", "s", "tp"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 19", "post-attention linear projection vs h");

  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);
  const auto tp = ctx.args().get_int_list("tp", {1, 2, 4, 8});

  TableWriter t({"h", "t", "k = h/t", "pow2(h/t)", "TFLOP/s", "bound"});
  for (std::int64_t h = 1024; h <= 12288; h += 1024) {
    for (const std::int64_t tdeg : tp) {
      if (h % tdeg != 0) continue;
      tfm::TransformerConfig cfg;
      cfg.name = "sweep";
      cfg.hidden_size = h;
      cfg.num_heads = tdeg;
      cfg.num_layers = 1;
      cfg.seq_len = s;
      cfg.microbatch = b;
      cfg.vocab_size = 150912;  // divisible by all listed t
      cfg.tensor_parallel = tdeg;
      const auto est =
          ctx.sim().estimate(tfm::post_attn_projection_gemm(cfg));
      t.new_row()
          .cell(h)
          .cell(tdeg)
          .cell(h / tdeg)
          .cell(static_cast<std::int64_t>(
              largest_pow2_dividing(static_cast<std::uint64_t>(h / tdeg))))
          .cell(est.tflops(), 1)
          .cell(gemm::bound_name(est.bound));
    }
  }
  ctx.emit(t);
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig19_projection) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig19.projection", "bench_fig19_projection",
           "post-attention projection GEMM estimates vs h and t",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (std::int64_t h = 1024; h <= 12288; h += 1024) {
               for (const std::int64_t t : {1, 2, 4, 8}) {
                 if (h % t != 0) continue;
                 tfm::TransformerConfig cfg;
                 cfg.name = "sweep";
                 cfg.hidden_size = h;
                 cfg.num_heads = t;
                 cfg.num_layers = 1;
                 cfg.seq_len = 2048;
                 cfg.microbatch = 4;
                 cfg.vocab_size = 150912;
                 cfg.tensor_parallel = t;
                 c.consume(
                     c.sim()
                         .estimate(tfm::post_attn_projection_gemm(cfg))
                         .tflops());
               }
             }
           }});
}
