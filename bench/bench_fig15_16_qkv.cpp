// Figs 15/16 (appendix) — the attention QKV transform (b·s, h) x (h, 3h/t)
// swept over the hidden size (Fig 15) and across tensor-parallel degrees
// (Fig 16).
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig15_16_qkv",
    "Figs 15/16: QKV transform GEMM vs h, across TP degrees",
    {"b", "s", "tp"}};

tfm::TransformerConfig cfg_for(std::int64_t h, std::int64_t t, std::int64_t b,
                               std::int64_t s) {
  tfm::TransformerConfig cfg;
  cfg.name = "sweep";
  cfg.hidden_size = h;
  cfg.num_heads = std::max<std::int64_t>(t, 1);  // a is irrelevant to QKV
  cfg.num_layers = 1;
  cfg.seq_len = s;
  cfg.microbatch = b;
  cfg.vocab_size = 50304 * 3;  // divisible by t in {1,2,4,6,8} when even
  cfg.tensor_parallel = t;
  return cfg;
}

int body(bench::BenchContext& ctx) {
  ctx.banner("Figures 15/16", "QKV transform GEMM vs h, across TP degrees");

  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);
  const auto tp = ctx.args().get_int_list("tp", {1, 2, 4, 8});

  ctx.section("Fig 15 — QKV transform vs hidden size (t = 1)");
  TableWriter t15({"h", "pow2(h)", "TFLOP/s", "bound", "waves"});
  for (std::int64_t h = 1024; h <= 12288; h += 512) {
    const auto est = ctx.sim().estimate(tfm::qkv_gemm(cfg_for(h, 1, b, s)));
    t15.new_row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(est.tflops(), 1)
        .cell(gemm::bound_name(est.bound))
        .cell(est.wave_q.waves);
  }
  ctx.emit(t15);

  ctx.section("Fig 16 — QKV transform with tensor parallelism (h sweep)");
  TableWriter t16({"h", "t", "h/t", "pow2(h/t)", "n = 3h/t", "TFLOP/s"});
  for (std::int64_t h = 2048; h <= 8192; h += 2048) {
    for (const std::int64_t t : tp) {
      if (h % t != 0) continue;
      const auto cfg = cfg_for(h, t, b, s);
      const auto est = ctx.sim().estimate(tfm::qkv_gemm(cfg));
      t16.new_row()
          .cell(h)
          .cell(t)
          .cell(h / t)
          .cell(static_cast<std::int64_t>(
              largest_pow2_dividing(static_cast<std::uint64_t>(h / t))))
          .cell(3 * h / t)
          .cell(est.tflops(), 1);
    }
  }
  ctx.emit(t16);
  std::cout << "(larger t shrinks the per-GPU GEMM and its efficiency — the "
               "paper's \"t as small as possible\" rule)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig15_16_qkv) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig15_16.qkv", "bench_fig15_16_qkv",
           "QKV GEMM estimates vs h and tensor-parallel degree",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (std::int64_t h = 1024; h <= 12288; h += 512) {
               c.consume(
                   c.sim().estimate(tfm::qkv_gemm(cfg_for(h, 1, 4, 2048)))
                       .tflops());
             }
             for (std::int64_t h = 2048; h <= 8192; h += 2048) {
               for (const std::int64_t t : {1, 2, 4, 8}) {
                 if (h % t != 0) continue;
                 c.consume(
                     c.sim().estimate(tfm::qkv_gemm(cfg_for(h, t, 4, 2048)))
                         .tflops());
               }
             }
           }});
}
