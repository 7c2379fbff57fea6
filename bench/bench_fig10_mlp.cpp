// Fig 10 — MLP GEMM throughput as a function of hidden dimension (a = 128
// in the paper's sweep): (a) the h → 4h expansion, (b) the 4h → h
// reduction. Shows the saturation point the paper recommends pushing h
// toward, plus alignment cliffs at non-64-multiple h.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig10_mlp",
    "Fig 10: MLP h->4h and 4h->h GEMM throughput vs h",
    {"b", "s", "lo", "hi", "step"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 10", "MLP h->4h and 4h->h GEMM throughput vs h");

  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);
  const std::int64_t lo = ctx.args().get_int("lo", 1024);
  const std::int64_t hi = ctx.args().get_int("hi", 12288);
  const std::int64_t step = ctx.args().get_int("step", 512);

  TableWriter t({"h", "pow2(h)", "h->4h TFLOP/s", "4h->h TFLOP/s",
                 "h->4h bound", "waves up"});
  for (std::int64_t h = lo; h <= hi; h += step) {
    tfm::TransformerConfig cfg;
    cfg.name = "sweep";
    cfg.hidden_size = h;
    cfg.num_heads = 1;  // MLP GEMMs do not depend on a
    cfg.num_layers = 1;
    cfg.seq_len = s;
    cfg.microbatch = b;
    cfg.vocab_size = 50304;
    const auto up = ctx.sim().estimate(tfm::mlp_up_gemm(cfg));
    const auto down = ctx.sim().estimate(tfm::mlp_down_gemm(cfg));
    t.new_row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(up.tflops(), 1)
        .cell(down.tflops(), 1)
        .cell(gemm::bound_name(up.bound))
        .cell(up.wave_q.waves);
  }
  ctx.emit(t);

  ctx.section("alignment cliff: off-granule hidden sizes");
  TableWriter t2({"h", "pow2(h)", "h->4h TFLOP/s"});
  for (std::int64_t h : {4096, 4100, 4104, 4112, 4128, 4160}) {
    tfm::TransformerConfig cfg;
    cfg.name = "cliff";
    cfg.hidden_size = h;
    cfg.num_heads = 1;
    cfg.num_layers = 1;
    cfg.seq_len = s;
    cfg.microbatch = b;
    cfg.vocab_size = 50304;
    const auto up = ctx.sim().estimate(tfm::mlp_up_gemm(cfg));
    t2.new_row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(up.tflops(), 1);
  }
  ctx.emit(t2);
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig10_mlp) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig10.mlp_sweep", "bench_fig10_mlp",
           "MLP up/down GEMM estimates over the hidden-size sweep",
           {benchlib::kSuiteFig, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             for (std::int64_t h = 1024; h <= 12288; h += 512) {
               tfm::TransformerConfig cfg;
               cfg.name = "sweep";
               cfg.hidden_size = h;
               cfg.num_heads = 1;
               cfg.num_layers = 1;
               cfg.seq_len = 2048;
               cfg.microbatch = 4;
               cfg.vocab_size = 50304;
               c.consume(c.sim().estimate(tfm::mlp_up_gemm(cfg)).tflops());
               c.consume(c.sim().estimate(tfm::mlp_down_gemm(cfg)).tflops());
             }
           }});
}
