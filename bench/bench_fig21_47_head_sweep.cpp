// Figs 21–33 (attention key-query score) and Figs 35–47 (attention over
// value) — per-head-count hidden-size sweeps, one figure per
// a ∈ {8, 12, 16, 20, 24, 32, 40, 64, 80, 96, 128, 256, 512}, each split
// into power-of-two series like the appendix legends.
//
// Flags: --op=score|aov|both, --heads=<list> to restrict the grid.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig21_47_head_sweep",
    "Figs 21-33/35-47: attention GEMM throughput per head count",
    {"b", "s", "op", "heads"}};

void sweep(const bench::BenchContext& ctx, std::int64_t a, bool aov,
           std::int64_t b, std::int64_t s) {
  TableWriter t({"h", "h/a", "pow2(h/a)", "TFLOP/s", "bound", "tile"});
  // Step h by a·8 so h/a walks the 8..128 range like the appendix plots.
  for (std::int64_t head_dim = 8; head_dim <= 128; head_dim += 8) {
    tfm::TransformerConfig cfg;
    cfg.name = "sweep";
    cfg.hidden_size = head_dim * a;
    cfg.num_heads = a;
    cfg.num_layers = 1;
    cfg.seq_len = s;
    cfg.microbatch = b;
    cfg.vocab_size = 50304;
    const auto problem = aov ? tfm::attention_over_value_bmm(cfg)
                             : tfm::attention_score_bmm(cfg);
    const auto est = ctx.sim().estimate(problem);
    t.new_row()
        .cell(cfg.hidden_size)
        .cell(head_dim)
        .cell(static_cast<std::int64_t>(std::min<std::uint64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(head_dim)), 64)))
        .cell(est.tflops(), 1)
        .cell(gemm::bound_name(est.bound))
        .cell(est.tile.name());
  }
  ctx.emit(t);
}

int body(bench::BenchContext& ctx) {
  ctx.banner("Figures 21-33 / 35-47",
             "attention GEMM throughput per head count");

  const std::string op = ctx.args().get_string("op", "both");
  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);
  const auto heads = ctx.args().get_int_list(
      "heads", {8, 12, 16, 20, 24, 32, 40, 64, 80, 96, 128, 256, 512});

  const bool want_score = op == "score" || op == "both";
  const bool want_aov = op == "aov" || op == "both";

  // Figure numbering: score figures start at 21, AOV figures at 35, in the
  // head-count order of the appendix.
  int fig_score = 21;
  int fig_aov = 35;
  for (const std::int64_t a : heads) {
    if (want_score) {
      ctx.section(str_format("Fig %d — key-query score, a = %lld", fig_score,
                             static_cast<long long>(a)));
      sweep(ctx, a, /*aov=*/false, b, s);
    }
    if (want_aov) {
      ctx.section(str_format("Fig %d — attention over value, a = %lld",
                             fig_aov, static_cast<long long>(a)));
      sweep(ctx, a, /*aov=*/true, b, s);
    }
    ++fig_score;
    ++fig_aov;
  }
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig21_47_head_sweep) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig21_47.head_sweep", "bench_fig21_47_head_sweep",
           "the full per-head-count appendix grid (both attention BMMs)",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (const std::int64_t a :
                  {8, 12, 16, 20, 24, 32, 40, 64, 80, 96, 128, 256, 512}) {
               for (const bool aov : {false, true}) {
                 for (std::int64_t hd = 8; hd <= 128; hd += 8) {
                   tfm::TransformerConfig cfg;
                   cfg.name = "sweep";
                   cfg.hidden_size = hd * a;
                   cfg.num_heads = a;
                   cfg.num_layers = 1;
                   cfg.seq_len = 2048;
                   cfg.microbatch = 4;
                   cfg.vocab_size = 50304;
                   const auto problem =
                       aov ? tfm::attention_over_value_bmm(cfg)
                           : tfm::attention_score_bmm(cfg);
                   c.consume(c.sim().estimate(problem).tflops());
                 }
               }
             }
           }});
}
