// Fig 7 — attention score (7a) and attention-over-value (7b) GEMM
// throughput for 32 attention heads on A100, with the h sweep split into
// series by the largest power of two dividing h/a: the paper's
// demonstration that "more powers of two leads to better performance up
// to h/a = 64".
#include <map>

#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig07_attention_alignment",
    "Fig 7: attention GEMM throughput split by pow2(h/a)",
    {"a", "b", "s"}};

tfm::TransformerConfig sweep_cfg(std::int64_t h, std::int64_t a,
                                 std::int64_t b, std::int64_t s) {
  tfm::TransformerConfig cfg;
  cfg.name = "sweep";
  cfg.hidden_size = h;
  cfg.num_heads = a;
  cfg.num_layers = 1;
  cfg.seq_len = s;
  cfg.microbatch = b;
  cfg.vocab_size = 50304;
  return cfg;
}

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 7",
             "attention GEMM throughput at a = 32, split by pow2(h/a)");

  const std::int64_t a = ctx.args().get_int("a", 32);
  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);

  for (const bool aov : {false, true}) {
    ctx.section(aov ? "Fig 7b — attention over value (s, s) x (s, h/a)"
                    : "Fig 7a — attention score (s, h/a) x (h/a, s)");
    // Group rows by the power-of-two series like the paper's legend.
    std::map<std::int64_t, TableWriter> series;
    for (std::int64_t head_dim = 8; head_dim <= 160; head_dim += 8) {
      const std::int64_t h = head_dim * a;
      const auto cfg = sweep_cfg(h, a, b, s);
      const auto problem = aov ? tfm::attention_over_value_bmm(cfg)
                               : tfm::attention_score_bmm(cfg);
      const auto est = ctx.sim().estimate(problem);
      const auto key = static_cast<std::int64_t>(std::min<std::uint64_t>(
          largest_pow2_dividing(static_cast<std::uint64_t>(head_dim)), 64));
      auto [it, inserted] = series.try_emplace(
          key, TableWriter({"h", "h/a", "TFLOP/s", "bound", "tile"}));
      it->second.new_row()
          .cell(h)
          .cell(head_dim)
          .cell(est.tflops(), 1)
          .cell(gemm::bound_name(est.bound))
          .cell(est.tile.name());
    }
    for (auto& [pow2, table] : series) {
      std::cout << "series pow2(h/a) = " << pow2
                << (pow2 >= 64 ? " (full tensor-core alignment)" : "") << "\n";
      ctx.emit(table);
    }
  }
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig07_attention_alignment) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig07.alignment", "bench_fig07_attention_alignment",
           "score + AOV BMM estimates across head_dim at a = 32",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (const bool aov : {false, true}) {
               for (std::int64_t hd = 8; hd <= 160; hd += 8) {
                 const auto cfg = sweep_cfg(hd * 32, 32, 4, 2048);
                 const auto problem = aov ? tfm::attention_over_value_bmm(cfg)
                                          : tfm::attention_score_bmm(cfg);
                 c.consume(c.sim().estimate(problem).tflops());
               }
             }
           }});
}
