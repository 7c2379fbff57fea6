// Fig 20 (appendix) — the vocabulary/logit GEMM (b·s, h) x (h, v):
//   (a) coarse sweep over v and over h;
//   (b) the zoomed sweep over v in [14275, 14336] showing the multiple-of-
//       64 padding rule, plus the famous GPT-2 vocab example
//       (50257 vs 50304 — the "nanoGPT 25% speedup" tweet).
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig20_vocab",
    "Fig 20: vocabulary embedding transformation GEMM",
    {"b", "s"}};

gemm::GemmProblem logit(std::int64_t bs, std::int64_t v, std::int64_t h) {
  return gemm::GemmProblem::gemm(bs, v, h);
}

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 20", "vocabulary embedding transformation GEMM");

  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);
  const std::int64_t bs = b * s;

  ctx.section("Fig 20a — sweep over vocabulary size (h = 2560)");
  TableWriter ta({"v", "pow2(v)", "TFLOP/s"});
  for (std::int64_t v = 8192; v <= 65536; v += 8192) {
    ta.new_row()
        .cell(v)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(v))))
        .cell(ctx.sim().throughput_tflops(logit(bs, v, 2560)), 1);
  }
  ctx.emit(ta);

  ctx.section("Fig 20a — sweep over hidden size (v = 50304)");
  TableWriter th({"h", "pow2(h)", "TFLOP/s"});
  for (std::int64_t h = 768; h <= 12288; h += 768) {
    th.new_row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(ctx.sim().throughput_tflops(logit(bs, 50304, h)), 1);
  }
  ctx.emit(th);

  ctx.section("Fig 20b — zoomed sweep over v in [14275, 14336]");
  TableWriter tz({"v", "pow2(v)", "TFLOP/s", "note"});
  for (std::int64_t v = 14275; v <= 14336; ++v) {
    const auto p2 = static_cast<std::int64_t>(
        largest_pow2_dividing(static_cast<std::uint64_t>(v)));
    if (v % 4 != 0 && v != 14275 && v % 16 != 3) continue;  // thin the rows
    tz.new_row()
        .cell(v)
        .cell(p2)
        .cell(ctx.sim().throughput_tflops(logit(bs, v, 2560)), 1)
        .cell(v % 64 == 0 ? "multiple of 64" : "");
  }
  ctx.emit(tz);

  ctx.section("the GPT-2 vocabulary example");
  const double odd = ctx.sim().throughput_tflops(logit(bs, 50257, 2560));
  const double pad = ctx.sim().throughput_tflops(logit(bs, 50304, 2560));
  std::cout << str_format(
      "v = 50257 (odd): %.1f TFLOP/s;  v = 50304 (64-aligned): %.1f "
      "TFLOP/s;  padding speedup %.2fx on the logit GEMM\n",
      odd, pad, pad / odd);
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig20_vocab) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig20.vocab", "bench_fig20_vocab",
           "logit GEMM estimates over vocab and hidden sweeps",
           {benchlib::kSuiteFig, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const std::int64_t bs = 4 * 2048;
             for (std::int64_t v = 8192; v <= 65536; v += 8192) {
               c.consume(c.sim().throughput_tflops(logit(bs, v, 2560)));
             }
             for (std::int64_t h = 768; h <= 12288; h += 768) {
               c.consume(c.sim().throughput_tflops(logit(bs, 50304, h)));
             }
             c.consume(c.sim().throughput_tflops(logit(bs, 50257, 2560)));
             c.consume(c.sim().throughput_tflops(logit(bs, 50304, 2560)));
           }});
}
