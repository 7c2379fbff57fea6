// Case study (§VII-B) — SwiGLU and the 8h/3 MLP: the suggested coefficient
// breaks the alignments a well-chosen h set up; brute-force the d_ff range
// around (8/3)h and show Llama-2-7B's 11008 is among the best in range,
// while the literal round(8h/3) = 10923 is terrible.
#include <cmath>

#include "advisor/search.hpp"
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_case_swiglu",
    "Case study: SwiGLU 8h/3 MLP sizing for Llama-2-7B",
    {"lo", "hi"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Case study: SwiGLU 8h/3 MLP sizing",
             "brute-force d_ff search around (8/3)h for Llama-2-7B");

  const auto base = tfm::model_by_name("llama2-7b");
  const auto suggested = static_cast<std::int64_t>(
      std::llround(8.0 * base.hidden_size / 3.0));  // 10923, odd!
  const std::int64_t lo = ctx.args().get_int("lo", suggested - 256);
  const std::int64_t hi = ctx.args().get_int("hi", suggested + 512);

  const auto scan = advisor::run_mlp_search(base, ctx.sim(), lo, hi).ranked;

  ctx.section(str_format("top candidates in [%lld, %lld]",
                         static_cast<long long>(lo),
                         static_cast<long long>(hi)));
  TableWriter t({"d_ff", "coeff (d_ff/h)", "pow2(d_ff)", "MLP time",
                 "MLP TFLOP/s", "percentile"});
  std::size_t listed = 0;
  for (const auto& c : scan) {
    if (listed++ >= 10) break;
    t.new_row()
        .cell(c.d_ff)
        .cell(c.coefficient, 4)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(c.d_ff))))
        .cell(human_time(c.mlp_time))
        .cell(c.mlp_tflops, 1)
        .cell(c.rank_in_range, 3);
  }
  ctx.emit(t);

  ctx.section("the named candidates");
  TableWriter tn({"d_ff", "who uses it", "percentile in range", "MLP TFLOP/s"});
  auto add = [&](std::int64_t ff, const char* who) {
    for (const auto& c : scan) {
      if (c.d_ff == ff) {
        tn.new_row()
            .cell(ff)
            .cell(who)
            .cell(c.rank_in_range, 3)
            .cell(c.mlp_tflops, 1);
        return;
      }
    }
  };
  add(suggested, "literal round(8h/3) — the Shazeer suggestion");
  add(11008, "Llama-2-7B (coeff 2.6875)");
  add(round_up<std::int64_t>(suggested, 64),
      "nearest multiple of 64 above 8h/3");
  ctx.emit(tn);

  std::cout << "(paper: the 8/3 coefficient is only a suggestion; Llama-2-"
               "7B's 11008 is one of the best performing sizes in its "
               "range)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(case_swiglu) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"case.swiglu_dff", "bench_case_swiglu",
           "brute-force d_ff scan around (8/3)h on Llama-2-7B",
           {benchlib::kSuiteExt},
           [](benchlib::CaseContext& c) {
             const auto base = tfm::model_by_name("llama2-7b");
             const auto suggested = static_cast<std::int64_t>(
                 std::llround(8.0 * base.hidden_size / 3.0));
             const auto scan = advisor::run_mlp_search(
                 base, c.sim(), suggested - 256, suggested + 512).ranked;
             c.consume(static_cast<std::int64_t>(scan.size()));
             std::size_t listed = 0;
             for (const auto& cand : scan) {
               if (listed++ >= 10) break;
               c.consume(cand.d_ff);
               c.consume(cand.mlp_time);
             }
           }});
}
