// Extension — full training-step analysis (forward + backward + optimizer).
// The paper measures training throughput; this bench extends its forward
// GEMM analysis to the backward pass, where each forward GEMM spawns a
// dgrad and a wgrad with *rotated* shapes (b·s moves to the inner
// dimension of wgrad), so the §VI-B alignment rules apply twice more.
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/training.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_ext_training_step",
    "Extension: forward + backward + optimizer training step",
    {}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Extension: training step",
             "forward + backward + optimizer, with backward GEMM shapes");

  ctx.section("backward GEMMs of one GPT-3 2.7B layer (note the rotations)");
  const auto cfg = tfm::model_by_name("gpt3-2.7b");
  TableWriter tb({"backward GEMM", "TFLOP/s", "bound", "accumulates"});
  for (const auto& p : tfm::layer_backward_gemms(cfg)) {
    const auto est = ctx.sim().estimate(p);
    tb.new_row()
        .cell(p.to_string())
        .cell(est.tflops(), 1)
        .cell(gemm::bound_name(est.bound))
        .cell(p.accumulate_into_c ? "yes (wgrad)" : "no");
  }
  ctx.emit(tb);

  ctx.section("training-step comparison across the Fig-1 trio");
  TableWriter t({"model", "fwd", "bwd", "optimizer", "step", "model TFLOP/s",
                 "MFU", "vs default"});
  const auto base = tfm::analyze_training_step(cfg, ctx.sim());
  for (const char* name : {"gpt3-2.7b", "gpt3-2.7b-c1", "gpt3-2.7b-c2"}) {
    const auto r =
        tfm::analyze_training_step(tfm::model_by_name(name), ctx.sim());
    t.new_row()
        .cell(name)
        .cell(human_time(r.forward_time))
        .cell(human_time(r.backward_time))
        .cell(human_time(r.optimizer_time))
        .cell(human_time(r.total_time))
        .cell(r.model_tflops, 1)
        .cell(str_format("%.1f%%", 100.0 * r.mfu))
        .cell(str_format("%.3fx", base.total_time / r.total_time));
  }
  ctx.emit(t);

  ctx.section("memory footprint and the paper's \"b as large as possible\"");
  TableWriter tm({"model", "gpu", "static (16P/t)", "act/microbatch",
                  "max b"});
  for (const char* name : {"gpt3-125m", "gpt3-760m", "gpt3-2.7b"}) {
    for (const char* gname : {"a100-40gb", "a100-80gb"}) {
      const auto& g = gpu::gpu_by_name(gname);
      const auto m =
          tfm::training_memory(tfm::model_by_name(name).with_microbatch(1));
      tm.new_row()
          .cell(name)
          .cell(gname)
          .cell(human_bytes(m.weight_bytes + m.gradient_bytes +
                            m.optimizer_bytes))
          .cell(human_bytes(m.activation_bytes))
          .cell(tfm::max_microbatch(tfm::model_by_name(name), g));
    }
  }
  ctx.emit(tm);
  std::cout << "(b = 0 means even one microbatch does not fit: the model "
               "needs tensor parallelism, ZeRO sharding, or activation "
               "checkpointing — all outside the paper's single-GPU scope)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(ext_training_step) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"ext.training_step", "bench_ext_training_step",
           "backward GEMMs + training-step analysis of the Fig-1 trio",
           {benchlib::kSuiteExt, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const auto cfg = tfm::model_by_name("gpt3-2.7b");
             for (const auto& p : tfm::layer_backward_gemms(cfg)) {
               c.consume(c.sim().estimate(p).tflops());
             }
             for (const char* name :
                  {"gpt3-2.7b", "gpt3-2.7b-c1", "gpt3-2.7b-c2"}) {
               const auto r = tfm::analyze_training_step(
                   tfm::model_by_name(name), c.sim());
               c.consume(r.total_time);
               c.consume(r.mfu);
             }
           }});
}
