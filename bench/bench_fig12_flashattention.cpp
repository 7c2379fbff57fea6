// Fig 12 — FlashAttention-2 throughput swept over the hidden dimension at
// a = 128: the fused kernel follows a clean roofline in h, which reduces
// the attention sizing takeaway to "make h as large as possible".
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "gemmsim/flash_attention.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig12_flashattention",
    "Fig 12: FlashAttention-2 sweep over hidden dimension",
    {"a", "b", "s"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 12", "FlashAttention-2 sweep over hidden dimension");

  const std::int64_t a = ctx.args().get_int("a", 128);
  const std::int64_t b = ctx.args().get_int("b", 4);
  const std::int64_t s = ctx.args().get_int("s", 2048);

  TableWriter t({"h", "h/a", "flash TFLOP/s", "flash bound",
                 "unfused attn TFLOP/s", "flash speedup"});
  for (std::int64_t head_dim = 8; head_dim <= 128; head_dim += 8) {
    const std::int64_t h = head_dim * a;
    tfm::TransformerConfig cfg;
    cfg.name = "sweep";
    cfg.hidden_size = h;
    cfg.num_heads = a;
    cfg.num_layers = 1;
    cfg.seq_len = s;
    cfg.microbatch = b;
    cfg.vocab_size = 50304;
    cfg.attention = tfm::AttentionImpl::kFlash;

    gemm::FlashAttentionProblem fp = tfm::flash_attention_problem(cfg);
    fp.causal = false;  // match the unfused BMM comparison
    const auto flash = ctx.sim().estimate_flash(fp);

    // Unfused path: score BMM + softmax traffic + AOV BMM.
    const auto score = ctx.sim().estimate(tfm::attention_score_bmm(cfg));
    const auto aov = ctx.sim().estimate(tfm::attention_over_value_bmm(cfg));
    const double softmax_bytes = 2.0 * static_cast<double>(b) * a *
                                 static_cast<double>(s) * s * 2.0;
    const double unfused_time =
        score.time + aov.time +
        softmax_bytes / ctx.gpu().achievable_bandwidth() +
        ctx.gpu().kernel_launch_overhead;
    const double unfused_tflops = fp.flops() / unfused_time / 1e12;

    t.new_row()
        .cell(h)
        .cell(head_dim)
        .cell(flash.tflops(), 1)
        .cell(gemm::bound_name(flash.bound))
        .cell(unfused_tflops, 1)
        .cell(str_format("%.2fx", unfused_time / flash.time));
  }
  ctx.emit(t);
  std::cout << "(roofline: flash throughput rises with h and saturates near "
            << str_format("%.0f", ctx.gpu().achievable_tensor_flops(
                                      gpu::DType::kFP16) *
                                      gemm::kFlashAttention2Efficiency / 1e12)
            << " TFLOP/s on this device)\n";
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH(fig12_flashattention) {
  using namespace codesign;
  reg.figure(kSpec, body);
  reg.add({"fig12.flash_sweep", "bench_fig12_flashattention",
           "fused flash vs unfused attention estimates over head_dim",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (std::int64_t hd = 8; hd <= 128; hd += 8) {
               tfm::TransformerConfig cfg;
               cfg.name = "sweep";
               cfg.hidden_size = hd * 128;
               cfg.num_heads = 128;
               cfg.num_layers = 1;
               cfg.seq_len = 2048;
               cfg.microbatch = 4;
               cfg.vocab_size = 50304;
               cfg.attention = tfm::AttentionImpl::kFlash;
               gemm::FlashAttentionProblem fp =
                   tfm::flash_attention_problem(cfg);
               fp.causal = false;
               c.consume(c.sim().estimate_flash(fp).tflops());
               c.consume(
                   c.sim().estimate(tfm::attention_score_bmm(cfg)).time);
               c.consume(
                   c.sim().estimate(tfm::attention_over_value_bmm(cfg)).time);
             }
           }});
}
