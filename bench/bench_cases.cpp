#include "bench_cases.hpp"

// The roster: one line per bench source, naming its CODESIGN_BENCH hook
// (bench/bench_common.hpp).
#define CODESIGN_BENCH_ROSTER(X) \
  X(ablation_simulator) \
  X(case_6gpu_nodes) \
  X(case_bert) \
  X(case_gpt3_27b) \
  X(case_hw_ratio) \
  X(case_swiglu) \
  X(ext_3d_parallel) \
  X(ext_gqa) \
  X(ext_pipeline) \
  X(ext_seqlen) \
  X(ext_sweep_matrix) \
  X(ext_tp_comm) \
  X(ext_training_step) \
  X(ext_volta_vs_ampere) \
  X(fig01_layer_family) \
  X(fig02_latency_breakdown) \
  X(fig05_gemm_sweep) \
  X(fig06_bmm_sweep) \
  X(fig07_attention_alignment) \
  X(fig08_09_fixed_ratio) \
  X(fig10_mlp) \
  X(fig11_gemm_proportions) \
  X(fig12_flashattention) \
  X(fig13_inference) \
  X(fig14_dim_order) \
  X(fig15_16_qkv) \
  X(fig17_18_attention_appendix) \
  X(fig19_projection) \
  X(fig20_vocab) \
  X(fig21_47_head_sweep) \
  X(obs_overhead) \
  X(search_parallel) \
  X(serve_throughput)

#define CODESIGN_DECLARE_BENCH(id) CODESIGN_BENCH(id);
CODESIGN_BENCH_ROSTER(CODESIGN_DECLARE_BENCH)
#undef CODESIGN_DECLARE_BENCH

namespace codesign::bench {

void register_all(Roster& roster) {
#define CODESIGN_CALL_BENCH(id) codesign_bench_register_##id(roster);
  CODESIGN_BENCH_ROSTER(CODESIGN_CALL_BENCH)
#undef CODESIGN_CALL_BENCH
}

}  // namespace codesign::bench
