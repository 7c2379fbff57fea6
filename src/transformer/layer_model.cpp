#include "transformer/layer_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "transformer/flops.hpp"

namespace codesign::tfm {

OpTiming non_gemm_timing(const MappedOp& op,
                         const gemm::GemmSimulator& sim) {
  CODESIGN_CHECK(!op.gemm.has_value(), "non_gemm_timing given a GEMM op");
  OpTiming t;
  if (op.flash.has_value()) {
    const gemm::FlashAttentionEstimate est = sim.estimate_flash(*op.flash);
    t.time = est.time;
    t.compute_time = est.compute_time;
    t.memory_time = est.memory_time;
    t.launch = est.time - std::max(est.compute_time, est.memory_time);
    t.tflops = est.tflops();
    t.bound = est.bound;
    return t;
  }
  // Memory-bound elementwise/reduction kernel: DRAM traffic plus the
  // launch floor.
  t.memory_time = op.elementwise_bytes / sim.gpu().achievable_bandwidth();
  t.launch = sim.gpu().kernel_launch_overhead;
  t.time = t.memory_time + t.launch;
  t.tflops = op.flops > 0.0 ? op.flops / t.time / 1e12 : 0.0;
  t.bound = t.launch > t.memory_time ? gemm::Bound::kLaunch
                                     : gemm::Bound::kMemory;
  return t;
}

OpLatency op_latency(const MappedOp& op, const OpTiming& timing) {
  OpLatency out;
  out.op = op.op;
  out.name = op_name(op.op);
  out.flops = op.flops;
  out.time = timing.time;
  if (op.gemm.has_value()) {
    CODESIGN_CHECK(timing.gemm != nullptr, "GEMM op timed without estimate");
    const gemm::KernelEstimate& est = *timing.gemm;
    out.is_gemm = true;
    out.tflops = est.tflops();
    out.detail = str_format("%s tile=%s bound=%s waves=%lld",
                            op.gemm->to_string().c_str(),
                            est.tile.name().c_str(),
                            gemm::bound_name(est.bound),
                            static_cast<long long>(est.wave_q.waves));
    return out;
  }
  out.tflops = timing.tflops;
  if (op.flash.has_value()) {
    out.is_gemm = true;  // fused matmuls count toward the GEMM share
    out.detail = str_format("flash(s=%lld d=%lld) bound=%s",
                            static_cast<long long>(op.flash->seq),
                            static_cast<long long>(op.flash->head_dim),
                            gemm::bound_name(timing.bound));
    return out;
  }
  out.bytes = op.elementwise_bytes;
  out.detail = human_bytes(op.elementwise_bytes) + " traffic";
  return out;
}

OpLatency op_latency(const MappedOp& op, const gemm::GemmSimulator& sim) {
  if (!op.gemm.has_value()) return op_latency(op, non_gemm_timing(op, sim));
  const gemm::KernelEstimate est = sim.estimate(*op.gemm);
  return op_latency(op, OpTiming::of_gemm(est));
}

namespace {

/// Parallel-layer formulation fuses the attention and MLP branches
/// (§VI-C1): one shared LayerNorm and one fused residual, saving the
/// second LN's and one residual add's traffic + launches. The _into
/// variant reuses the buffer's capacity for the batched hot path; the
/// in-place erase preserves op order, so both produce the identical
/// schedule.
void schedule_for_into(const TransformerConfig& c,
                       std::vector<MappedOp>& ops) {
  layer_ops_into(c, ops);
  if (!c.parallel_layers) return;
  std::erase_if(ops, [](const MappedOp& op) {
    return op.op == LayerOp::kLayerNorm2 || op.op == LayerOp::kResidualAdd1;
  });
}

std::vector<MappedOp> schedule_for(const TransformerConfig& c) {
  std::vector<MappedOp> ops;
  schedule_for_into(c, ops);
  return ops;
}

}  // namespace

std::vector<MappedOp> layer_schedule(const TransformerConfig& config) {
  return schedule_for(config);
}

double LayerLatencyReport::share_of(LayerOp op) const {
  CODESIGN_CHECK(total_time > 0.0, "report has zero total time");
  double t = 0.0;
  for (const OpLatency& o : ops) {
    if (o.op == op) t += o.time;
  }
  return t / total_time;
}

double LayerLatencyReport::gemm_share_of(LayerOp op) const {
  CODESIGN_CHECK(gemm_time > 0.0, "report has zero GEMM time");
  double t = 0.0;
  for (const OpLatency& o : ops) {
    if (o.op == op && o.is_gemm) t += o.time;
  }
  return t / gemm_time;
}

void walk_layer(const TransformerConfig& config,
                const gemm::GemmSimulator& sim, LayerWorkspace& ws,
                bool with_estimates) {
  config.validate();
  schedule_for_into(config, ws.ops);
  ws.gemms.clear();
  for (const MappedOp& op : ws.ops) {
    if (op.gemm.has_value()) ws.gemms.push_back(*op.gemm);
  }
  if (with_estimates) {
    ws.gemm_estimates.clear();
    for (const gemm::GemmProblem& g : ws.gemms) {
      ws.gemm_estimates.push_back(sim.estimate(g));
    }
  } else {
    ws.gemm_times.resize(ws.gemms.size());
    sim.estimate_times(ws.gemms, ws.gemm_times, ws.batch);
  }
  ws.timings.clear();
  std::size_t g = 0;
  for (const MappedOp& op : ws.ops) {
    if (!op.gemm.has_value()) {
      ws.timings.push_back(non_gemm_timing(op, sim));
      continue;
    }
    if (with_estimates) {
      ws.timings.push_back(OpTiming::of_gemm(ws.gemm_estimates[g++]));
    } else {
      OpTiming t;
      t.time = ws.gemm_times[g++];
      ws.timings.push_back(t);
    }
  }
}

double layer_total_time(const TransformerConfig& config,
                        const gemm::GemmSimulator& sim, LayerWorkspace& ws) {
  walk_layer(config, sim, ws, /*with_estimates=*/false);
  double total = 0.0;
  for (const OpTiming& t : ws.timings) total += t.time;
  return total;
}

double layer_total_time(const TransformerConfig& config,
                        const gemm::GemmSimulator& sim) {
  LayerWorkspace ws;
  return layer_total_time(config, sim, ws);
}

LayerLatencyReport analyze_layer(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  LayerWorkspace ws;
  walk_layer(config, sim, ws, /*with_estimates=*/true);
  LayerLatencyReport r;
  r.config = config;
  for (std::size_t i = 0; i < ws.ops.size(); ++i) {
    r.ops.push_back(op_latency(ws.ops[i], ws.timings[i]));
  }
  for (const OpLatency& o : r.ops) {
    r.total_time += o.time;
    if (o.is_gemm) {
      r.gemm_time += o.time;
    } else {
      r.non_gemm_time += o.time;
    }
  }
  r.layer_flops = layer_forward_flops(config);
  r.throughput_tflops = r.layer_flops / r.total_time / 1e12;
  r.gemm_fraction = r.gemm_time / r.total_time;
  return r;
}

ModelLatencyReport analyze_model(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  ModelLatencyReport r;
  r.config = config;
  r.layer = analyze_layer(config, sim);
  for (const MappedOp& op : model_level_ops(config)) {
    const OpLatency lat = op_latency(op, sim);
    switch (op.op) {
      case LayerOp::kEmbeddingLookup: r.embedding_time = lat.time; break;
      case LayerOp::kFinalLayerNorm: r.final_ln_time = lat.time; break;
      case LayerOp::kLogitProjection: r.logit_time = lat.time; break;
      default:
        throw Error("unexpected model-level op");
    }
  }
  r.total_time = static_cast<double>(config.num_layers) * r.layer.total_time +
                 r.embedding_time + r.final_ln_time + r.logit_time;
  r.model_flops = model_forward_flops(config);
  r.throughput_tflops = r.model_flops / r.total_time / 1e12;
  r.tokens_per_second = static_cast<double>(config.tokens()) / r.total_time;
  return r;
}

}  // namespace codesign::tfm
