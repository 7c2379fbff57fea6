#include "transformer/attribution.hpp"

#include <algorithm>

#include "transformer/layer_model.hpp"

namespace codesign::tfm {

namespace {

/// Accumulate `b` into `acc` weighted by the op's absolute time. The
/// accumulator holds weighted *seconds* until normalize() divides it back
/// to fractions.
void weighted_add(gemm::BoundBreakdown& acc, const gemm::BoundBreakdown& b,
                  double time) {
  acc.compute += b.compute * time;
  acc.memory += b.memory * time;
  acc.launch += b.launch * time;
  acc.tile_waste += b.tile_waste * time;
  acc.wave_tail += b.wave_tail * time;
}

void normalize(gemm::BoundBreakdown& acc, double total) {
  if (!(total > 0.0)) return;
  acc.compute /= total;
  acc.memory /= total;
  acc.launch /= total;
  acc.tile_waste /= total;
  acc.wave_tail /= total;
}

/// The rollup's headline mechanism: the bound holding the most time.
/// Ties resolve to the lower enum value — deterministic.
gemm::Bound dominant_bound(const BoundHistogram& h) {
  int best = 0;
  for (int i = 1; i < 3; ++i) {
    if (h.time[i] > h.time[best]) best = i;
  }
  return static_cast<gemm::Bound>(best);
}

/// The op's attribution: gemm::bound_breakdown for a GEMM estimate; for
/// flash and elementwise ops, the limiting roof's body plus the launch
/// floor (neither has tile/wave terms in the model).
gemm::BoundBreakdown timing_breakdown(const OpTiming& t) {
  if (t.gemm != nullptr) return gemm::bound_breakdown(*t.gemm);
  gemm::BoundBreakdown b;
  b.bound = t.bound;
  if (t.time > 0.0) {
    const double body = std::max(t.compute_time, t.memory_time);
    b.launch = t.launch / t.time;
    if (t.compute_time >= t.memory_time) {
      b.compute = body / t.time;
    } else {
      b.memory = body / t.time;
    }
  }
  return b;
}

/// One GEMM family's record (count 1; share filled by the caller).
FamilyAttribution family_of(const MappedOp& op, const OpTiming& t,
                            const gemm::BoundBreakdown& b) {
  FamilyAttribution f;
  f.op = op.op;
  f.name = op_name(op.op);
  f.count = 1;
  f.time = t.time;
  f.bound = b.bound;
  f.breakdown = b;
  f.detail = op_latency(op, t).detail;
  return f;
}

}  // namespace

LayerBranch op_branch(LayerOp op) {
  switch (op) {
    case LayerOp::kQkvTransform:
    case LayerOp::kAttentionScore:
    case LayerOp::kAttentionOverValue:
    case LayerOp::kPostAttnProjection:
    case LayerOp::kFlashAttention:
    case LayerOp::kSoftmax:
    case LayerOp::kRotaryEmbedding:
      return LayerBranch::kAttention;
    case LayerOp::kMlpUp:
    case LayerOp::kMlpGate:
    case LayerOp::kMlpDown:
    case LayerOp::kActivation:
      return LayerBranch::kMlp;
    default:
      return LayerBranch::kOther;
  }
}

LayerAttribution attribute_layer(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  LayerWorkspace ws;
  walk_layer(config, sim, ws, /*with_estimates=*/true);
  LayerAttribution r;
  r.config = config;
  gemm::BoundBreakdown acc;
  for (std::size_t i = 0; i < ws.ops.size(); ++i) {
    const MappedOp& op = ws.ops[i];
    const OpTiming& timing = ws.timings[i];
    const double t = timing.time;
    const gemm::BoundBreakdown b = timing_breakdown(timing);
    r.total_time += t;
    const int bi = static_cast<int>(b.bound);
    r.histogram.count[static_cast<std::size_t>(bi)] += 1;
    r.histogram.time[static_cast<std::size_t>(bi)] += t;
    switch (op_branch(op.op)) {
      case LayerBranch::kAttention: r.attention_time += t; break;
      case LayerBranch::kMlp: r.mlp_time += t; break;
      case LayerBranch::kOther: r.other_time += t; break;
    }
    weighted_add(acc, b, t);
    if (op.gemm.has_value() || op.flash.has_value()) {
      r.gemm_time += t;
      r.gemms.push_back(family_of(op, timing, b));
    } else {
      r.non_gemm_time += t;
    }
  }
  for (FamilyAttribution& f : r.gemms) {
    f.share = r.gemm_time > 0.0 ? f.time / r.gemm_time : 0.0;
  }
  normalize(acc, r.total_time);
  acc.bound = dominant_bound(r.histogram);
  r.breakdown = acc;
  return r;
}

ModelAttribution attribute_model(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  ModelAttribution r;
  r.config = config;
  r.layer = attribute_layer(config, sim);
  const double layers = static_cast<double>(config.num_layers);

  for (const FamilyAttribution& f : r.layer.gemms) {
    FamilyAttribution g = f;
    g.count = static_cast<std::uint64_t>(config.num_layers);
    g.time = f.time * layers;
    r.gemms.push_back(std::move(g));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    r.histogram.count[i] =
        r.layer.histogram.count[i] *
        static_cast<std::uint64_t>(config.num_layers);
    r.histogram.time[i] = r.layer.histogram.time[i] * layers;
  }
  gemm::BoundBreakdown acc;
  weighted_add(acc, r.layer.breakdown, layers * r.layer.total_time);

  for (const MappedOp& op : model_level_ops(config)) {
    gemm::KernelEstimate est;
    OpTiming timing;
    if (op.gemm.has_value()) {
      est = sim.estimate(*op.gemm);
      timing = OpTiming::of_gemm(est);
    } else {
      timing = non_gemm_timing(op, sim);
    }
    const double t = timing.time;
    const gemm::BoundBreakdown b = timing_breakdown(timing);
    if (op.gemm.has_value()) r.gemms.push_back(family_of(op, timing, b));
    switch (op.op) {
      case LayerOp::kEmbeddingLookup: r.embedding_time = t; break;
      case LayerOp::kFinalLayerNorm: r.final_ln_time = t; break;
      case LayerOp::kLogitProjection: r.logit_time = t; break;
      default: break;
    }
    const auto bi = static_cast<std::size_t>(static_cast<int>(b.bound));
    r.histogram.count[bi] += 1;
    r.histogram.time[bi] += t;
    weighted_add(acc, b, t);
  }

  // Same expression analyze_model() uses, so the totals stay bit-identical.
  r.total_time = static_cast<double>(config.num_layers) * r.layer.total_time +
                 r.embedding_time + r.final_ln_time + r.logit_time;
  const double model_gemm_time =
      layers * r.layer.gemm_time + r.logit_time;
  for (FamilyAttribution& f : r.gemms) {
    f.share = model_gemm_time > 0.0 ? f.time / model_gemm_time : 0.0;
  }
  normalize(acc, r.total_time);
  acc.bound = dominant_bound(r.histogram);
  r.breakdown = acc;
  return r;
}

}  // namespace codesign::tfm
