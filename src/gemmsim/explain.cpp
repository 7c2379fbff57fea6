#include "gemmsim/explain.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemmsim/prepared_catalogue.hpp"
#include "gpuarch/tensor_core.hpp"

namespace codesign::gemm {

double EfficiencyBreakdown::total_factor() const {
  double f = 1.0;
  for (const EfficiencyFactor& e : factors) f *= e.factor;
  return f;
}

EfficiencyBreakdown explain_gemm(const GemmProblem& problem,
                                 const gpu::GpuSpec& gpu) {
  problem.validate();
  EfficiencyBreakdown b;
  b.estimate = PreparedCatalogue(gpu, TilePolicy::kAuto).estimate_one(problem);
  const KernelEstimate& e = b.estimate;

  const double peak = std::max(gpu.tensor_flops(problem.dtype),
                               gpu.vector_flops(problem.dtype));
  CODESIGN_CHECK(peak > 0.0, "device has no math path for this dtype");
  b.peak_tflops = peak / 1e12;
  b.observed_tflops = e.tflops();

  // 1. achievable fraction: no real kernel reaches datasheet peak.
  b.factors.push_back(
      {"achievable", gpu.achievable_math_fraction,
       str_format("best-kernel ceiling: %.0f%% of the %.0f TFLOP/s peak",
                  100.0 * gpu.achievable_math_fraction, b.peak_tflops)});

  // 2. alignment: the §III-B tensor-core ladder (or the fallback path).
  const double align_rate =
      gpu::effective_math_rate(e.alignment, problem.dtype, gpu);
  const double f_align = align_rate / (peak * gpu.achievable_math_fraction);
  b.factors.push_back(
      {"alignment", f_align,
       str_format("pow2 granules m/n/k = %lld/%lld/%lld elems, combined "
                  "%.2f, tensor cores %s",
                  static_cast<long long>(e.alignment.pow2_m),
                  static_cast<long long>(e.alignment.pow2_n),
                  static_cast<long long>(e.alignment.pow2_k),
                  e.alignment.combined,
                  e.alignment.tensor_cores ? "on" : "OFF")});

  // 3. tile intrinsic efficiency of the selected configuration.
  b.factors.push_back(
      {"tile", e.tile.intrinsic_efficiency,
       str_format("selected %s (operand reuse of this block shape)",
                  e.tile.name().c_str())});

  // 4. tile quantization: useful vs padded volume.
  const double useful = static_cast<double>(problem.m) * problem.n * problem.k;
  const double padded = static_cast<double>(e.tile_q.padded_m) *
                        e.tile_q.padded_n * e.tile_q.padded_k;
  b.factors.push_back(
      {"tile_quantization", useful / padded,
       str_format("padded to %lld x %lld x %lld (%.1f%% wasted)",
                  static_cast<long long>(e.tile_q.padded_m),
                  static_cast<long long>(e.tile_q.padded_n),
                  static_cast<long long>(e.tile_q.padded_k),
                  100.0 * e.tile_q.wasted_compute_fraction)});

  // 5. wave quantization.
  b.factors.push_back(
      {"wave_quantization", e.wave_q.efficiency,
       str_format("%lld tiles in %lld waves of %lld",
                  static_cast<long long>(e.tile_q.tiles_total),
                  static_cast<long long>(e.wave_q.waves),
                  static_cast<long long>(e.wave_q.blocks_per_wave))});

  // 6. roofline: memory- or launch-bound gap between the math pipeline's
  //    time and the kernel's actual time.
  const double f_roof = e.compute_time / e.time;
  b.factors.push_back(
      {"roofline", f_roof,
       str_format("%s-bound: compute %s vs memory %s + launch %s",
                  bound_name(e.bound), human_time(e.compute_time).c_str(),
                  human_time(e.memory_time).c_str(),
                  human_time(e.launch_overhead).c_str())});

  return b;
}

std::string EfficiencyBreakdown::to_string() const {
  std::ostringstream os;
  os << estimate.problem.to_string() << "\n";
  os << str_format("  datasheet peak : %8.1f TFLOP/s\n", peak_tflops);
  double running = peak_tflops;
  for (const EfficiencyFactor& f : factors) {
    running *= f.factor;
    os << str_format("  x %.3f %-18s -> %8.1f TFLOP/s  (%s)\n", f.factor,
                     f.name.c_str(), running, f.detail.c_str());
  }
  os << str_format("  observed       : %8.1f TFLOP/s\n", observed_tflops);
  return os.str();
}

}  // namespace codesign::gemm
