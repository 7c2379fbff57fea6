// prepared_catalogue.hpp — the tile selector: the catalogue precompiled.
//
// Every estimate the simulator makes selects its tile here. A design-space
// search touches 10^5+ (problem, tile, GPU) tuples, and a naive catalogue
// walk's per-call costs — a fresh std::vector<KernelEstimate> per walk, the
// alignment model re-evaluated per tile, the GpuSpec re-dereferenced per
// field — dominate the arithmetic. A PreparedCatalogue flattens one
// (GpuSpec, TilePolicy) pair into structure-of-arrays lookup tables (tile
// dims, intrinsic efficiencies, wave constants) built once and shared by
// every call, so the selection loop is a branch-light scan over flat arrays
// with zero allocation and zero per-tile model re-derivation.
//
// The scan also owns the selection's observability: the
// gemmsim.select_kernel failpoint, the gemmsim.select.* counters and the
// per-tile `select` trail events (docs/OBSERVABILITY.md).
//
// Determinism contract (docs/search_pipeline.md): estimate_one() is
// bit-identical to the naive reference (select_kernel under kAuto,
// estimate_with_tile(largest_tile) under kFixedLargest). It reuses the
// exact integer quantization formulas and the shared tile_timing() core,
// so every double is produced by the same expression tree the reference
// compiles — asserted field-for-field by tests/test_estimate_many.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "gemmsim/kernel_model.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "gpuarch/tile_config.hpp"

namespace codesign::gemm {

/// How the simulated kernel library picks its thread-block tile.
enum class TilePolicy {
  kAuto,         ///< cuBLASLt-style heuristic over the full catalogue (Fig 5c)
  kFixedLargest  ///< always the 256×128 tile (Fig 5b's fixed-kernel behaviour)
};

class PreparedCatalogue {
 public:
  /// Precompile `catalogue` for one (gpu, policy) pair. Under
  /// kFixedLargest the prepared table holds only the single largest tile,
  /// so the same scan serves both policies. `gpu` must outlive the
  /// catalogue (GpuSpec instances are registry-owned singletons).
  PreparedCatalogue(const gpu::GpuSpec& gpu, TilePolicy policy,
                    const std::vector<gpu::TileConfig>& catalogue =
                        gpu::default_tile_catalogue());

  const gpu::GpuSpec& gpu() const { return *gpu_; }
  TilePolicy policy() const { return policy_; }
  std::size_t tile_count() const { return tm_.size(); }

  /// Select the tile for one problem and return its full estimate. Under
  /// kAuto this fires the gemmsim.select_kernel failpoint (problem hash as
  /// the token), bumps the gemmsim.select.* counters when metrics are on,
  /// and records one `select` event per tile when an EventRecorder is
  /// active. kFixedLargest selects nothing, so it does none of that.
  KernelEstimate estimate_one(const GemmProblem& problem) const;

  /// Just the winning time, no KernelEstimate materialized. Bit-identical
  /// to estimate_one(problem).time, with the same failpoint and obs.
  double time_one(const GemmProblem& problem) const;

 private:
  /// The selection loop: returns the winning tile index and its time.
  std::size_t scan(const GemmProblem& problem, double* best_time) const;

  const gpu::GpuSpec* gpu_;  ///< registry- or caller-owned, never null
  TilePolicy policy_;

  // Structure-of-arrays tile tables, indexed by catalogue position.
  std::vector<std::int64_t> tm_;
  std::vector<std::int64_t> tn_;
  std::vector<std::int64_t> tk_;
  std::vector<std::int64_t> blocks_per_wave_;  ///< sm_count * blocks_per_sm
  std::vector<double> intrinsic_;
  std::vector<gpu::TileConfig> tiles_;  ///< original entries (winner rebuild)
};

}  // namespace codesign::gemm
