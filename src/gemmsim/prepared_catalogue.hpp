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
// The catalogue also owns the selection's observability: the
// gemmsim.select_kernel failpoint and the per-tile `select` trail events
// fire in the scan, and the gemmsim.select.* / gemmsim.estimate.* counters
// are tallied into an EstimateCounts and added to the registry by flush()
// through series handles resolved once (docs/OBSERVABILITY.md).
//
// Determinism contract (docs/search_pipeline.md): estimate_one() is
// bit-identical to the naive reference (select_kernel under kAuto,
// estimate_with_tile(largest_tile) under kFixedLargest). It reuses the
// exact integer quantization formulas and the shared tile_timing() core,
// so every double is produced by the same expression tree the reference
// compiles — asserted field-for-field by tests/test_estimate_many.cpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "gemmsim/kernel_model.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "gpuarch/tile_config.hpp"

namespace codesign::obs {
class Counter;
}  // namespace codesign::obs

namespace codesign::gemm {

/// How the simulated kernel library picks its thread-block tile.
enum class TilePolicy {
  kAuto,         ///< cuBLASLt-style heuristic over the full catalogue (Fig 5c)
  kFixedLargest  ///< always the 256×128 tile (Fig 5b's fixed-kernel behaviour)
};

/// What one scan picked, compact enough to memoize: the winning time, the
/// winner's index into the prepared tables and its bound. Everything the
/// estimate counters need besides the problem itself.
struct Selection {
  double time = 0.0;
  std::uint32_t tile = 0;
  Bound bound = Bound::kCompute;
};

/// The most tiles a PreparedCatalogue holds (the default catalogue has 11).
inline constexpr std::size_t kMaxCatalogueTiles = 32;

/// The gemmsim.select.* and gemmsim.estimate.* counts of one batch, summed
/// locally and added to the registry in one go by PreparedCatalogue::flush.
struct EstimateCounts {
  std::uint64_t scans = 0;      ///< kAuto selections (gemmsim.select.computed)
  std::uint64_t estimates = 0;  ///< returned estimates (gemmsim.estimate.calls)
  std::uint64_t waves = 0;
  std::uint64_t blocks = 0;
  std::array<std::uint64_t, 3> bounds{};  ///< by Bound
  std::array<std::uint64_t, kMaxCatalogueTiles> tiles{};  ///< by tile index
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

  /// The selection loop. Under kAuto it fires the gemmsim.select_kernel
  /// failpoint (problem hash as the token), counts the scan into `counts`
  /// when that is non-null, and records one `select` event per tile when
  /// an EventRecorder is active. kFixedLargest selects nothing, so it does
  /// none of that. The time is bit-identical to estimate_one(problem).time.
  Selection select(const GemmProblem& problem, EstimateCounts* counts) const;

  /// The full estimate of a selection (estimate_with_tile on the winner).
  KernelEstimate estimate(const GemmProblem& problem,
                          const Selection& selection) const;

  /// select() then estimate(), with the scan counted straight into the
  /// registry when metrics are on.
  KernelEstimate estimate_one(const GemmProblem& problem) const;

  /// The selection a returned estimate records (a cache hit's, say).
  Selection selection_of(const KernelEstimate& estimate) const;

  /// Count one returned estimate: its tile, bound, waves and blocks.
  void count(const GemmProblem& problem, const Selection& selection,
             EstimateCounts& counts) const;

  /// Add `counts` to the registry and zero them. Every series is resolved
  /// once (per name, per bound, per tile of this catalogue), so this takes
  /// no registry lock and builds no string after the first use.
  void flush(EstimateCounts& counts) const;

 private:
  /// The `gemmsim.estimate.tile{tile=...}` series of tile index `i`.
  obs::Counter& tile_counter(std::size_t i) const;

  const gpu::GpuSpec* gpu_;  ///< registry- or caller-owned, never null
  TilePolicy policy_;

  // Structure-of-arrays tile tables, indexed by catalogue position.
  std::vector<std::int64_t> tm_;
  std::vector<std::int64_t> tn_;
  std::vector<std::int64_t> tk_;
  std::vector<std::int64_t> blocks_per_wave_;  ///< sm_count * blocks_per_sm
  std::vector<double> intrinsic_;
  std::vector<gpu::TileConfig> tiles_;  ///< original entries (winner rebuild)
  /// tile_counter(i)'s series, resolved on first use.
  mutable std::vector<std::atomic<obs::Counter*>> tile_counters_;
};

}  // namespace codesign::gemm
