// simulator.hpp — the public façade of the GEMM performance simulator.
//
// GemmSimulator binds a GPU spec to a tile-selection policy and exposes the
// one-call latency/throughput queries the transformer model, the advisor,
// and every bench binary use. It also exposes the discrete-event backend so
// callers can cross-check the analytical answer by simulation.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gemmsim/estimate_cache.hpp"
#include "gemmsim/flash_attention.hpp"
#include "gemmsim/gemm_problem.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gemmsim/prepared_catalogue.hpp"
#include "gemmsim/sm_scheduler.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::gemm {

class GemmSimulator {
 public:
  explicit GemmSimulator(const gpu::GpuSpec& gpu,
                         TilePolicy policy = TilePolicy::kAuto);

  /// Convenience: look the GPU up by name ("a100", "v100-32gb", ...).
  static GemmSimulator for_gpu(const std::string& gpu_name,
                               TilePolicy policy = TilePolicy::kAuto);

  const gpu::GpuSpec& gpu() const { return *gpu_; }
  TilePolicy policy() const { return policy_; }

  /// Predicted execution of one (batched) GEMM under the active policy.
  /// With a cache, one lookup (and an insert on a miss). With metrics on,
  /// the gemmsim.estimate.* counters are added through series handles
  /// resolved once — no registry lock and no string per call.
  KernelEstimate estimate(const GemmProblem& problem) const;

  /// Seconds for one GEMM (shortcut for estimate().time).
  double latency(const GemmProblem& problem) const;

  /// TFLOP/s of useful work (the y-axis of all the paper's figures).
  double throughput_tflops(const GemmProblem& problem) const;

  /// Reusable state for estimate_times. Keep one per worker thread and
  /// pass it to every call — steady-state batch calls then allocate
  /// nothing.
  struct BatchWorkspace {
    /// What this workspace already selected on the uncached path: an
    /// open-addressing table keyed by the full GemmProblem (a free slot has
    /// m == 0) holding each problem's Selection — its time plus the tile
    /// index and bound the estimate counters need, so metrics-on runs read
    /// it too. It belongs to the catalogue that filled it and empties
    /// itself when handed to another simulator. It holds successes only,
    /// and it stays unallocated until the workspace's second batch, so a
    /// throwaway workspace never pays for it.
    struct TimeMemo {
      std::shared_ptr<const PreparedCatalogue> owner;
      std::vector<GemmProblem> problems;
      std::vector<Selection> picks;
      std::size_t used = 0;
      bool warm = false;  ///< a batch already ran through this workspace
    } memo;
  };

  /// Times-only batch: out[i] == estimate(problems[i]).time bit-identically,
  /// any cache state, any thread count, metrics on or off — one path for
  /// all of them, and the hot call of the batched search pipeline. Without
  /// a cache each problem resolves through workspace.memo (a repeat is read
  /// back, not scanned again; docs/search_pipeline.md, "The per-workspace
  /// memo"); with one, through a per-problem EstimateCache lookup/insert,
  /// so cache population matches the scalar path. With metrics on it
  /// counts exactly what N scalar estimate() calls count, tallied locally
  /// and added to the registry once per batch.
  void estimate_times(std::span<const GemmProblem> problems,
                      std::span<double> out, BatchWorkspace& workspace) const;

  /// The tile selector: every uncached estimate and every cache miss is a
  /// scan of these precompiled tables.
  const PreparedCatalogue& prepared() const { return *prepared_; }

  /// Discrete-event cross-check of the analytical estimate.
  DesResult simulate(const GemmProblem& problem,
                     const DesOptions& options = {}) const;

  /// FlashAttention fused-kernel estimate (policy-independent).
  FlashAttentionEstimate estimate_flash(
      const FlashAttentionProblem& problem) const;

  /// Opt in to memoizing estimate() results (off by default). Copies of
  /// this simulator share the cache; results are bit-identical to the
  /// uncached path. Thread-safe (the cache is mutex-striped).
  void enable_cache(const CacheOptions& options = {});

  /// Share an existing cache (e.g. across simulators for several GPUs —
  /// the cache key includes the GPU identity and tile policy). nullptr
  /// disables caching.
  void set_cache(std::shared_ptr<EstimateCache> cache);

  /// The active cache, or nullptr when caching is off.
  const std::shared_ptr<EstimateCache>& cache() const { return cache_; }

 private:
  /// One problem's full estimate into `out`: a cache lookup (a miss is
  /// selected and inserted) or, with no cache, a scan. Counted into
  /// `counts` when that is non-null.
  void resolve(const GemmProblem& problem, EstimateCounts* counts,
               KernelEstimate& out) const;
  /// estimate_times' body: per-problem resolve() with a cache, else
  /// through workspace.memo.
  void batch_times(std::span<const GemmProblem> problems,
                   std::span<double> out, BatchWorkspace& workspace,
                   EstimateCounts* counts) const;

  const gpu::GpuSpec* gpu_;  ///< registry-owned, never null
  TilePolicy policy_;
  std::shared_ptr<EstimateCache> cache_;  ///< null = caching disabled
  /// Built once per (gpu, policy) at construction; copies share it.
  std::shared_ptr<const PreparedCatalogue> prepared_;
};

}  // namespace codesign::gemm
