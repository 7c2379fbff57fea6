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
  KernelEstimate estimate(const GemmProblem& problem) const;

  /// Seconds for one GEMM (shortcut for estimate().time).
  double latency(const GemmProblem& problem) const;

  /// TFLOP/s of useful work (the y-axis of all the paper's figures).
  double throughput_tflops(const GemmProblem& problem) const;

  /// Reusable scratch for the batched entry points below. Keep one per
  /// worker thread and pass it to every call — steady-state batch calls
  /// then allocate nothing.
  struct BatchWorkspace {
    std::vector<EstimateCache::Key> keys;
    std::vector<std::uint8_t> hit;
    std::vector<KernelEstimate> estimates;
    EstimateCache::BatchScratch scratch;

    /// The times this workspace already computed on the uncached
    /// times-only path: an open-addressing table keyed by the full
    /// GemmProblem (a free slot has m == 0). It belongs to the catalogue
    /// that filled it and empties itself when handed to another
    /// simulator. It holds successes only, and it stays unallocated until
    /// the workspace's second batch, so a throwaway workspace never pays
    /// for it.
    struct TimeMemo {
      std::shared_ptr<const PreparedCatalogue> owner;
      std::vector<GemmProblem> problems;
      std::vector<double> times;
      std::size_t used = 0;
      bool warm = false;  ///< a batch already ran through this workspace
    } memo;
  };

  /// Batched estimate: fills out[i] with exactly what estimate(problems[i])
  /// returns — bit-identical, any cache state, any thread count. The batch
  /// amortizes the per-call costs: cache probes are grouped per stripe lock
  /// (EstimateCache::lookup_many) and misses go to the same
  /// PreparedCatalogue scan estimate() uses. Divergences from N scalar
  /// calls are confined to best-effort observability: cache hit/miss
  /// counter splits (a problem repeated within one batch misses each
  /// time), LRU recency order, and order-dependent (once:/every:)
  /// failpoint triggers — see docs/search_pipeline.md for the contract.
  void estimate_many(std::span<const GemmProblem> problems,
                     std::span<KernelEstimate> out,
                     BatchWorkspace& workspace) const;

  /// Convenience overload with a throwaway workspace.
  void estimate_many(std::span<const GemmProblem> problems,
                     std::span<KernelEstimate> out) const;

  /// Times-only batch: out[i] == estimate(problems[i]).time bit-identically,
  /// but cache hits copy one double instead of a full KernelEstimate. The
  /// hot call of the batched search pipeline. Misses still compute and
  /// insert the full estimate, so cache population matches the scalar path.
  /// Without a cache, metrics or an active EventRecorder, a problem the
  /// workspace already timed is read back from workspace.memo instead of
  /// scanned again (docs/search_pipeline.md, "The per-workspace memo").
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
  /// Build the batch's cache keys into workspace.keys and size its hit
  /// flags.
  void make_keys(std::span<const GemmProblem> problems,
                 BatchWorkspace& workspace) const;
  /// Select every problem the cache probe missed (workspace.hit[i] == 0)
  /// into `estimates` — copying its time to times[i] when `times` is set —
  /// and insert them with one grouped call.
  void resolve_misses(std::span<const GemmProblem> problems,
                      std::span<KernelEstimate> estimates, double* times,
                      BatchWorkspace& workspace) const;
  /// The uncached times-only path through workspace.memo.
  void memoized_times(std::span<const GemmProblem> problems,
                      std::span<double> out, BatchWorkspace& workspace) const;

  const gpu::GpuSpec* gpu_;  ///< registry-owned, never null
  TilePolicy policy_;
  std::shared_ptr<EstimateCache> cache_;  ///< null = caching disabled
  /// Built once per (gpu, policy) at construction; copies share it.
  std::shared_ptr<const PreparedCatalogue> prepared_;
};

}  // namespace codesign::gemm
