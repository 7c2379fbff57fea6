// estimate_cache.hpp — a sharded, mutex-striped LRU memo of KernelEstimates.
//
// The design-space searches of the advisor evaluate thousands of candidate
// transformer shapes, and identical GEMM problems recur constantly across
// candidates (a head sweep never changes the QKV or projection GEMM, a
// hidden sweep re-visits the same attention BMMs, the joint grid repeats
// both). Every miss scans the whole tile catalogue, so memoizing
// (problem, policy, GPU) → KernelEstimate turns the dominant cost of the
// search hot path into a hash lookup.
//
// Keying and invalidation rules (see docs/search_pipeline.md):
//   * The key is the full GemmProblem value, the tile-selection policy, and
//     the GPU's identity. GpuSpec instances are registry-owned singletons,
//     so pointer identity is GPU identity; a caller-owned spec may also key
//     the cache as long as it outlives the cache and is not mutated.
//   * The cache never observes GpuSpec mutation — mutate-and-reuse requires
//     an explicit clear().
//   * Entries are bit-exact copies of the uncached computation; a hit
//     returns exactly what a miss would have computed.
//
// Thread safety: shards are independently mutex-protected, so concurrent
// lookups of different shapes stripe across locks. A racing miss on the
// same key computes twice and stores one copy — harmless, still exact.
// Every caller (scalar estimate() and batched estimate_times() alike)
// probes one key at a time; grouping a batch's probes by shard measured no
// faster on the search grids.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gemmsim/kernel_model.hpp"

namespace codesign::obs {
class MetricsRegistry;
struct MetricsSnapshot;
}  // namespace codesign::obs

namespace codesign::gemm {

enum class TilePolicy;  // defined in prepared_catalogue.hpp

/// Opt-in switch + sizing for the estimate cache.
struct CacheOptions {
  /// Maximum number of cached estimates across all shards.
  std::size_t capacity = 1 << 16;
  /// Number of independent mutex-striped shards (min 1). Every probe locks
  /// one shard and a search's hot GEMMs are few, so threads collide unless
  /// the shards outnumber them well (docs/search_pipeline.md).
  std::size_t shards = 64;
};

/// Aggregate counters across all shards (monotonic except entries).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class EstimateCache {
 public:
  struct Key {
    GemmProblem problem;
    TilePolicy policy;
    const gpu::GpuSpec* gpu = nullptr;
    /// Memoized hash_value(); 0 = not yet computed (a genuine 0 hash just
    /// recomputes — harmless). Excluded from equality. Mutation is safe:
    /// keys are per-call values or shard-lock-protected cache entries.
    mutable std::size_t memo_hash = 0;

    bool operator==(const Key& o) const {
      return problem == o.problem && policy == o.policy && gpu == o.gpu;
    }
    std::size_t hash_value() const noexcept;
    /// Token for the gemmsim.cache.lookup failpoint: a pure function of
    /// the problem, the policy and the GPU's id, so which lookups a
    /// prob: trigger faults is the same in every process (hash_value()
    /// mixes in the GpuSpec address, which moves between runs).
    std::uint64_t failpoint_token() const noexcept;
  };

  explicit EstimateCache(const CacheOptions& options = {});

  /// Probe one key: on a hit copy the estimate into `*out` (when non-null)
  /// and return true. Fires the gemmsim.cache.lookup failpoint with the
  /// key's failpoint_token(), so a batch of lookups fires it once per key,
  /// in input order.
  bool lookup(const Key& key, KernelEstimate* out);
  /// Store one estimate (evicting the shard's least-recently-used entry
  /// when full). A key already present is left untouched: a racing miss
  /// computed the same bits.
  void insert(const Key& key, const KernelEstimate& estimate);

  /// Drop every entry (counters keep accumulating).
  void clear();

  CacheStats stats() const;

  /// Publish the current stats() into `registry` as kBestEffort gauges
  /// ("gemmsim.cache.hits" etc.) — best-effort because racing misses make
  /// the hit/miss split scheduling-dependent. Call at snapshot time; the
  /// cache never touches the registry on its hot path.
  void publish_metrics(obs::MetricsRegistry& registry) const;

  /// Snapshot-local twin of publish_metrics: append the same five gauge
  /// series to `snapshot` without touching any registry. Lets readers (the
  /// serve stats op) report cache state side-effect-free — two back-to-back
  /// reads with no traffic in between produce identical documents.
  void append_metrics(obs::MetricsSnapshot& snapshot) const;

  const CacheOptions& options() const { return options_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.hash_value();
    }
  };
  struct Entry {
    Key key;
    KernelEstimate estimate;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< most recently used at the front
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const Key& key);
  /// Hit/miss accounting + LRU touch; the entry's estimate or nullptr.
  const KernelEstimate* probe_locked(Shard& shard, const Key& key);
  /// Insert unless present, evicting the LRU entry when the shard is full.
  void insert_locked(Shard& shard, const Key& key,
                     const KernelEstimate& estimate);
  CacheOptions options_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace codesign::gemm
