#include "gemmsim/estimate_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/metrics.hpp"

namespace codesign::gemm {

std::size_t EstimateCache::Key::hash_value() const noexcept {
  if (memo_hash != 0) return memo_hash;
  std::size_t h = problem.hash_value();
  h ^= static_cast<std::size_t>(static_cast<int>(policy)) + 0x9e3779b97f4a7c15ull +
       (h << 6) + (h >> 2);
  h ^= std::hash<const gpu::GpuSpec*>{}(gpu) + 0x9e3779b97f4a7c15ull +
       (h << 6) + (h >> 2);
  memo_hash = h;
  return h;
}

std::uint64_t EstimateCache::Key::failpoint_token() const noexcept {
  std::uint64_t h = problem.hash_value();
  h ^= static_cast<std::uint64_t>(policy) + 0x9e3779b97f4a7c15ull + (h << 6) +
       (h >> 2);
  h ^= fail::token(gpu->id) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

EstimateCache::EstimateCache(const CacheOptions& options) : options_(options) {
  CODESIGN_CHECK(options_.capacity > 0, "cache capacity must be positive");
  options_.shards = std::max<std::size_t>(1, options_.shards);
  options_.shards = std::min(options_.shards, options_.capacity);
  per_shard_capacity_ = (options_.capacity + options_.shards - 1) / options_.shards;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

EstimateCache::Shard& EstimateCache::shard_for(const Key& key) {
  return *shards_[key.hash_value() % shards_.size()];
}

const KernelEstimate* EstimateCache::probe_locked(Shard& shard,
                                                   const Key& key) {
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return &it->second->estimate;
}

bool EstimateCache::lookup(const Key& key, KernelEstimate* out) {
  CODESIGN_FAILPOINT_T("gemmsim.cache.lookup", key.failpoint_token());
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const KernelEstimate* hit = probe_locked(shard, key);
  if (hit == nullptr) return false;
  if (out != nullptr) *out = *hit;
  return true;
}

void EstimateCache::insert(const Key& key, const KernelEstimate& estimate) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  insert_locked(shard, key, estimate);
}

void EstimateCache::insert_locked(Shard& shard, const Key& key,
                                  const KernelEstimate& estimate) {
  // Leave already-present keys untouched: a concurrent miss computed the
  // same bits first.
  if (shard.index.contains(key)) return;
  while (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, estimate});
  shard.index.emplace(key, shard.lru.begin());
}

void EstimateCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

CacheStats EstimateCache::stats() const {
  CacheStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->lru.size();
  }
  return s;
}

void EstimateCache::publish_metrics(obs::MetricsRegistry& registry) const {
  const CacheStats s = stats();
  constexpr auto kBe = obs::Stability::kBestEffort;
  registry.gauge("gemmsim.cache.hits", {}, kBe)
      .set(static_cast<double>(s.hits));
  registry.gauge("gemmsim.cache.misses", {}, kBe)
      .set(static_cast<double>(s.misses));
  registry.gauge("gemmsim.cache.evictions", {}, kBe)
      .set(static_cast<double>(s.evictions));
  registry.gauge("gemmsim.cache.entries", {}, kBe)
      .set(static_cast<double>(s.entries));
  registry.gauge("gemmsim.cache.hit_rate", {}, kBe).set(s.hit_rate());
}

void EstimateCache::append_metrics(obs::MetricsSnapshot& snapshot) const {
  const CacheStats s = stats();
  const auto gauge = [&snapshot](const char* name, double v) {
    obs::MetricsSnapshot::Series series;
    series.name = name;
    series.kind = obs::MetricKind::kGauge;
    series.stability = obs::Stability::kBestEffort;
    series.value = v;
    snapshot.add_series(std::move(series));
  };
  gauge("gemmsim.cache.hits", static_cast<double>(s.hits));
  gauge("gemmsim.cache.misses", static_cast<double>(s.misses));
  gauge("gemmsim.cache.evictions", static_cast<double>(s.evictions));
  gauge("gemmsim.cache.entries", static_cast<double>(s.entries));
  gauge("gemmsim.cache.hit_rate", s.hit_rate());
}

}  // namespace codesign::gemm
