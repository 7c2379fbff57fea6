#include "gemmsim/simulator.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/req_scope.hpp"

namespace codesign::gemm {

GemmSimulator::GemmSimulator(const gpu::GpuSpec& gpu, TilePolicy policy)
    : gpu_(&gpu),
      policy_(policy),
      prepared_(std::make_shared<const PreparedCatalogue>(gpu, policy)) {
  gpu.validate();
}

GemmSimulator GemmSimulator::for_gpu(const std::string& gpu_name,
                                     TilePolicy policy) {
  return GemmSimulator(gpu::gpu_by_name(gpu_name), policy);
}

namespace {

/// Per-estimate counters, recorded from the *returned* estimate so the
/// numbers are identical whether it came from the cache or a fresh compute
/// — which makes them deterministic at any thread count and cache state
/// (a hit returns exactly what the miss computed).
void record_estimate_metrics(const KernelEstimate& est) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("gemmsim.estimate.calls").add();
  reg.counter("gemmsim.estimate.tile", "tile=" + est.tile.name()).add();
  reg.counter("gemmsim.estimate.bound",
              std::string("bound=") + bound_name(est.bound))
      .add();
  reg.counter("gemmsim.estimate.waves")
      .add(static_cast<std::uint64_t>(est.wave_q.waves));
  reg.counter("gemmsim.estimate.blocks")
      .add(static_cast<std::uint64_t>(est.tile_q.tiles_total));
}

/// Count returned estimates: the metrics above (in input order, exactly as
/// N scalar estimate() calls would) and the serve request's attribution.
void count_estimates(std::span<const KernelEstimate> estimates) {
  if (obs::MetricsRegistry::enabled()) {
    for (const KernelEstimate& est : estimates) record_estimate_metrics(est);
  }
  if (auto* rs = obs::RequestScope::current()) {
    rs->estimates += estimates.size();
  }
}

}  // namespace

KernelEstimate GemmSimulator::estimate(const GemmProblem& problem) const {
  KernelEstimate est;
  if (cache_ == nullptr) {
    est = prepared_->estimate_one(problem);
  } else {
    const EstimateCache::Key key{problem, policy_, gpu_};
    if (!cache_->lookup(key, &est)) {
      est = prepared_->estimate_one(problem);
      cache_->insert(key, est);
    }
  }
  count_estimates({&est, 1});
  return est;
}

void GemmSimulator::enable_cache(const CacheOptions& options) {
  cache_ = std::make_shared<EstimateCache>(options);
}

void GemmSimulator::set_cache(std::shared_ptr<EstimateCache> cache) {
  cache_ = std::move(cache);
}

double GemmSimulator::latency(const GemmProblem& problem) const {
  return estimate(problem).time;
}

double GemmSimulator::throughput_tflops(const GemmProblem& problem) const {
  return estimate(problem).tflops();
}

void GemmSimulator::make_keys(std::span<const GemmProblem> problems,
                              BatchWorkspace& workspace) const {
  workspace.keys.clear();
  workspace.keys.reserve(problems.size());
  for (const GemmProblem& p : problems) {
    workspace.keys.push_back(EstimateCache::Key{p, policy_, gpu_});
  }
  workspace.hit.resize(problems.size());
}

void GemmSimulator::resolve_misses(std::span<const GemmProblem> problems,
                                   std::span<KernelEstimate> estimates,
                                   double* times,
                                   BatchWorkspace& workspace) const {
  bool any_miss = false;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (workspace.hit[i] != 0) continue;
    estimates[i] = prepared_->estimate_one(problems[i]);
    if (times != nullptr) times[i] = estimates[i].time;
    any_miss = true;
  }
  if (!any_miss) return;
  // Flip hit flags into miss flags for the grouped insert. A duplicate
  // problem within one batch computes twice (bit-identical results) and
  // stores once — the same racing-miss rule two scalar threads follow.
  for (std::uint8_t& h : workspace.hit) h ^= 1;
  cache_->insert_many(workspace.keys, estimates, workspace.hit.data(),
                      workspace.scratch);
}

void GemmSimulator::estimate_many(std::span<const GemmProblem> problems,
                                  std::span<KernelEstimate> out,
                                  BatchWorkspace& workspace) const {
  CODESIGN_CHECK(problems.size() == out.size(),
                 "estimate_many: problems/out size mismatch");
  const std::size_t n = problems.size();
  if (n == 0) return;
  if (cache_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = prepared_->estimate_one(problems[i]);
    }
  } else {
    make_keys(problems, workspace);
    cache_->lookup_many(workspace.keys, out.data(), workspace.hit.data(),
                        workspace.scratch);
    resolve_misses(problems, out, nullptr, workspace);
  }
  count_estimates(out);
}

void GemmSimulator::estimate_many(std::span<const GemmProblem> problems,
                                  std::span<KernelEstimate> out) const {
  BatchWorkspace workspace;
  estimate_many(problems, out, workspace);
}

void GemmSimulator::estimate_times(std::span<const GemmProblem> problems,
                                   std::span<double> out,
                                   BatchWorkspace& workspace) const {
  CODESIGN_CHECK(problems.size() == out.size(),
                 "estimate_times: problems/out size mismatch");
  const std::size_t n = problems.size();
  if (n == 0) return;
  if (obs::MetricsRegistry::enabled()) {
    // Metrics want the full estimate per item (tile/bound/wave counters),
    // so metrics-on runs route through estimate_many and copy the times.
    workspace.estimates.resize(n);
    estimate_many(problems, workspace.estimates, workspace);
    for (std::size_t i = 0; i < n; ++i) out[i] = workspace.estimates[i].time;
    return;
  }
  if (cache_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = prepared_->time_one(problems[i]);
    }
  } else {
    make_keys(problems, workspace);
    cache_->lookup_times_many(workspace.keys, out.data(), workspace.hit.data(),
                              workspace.scratch);
    // Misses materialize the full estimate so the insert leaves the cache
    // in exactly the state estimate_many would.
    workspace.estimates.resize(n);
    resolve_misses(problems, workspace.estimates, out.data(), workspace);
  }
  if (auto* rs = obs::RequestScope::current()) rs->estimates += n;
}

DesResult GemmSimulator::simulate(const GemmProblem& problem,
                                  const DesOptions& options) const {
  const KernelEstimate est = estimate(problem);
  return simulate_kernel(problem, est.tile, *gpu_, options);
}

FlashAttentionEstimate GemmSimulator::estimate_flash(
    const FlashAttentionProblem& problem) const {
  return estimate_flash_attention(problem, *gpu_);
}

}  // namespace codesign::gemm
