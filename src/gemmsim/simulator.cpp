#include "gemmsim/simulator.hpp"

#include "common/error.hpp"
#include "obs/events.hpp"
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

namespace {

using TimeMemo = GemmSimulator::BatchWorkspace::TimeMemo;

constexpr std::size_t kMemoInitialSlots = 64;
/// Past this many slots a full table starts over instead of growing: a
/// workspace that sees that many distinct shapes is not repeating them.
constexpr std::size_t kMemoMaxSlots = std::size_t{1} << 15;

/// The slot holding `p`, or the free slot where it belongs (linear
/// probing; the table is never more than half full).
std::size_t memo_slot(const TimeMemo& memo, const GemmProblem& p) {
  const std::size_t mask = memo.problems.size() - 1;
  const std::size_t h = p.hash_value();
  for (std::size_t i = (h ^ (h >> 29)) & mask;; i = (i + 1) & mask) {
    const GemmProblem& q = memo.problems[i];
    if (q.m == 0 || q == p) return i;
  }
}

void memo_reset(TimeMemo& memo, std::size_t slots) {
  memo.problems.assign(slots, GemmProblem{});
  memo.times.assign(slots, 0.0);
  memo.used = 0;
}

void memo_insert(TimeMemo& memo, const GemmProblem& p, double time) {
  if (2 * (memo.used + 1) > memo.problems.size()) {
    const std::size_t slots = memo.problems.size();
    if (slots >= kMemoMaxSlots) {
      memo_reset(memo, slots);
    } else {
      TimeMemo grown;
      memo_reset(grown, 2 * slots);
      for (std::size_t i = 0; i < slots; ++i) {
        if (memo.problems[i].m == 0) continue;
        const std::size_t j = memo_slot(grown, memo.problems[i]);
        grown.problems[j] = memo.problems[i];
        grown.times[j] = memo.times[i];
      }
      memo.problems = std::move(grown.problems);
      memo.times = std::move(grown.times);
    }
  }
  const std::size_t i = memo_slot(memo, p);
  memo.problems[i] = p;
  memo.times[i] = time;
  ++memo.used;
}

}  // namespace

void GemmSimulator::memoized_times(std::span<const GemmProblem> problems,
                                   std::span<double> out,
                                   BatchWorkspace& workspace) const {
  TimeMemo& memo = workspace.memo;
  // An active recorder wants every problem's selection trail, and a
  // workspace's first batch may be its only one: both scan every problem.
  if (!memo.warm || obs::EventRecorder::active() != nullptr) {
    memo.warm = true;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      out[i] = prepared_->time_one(problems[i]);
    }
    return;
  }
  if (memo.owner != prepared_) {
    // Times from another GPU or policy must never be read back.
    memo.owner = prepared_;
    memo_reset(memo, kMemoInitialSlots);
  }
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::size_t slot = memo_slot(memo, problems[i]);
    if (memo.problems[slot].m != 0) {
      out[i] = memo.times[slot];
      continue;
    }
    // A faulting scan throws before the insert: faults are never stored.
    out[i] = prepared_->time_one(problems[i]);
    memo_insert(memo, problems[i], out[i]);
  }
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
    memoized_times(problems, out, workspace);
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
