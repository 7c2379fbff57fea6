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

void GemmSimulator::resolve(const GemmProblem& problem, EstimateCounts* counts,
                            KernelEstimate& out) const {
  if (cache_ == nullptr) {
    out = prepared_->estimate(problem, prepared_->select(problem, counts));
  } else {
    const EstimateCache::Key key{problem, policy_, gpu_};
    if (!cache_->lookup(key, &out)) {
      out = prepared_->estimate(problem, prepared_->select(problem, counts));
      cache_->insert(key, out);
    }
  }
  // Counted from the returned estimate, so the numbers are the same
  // whether it came from the cache or a fresh scan — deterministic at any
  // thread count and cache state.
  if (counts != nullptr) {
    prepared_->count(problem, prepared_->selection_of(out), *counts);
  }
}

KernelEstimate GemmSimulator::estimate(const GemmProblem& problem) const {
  KernelEstimate est;
  if (obs::MetricsRegistry::enabled()) {
    EstimateCounts counts;
    resolve(problem, &counts, est);
    prepared_->flush(counts);
  } else {
    resolve(problem, nullptr, est);
  }
  if (auto* rs = obs::RequestScope::current()) ++rs->estimates;
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
  memo.picks.assign(slots, Selection{});
  memo.used = 0;
}

void memo_insert(TimeMemo& memo, const GemmProblem& p, const Selection& pick) {
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
        grown.picks[j] = memo.picks[i];
      }
      memo.problems = std::move(grown.problems);
      memo.picks = std::move(grown.picks);
    }
  }
  const std::size_t i = memo_slot(memo, p);
  memo.problems[i] = p;
  memo.picks[i] = pick;
  ++memo.used;
}

}  // namespace

void GemmSimulator::batch_times(std::span<const GemmProblem> problems,
                                std::span<double> out,
                                BatchWorkspace& workspace,
                                EstimateCounts* counts) const {
  if (cache_ != nullptr) {
    KernelEstimate est;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      resolve(problems[i], counts, est);
      out[i] = est.time;
    }
    return;
  }
  TimeMemo& memo = workspace.memo;
  // An active recorder wants every problem's selection trail, and a
  // workspace's first batch may be its only one: both scan every problem.
  const bool scan_all = !memo.warm || obs::EventRecorder::active() != nullptr;
  if (!scan_all && memo.owner != prepared_) {
    // Picks from another GPU or policy must never be read back.
    memo.owner = prepared_;
    memo_reset(memo, kMemoInitialSlots);
  }
  memo.warm = true;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const GemmProblem& p = problems[i];
    Selection pick;
    if (scan_all) {
      pick = prepared_->select(p, counts);
    } else if (const std::size_t slot = memo_slot(memo, p);
               memo.problems[slot].m != 0) {
      pick = memo.picks[slot];
    } else {
      // A faulting scan throws before the insert: faults are never stored.
      pick = prepared_->select(p, counts);
      memo_insert(memo, p, pick);
    }
    out[i] = pick.time;
    if (counts != nullptr) prepared_->count(p, pick, *counts);
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
    // Tallied locally and flushed once, after every problem resolved: a
    // batch that throws counts nothing.
    EstimateCounts counts;
    batch_times(problems, out, workspace, &counts);
    prepared_->flush(counts);
  } else {
    batch_times(problems, out, workspace, nullptr);
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
