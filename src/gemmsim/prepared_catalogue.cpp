#include "gemmsim/prepared_catalogue.hpp"

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/math_util.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace codesign::gemm {

namespace {

/// One tile's line of the selection trail.
struct TrailRow {
  double time = 0.0;
  double tile_quant_waste = 0.0;
  double wave_efficiency = 0.0;
  Bound bound = Bound::kCompute;
};

std::string format_arg(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// The kernel-selection decision trail: one instant event per candidate
/// tile with the efficiency factors the model weighed and why it lost (or
/// won).
void record_trail(const GemmProblem& problem, const ProblemTerms& terms,
                  const std::vector<TrailRow>& rows,
                  const std::vector<gpu::TileConfig>& tiles,
                  std::size_t best_index, obs::EventRecorder& recorder) {
  const double origin_us = obs::EventRecorder::time_origin_us();
  const TrailRow& best = rows[best_index];
  const std::string best_name = tiles[best_index].name();
  const std::string gemm = problem.to_string();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrailRow& row = rows[i];
    obs::TraceEvent ev;
    ev.name = tiles[i].name();
    ev.category = "select";
    ev.phase = 'i';
    ev.tid = obs::kTidSelection;
    ev.ts_us = origin_us;
    ev.clock = obs::EventClock::kSimulated;
    ev.args.emplace_back("gemm", gemm);
    ev.args.emplace_back("predicted_us", format_arg("%.4f", row.time * 1e6));
    ev.args.emplace_back("alignment",
                         format_arg("%.4f", terms.alignment.combined));
    ev.args.emplace_back("tile_quant_waste",
                         format_arg("%.4f", row.tile_quant_waste));
    ev.args.emplace_back("wave_efficiency",
                         format_arg("%.4f", row.wave_efficiency));
    ev.args.emplace_back("bound", bound_name(row.bound));
    if (i == best_index) {
      ev.args.emplace_back("verdict", "selected");
    } else {
      ev.args.emplace_back(
          "verdict",
          "rejected: " +
              format_arg("%.1f", 100.0 * (row.time / best.time - 1.0)) +
              "% slower than " + best_name);
    }
    recorder.record(std::move(ev));
  }
}

// The counter series of the estimate path, resolved once per process.
// Bound handles follow the Bound enumerators' order and bound_name().
constinit obs::CounterHandle g_select_computed{
    "gemmsim.select.computed", {}, obs::Stability::kBestEffort};
constinit obs::CounterHandle g_select_candidates{
    "gemmsim.select.candidates", {}, obs::Stability::kBestEffort};
constinit obs::CounterHandle g_estimate_calls{"gemmsim.estimate.calls"};
constinit obs::CounterHandle g_estimate_waves{"gemmsim.estimate.waves"};
constinit obs::CounterHandle g_estimate_blocks{"gemmsim.estimate.blocks"};
constinit obs::CounterHandle g_estimate_bound[] = {
    obs::CounterHandle{"gemmsim.estimate.bound", "bound=compute"},
    obs::CounterHandle{"gemmsim.estimate.bound", "bound=memory"},
    obs::CounterHandle{"gemmsim.estimate.bound", "bound=launch"},
};

}  // namespace

PreparedCatalogue::PreparedCatalogue(
    const gpu::GpuSpec& gpu, TilePolicy policy,
    const std::vector<gpu::TileConfig>& catalogue)
    : gpu_(&gpu), policy_(policy) {
  gpu.validate();
  CODESIGN_CHECK(!catalogue.empty(), "tile catalogue must not be empty");
  CODESIGN_CHECK(catalogue.size() <= kMaxCatalogueTiles,
                 "tile catalogue holds too many tiles");
  // kFixedLargest models the fixed-tile kernel of Fig 5b: the prepared
  // table degenerates to the single largest tile, so the same scan code
  // serves both policies.
  if (policy == TilePolicy::kFixedLargest) {
    tiles_ = {gpu::largest_tile()};
  } else {
    tiles_ = catalogue;
  }
  const std::size_t n = tiles_.size();
  tm_.reserve(n);
  tn_.reserve(n);
  tk_.reserve(n);
  blocks_per_wave_.reserve(n);
  intrinsic_.reserve(n);
  for (const gpu::TileConfig& tile : tiles_) {
    CODESIGN_CHECK(tile.tm > 0 && tile.tn > 0 && tile.tk > 0,
                   "tile dimensions must be positive");
    tm_.push_back(tile.tm);
    tn_.push_back(tile.tn);
    tk_.push_back(tile.tk);
    blocks_per_wave_.push_back(static_cast<std::int64_t>(gpu.sm_count) *
                               tile.blocks_per_sm);
    intrinsic_.push_back(tile.intrinsic_efficiency);
  }
  tile_counters_ = std::vector<std::atomic<obs::Counter*>>(n);
}

Selection PreparedCatalogue::select(const GemmProblem& problem,
                                     EstimateCounts* counts) const {
  const bool selecting = policy_ == TilePolicy::kAuto;
  if (selecting) {
    // The failpoint fires once per selection with the problem hash as its
    // token, so prob:P:seed drills skip the same candidates whichever
    // entry point (scalar or batched) reached the scan.
    CODESIGN_FAILPOINT_T("gemmsim.select_kernel", problem.hash_value());
    if (counts != nullptr) ++counts->scans;
  }
  problem.validate();
  const ProblemTerms terms = problem_terms(problem, *gpu_);
  // Checked once per problem: the trail rows are buffered (the verdicts
  // need the winner) only while a recorder is listening.
  obs::EventRecorder* recorder =
      selecting ? obs::EventRecorder::active() : nullptr;
  std::vector<TrailRow> trail;
  if (recorder != nullptr) trail.reserve(tile_count());

  // Flat-array reads, exact integer quantization (same formulas as
  // tile_quantization/wave_quantization), and the shared tile_timing()
  // core. Ties keep the earlier entry, the reference's min_element contract.
  Selection best;
  const std::size_t n = tm_.size();
  for (std::size_t i = 0; i < n; ++i) {
    TileQuantization tile_q;
    tile_q.tiles_m = ceil_div(problem.m, tm_[i]);
    tile_q.tiles_n = ceil_div(problem.n, tn_[i]);
    tile_q.tiles_total = tile_q.tiles_m * tile_q.tiles_n * problem.batch;
    tile_q.padded_m = tile_q.tiles_m * tm_[i];
    tile_q.padded_n = tile_q.tiles_n * tn_[i];
    tile_q.padded_k = round_up(problem.k, tk_[i]);
    const std::int64_t waves =
        ceil_div(tile_q.tiles_total, blocks_per_wave_[i]);
    const double wave_efficiency =
        static_cast<double>(tile_q.tiles_total) /
        static_cast<double>(waves * blocks_per_wave_[i]);
    const TileTiming timing =
        tile_timing(tile_q, wave_efficiency, intrinsic_[i], terms);
    if (recorder != nullptr) {
      trail.push_back({timing.time,
                       wasted_compute_fraction(problem, tile_q.padded_m,
                                               tile_q.padded_n,
                                               tile_q.padded_k),
                       wave_efficiency, timing.bound});
    }
    if (i == 0 || timing.time < best.time) {
      best = {timing.time, static_cast<std::uint32_t>(i), timing.bound};
    }
  }
  if (recorder != nullptr) {
    record_trail(problem, terms, trail, tiles_, best.tile, *recorder);
  }
  return best;
}

KernelEstimate PreparedCatalogue::estimate(const GemmProblem& problem,
                                           const Selection& selection) const {
  return estimate_with_tile(problem, tiles_[selection.tile], *gpu_);
}

KernelEstimate PreparedCatalogue::estimate_one(
    const GemmProblem& problem) const {
  if (!obs::MetricsRegistry::enabled()) {
    return estimate(problem, select(problem, nullptr));
  }
  EstimateCounts counts;
  const KernelEstimate est = estimate(problem, select(problem, &counts));
  flush(counts);
  return est;
}

Selection PreparedCatalogue::selection_of(
    const KernelEstimate& estimate) const {
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    if (tm_[i] == estimate.tile.tm && tn_[i] == estimate.tile.tn &&
        tk_[i] == estimate.tile.tk) {
      return {estimate.time, static_cast<std::uint32_t>(i), estimate.bound};
    }
  }
  throw Error("estimate's tile " + estimate.tile.name() +
              " is not in the catalogue");
}

void PreparedCatalogue::count(const GemmProblem& problem,
                              const Selection& selection,
                              EstimateCounts& counts) const {
  // The scan's quantization formulas, so these equal the estimate's
  // tile_q.tiles_total and wave_q.waves.
  const std::size_t i = selection.tile;
  const std::int64_t blocks =
      ceil_div(problem.m, tm_[i]) * ceil_div(problem.n, tn_[i]) * problem.batch;
  ++counts.estimates;
  counts.waves +=
      static_cast<std::uint64_t>(ceil_div(blocks, blocks_per_wave_[i]));
  counts.blocks += static_cast<std::uint64_t>(blocks);
  ++counts.bounds[static_cast<std::size_t>(selection.bound)];
  ++counts.tiles[i];
}

obs::Counter& PreparedCatalogue::tile_counter(std::size_t i) const {
  obs::Counter* c = tile_counters_[i].load(std::memory_order_acquire);
  if (c == nullptr) {
    c = &obs::MetricsRegistry::global().counter("gemmsim.estimate.tile",
                                                "tile=" + tiles_[i].name());
    tile_counters_[i].store(c, std::memory_order_release);
  }
  return *c;
}

void PreparedCatalogue::flush(EstimateCounts& counts) const {
  if (counts.scans != 0) {
    // kBestEffort: with a cache or a warm memo the scan only runs on
    // misses, so the counts depend on hit patterns.
    g_select_computed.get().add(counts.scans);
    g_select_candidates.get().add(counts.scans * tile_count());
  }
  if (counts.estimates != 0) {
    g_estimate_calls.get().add(counts.estimates);
    g_estimate_waves.get().add(counts.waves);
    g_estimate_blocks.get().add(counts.blocks);
    for (std::size_t b = 0; b < counts.bounds.size(); ++b) {
      if (counts.bounds[b] != 0) {
        g_estimate_bound[b].get().add(counts.bounds[b]);
      }
    }
    for (std::size_t i = 0; i < tile_count(); ++i) {
      if (counts.tiles[i] != 0) tile_counter(i).add(counts.tiles[i]);
    }
  }
  counts = EstimateCounts{};
}

}  // namespace codesign::gemm
