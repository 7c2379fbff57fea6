// Tests for the one estimation engine: GemmSimulator::estimate /
// estimate_times, the PreparedCatalogue scan behind them, and the
// with-estimates layer walk (one estimate() per GEMM). The oracle is the
// naive select_kernel reference: every entry point must match it field for
// field, in every cache state, at any thread count, with metrics on or
// off, and under failpoint drills the same candidates fault either way.
// With metrics on, a batch must count exactly what N scalar estimate()
// calls count — memo hits included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gemmsim/estimate_cache.hpp"
#include "gemmsim/prepared_catalogue.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::gemm {
namespace {

GemmProblem problem(std::int64_t m, std::int64_t n, std::int64_t k) {
  return GemmProblem::gemm(m, n, k);
}

/// The working set every lockstep test sweeps: quantization-friendly and
/// hostile shapes, batched BMMs, odd dtypes, and accumulate variants.
std::vector<GemmProblem> shape_set() {
  std::vector<GemmProblem> shapes = {
      problem(2048, 2560, 2560),  problem(80, 80, 2560),
      problem(4096, 50304, 2560), GemmProblem::bmm(64, 2048, 2048, 80),
      problem(1, 1, 1),           problem(108 * 256, 128, 64),
      problem(4096, 4096, 1024),  problem(96, 96, 4096),
      problem(1000, 1000, 1000),  problem(2048, 2730, 2560),
  };
  GemmProblem bf = problem(512, 512, 512);
  bf.dtype = gpu::DType::kBF16;
  shapes.push_back(bf);
  GemmProblem acc = problem(768, 768, 768);
  acc.accumulate_into_c = true;
  shapes.push_back(acc);
  return shapes;
}

/// Field-exact equality — the batch contract is bitwise, not approximate.
void expect_identical(const KernelEstimate& a, const KernelEstimate& b) {
  EXPECT_EQ(a.problem, b.problem);
  EXPECT_EQ(a.tile.tm, b.tile.tm);
  EXPECT_EQ(a.tile.tn, b.tile.tn);
  EXPECT_EQ(a.tile.tk, b.tile.tk);
  EXPECT_EQ(a.tile_q.tiles_total, b.tile_q.tiles_total);
  EXPECT_EQ(a.tile_q.padded_m, b.tile_q.padded_m);
  EXPECT_EQ(a.tile_q.padded_n, b.tile_q.padded_n);
  EXPECT_EQ(a.tile_q.padded_k, b.tile_q.padded_k);
  EXPECT_EQ(a.wave_q.waves, b.wave_q.waves);
  EXPECT_EQ(a.wave_q.efficiency, b.wave_q.efficiency);
  EXPECT_EQ(a.alignment.combined, b.alignment.combined);
  EXPECT_EQ(a.compute_time, b.compute_time);
  EXPECT_EQ(a.memory_time, b.memory_time);
  EXPECT_EQ(a.launch_overhead, b.launch_overhead);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.bound, b.bound);
}

TEST(PreparedCatalogue, EstimateOneMatchesSelectKernel) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const PreparedCatalogue prepared(gpu, TilePolicy::kAuto);
  EXPECT_EQ(prepared.tile_count(), gpu::default_tile_catalogue().size());
  for (const GemmProblem& p : shape_set()) {
    expect_identical(select_kernel(p, gpu), prepared.estimate_one(p));
    EXPECT_EQ(prepared.select(p, nullptr).time, prepared.estimate_one(p).time);
  }
}

TEST(PreparedCatalogue, FixedLargestDegeneratesToOneTile) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("v100");
  const PreparedCatalogue prepared(gpu, TilePolicy::kFixedLargest);
  EXPECT_EQ(prepared.tile_count(), 1u);
  for (const GemmProblem& p : shape_set()) {
    expect_identical(estimate_with_tile(p, gpu::largest_tile(), gpu),
                     prepared.estimate_one(p));
    EXPECT_EQ(prepared.select(p, nullptr).time, prepared.estimate_one(p).time);
  }
}

/// The naive reference for one (problem, policy, gpu): select_kernel under
/// kAuto, the largest tile under kFixedLargest.
KernelEstimate reference_estimate(const GemmProblem& p, TilePolicy policy,
                                  const gpu::GpuSpec& gpu) {
  return policy == TilePolicy::kAuto
             ? select_kernel(p, gpu)
             : estimate_with_tile(p, gpu::largest_tile(), gpu);
}

TEST(OneEngine, EveryEntryPointMatchesTheReference) {
  const std::vector<GemmProblem> shapes = shape_set();
  for (const std::string& id : gpu::known_gpus()) {
    const gpu::GpuSpec& gpu = gpu::gpu_by_name(id);
    for (const TilePolicy policy :
         {TilePolicy::kAuto, TilePolicy::kFixedLargest}) {
      for (const bool cached : {false, true}) {
        SCOPED_TRACE(id + (policy == TilePolicy::kAuto ? " auto" : " fixed") +
                     (cached ? " cached" : " uncached"));
        GemmSimulator sim(gpu, policy);
        if (cached) sim.enable_cache();
        GemmSimulator::BatchWorkspace ws;
        // Three rounds: cold, then (with the cache on) all hits, and
        // without it the workspace memo answering from round two on.
        for (int round = 0; round < 3; ++round) {
          std::vector<double> times(shapes.size());
          sim.estimate_times(shapes, times, ws);
          for (std::size_t i = 0; i < shapes.size(); ++i) {
            const KernelEstimate ref =
                reference_estimate(shapes[i], policy, gpu);
            expect_identical(ref, sim.estimate(shapes[i]));
            EXPECT_EQ(ref.time, times[i]);
          }
        }
      }
    }
  }
}

TEST(OneEngine, ScanRecordsOneSelectEventPerTile) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const GemmSimulator sim(gpu);
  const GemmProblem p = problem(2048, 2730, 2560);
  const std::vector<KernelEstimate> all = estimate_all_tiles(p, gpu);
  const KernelEstimate winner = select_kernel(p, gpu);

  obs::ScopedRecorder scoped;
  sim.estimate(p);
  const std::vector<obs::TraceEvent> events = scoped.recorder().events();
  ASSERT_EQ(events.size(), sim.prepared().tile_count());
  ASSERT_EQ(events.size(), all.size());

  const auto arg = [](const obs::TraceEvent& ev, const std::string& key) {
    for (const auto& [k, v] : ev.args) {
      if (k == key) return v;
    }
    return std::string("<missing>");
  };
  const auto fmt = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return std::string(buf);
  };
  int selected = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const obs::TraceEvent& ev = events[i];
    const KernelEstimate& e = all[i];
    EXPECT_EQ(ev.category, "select");
    EXPECT_EQ(ev.name, e.tile.name());
    EXPECT_EQ(arg(ev, "gemm"), p.to_string());
    EXPECT_EQ(arg(ev, "predicted_us"), fmt(e.time * 1e6));
    EXPECT_EQ(arg(ev, "alignment"), fmt(e.alignment.combined));
    EXPECT_EQ(arg(ev, "tile_quant_waste"),
              fmt(e.tile_q.wasted_compute_fraction));
    EXPECT_EQ(arg(ev, "wave_efficiency"), fmt(e.wave_q.efficiency));
    EXPECT_EQ(arg(ev, "bound"), bound_name(e.bound));
    if (arg(ev, "verdict") == "selected") {
      ++selected;
      EXPECT_EQ(ev.name, winner.tile.name());
    } else {
      EXPECT_NE(arg(ev, "verdict").find("slower than " + winner.tile.name()),
                std::string::npos);
    }
  }
  EXPECT_EQ(selected, 1);
}

/// The GEMMs of a layer walked with estimates: the with-estimates walk
/// behind analyze_layer, one estimate() per GEMM.
std::vector<KernelEstimate> walked_estimates(const tfm::TransformerConfig& cfg,
                                             const GemmSimulator& sim) {
  tfm::LayerWorkspace ws;
  tfm::walk_layer(cfg, sim, ws, /*with_estimates=*/true);
  return ws.gemm_estimates;
}

TEST(EstimateTimes, LayerWalkWithEstimatesMatchesTheReference) {
  const tfm::TransformerConfig cfg = tfm::model_by_name("gpt3-2.7b");
  const std::vector<GemmProblem> gemms = tfm::layer_gemms(cfg);
  for (const TilePolicy policy :
       {TilePolicy::kAuto, TilePolicy::kFixedLargest}) {
    for (const bool cached : {false, true}) {
      GemmSimulator sim(gpu::gpu_by_name("a100"), policy);
      if (cached) sim.enable_cache();
      for (int round = 0; round < 2; ++round) {  // cold, then warm
        const std::vector<KernelEstimate> walked = walked_estimates(cfg, sim);
        ASSERT_EQ(walked.size(), gemms.size());
        for (std::size_t i = 0; i < gemms.size(); ++i) {
          expect_identical(
              reference_estimate(gemms[i], policy, gpu::gpu_by_name("a100")),
              walked[i]);
        }
      }
    }
  }
}

TEST(EstimateTimes, ColdAndWarmCacheLockstep) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  GemmSimulator scalar(gpu);
  GemmSimulator batched(gpu);
  scalar.enable_cache();
  batched.enable_cache();

  const std::vector<GemmProblem> shapes = shape_set();
  std::vector<KernelEstimate> scalar_out;
  for (const GemmProblem& p : shapes) scalar_out.push_back(scalar.estimate(p));

  GemmSimulator::BatchWorkspace ws;
  std::vector<double> cold(shapes.size());
  batched.estimate_times(shapes, cold, ws);  // all misses
  std::vector<double> warm(shapes.size());
  batched.estimate_times(shapes, warm, ws);  // all hits
  const CacheStats stats = batched.cache()->stats();
  EXPECT_EQ(stats.misses, shapes.size());
  EXPECT_EQ(stats.hits, shapes.size());

  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(scalar_out[i].time, cold[i]);
    EXPECT_EQ(scalar_out[i].time, warm[i]);
    // Crossover: the batch-populated cache serves full scalar reads
    // bit-exactly.
    expect_identical(scalar_out[i], batched.estimate(shapes[i]));
  }
}

TEST(EstimateTimes, DuplicateProblemsWithinOneBatch) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.enable_cache();
  const GemmProblem p = problem(640, 640, 640);
  const std::vector<GemmProblem> shapes = {p, p, p};
  GemmSimulator::BatchWorkspace ws;
  std::vector<double> out(shapes.size());
  sim.estimate_times(shapes, out, ws);
  const KernelEstimate reference = select_kernel(p, gpu::gpu_by_name("a100"));
  for (const double t : out) EXPECT_EQ(reference.time, t);
  // Per-problem lookup/insert: the first copy misses and is stored, the
  // copies after it hit.
  const CacheStats stats = sim.cache()->stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(EstimateTimes, CacheLookupDrillFiresOncePerKeyInInputOrder) {
  const std::vector<GemmProblem> shapes = shape_set();
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  for (std::size_t k = 1; k <= shapes.size(); ++k) {
    SCOPED_TRACE("once:" + std::to_string(k));
    GemmSimulator sim(gpu);
    sim.enable_cache();
    GemmSimulator::BatchWorkspace ws;
    std::vector<double> out(shapes.size());
    fail::clear();
    fail::configure("gemmsim.cache.lookup=once:" + std::to_string(k));
    EXPECT_THROW(sim.estimate_times(shapes, out, ws), fail::InjectedFault);
    const fail::SiteStats site = fail::stats("gemmsim.cache.lookup");
    fail::clear();
    // The k-th lookup threw: exactly k keys were probed, and exactly the
    // k - 1 problems before it in input order were resolved and stored.
    EXPECT_EQ(site.hits, k);
    EXPECT_EQ(site.fires, 1u);
    EXPECT_EQ(sim.cache()->stats().entries, k - 1);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const EstimateCache::Key key{shapes[i], TilePolicy::kAuto, &gpu};
      EXPECT_EQ(sim.cache()->lookup(key, nullptr), i + 1 < k) << i;
    }
  }
}

TEST(EstimateTimes, EstimateTimesMatchesEstimateBitForBit) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.enable_cache();
  const std::vector<GemmProblem> shapes = shape_set();
  GemmSimulator::BatchWorkspace ws;
  std::vector<double> cold(shapes.size());
  sim.estimate_times(shapes, cold, ws);
  std::vector<double> warm(shapes.size());
  sim.estimate_times(shapes, warm, ws);
  GemmSimulator reference = GemmSimulator::for_gpu("a100");
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const double expected = reference.estimate(shapes[i]).time;
    EXPECT_EQ(expected, cold[i]);
    EXPECT_EQ(expected, warm[i]);
  }
  // The times-only path still populated the cache with full estimates.
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    expect_identical(reference.estimate(shapes[i]), sim.estimate(shapes[i]));
  }
}

TEST(EstimateTimes, MetricsOnPathStaysLockstep) {
  const tfm::TransformerConfig cfg = tfm::model_by_name("gpt3-2.7b");
  const std::vector<GemmProblem> gemms = tfm::layer_gemms(cfg);
  const std::vector<GemmProblem> shapes = shape_set();
  const GemmSimulator reference = GemmSimulator::for_gpu("a100");
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    GemmSimulator sim = GemmSimulator::for_gpu("a100");
    if (cached) sim.enable_cache();
    obs::MetricsRegistry::set_enabled(true);
    GemmSimulator::BatchWorkspace ws;
    std::vector<std::vector<double>> rounds;
    for (int round = 0; round < 3; ++round) {  // cold, then warm
      std::vector<double> times(shapes.size());
      sim.estimate_times(shapes, times, ws);
      rounds.push_back(times);
    }
    const std::vector<KernelEstimate> walked = walked_estimates(cfg, sim);
    obs::MetricsRegistry::set_enabled(false);
    for (const std::vector<double>& times : rounds) {
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        EXPECT_EQ(reference.estimate(shapes[i]).time, times[i]);
      }
    }
    for (std::size_t i = 0; i < gemms.size(); ++i) {
      expect_identical(reference.estimate(gemms[i]), walked[i]);
    }
  }
}

TEST(EstimateTimes, SharedCacheAcrossThreadsStaysExact) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.enable_cache();
  const GemmSimulator reference = GemmSimulator::for_gpu("a100");
  const tfm::TransformerConfig cfg = tfm::model_by_name("gpt3-2.7b");
  const std::vector<GemmProblem> gemms = tfm::layer_gemms(cfg);

  // 8 threads push overlapping batches and with-estimates layer walks
  // through one shared cache; every element must match the uncached scalar
  // answer exactly.
  std::vector<std::thread> workers;
  std::vector<int> failures(8, 0);
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([w, &sim, &reference, &failures, &cfg, &gemms] {
      GemmSimulator::BatchWorkspace ws;
      std::vector<GemmProblem> batch;
      std::vector<double> out;
      int& failed = failures[static_cast<std::size_t>(w)];
      for (int round = 0; round < 20; ++round) {
        batch.clear();
        for (int j = 0; j < 6; ++j) {
          const std::int64_t m = 64 * (1 + (w + round + j) % 10);
          batch.push_back(GemmProblem::gemm(m, 2560, 2560));
        }
        out.resize(batch.size());
        sim.estimate_times(batch, out, ws);
        for (std::size_t j = 0; j < batch.size(); ++j) {
          if (out[j] != reference.estimate(batch[j]).time) ++failed;
        }
        if (round % 5 == 0) {
          const std::vector<KernelEstimate> walked = walked_estimates(cfg, sim);
          for (std::size_t j = 0; j < gemms.size(); ++j) {
            const KernelEstimate ref = reference.estimate(gemms[j]);
            if (walked[j].time != ref.time ||
                walked[j].tile.tm != ref.tile.tm ||
                walked[j].tile.tn != ref.tile.tn) {
              ++failed;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
  // 10 distinct batch shapes plus the layer's GEMMs, each stored once.
  EXPECT_LE(sim.cache()->stats().entries, 10u + gemms.size());
}

TEST(EstimateCacheKey, HashMemoIsTransparent) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const EstimateCache::Key a{problem(512, 512, 512), TilePolicy::kAuto, &gpu};
  EstimateCache::Key b = a;
  const std::size_t h = a.hash_value();  // memoizes inside a
  EXPECT_EQ(h, a.hash_value());
  EXPECT_EQ(h, b.hash_value());
  EXPECT_EQ(a, b);  // memo state never affects equality
}

/// Which problems of the set fault, evaluated one way or the other. The
/// failpoint contract: prob:P:seed triggers hash a stable per-operation
/// token, so the fire set is identical for scalar and batched evaluation
/// at candidate granularity.
std::vector<bool> scalar_fault_set(const std::vector<GemmProblem>& shapes,
                                   bool with_cache) {
  std::vector<bool> faulted;
  for (const GemmProblem& p : shapes) {
    GemmSimulator sim = GemmSimulator::for_gpu("a100");
    if (with_cache) sim.enable_cache();
    bool f = false;
    try {
      sim.estimate(p);
    } catch (const fail::InjectedFault&) {
      f = true;
    }
    faulted.push_back(f);
  }
  return faulted;
}

std::vector<bool> batched_fault_set(const std::vector<GemmProblem>& shapes,
                                    bool with_cache) {
  std::vector<bool> faulted;
  GemmSimulator::BatchWorkspace ws;
  for (const GemmProblem& p : shapes) {
    GemmSimulator sim = GemmSimulator::for_gpu("a100");
    if (with_cache) sim.enable_cache();
    // One candidate's GEMMs per batch, the search pipeline's granularity.
    const std::vector<GemmProblem> batch = {p};
    std::vector<double> out(batch.size());
    bool f = false;
    try {
      sim.estimate_times(batch, out, ws);
    } catch (const fail::InjectedFault&) {
      f = true;
    }
    faulted.push_back(f);
  }
  return faulted;
}

TEST(EstimateTimes, SelectKernelDrillFaultsSameCandidates) {
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.select_kernel=prob:0.5:1234");
  const std::vector<bool> scalar = scalar_fault_set(shapes, false);
  const std::vector<bool> batched = batched_fault_set(shapes, false);
  fail::clear();
  EXPECT_EQ(scalar, batched);
  // The drill must actually bite for the comparison to mean anything.
  EXPECT_NE(std::count(scalar.begin(), scalar.end(), true), 0);
}

TEST(EstimateTimes, CacheLookupDrillFaultsSameCandidates) {
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.cache.lookup=prob:0.5:77");
  const std::vector<bool> scalar = scalar_fault_set(shapes, true);
  const std::vector<bool> batched = batched_fault_set(shapes, true);
  fail::clear();
  EXPECT_EQ(scalar, batched);
  EXPECT_NE(std::count(scalar.begin(), scalar.end(), true), 0);
}

TEST(EstimateTimes, MultiProblemBatchThrowsIffAnyMemberFaults) {
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.select_kernel=prob:0.5:1234");
  const std::vector<bool> scalar = scalar_fault_set(shapes, false);
  const bool any_scalar =
      std::count(scalar.begin(), scalar.end(), true) != 0;
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  GemmSimulator::BatchWorkspace ws;
  std::vector<double> out(shapes.size());
  bool batch_threw = false;
  try {
    sim.estimate_times(shapes, out, ws);
  } catch (const fail::InjectedFault&) {
    batch_threw = true;
  }
  fail::clear();
  EXPECT_EQ(any_scalar, batch_threw);
}

// ---------------------------------------------------------------------------
// The per-workspace GEMM-time memo of the uncached times-only path.

/// shape_set() with repeats inside one batch (every problem twice, the
/// second pass reversed).
std::vector<GemmProblem> repeating_batch() {
  std::vector<GemmProblem> batch = shape_set();
  const std::vector<GemmProblem> shapes = shape_set();
  batch.insert(batch.end(), shapes.rbegin(), shapes.rend());
  return batch;
}

TEST(TimeMemo, OneWorkspaceAcrossSimulatorsMatchesTheReference) {
  const std::vector<GemmProblem> batch = repeating_batch();
  GemmSimulator::BatchWorkspace ws;  // reused by every simulator below
  const std::pair<const char*, TilePolicy> sims[] = {
      {"a100", TilePolicy::kAuto},
      {"h100", TilePolicy::kAuto},
      {"a100", TilePolicy::kFixedLargest},
      {"a100", TilePolicy::kAuto},  // back again: no stale h100/fixed times
  };
  for (const auto& [id, policy] : sims) {
    const gpu::GpuSpec& gpu = gpu::gpu_by_name(id);
    const GemmSimulator sim(gpu, policy);
    SCOPED_TRACE(std::string(id) +
                 (policy == TilePolicy::kAuto ? " auto" : " fixed"));
    // Three batches: repeats inside each one and across them.
    for (int round = 0; round < 3; ++round) {
      std::vector<double> times(batch.size());
      sim.estimate_times(batch, times, ws);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(times[i], reference_estimate(batch[i], policy, gpu).time)
            << batch[i].to_string();
      }
    }
    EXPECT_EQ(ws.memo.owner.get(), &sim.prepared());
  }
  // Only distinct problems are stored.
  EXPECT_EQ(ws.memo.used, shape_set().size());
}

TEST(TimeMemo, SelectKernelDrillFaultsTheSameProblemsWithAndWithoutRepeats) {
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.select_kernel=prob:0.5:1234");
  const std::vector<bool> scalar = scalar_fault_set(shapes, false);
  // Through one warm workspace, each problem three times: a faulted scan
  // is never stored, so a repeat faults again; a clean one stays clean.
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  GemmSimulator::BatchWorkspace ws;
  std::vector<std::vector<bool>> repeated(3);
  for (int round = 0; round < 3; ++round) {
    for (const GemmProblem& p : shapes) {
      const std::vector<GemmProblem> one = {p};
      std::vector<double> t(1);
      bool f = false;
      try {
        sim.estimate_times(one, t, ws);
      } catch (const fail::InjectedFault&) {
        f = true;
      }
      repeated[round].push_back(f);
    }
  }
  // A batch holding a faulting problem twice still throws.
  std::vector<GemmProblem> twice;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (scalar[i]) twice = {shapes[i], shapes[i]};
  }
  bool twice_threw = false;
  if (!twice.empty()) {
    std::vector<double> t(twice.size());
    try {
      sim.estimate_times(twice, t, ws);
    } catch (const fail::InjectedFault&) {
      twice_threw = true;
    }
  }
  fail::clear();
  for (int round = 0; round < 3; ++round) EXPECT_EQ(scalar, repeated[round]);
  EXPECT_NE(std::count(scalar.begin(), scalar.end(), true), 0);
  EXPECT_NE(std::count(scalar.begin(), scalar.end(), false), 0);
  EXPECT_TRUE(twice_threw);
}

/// The non-zero gemmsim.estimate.* series of the global registry, keyed
/// "name{labels}".
std::map<std::string, std::uint64_t> estimate_series() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& s : obs::MetricsRegistry::global().snapshot().series) {
    if (s.name.starts_with("gemmsim.estimate.") && s.count != 0) {
      out[s.name + "{" + s.labels + "}"] = s.count;
    }
  }
  return out;
}

/// What those series must read after counting `estimates`, tallied here
/// from the estimates' own fields.
std::map<std::string, std::uint64_t> expected_series(
    const std::vector<KernelEstimate>& estimates) {
  std::map<std::string, std::uint64_t> out;
  for (const KernelEstimate& e : estimates) {
    ++out["gemmsim.estimate.calls{}"];
    ++out["gemmsim.estimate.tile{tile=" + e.tile.name() + "}"];
    ++out["gemmsim.estimate.bound{bound=" + std::string(bound_name(e.bound)) +
          "}"];
    out["gemmsim.estimate.waves{}"] +=
        static_cast<std::uint64_t>(e.wave_q.waves);
    out["gemmsim.estimate.blocks{}"] +=
        static_cast<std::uint64_t>(e.tile_q.tiles_total);
  }
  return out;
}

TEST(TimeMemo, MetricsOnBatchCountsWhatScalarEstimatesCount) {
  // Enough distinct shapes to grow the memo past its first table, each
  // twice per batch (the second pass reversed).
  std::vector<GemmProblem> distinct = shape_set();
  for (int i = 0; i < 70; ++i) {
    distinct.push_back(problem(64 + 96 * i, 2560 - 16 * i, 1024 + 8 * i));
  }
  std::vector<GemmProblem> batch = distinct;
  batch.insert(batch.end(), distinct.rbegin(), distinct.rend());

  GemmSimulator::BatchWorkspace ws;  // handed between the simulators below
  const std::pair<const char*, TilePolicy> sims[] = {
      {"a100", TilePolicy::kAuto},
      {"h100", TilePolicy::kAuto},
      {"a100", TilePolicy::kFixedLargest},
      {"a100", TilePolicy::kAuto},  // back again: no stale h100/fixed picks
  };
  auto& reg = obs::MetricsRegistry::global();
  for (const auto& [id, policy] : sims) {
    const gpu::GpuSpec& gpu = gpu::gpu_by_name(id);
    const GemmSimulator sim(gpu, policy);
    SCOPED_TRACE(std::string(id) +
                 (policy == TilePolicy::kAuto ? " auto" : " fixed"));
    std::vector<KernelEstimate> reference;
    for (const GemmProblem& p : batch) {
      reference.push_back(reference_estimate(p, policy, gpu));
    }
    const std::map<std::string, std::uint64_t> expected =
        expected_series(reference);
    // Round 0 may scan (a fresh workspace's first batch); the later rounds
    // read every problem back from the memo.
    for (int round = 0; round < 3; ++round) {
      obs::MetricsRegistry::set_enabled(true);
      reg.reset_values();
      std::vector<double> times(batch.size());
      sim.estimate_times(batch, times, ws);
      const std::map<std::string, std::uint64_t> batched = estimate_series();
      reg.reset_values();
      for (const GemmProblem& p : batch) sim.estimate(p);
      const std::map<std::string, std::uint64_t> scalar = estimate_series();
      obs::MetricsRegistry::set_enabled(false);
      EXPECT_EQ(expected, batched) << "round " << round;
      EXPECT_EQ(expected, scalar) << "round " << round;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(reference[i].time, times[i]);
      }
    }
    EXPECT_EQ(ws.memo.owner.get(), &sim.prepared());
    EXPECT_EQ(ws.memo.used, distinct.size());
  }
  reg.reset_values();
}

TEST(TimeMemo, ActiveRecorderScansEveryProblem) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const GemmSimulator sim(gpu);
  const std::vector<GemmProblem> batch = repeating_batch();
  GemmSimulator::BatchWorkspace ws;
  std::vector<double> times(batch.size());
  sim.estimate_times(batch, times, ws);  // warm: the memo would answer now

  obs::ScopedRecorder scoped;
  sim.estimate_times(batch, times, ws);
  std::size_t selects = 0;
  for (const obs::TraceEvent& e : scoped.recorder().events()) {
    if (e.category == "select") ++selects;
  }
  EXPECT_EQ(selects, batch.size() * gpu::default_tile_catalogue().size());
}

}  // namespace
}  // namespace codesign::gemm

namespace codesign::tfm {
namespace {

TEST(LayerWorkspace, BatchedLayerTotalTimeMatchesAnalyzeLayer) {
  LayerWorkspace ws;
  for (const char* name : {"pythia-70m", "gpt3-2.7b", "llama2-7b"}) {
    const TransformerConfig cfg = model_by_name(name);
    gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
    sim.enable_cache();
    const double batched = layer_total_time(cfg, sim, ws);
    EXPECT_EQ(batched, layer_total_time(cfg, sim));
    EXPECT_EQ(batched, analyze_layer(cfg, sim).total_time);
    // Warm pass through the same workspace: still bit-identical.
    EXPECT_EQ(batched, layer_total_time(cfg, sim, ws));
  }
}

}  // namespace
}  // namespace codesign::tfm
