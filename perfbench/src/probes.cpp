// probes.cpp — the traced run's direct calls into each layer's public
// functions, on the workload's own inputs, one span per batch of calls.
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "advisor/search.hpp"
#include "common/thread_pool.hpp"
#include "gemmsim/simulator.hpp"
#include "serve/ops.hpp"
#include "sweep/plan.hpp"
#include "sweep/report.hpp"
#include "transformer/layer_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cs = codesign;

void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stdout, fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

namespace {

constexpr int kPasses = 3;

/// One simulator per GPU name, optionally with its own estimate cache.
class Sims {
 public:
  explicit Sims(bool cached) : cached_(cached) {}
  const cs::gemm::GemmSimulator& get(const std::string& gpu) {
    auto it = sims_.find(gpu);
    if (it == sims_.end()) {
      auto sim = std::make_unique<cs::gemm::GemmSimulator>(
          cs::gemm::GemmSimulator::for_gpu(gpu));
      if (cached_) sim->enable_cache();
      it = sims_.emplace(gpu, std::move(sim)).first;
    }
    return *it->second;
  }

 private:
  bool cached_;
  std::map<std::string, std::unique_ptr<cs::gemm::GemmSimulator>> sims_;
};

/// Median over kPasses of `pass` (each timed as one span named `name`),
/// divided by `per` calls; returns microseconds per call.
template <class F>
double per_call_us(SpanLog& spans, const std::string& name, std::size_t per,
                   F&& pass) {
  std::vector<double> samples;
  for (int p = 0; p < kPasses; ++p) {
    const double t0 = now_us();
    pass();
    const double t1 = now_us();
    spans.add(name, t0, t1);
    samples.push_back((t1 - t0) / static_cast<double>(per));
  }
  return median(samples);
}

volatile double g_sink = 0.0;

void probe_gemms(const ProbeInputs& in, Metrics& m, SpanLog& spans) {
  Sims cold(false), warm(true);
  // Resolve the simulators (and their prepared catalogues) before timing.
  for (const auto& [p, gpu] : in.gemms) {
    cold.get(gpu).estimate(p);
    warm.get(gpu).estimate(p);  // fills the cache: the timed passes hit
  }
  const std::size_t n = in.gemms.size();
  m.set("gemmsim.estimate_miss_ns",
        1000.0 * per_call_us(spans, "gemmsim.estimate[miss]", n, [&] {
          double s = 0;
          for (const auto& [p, gpu] : in.gemms) s += cold.get(gpu).estimate(p).time;
          g_sink = s;
        }),
        "ns");
  m.set("gemmsim.estimate_hit_ns",
        1000.0 * per_call_us(spans, "gemmsim.estimate[hit]", n, [&] {
          double s = 0;
          for (const auto& [p, gpu] : in.gemms) s += warm.get(gpu).estimate(p).time;
          g_sink = s;
        }),
        "ns");
}

void probe_layers(const ProbeInputs& in, Metrics& m, SpanLog& spans) {
  Sims sims(false);
  for (const auto& [cfg, gpu] : in.layers) sims.get(gpu);
  m.set("transformer.layer_total_time_us",
        per_call_us(spans, "transformer.layer_total_time", in.layers.size(), [&] {
          double s = 0;
          for (const auto& [cfg, gpu] : in.layers) {
            s += cs::tfm::layer_total_time(cfg, sims.get(gpu));
          }
          g_sink = s;
        }),
        "us");
}

void probe_advisor(const ProbeInputs& in, Metrics& m, SpanLog& spans) {
  Sims sims(false);
  if (!in.advise.empty()) {
    m.set("advisor.render_advise_us",
          per_call_us(spans, "advisor.render_advise", in.advise.size(), [&] {
            for (const auto& [cfg, gpu] : in.advise) {
              std::ostringstream os;
              cs::serve::render_advise(os, cfg, sims.get(gpu), {});
              g_sink = static_cast<double>(os.tellp());
            }
          }),
          "us");
  }
  if (!in.searches.empty()) {
    cs::advisor::SearchOptions so;  // what the serve search op runs
    so.threads = 1;
    m.set("advisor.search_us",
          per_call_us(spans, "advisor.run_shape_search", in.searches.size(), [&] {
            for (const auto& [cfg, gpu] : in.searches) {
              const auto out = cs::advisor::run_shape_search(
                  cs::advisor::SearchMode::kJoint, cfg, sims.get(gpu), 0.1, 0, so);
              g_sink = static_cast<double>(out.ranked.size());
            }
          }),
          "us");
  }
}

/// The sweep stages one by one, then the grid search of every cell against
/// plain per-candidate evaluation of the same configs on the same threads.
void probe_sweeps(const ProbeInputs& in, Metrics& m, SpanLog& spans) {
  double plan_ms = 0, run_ms = 0, report_ms = 0, render_ms = 0, bytes = 0;
  double grid_ms = 0, eval_ms = 0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < in.sweeps.size(); ++i) {
    const int root = spans.begin("sweep");
    const auto plan = spans.time("sweep.plan", root, [&] {
      return cs::sweep::parse_sweep_config(in.sweeps[i], "probe");
    });
    cs::sweep::SweepOptions so;
    so.threads = in.sweep_threads;
    const auto result = spans.time("sweep.run", root, [&] {
      return cs::sweep::run_sweep(plan, so);
    });
    const std::string table = spans.time("sweep.report", root, [&] {
      std::ostringstream os;
      cs::sweep::render_sweep_table(os, result);
      return os.str();
    });
    const std::string json = spans.time("sweep.render", root, [&] {
      return cs::sweep::sweep_report_json(result, true) + "\n";
    });
    spans.end(root);
    const auto& s = spans.spans();
    auto dur_ms = [&](int back) {
      const Span& sp = s[s.size() - static_cast<std::size_t>(back)];
      return (sp.end_us - sp.start_us) / 1000.0;
    };
    plan_ms += dur_ms(4);
    run_ms += dur_ms(3);
    report_ms += dur_ms(2);
    render_ms += dur_ms(1);
    bytes += static_cast<double>(json.size());
    g_sink = static_cast<double>(table.size());

    for (const auto& wl : plan.workloads) {
      for (const std::string& gpu : plan.gpus) {
        const auto sim = cs::gemm::GemmSimulator::for_gpu(gpu);
        std::vector<cs::tfm::TransformerConfig> configs;
        for (const auto& v : wl.variants) {
          configs.push_back(v.config.with_name(wl.name + "/" + v.label + "@" + gpu));
        }
        cs::advisor::SearchOptions opt;
        opt.threads = in.sweep_threads;
        opt.max_candidates = configs.size();
        double t0 = now_us();
        const auto out = cs::advisor::run_grid_search(configs, wl.base, sim, opt);
        double t1 = now_us();
        spans.add("advisor.run_grid_search", t0, t1);
        grid_ms += (t1 - t0) / 1000.0;
        g_sink = static_cast<double>(out.ranked.size());

        std::vector<cs::advisor::ShapeCandidate> evals(configs.size());
        auto eval = [&](std::size_t j) {
          evals[j] = cs::advisor::evaluate_candidate(configs[j], wl.base, sim);
        };
        t0 = now_us();
        if (in.sweep_threads > 1) {
          cs::ThreadPool pool(in.sweep_threads);
          pool.parallel_for(configs.size(), eval);
        } else {
          for (std::size_t j = 0; j < configs.size(); ++j) eval(j);
        }
        t1 = now_us();
        spans.add("advisor.evaluate_candidate", t0, t1);
        eval_ms += (t1 - t0) / 1000.0;
        ++cells;
      }
    }
  }
  const double n = static_cast<double>(in.sweeps.size());
  m.set("sweep.plan_ms", plan_ms / n, "ms");
  m.set("sweep.run_ms", run_ms / n, "ms");
  m.set("sweep.report_ms", report_ms / n, "ms");
  m.set("sweep.render_ms", render_ms / n, "ms");
  m.set("sweep.report_bytes", bytes / n, "bytes");
  m.set("advisor.grid_search_ms", grid_ms / static_cast<double>(cells), "ms");
  m.set("advisor.grid_eval_ms", eval_ms / static_cast<double>(cells), "ms");
}

}  // namespace

void run_probes(const ProbeInputs& in, Metrics& m, SpanLog& spans) {
  if (!in.gemms.empty()) probe_gemms(in, m, spans);
  if (!in.layers.empty()) probe_layers(in, m, spans);
  probe_advisor(in, m, spans);
  if (!in.sweeps.empty()) probe_sweeps(in, m, spans);
}

}  // namespace perfbench
