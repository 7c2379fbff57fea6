// sweep_workload.cpp — sweep_grid: one generated sweep after another in a
// closed loop, parsed, run and rendered in-process exactly as `codesign
// sweep --json` does, each report byte-compared with the CLI's.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "server_proc.hpp"
#include "speed.hpp"
#include "sweep/plan.hpp"
#include "sweep/report.hpp"
#include "transformer/gemm_mapping.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cs = codesign;

namespace {

/// Distinct generated configs per run; the loop cycles through them.
constexpr std::size_t kConfigs = 4;

struct Config {
  std::string path;      ///< written under the output directory
  std::string text;
  std::string expected;  ///< `codesign sweep --json` stdout
};

/// The per-sweep work of the timed loop: what `codesign sweep --json` does
/// between reading the file and printing.
std::string sweep_json(const std::string& text, const std::string& origin,
                       std::size_t threads, std::size_t* variants) {
  const cs::sweep::SweepPlan plan = cs::sweep::parse_sweep_config(text, origin);
  cs::sweep::SweepOptions options;
  options.threads = threads;
  const cs::sweep::SweepResult result = cs::sweep::run_sweep(plan, options);
  *variants = result.evaluated;
  return cs::sweep::sweep_report_json(result, /*compact=*/true) + "\n";
}

/// CPU time (user + system, all threads) this process has used, in ms.
double process_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) { return tv.tv_sec * 1e3 + tv.tv_usec / 1e3; };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace

void run_sweep_workload(const RunArgs& a, SpeedProbe& speed, Outcome& out) {
  Metrics& m = out.metrics;
  const std::size_t threads = std::max(1u, a.nproc);

  auto cli_sweep = [&](const Config& c) {
    const RunResult r = run_capture({a.codesign, "sweep", "--config=" + c.path,
                                     "--threads=" + std::to_string(threads), "--json"});
    if (r.status != 0) throw std::runtime_error("codesign sweep failed on " + c.path);
    return r;
  };
  auto write_config = [&](std::size_t i, bool small) {
    Config c;
    c.text = sweep_config(a.seed, i, small);
    c.path = a.out_dir + "/sweep-" + (small ? "small-" : "") + std::to_string(i) + ".conf";
    std::ofstream(c.path) << c.text;
    return c;
  };

  // The oracle: each config once through the CLI; its stdout is what every
  // in-process sweep must print, and its peak RSS the process's.
  std::vector<Config> configs;
  std::vector<double> rss, cold_wall;
  for (std::size_t i = 0; i < kConfigs; ++i) {
    Config c = write_config(i, false);
    const RunResult r = cli_sweep(c);
    c.expected = r.out;
    rss.push_back(r.peak_rss_mb);
    cold_wall.push_back(r.wall_s);
    configs.push_back(std::move(c));
  }

  // Set-up: cold `codesign sweep --threads=1 --json` processes on small
  // generated configs (a few variants each), so the figure is what a
  // fresh process pays before the grid work: start-up and the lazy
  // catalogue preparation. CPU time (user + system): the wall time of
  // these few milliseconds repeats far worse on this host. One thread:
  // starting a pool's workers adds CPU time that swings with how the host
  // schedules the wake-ups. One launch per small config here, then one
  // after every cycle of the untraced loop, so the launches sample the
  // whole run. Each output is compared with the in-process sweep of the
  // same config. The CPU time of every launch and every untraced sweep is
  // scaled to the reference speed over its interval (speed.hpp).
  std::size_t wrong = 0;
  std::vector<double> setup, raw_setup;
  std::vector<Config> small;
  for (std::size_t i = 0; i < kConfigs; ++i) {
    small.push_back(write_config(i, true));
    std::size_t v = 0;
    small.back().expected = sweep_json(small.back().text, small.back().path, threads, &v);
  }
  auto setup_launch = [&] {
    const Config& c = small[setup.size() % small.size()];
    const double t0 = now_us();
    const RunResult r = run_capture({a.codesign, "sweep", "--config=" + c.path,
                                     "--threads=1", "--json"});
    if (r.status != 0) throw std::runtime_error("codesign sweep failed on " + c.path);
    raw_setup.push_back(r.cpu_s);
    setup.push_back(speed.scaled(r.cpu_s, t0, now_us()));
    if (r.out != c.expected) ++wrong;
  };
  for (std::size_t i = 0; i < kConfigs; ++i) setup_launch();
  note("sweep_grid: %zu generated configs, %zu threads; cold CLI sweep median "
       "%.4f s wall, %.0f bytes of report per sweep", kConfigs, threads,
       median(cold_wall), static_cast<double>(configs[0].expected.size()));

  // The closed loop, for `seconds`. With `alternate` (the traced run) each
  // config runs twice in a row, untraced and with a span per stage around
  // the same calls, so host drift hits both halves alike and their
  // difference is the tracing overhead.
  std::vector<double> cpu_ms, raw_cpu_ms;  // per untraced sweep
  auto loop = [&](double seconds, bool alternate, std::vector<double>* plain_ms,
                  std::vector<double>* traced_ms, std::vector<std::size_t>* variants) {
    const double start = now_us();
    for (std::size_t i = 0; (now_us() - start) / 1e6 < seconds; ++i) {
      // Pairs alternate their order (untraced first, then traced first),
      // so neither half always runs on caches the other warmed.
      const bool traced = alternate && (i % 2 == 1) != ((i / 2) % 2 == 1);
      const Config& c = configs[(alternate ? i / 2 : i) % configs.size()];
      const double t0 = now_us(), cpu0 = process_cpu_ms();
      std::size_t v = 0;
      std::string json;
      if (traced) {
        const int root = out.spans.begin("sweep");
        const auto plan = out.spans.time("sweep.plan", root, [&] {
          return cs::sweep::parse_sweep_config(c.text, c.path);
        });
        cs::sweep::SweepOptions options;
        options.threads = threads;
        const auto result = out.spans.time("sweep.run", root, [&] {
          return cs::sweep::run_sweep(plan, options);
        });
        json = out.spans.time("sweep.render", root, [&] {
          return cs::sweep::sweep_report_json(result, true) + "\n";
        });
        v = result.evaluated;
        out.spans.end(root);
      } else {
        json = sweep_json(c.text, c.path, threads, &v);
      }
      (traced ? traced_ms : plain_ms)->push_back((now_us() - t0) / 1000.0);
      if (!alternate) {
        variants->push_back(v);
        raw_cpu_ms.push_back(process_cpu_ms() - cpu0);
        cpu_ms.push_back(speed.scaled(raw_cpu_ms.back(), t0, now_us()));
      } else if (!traced) {
        variants->push_back(v);
      }
      if (json != c.expected) ++wrong;
      if (!alternate && i % kConfigs == kConfigs - 1) setup_launch();
    }
    return (now_us() - start) / 1e6;
  };

  std::vector<double> lat;
  if (!a.trace) {
    std::vector<std::size_t> per_sweep;
    const double wall = loop(a.seconds, false, &lat, nullptr, &per_sweep);
    std::size_t variants = 0;
    for (const std::size_t v : per_sweep) variants += v;
    // Throughput per cycle through the configs (equal work in every
    // cycle), median over cycles.
    std::vector<double> sweeps_per_s, variants_per_s;
    for (std::size_t c = 0; c + kConfigs <= lat.size(); c += kConfigs) {
      double ms = 0.0, v = 0.0;
      for (std::size_t i = c; i < c + kConfigs; ++i) {
        ms += lat[i];
        v += static_cast<double>(per_sweep[i]);
      }
      sweeps_per_s.push_back(1000.0 * kConfigs / ms);
      variants_per_s.push_back(1000.0 * v / ms);
    }
    // CPU time per sweep, scaled to the reference speed (speed.hpp): the
    // median sweep of each config, averaged over the configs. The 10th
    // percentile and the raw figures go to the log.
    auto per_config = [&](const std::vector<double>& v, double q) {
      double sum = 0.0;
      for (std::size_t k = 0; k < kConfigs; ++k) {
        std::vector<double> of_config;
        for (std::size_t i = k; i < v.size(); i += kConfigs) of_config.push_back(v[i]);
        sum += quantile(of_config, q);
      }
      return sum / kConfigs;
    };
    m.set("cpu_ms_per_request", per_config(cpu_ms, 0.5), "ms");
    m.set("setup_s", median(setup), "s");
    m.set("latency_p50_ms", quantile(lat, 0.5), "ms");
    m.set("latency_p90_ms", quantile(lat, 0.9), "ms");
    m.set("max_rate_rps", median(sweeps_per_s), "1/s");
    m.set("variants_per_s", median(variants_per_s), "1/s");
    m.set("peak_rss_mb", median(rss), "MB");
    m.set("ok_frac", 1.0 - static_cast<double>(wrong) /
                               static_cast<double>(lat.size() + setup.size()),
          "ratio");
    note("  %zu sweeps in %.2f s (closed loop, 1 caller): p50 %.3f ms, p90 "
         "%.3f ms, p99 %.3f ms over %zu samples; %.0f variants/s overall, "
         "%.0f median per cycle of %zu", lat.size(), wall,
         quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), lat.size(),
         static_cast<double>(variants) / wall, median(variants_per_s), kConfigs);
    note("  CPU ms per sweep (per config, averaged over the configs): scaled "
         "%.3f (10th percentile), %.3f (median); raw %.3f, %.3f",
         per_config(cpu_ms, 0.1), per_config(cpu_ms, 0.5),
         per_config(raw_cpu_ms, 0.1), per_config(raw_cpu_ms, 0.5));
    note("  set-up: CPU s per cold small sweep over %zu launches: scaled %.5f "
         "(10th percentile), %.5f (median); raw %.5f, %.5f", setup.size(),
         quantile(setup, 0.1), median(setup), quantile(raw_setup, 0.1),
         median(raw_setup));
    report_speed(speed, m);
  } else {
    // GEMM estimates each config's sweep performs, counted once with the
    // metrics registry on (it stays off in every timed sweep).
    std::vector<double> estimates;
    auto& calls =
        cs::obs::MetricsRegistry::global().counter("gemmsim.estimate.calls");
    for (const Config& c : configs) {
      cs::obs::MetricsRegistry::set_enabled(true);
      const std::uint64_t before = calls.value();
      std::size_t v = 0;
      sweep_json(c.text, c.path, threads, &v);
      estimates.push_back(static_cast<double>(calls.value() - before));
      cs::obs::MetricsRegistry::set_enabled(false);
    }
    std::vector<double> plain;
    std::vector<std::size_t> plain_variants;
    loop(0.6 * a.seconds, true, &plain, &lat, &plain_variants);
    const double p50_plain = quantile(plain, 0.5), p50 = quantile(lat, 0.5);
    m.set("trace.overhead_ms", p50 - p50_plain, "ms");
    m.set("trace.overhead_frac", (p50 - p50_plain) / p50_plain, "ratio");
    m.set("latency_p50_ms", quantile(plain, 0.5), "ms");
    m.set("latency_p90_ms", quantile(plain, 0.9), "ms");
    m.set("latency_p99_ms", quantile(plain, 0.99), "ms");
    m.set("latency_samples", static_cast<double>(plain.size()), "count");
    m.set("error_frac", static_cast<double>(wrong) /
                            static_cast<double>(plain.size() + lat.size() + setup.size()),
          "ratio");
    note("  tracing overhead: p50 %.3f ms traced vs %.3f ms untraced "
         "(%zu + %zu sweeps)", p50, p50_plain, lat.size(), plain.size());

    ProbeInputs in;
    in.sweep_threads = threads;
    for (const Config& c : configs) in.sweeps.push_back(c.text);
    const cs::sweep::SweepPlan plan =
        cs::sweep::parse_sweep_config(configs[0].text, configs[0].path);
    for (const auto& wl : plan.workloads) {
      for (const std::string& gpu : plan.gpus) {
        for (const auto& v : wl.variants) {
          in.layers.push_back({v.config, gpu});
          for (const auto& g : cs::tfm::layer_gemms(v.config)) {
            in.gemms.push_back({g, gpu});
          }
        }
      }
    }
    run_probes(in, m, out.spans);
    // Exact: the i-th traced sweep ran config i % kConfigs.
    double traced_estimates = 0.0;
    for (std::size_t i = 0; i < lat.size(); ++i) {
      traced_estimates += estimates[i % estimates.size()];
    }
    m.set("gemmsim.estimates", traced_estimates, "count");
    m.set("gemmsim.cache_lookups", 0.0, "count");  // the CLI default: no cache
    m.set("gemmsim.cache_hit_ratio", 0.0, "ratio");
    lat.insert(lat.end(), plain.begin(), plain.end());
  }
  out.attempted += lat.size() + setup.size();
  out.failed += wrong;
  out.correct = out.correct && wrong == 0;
  note("  reports: %zu compared between the CLI and the in-process path, %zu "
       "differ", lat.size() + setup.size(), wrong);
}

}  // namespace perfbench
