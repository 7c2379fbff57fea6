// serve_workloads.cpp — serve_advise: open-loop Poisson traffic against a
// `codesign serve` child process.
//
// Untraced run: set-up launches, a warm-up, then three searches for the
// highest rate that meets the latency limit without a growing backlog, on
// a server of their own, with a window at the fixed (nominal) rate on the
// measured server before every search step for the CPU-cost and latency
// figures; the servers run with request tracing off (--tail=0). Traced run: the
// nominal rate on a server with tracing off, then on one with tracing on
// and `tail` polled, then direct calls into each layer.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "loadgen.hpp"
#include "serve/protocol.hpp"
#include "server_proc.hpp"
#include "speed.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/model_zoo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cs = codesign;

namespace {

struct ServeSpec {
  double limit_ms = 1.0;      ///< p90 latency limit of the rate search
  double nominal_rps = 0.0;   ///< the fixed rate latency is measured at
  std::vector<Prepared> pool;
  Mix mix;
  std::uint64_t seed = 0;
};

/// Set-up launches before the first phase; the untraced run adds one
/// before every nominal-rate window.
constexpr int kSetupLaunches = 5;
constexpr double kWarmupS = 1.0;

std::vector<PhaseRequest> build_phase(const ServeSpec& w, std::uint64_t stream,
                                      double rate, double seconds) {
  std::vector<PhaseRequest> requests;
  for (const Arrival& a : poisson_schedule(derive(w.seed, stream), rate, seconds, w.mix)) {
    requests.push_back({a.t, &w.pool[a.entry]});
  }
  return requests;
}

/// Totals across every phase of a run.
struct Tally {
  std::uint64_t sent = 0, wrong = 0, errors = 0;
  std::uint64_t refused = 0, lost = 0;  ///< every phase
  /// Sent, and wrong, failed, refused or lost, in the set-up, warm-up and
  /// nominal-rate phases: the base of error_frac / ok_frac. The rate
  /// search overloads the server on purpose, so its refusals and losses
  /// are left out of both sides.
  std::uint64_t nominal_sent = 0, nominal_failed = 0;
  std::uint64_t nominal_unserved = 0;  ///< of which refused or lost
  std::string first_mismatch;

  void add(const PhaseResult& r, bool nominal) {
    sent += r.sent;
    wrong += r.wrong;
    errors += r.errors;
    refused += r.refused;
    lost += r.lost;
    if (nominal) {
      nominal_sent += r.sent;
      nominal_failed += r.wrong + r.errors + r.refused + r.lost;
      nominal_unserved += r.refused + r.lost;
    }
    if (first_mismatch.empty()) first_mismatch = r.first_mismatch;
  }
};

/// `tail` sizes the server's request-trace ring; 0 turns tracing off.
std::vector<std::string> server_args(const RunArgs& a, int tail) {
  const unsigned workers = std::max(1u, a.nproc - 1);
  return {"--threads=" + std::to_string(workers), "--queue=4096",
          "--tail=" + std::to_string(tail)};
}

/// The server gets every CPU but the first, which the generator keeps to
/// itself: sharing CPUs, a woken server thread preempts the generator and
/// its sends go out late by the length of a whole request's work.
std::vector<int> server_cpus(const RunArgs& a) {
  if (a.cpus.size() < 2) return {};
  return {a.cpus.begin() + 1, a.cpus.end()};
}

/// The generator kept up when its median lag stays under a tenth of the
/// limit. Single late sends do not count: this host pauses vCPUs for up to
/// ~10 ms a few times a second, which delays server and generator alike
/// and stays in the latencies; a generator that cannot hold the rate lags
/// on most of its sends.
bool generator_on_time(const std::vector<double>& lag_ms, double limit_ms) {
  return median(lag_ms) <= 0.1 * limit_ms;
}

struct StepVerdict {
  bool valid = false, pass = false;
};

/// A rate step passes when its p90 (misses counted as infinitely slow)
/// meets the limit and the last tenth of the step is not slower than the
/// limit, i.e. no backlog grew. p90, not p99: this host pauses vCPUs for
/// up to ~15 ms in spells, and in a spell 1-3% of requests at any rate
/// wait out a pause, so a p99 test measured the host rather than where
/// the server saturates. A step is invalid when the generator fell behind.
StepVerdict judge(const PhaseResult& r, double limit_ms) {
  StepVerdict v;
  v.valid = generator_on_time(r.lag_ms, limit_ms);
  const std::size_t tail_from = r.latency_ms.size() * 9 / 10;
  const double tail_p50 = median(std::vector<double>(
      r.latency_ms.begin() + static_cast<std::ptrdiff_t>(tail_from),
      r.latency_ms.end()));
  v.pass = !r.aborted && r.sent == r.scheduled &&
           static_cast<double>(r.misses) <= 0.1 * static_cast<double>(r.scheduled) &&
           tail_p50 <= limit_ms;
  return v;
}

double stats_value(const std::string& stats_line, const std::string& name) {
  const cs::serve::Response resp = cs::serve::parse_response(stats_line);
  const cs::json::Value doc = cs::json::Value::parse(resp.payload);
  for (const cs::json::Value& s : doc.at("metrics").as_array()) {
    if (s.at("name").as_string() == name && s.at("labels").as_string().empty()) {
      return s.at("value").as_number();
    }
  }
  return 0.0;
}

/// Per set-up launch: the server's CPU time over its whole life (raw, and
/// scaled to the reference speed), the wall time to the first reply, and
/// SIGINT to exit.
struct SetupSamples {
  std::vector<double> cpu_s, raw_cpu_s, wall_s, drain_ms;
};

/// Launch a server that answers one request and is then stopped with
/// SIGINT. Set-up cost is the CPU time (all threads) of the whole process:
/// the wall time to the first reply is a few milliseconds, which this
/// host's vCPU pauses swing by half; `speed` scales it to the reference
/// speed of the server's CPUs over the launch.
void setup_launch(const RunArgs& a, const ServeSpec& w, Tally& t, SetupSamples& s,
                  SpeedProbe& speed) {
  const double t0 = now_us();
  ServerProcess server(a.codesign, server_args(a, 0), server_cpus(a));
  LoadGen lg(server.port(), 1);
  std::string line = w.pool.front().request;
  line.replace(w.pool.front().request_id_off, kIdWidth, kIdWidth, '0');
  const std::string reply = lg.call(line);
  s.wall_s.push_back((now_us() - t0) / 1e6);
  ++t.sent;
  ++t.nominal_sent;
  const Verdict v = check_response(reply, w.pool.front(), std::string(kIdWidth, '0'));
  if (v != Verdict::kOk) {
    ++t.wrong;
    ++t.nominal_failed;
    if (t.first_mismatch.empty()) t.first_mismatch = reply.substr(0, 400);
  }
  const ServerProcess::Exit exit = server.stop();
  if (exit.status != 0) throw std::runtime_error("codesign serve exited non-zero");
  s.raw_cpu_s.push_back(exit.cpu_s);
  s.cpu_s.push_back(speed.scaled(exit.cpu_s, t0, now_us(), server_cpus(a)));
  s.drain_ms.push_back(exit.drain_ms);
}

/// Latency percentiles of 0.5 s windows at the nominal rate, summarised by
/// their 10th percentile over windows: this host has spells of vCPU pauses that
/// lift every percentile of a window several-fold, and noise only ever
/// adds latency, so the figure is the server's latency in the calm part
/// of the run, which repeats. A
/// window where the generator fell behind is left out: it measured the
/// host, not the server (all windows count when every one is late).
struct Window {
  std::vector<double> latency_ms, lag_ms;
};

struct Windowed {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  std::size_t windows = 0, valid = 0, samples = 0;
};

Windowed summarize(const std::vector<Window>& windows, double limit_ms) {
  Windowed w;
  w.windows = windows.size();
  std::vector<double> p50s, p90s, p99s, all50, all90, all99;
  for (const Window& win : windows) {
    w.samples += win.latency_ms.size();
    all50.push_back(quantile(win.latency_ms, 0.5));
    all90.push_back(quantile(win.latency_ms, 0.9));
    all99.push_back(quantile(win.latency_ms, 0.99));
    if (generator_on_time(win.lag_ms, limit_ms)) {
      ++w.valid;
      p50s.push_back(all50.back());
      p90s.push_back(all90.back());
      p99s.push_back(all99.back());
    }
  }
  if (w.valid == 0) {
    p50s = all50;
    p90s = all90;
    p99s = all99;
  }
  w.p50 = quantile(p50s, 0.1);
  w.p90 = quantile(p90s, 0.1);
  w.p99 = quantile(p99s, 0.1);
  return w;
}

/// `r` cut into `n` windows of consecutive requests.
std::vector<Window> split(const PhaseResult& r, std::size_t n) {
  std::vector<Window> out(n);
  const std::size_t len = r.latency_ms.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto from = static_cast<std::ptrdiff_t>(len * i / n);
    const auto to = static_cast<std::ptrdiff_t>(len * (i + 1) / n);
    out[i].latency_ms.assign(r.latency_ms.begin() + from, r.latency_ms.begin() + to);
    out[i].lag_ms.assign(r.lag_ms.begin() + from, r.lag_ms.begin() + to);
  }
  return out;
}

void log_phase(const char* what, double rate, const PhaseResult& r,
               double limit_ms, const char* verdict) {
  note("  %-9s %8.0f rps: %7zu sent, p50 %8.3f ms, p99 %8.3f ms, "
       "generator lag p99 %6.3f ms, misses(>%.0f ms) %zu%s",
       what, rate, r.sent, quantile(r.latency_ms, 0.5),
       quantile(r.latency_ms, 0.99), quantile(r.lag_ms, 0.99), limit_ms,
       r.misses, verdict);
}

/// One search for the highest passing rate: bisection in log space over
/// [nominal/2, 8 x nominal], 0.75 s per step, until the bracket is within
/// 1.5% or the budget is spent. A step that fails or runs the generator
/// late is tried once more at the same rate: a spell of vCPU pauses can
/// sink one step on its own, and only a rate that fails twice bounds the
/// search. `before_step` runs before every step.
double search_max_rate(const ServeSpec& w, LoadGen& lg, double budget_s,
                       std::uint64_t stream, Tally& t, bool* gen_limited,
                       const std::function<void()>& before_step) {
  const double start = now_us();
  double lo = 0.5 * w.nominal_rps, hi = 8.0 * w.nominal_rps;
  PhaseOptions po;
  po.limit_ms = w.limit_ms;
  po.abort_miss_frac = 0.15;
  po.drain_s = 10.0;
  while (hi / lo > 1.015 && (now_us() - start) / 1e6 < budget_s) {
    const double rate = std::sqrt(lo * hi);
    StepVerdict v;
    for (int attempt = 0; attempt < 2; ++attempt) {
      before_step();
      const PhaseResult r = lg.run(build_phase(w, stream++, rate, 0.75), po);
      t.add(r, false);
      v = judge(r, w.limit_ms);
      log_phase("step", rate, r, w.limit_ms,
                !v.valid ? "  INVALID (generator behind)" : v.pass ? "  pass" : "  fail");
      if (v.valid && v.pass) break;
    }
    if (!v.valid) {
      // Twice late: this rate cannot be measured now, so it is not
      // reported; it bounds the search like a failed step.
      *gen_limited = true;
      v.pass = false;
    }
    (v.pass ? lo : hi) = rate;
  }
  return lo;
}

ServeSpec make_spec(const RunArgs& a, SpanLog& spans) {
  ServeSpec w;
  w.seed = a.seed;
  w.limit_ms = 25.0;
  w.nominal_rps = 1000.0;
  const int span = spans.begin("oracle.prepare");
  const AdvisePool pool = advise_pool(a.seed);
  for (const RequestSpec& s : pool.entries) w.pool.push_back(prepare(s));
  w.mix = Mix::advise(pool);
  spans.end(span);
  return w;
}

/// Per-op, per-phase p50/p99 from the polled `tail` records of `r`'s ids,
/// plus a client span per request with the server's phases as children.
void tail_metrics(const PhaseResult& r, const std::vector<std::string>& polls,
                  Metrics& m, SpanLog& spans) {
  static const char* kPhases[] = {"parse", "queue_wait", "execute", "render",
                                  "write"};
  std::map<std::uint64_t, cs::json::Value> records;  // by request id
  for (const std::string& line : polls) {
    const cs::serve::Response resp = cs::serve::parse_response(line);
    const cs::json::Value arr = cs::json::Value::parse(resp.payload);
    for (const cs::json::Value& rec : arr.as_array()) {
      const std::string& id = rec.at("id").as_string();
      if (id.size() != kIdWidth) continue;
      const std::uint64_t v = std::stoull(id);
      if (v >= r.first_id && v < r.first_id + r.sent) records.emplace(v, rec);
    }
  }
  std::map<std::string, std::vector<double>> by;  // "op/phase" → µs
  for (const auto& [id, rec] : records) {
    const std::string op = rec.at("op").as_string();
    for (const char* ph : kPhases) {
      by[op + "/" + ph].push_back(rec.at("phases").at(ph).as_number());
    }
  }
  for (const auto& [key, v] : by) {
    const std::string op = key.substr(0, key.find('/'));
    const std::string ph = key.substr(key.find('/') + 1);
    m.set("serve." + ph + "_us." + op + ".p50", quantile(v, 0.5), "us");
    m.set("serve." + ph + "_us." + op + ".p99", quantile(v, 0.99), "us");
  }
  m.set("serve.tail_records", static_cast<double>(records.size()), "count");

  // Spans for an even sample of at most 4000 requests (the file stays
  // small); the server's phases are laid end to end, centred in the
  // client's round trip, since the two clocks are not shared.
  const std::size_t stride = std::max<std::size_t>(1, records.size() / 4000);
  std::size_t k = 0;
  for (const auto& [id, rec] : records) {
    if (k++ % stride != 0) continue;
    const std::size_t i = static_cast<std::size_t>(id - r.first_id);
    if (!std::isfinite(r.latency_ms[i])) continue;
    const std::string rid = std::to_string(id);
    const double sent = r.due_wall_us[i] + r.lag_ms[i] * 1000.0;
    const double recv = r.due_wall_us[i] + r.latency_ms[i] * 1000.0;
    const int client = spans.add("client.request", sent, recv, -1, rid);
    const double total = rec.at("total_us").as_number();
    double at = sent + std::max(0.0, (recv - sent - total) / 2.0);
    const int server = spans.add("serve.request", at, at + total, client, rid);
    for (const char* ph : kPhases) {
      const double d = rec.at("phases").at(ph).as_number();
      spans.add(std::string("serve.") + ph, at, at + d, server, rid);
      at += d;
    }
  }
}

ProbeInputs probe_inputs(const ServeSpec& w) {
  ProbeInputs in;
  for (const Prepared& p : w.pool) {
    const cs::serve::Request req = cs::serve::parse_request(
        std::string_view(p.request).substr(0, p.request.size() - 1));
    const cs::json::Value& b = req.body;
    const std::string gpu = b.string_or("gpu", "a100");
    if (p.op == Op::kAdvise || p.op == Op::kSearch) {
      const cs::tfm::TransformerConfig cfg =
          cs::tfm::model_by_name(b.string_or("model", ""));
      (p.op == Op::kAdvise ? in.advise : in.searches).push_back({cfg, gpu});
      if (p.op == Op::kAdvise) {
        in.layers.push_back({cfg, gpu});
        for (const auto& g : cs::tfm::layer_gemms(cfg)) in.gemms.push_back({g, gpu});
      }
    } else {
      in.sweeps.push_back(b.string_or("config", ""));
    }
  }
  return in;
}

}  // namespace

void run_serve_workload(const RunArgs& a, SpeedProbe& speed, Outcome& out) {
  Metrics& m = out.metrics;
  SpanLog& spans = out.spans;
  const ServeSpec w = make_spec(a, spans);
  note("%s: %zu distinct pooled requests, p90 limit %.0f ms, nominal rate "
       "%.0f rps, %u server workers + 1 generator thread",
       a.workload.c_str(), w.pool.size(), w.limit_ms, w.nominal_rps,
       std::max(1u, a.nproc - 1));
  if (a.cpus.size() > 1) pin_to({a.cpus.front()});
  Tally t;
  SetupSamples setup;
  for (int i = 0; i < kSetupLaunches; ++i) setup_launch(a, w, t, setup, speed);

  PhaseOptions po;
  po.limit_ms = w.limit_ms;
  // A fresh server, warmed at the nominal rate.
  auto launch = [&](int tail) {
    auto server = std::make_unique<ServerProcess>(a.codesign, server_args(a, tail),
                                                  server_cpus(a));
    auto lg = std::make_unique<LoadGen>(server->port(), std::max(1u, a.nproc));
    const PhaseResult r = lg->run(build_phase(w, 100, w.nominal_rps, kWarmupS), po);
    t.add(r, true);
    log_phase("warm-up", w.nominal_rps, r, w.limit_ms, "");
    return std::make_pair(std::move(server), std::move(lg));
  };
  auto stop = [](ServerProcess& server) {
    const ServerProcess::Exit exit = server.stop();
    if (exit.status != 0) throw std::runtime_error("codesign serve exited non-zero");
  };

  if (!a.trace) {
    auto [server, lg] = launch(0);
    const double peak_rss_mb = server->peak_rss_mb();
    // Latency and CPU time at the nominal rate are taken in 0.5 s windows
    // run before every rate-search step, each after one set-up launch, so
    // the windows and the launches sample the whole run. The searches
    // overload a second server: on a server a step had just overloaded, a
    // window read up to a third more CPU per request, by an amount that
    // varied from run to run. Each server idles while the other works.
    std::vector<Window> windows;
    // Server CPU per request, raw and scaled to the reference speed.
    std::vector<double> window_cpu_ms, window_raw_ms;
    double points = 0.0, requests = 0.0;
    std::uint64_t window_stream = 1000;
    auto nominal_window = [&] {
      setup_launch(a, w, t, setup, speed);
      const std::vector<PhaseRequest> in =
          build_phase(w, window_stream++, w.nominal_rps, 0.5);
      const double t0 = now_us(), cpu0 = server->cpu_seconds();
      const PhaseResult r = lg->run(in, po);
      window_raw_ms.push_back(1e3 * (server->cpu_seconds() - cpu0) /
                              static_cast<double>(std::max<std::size_t>(1, r.sent)));
      window_cpu_ms.push_back(
          speed.scaled(window_raw_ms.back(), t0, now_us(), server_cpus(a)));
      t.add(r, true);
      windows.push_back({r.latency_ms, r.lag_ms});
      // Design points per request of the nominal mix: what one request at
      // the max rate evaluates on average.
      for (const PhaseRequest& q : in) points += static_cast<double>(q.prepared->points);
      requests += static_cast<double>(in.size());
    };
    auto [search_server, search_lg] = launch(0);
    // Three independent searches, each with a third of the run; the
    // highest is reported. Host noise only ever lowers a search's result
    // (a spell of vCPU pauses sinks steps, never lifts them), so the best
    // of three is the steadiest estimate of what the server sustains.
    bool gen_limited = false;
    std::vector<double> rates;
    for (std::uint64_t k = 0; k < 3; ++k) {
      rates.push_back(search_max_rate(w, *search_lg, a.seconds / 3.0, 200 + 100 * k, t,
                                      &gen_limited, nominal_window));
      note("  search %llu: %.0f rps", static_cast<unsigned long long>(k + 1),
           rates.back());
    }
    const double max_rate = *std::max_element(rates.begin(), rates.end());
    const double mean_points = points / std::max(1.0, requests);
    note("  max rate meeting p90 <= %.0f ms: %.0f rps (best of 3)%s",
         w.limit_ms, max_rate,
         gen_limited ? "; some step ran the generator late twice and counted "
                       "as failed" : "");

    stop(*server);
    stop(*search_server);
    // CPU-time figures: the median launch and window, each scaled to the
    // reference speed (speed.hpp). The median leaves out the intervals a
    // brief slow spell hit while the probes around them ran fast, or the
    // other way round.
    m.set("setup_s", median(setup.cpu_s), "s");
    const Windowed lat = summarize(windows, w.limit_ms);
    m.set("latency_p50_ms", lat.p50, "ms");
    m.set("latency_p90_ms", lat.p90, "ms");
    m.set("max_rate_rps", max_rate, "1/s");
    m.set("variants_per_s", max_rate * mean_points, "1/s");
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    m.set("cpu_ms_per_request", median(window_cpu_ms), "ms");
    note("  server CPU at the nominal rate, ms per request over %zu windows: "
         "scaled %.4f (10th percentile), %.4f (median); raw %.4f, %.4f",
         window_cpu_ms.size(), quantile(window_cpu_ms, 0.1), median(window_cpu_ms),
         quantile(window_raw_ms, 0.1), median(window_raw_ms));
    note("  setup: server CPU s per launch (one reply, then a drain) over %zu "
         "launches: scaled %.5f (10th percentile), %.5f (median); raw %.5f, "
         "%.5f; median %.4f s wall to the first ok reply; drain median %.1f ms",
         setup.cpu_s.size(), quantile(setup.cpu_s, 0.1), median(setup.cpu_s),
         quantile(setup.raw_cpu_s, 0.1), median(setup.raw_cpu_s),
         median(setup.wall_s), median(setup.drain_ms));
    report_speed(speed, m);
    note("  nominal rate: %zu latency samples in %zu windows of 0.5 s (%zu with "
         "the generator on time); 10th-percentile window: p50 %.4f ms, p90 "
         "%.4f ms, p99 %.4f ms; %.2f design points per request", lat.samples,
         lat.windows, lat.valid, lat.p50, lat.p90, lat.p99, mean_points);
  } else {
    const double half_s = 0.3 * a.seconds;
    PhaseResult plain;
    {
      auto [server, lg] = launch(0);
      plain = lg->run(build_phase(w, 101, w.nominal_rps, half_s), po);
      t.add(plain, true);
      log_phase("untraced", w.nominal_rps, plain, w.limit_ms, "  (--tail=0)");
      stop(*server);
    }

    auto [server, lg] = launch(16384);
    const std::string stats0 = lg->call("{\"op\":\"stats\"}\n");
    // Each poll asks for twice the requests one interval brings (the ring
    // holds 16384): every record is read, and no poll renders more than
    // it must.
    PhaseOptions traced = po;
    traced.poll_every_s = 0.2;
    const long tail_n = std::min(4096L, std::lround(2.0 * w.nominal_rps * traced.poll_every_s) + 64);
    traced.poll_line = "{\"op\":\"tail\",\"n\":" + std::to_string(tail_n) +
                       ",\"filter\":\"all\"}\n";
    const PhaseResult r = lg->run(build_phase(w, 102, w.nominal_rps, half_s), traced);
    t.add(r, true);
    log_phase("traced", w.nominal_rps, r, w.limit_ms, "  (--tail=16384, tail polled)");
    const std::string stats1 = lg->call("{\"op\":\"stats\"}\n");
    // One last tail read covers the requests after the final poll.
    std::vector<std::string> polls = r.polls;
    polls.push_back(lg->call(traced.poll_line));
    tail_metrics(r, polls, m, spans);
    if (m.get("serve.tail_records") < static_cast<double>(r.sent)) {
      note("  WARNING: tail records for %.0f of the %zu traced requests",
           m.get("serve.tail_records"), r.sent);
    }

    const double estimates = stats_value(stats1, "gemmsim.estimate.calls") -
                             stats_value(stats0, "gemmsim.estimate.calls");
    const double hits = stats_value(stats1, "gemmsim.cache.hits") -
                        stats_value(stats0, "gemmsim.cache.hits");
    const double misses = stats_value(stats1, "gemmsim.cache.misses") -
                          stats_value(stats0, "gemmsim.cache.misses");
    m.set("gemmsim.estimates", estimates, "count");
    m.set("gemmsim.cache_lookups", hits + misses, "count");
    m.set("gemmsim.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "ratio");
    note("  server cache over the traced phase: %.0f hits of %.0f lookups; "
         "%.0f estimates", hits, hits + misses, estimates);

    const double p50_plain = quantile(plain.latency_ms, 0.5);
    const double p50_traced = quantile(r.latency_ms, 0.5);
    m.set("trace.overhead_ms", p50_traced - p50_plain, "ms");
    m.set("trace.overhead_frac", (p50_traced - p50_plain) / p50_plain, "ratio");
    note("  tracing overhead: p50 %.4f ms traced vs %.4f ms untraced",
         p50_traced, p50_plain);
    m.set("serve.generator_lag_p99_ms", quantile(r.lag_ms, 0.99), "ms");
    // Latency swings with this host's vCPU pauses, so it rides here
    // unbounded (the untraced half, summarised as in the untraced run).
    const Windowed lat = summarize(split(plain, static_cast<std::size_t>(2 * half_s)), w.limit_ms);
    m.set("latency_p50_ms", lat.p50, "ms");
    m.set("latency_p90_ms", lat.p90, "ms");
    m.set("latency_p99_ms", lat.p99, "ms");
    m.set("latency_samples", static_cast<double>(plain.sent), "count");

    run_probes(probe_inputs(w), m, spans);
    stop(*server);
    m.set("serve.drain_ms", median(setup.drain_ms), "ms");
    m.set("serve.overloaded_frac",
          static_cast<double>(t.refused) / static_cast<double>(std::max<std::uint64_t>(1, t.sent)),
          "ratio");
  }

  const double error_frac = static_cast<double>(t.nominal_failed) /
                            static_cast<double>(std::max<std::uint64_t>(1, t.nominal_sent));
  if (a.trace) {
    m.set("error_frac", error_frac, "ratio");
  } else {
    m.set("ok_frac", 1.0 - error_frac, "ratio");
  }
  note("  requests: %llu sent, %llu wrong, %llu errors, %llu refused, %llu "
       "lost; error_frac %.6f (%llu of the %llu set-up, warm-up and "
       "nominal-rate requests)",
       static_cast<unsigned long long>(t.sent),
       static_cast<unsigned long long>(t.wrong),
       static_cast<unsigned long long>(t.errors),
       static_cast<unsigned long long>(t.refused),
       static_cast<unsigned long long>(t.lost), error_frac,
       static_cast<unsigned long long>(t.nominal_failed),
       static_cast<unsigned long long>(t.nominal_sent));
  if (!t.first_mismatch.empty()) note("  first bad reply: %s", t.first_mismatch.c_str());
  // Wrong or failed replies count from every phase; refusals and losses
  // only from the fixed-rate phases.
  out.attempted += t.sent;
  out.failed += t.wrong + t.errors + t.nominal_unserved;
  out.correct = out.correct && t.wrong == 0 && t.errors == 0;
}

}  // namespace perfbench
