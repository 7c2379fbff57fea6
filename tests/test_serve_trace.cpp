// Tests for request-scoped tracing and SLO telemetry (serve/trace.hpp):
// span totals vs wall latency, tail ring round trips, failpoint error
// attribution, byte-identity of payloads with tracing on vs off under
// eight concurrent clients, snapshot-local stats idempotence, Prometheus
// exposition, work attribution (estimates / search candidates), and the
// drain-summary SLO accounting.
#include "serve/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/report.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "gemmsim/estimate_cache.hpp"
#include "gemmsim/simulator.hpp"
#include "gpuarch/dtype.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

using serve::ServeClient;

class ServeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::clear();
    SigintGuard::reset();
    obs::MetricsRegistry::set_enabled(false);
  }
  void TearDown() override {
    fail::clear();
    obs::MetricsRegistry::set_enabled(false);
  }

  static serve::ServerOptions options(std::size_t threads,
                                      std::size_t queue_capacity = 0) {
    serve::ServerOptions o;
    o.port = 0;  // ephemeral; read back via Server::port()
    o.threads = threads;
    o.queue_capacity = queue_capacity;
    return o;
  }

  static void shut_down(serve::Server& server) {
    server.request_drain();
    server.join();
  }

  /// Parse a `tail` payload (one JSON array line) into record values.
  static std::vector<json::Value> parse_tail(const std::string& payload) {
    std::string doc = payload;
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == '\r')) {
      doc.pop_back();
    }
    const json::Value v = json::Value::parse(doc);
    EXPECT_TRUE(v.is_array());
    return v.as_array();
  }

  /// A request's record lands in the ring *after* its response is written
  /// (finish() runs post-write on the worker), so an immediate tail can
  /// miss it. Poll until `pred` is satisfied or ~1 s elapses.
  template <typename Pred>
  static std::vector<json::Value> tail_until(ServeClient& client,
                                             const std::string& extra,
                                             Pred pred) {
    std::vector<json::Value> records;
    for (int attempt = 0; attempt < 200; ++attempt) {
      const serve::Response r = client.call_op("tail", extra);
      EXPECT_TRUE(r.ok()) << r.error;
      records = parse_tail(r.payload);
      if (pred(records)) return records;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return records;
  }

  /// Poll until the trace log has finished at least `n` requests.
  static void wait_for_requests(const serve::Server& server, std::uint64_t n) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (server.trace_log()->slo_summary().requests >= n) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
};

/// The bytes `codesign gemm --m=M --n=N --k=K` prints for the default GPU.
std::string expected_estimate(std::int64_t m, std::int64_t n, std::int64_t k) {
  gemm::GemmProblem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.batch = 1;
  p.dtype = gpu::dtype_from_name("fp16");
  p.validate();
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  std::ostringstream os;
  serve::render_estimate(os, p, sim);
  return os.str();
}

/// The bytes `codesign explain --m=M --n=N --k=K` prints (sans --trace).
std::string expected_explain(std::int64_t m, std::int64_t n, std::int64_t k) {
  gemm::GemmProblem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.batch = 1;
  p.dtype = gpu::dtype_from_name("fp16");
  p.validate();
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  std::ostringstream os;
  serve::render_explain(os, p, sim);
  return os.str();
}

/// The bytes `codesign advise <model>` prints with default flags.
std::string expected_advise(const std::string& model) {
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  std::ostringstream os;
  serve::render_advise(os, tfm::model_by_name(model), sim,
                       advisor::ReportOptions{});
  return os.str();
}

// ---------------------------------------------------------------------------
// Span accounting: the phase breakdown explains the request's wall latency.

TEST_F(ServeTraceTest, SpanTotalsApproximateWallLatency) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response sleep =
      client.call_op("sleep", R"("id":"nap","ms":40)");
  ASSERT_TRUE(sleep.ok()) << sleep.error;
  const serve::Response est =
      client.call_op("estimate", R"("id":"e1","m":256,"n":256,"k":256)");
  ASSERT_TRUE(est.ok()) << est.error;

  const std::vector<json::Value> records =
      tail_until(client, R"("filter":"all")", [](const auto& recs) {
        return recs.size() >= 2;
      });
  ASSERT_GE(records.size(), 2u);

  bool saw_sleep = false;
  for (const json::Value& rec : records) {
    const double total_us = rec.at("total_us").as_number();
    const double phase_sum_us = rec.at("phase_sum_us").as_number();
    EXPECT_GT(total_us, 0.0);
    // Phases are sub-intervals of the request: their sum never exceeds the
    // wall total (beyond clock-read noise)...
    EXPECT_LE(phase_sum_us, total_us + 100.0) << rec.at("op").as_string();
    // ...and covers it: untraced slack is inter-phase bookkeeping only.
    const double slack = total_us - phase_sum_us;
    EXPECT_LE(slack, std::max(total_us * 0.01, 1500.0))
        << rec.at("op").as_string() << " total=" << total_us
        << " phase_sum=" << phase_sum_us;
    if (rec.at("op").as_string() == "sleep") {
      saw_sleep = true;
      EXPECT_EQ(rec.at("id").as_string(), "nap");
      EXPECT_EQ(rec.at("status").as_string(), "ok");
      EXPECT_GE(total_us, 38'000.0);  // slept ~40 ms
      EXPECT_GE(rec.at("phases").at("execute").as_number(), 35'000.0);
      EXPECT_GE(rec.at("phases").at("queue_wait").as_number(), 0.0);
      EXPECT_DOUBLE_EQ(rec.at("estimates").as_number(), 0.0);
      EXPECT_FALSE(rec.at("deadline_missed").as_bool());
      EXPECT_EQ(rec.at("error").as_string(), "");
      EXPECT_EQ(rec.at("error_phase").as_string(), "");
    }
  }
  EXPECT_TRUE(saw_sleep);

  client.close();
  shut_down(server);
}

// ---------------------------------------------------------------------------
// Error attribution: an injected dispatch fault surfaces in `tail` with the
// failing request's id and the phase the error was raised in.

TEST_F(ServeTraceTest, TailReturnsInjectedFailureWithErrorPhase) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  // The second dispatched request trips the failpoint; its neighbours
  // succeed (requests on one connection dispatch in arrival order). Fatal
  // class: a transient fault would answer as a retryable code-75
  // rejection (test_serve covers that); this test wants a hard error to
  // attribute.
  fail::configure("serve.dispatch=once:2:fatal");
  const serve::Response r1 =
      client.call_op("estimate", R"("id":"ok-1","m":128,"n":128,"k":128)");
  const serve::Response r2 =
      client.call_op("estimate", R"("id":"boom","m":128,"n":128,"k":128)");
  const serve::Response r3 =
      client.call_op("estimate", R"("id":"ok-2","m":128,"n":128,"k":128)");
  EXPECT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(r2.status, "error");
  EXPECT_EQ(r2.code, kExitError);
  EXPECT_TRUE(r3.ok()) << r3.error;

  const std::vector<json::Value> records =
      tail_until(client, R"("filter":"errors")", [](const auto& recs) {
        return !recs.empty();
      });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("id").as_string(), "boom");
  EXPECT_EQ(records[0].at("op").as_string(), "estimate");
  EXPECT_EQ(records[0].at("status").as_string(), "error");
  EXPECT_EQ(static_cast<int>(records[0].at("code").as_number()), kExitError);
  EXPECT_EQ(records[0].at("error_phase").as_string(), "execute");
  EXPECT_NE(records[0].at("error").as_string().find("injected fault"),
            std::string::npos)
      << records[0].at("error").as_string();

  client.close();
  shut_down(server);
}

TEST_F(ServeTraceTest, TailRoundsWallClockMicrosecondsToThreeDecimals) {
  serve::RequestRecord rec;
  rec.seq = 7;
  rec.op = "advise";
  rec.status = "ok";
  rec.start_us = 182034.2000000001;
  rec.total_us = 512.80049;
  rec.phase_us = {18.1004, 3.8320000000003347, 401.3004, 9.6004, 21.4004};
  const std::string out = serve::render_tail({rec});
  EXPECT_NE(out.find("\"start_us\":182034.2,"), std::string::npos) << out;
  EXPECT_NE(out.find("\"total_us\":512.8,"), std::string::npos) << out;
  EXPECT_NE(out.find("\"queue_wait\":3.832,"), std::string::npos) << out;
  EXPECT_NE(out.find("\"render\":9.6,"), std::string::npos) << out;
  // The sum is rounded once from the raw phases, not summed from the
  // rounded ones.
  EXPECT_NE(out.find("\"phase_sum_us\":454.234,"), std::string::npos) << out;
  // Only the rendering rounds: the record keeps its raw doubles.
  EXPECT_EQ(rec.phase_us[1], 3.8320000000003347);
  const json::Value parsed = json::Value::parse(out);
  EXPECT_EQ(parsed.as_array().at(0).at("phases").at("queue_wait").as_number(),
            3.832);
}

TEST_F(ServeTraceTest, TailValidatesItsArguments) {
  serve::Server server(options(1));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response bad_filter =
      client.call_op("tail", R"("filter":"weird")");
  EXPECT_EQ(bad_filter.status, "error");
  EXPECT_EQ(bad_filter.code, kExitUsage);

  const serve::Response bad_n = client.call_op("tail", R"("n":0)");
  EXPECT_EQ(bad_n.status, "error");
  EXPECT_EQ(bad_n.code, kExitUsage);

  client.close();
  shut_down(server);

  // Tracing disabled: tail is a typed usage error, not a crash.
  serve::ServerOptions off = options(1);
  off.trace.enabled = false;
  serve::Server dark(off);
  dark.start();
  EXPECT_EQ(dark.trace_log(), nullptr);
  ServeClient probe("127.0.0.1", dark.port());
  const serve::Response r = probe.call_op("tail", "");
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.error.find("tracing is disabled"), std::string::npos) << r.error;
  probe.close();
  shut_down(dark);
}

// ---------------------------------------------------------------------------
// Determinism: tracing observes, never steers. Payload bytes with the full
// observability stack on (ring + metrics + chrome-trace recorder) are
// byte-identical to a dark server, under eight concurrent clients.

TEST_F(ServeTraceTest, PayloadBytesIdenticalTracingOnVsOffAcrossEightClients) {
  const std::string want_estimate = expected_estimate(512, 512, 512);
  const std::string want_explain = expected_explain(256, 1024, 512);
  const std::string want_advise = expected_advise("gpt3-2.7b");

  const auto hammer = [&](serve::Server& server) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(8);
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        ServeClient client("127.0.0.1", server.port());
        for (int round = 0; round < 4; ++round) {
          const serve::Response est =
              client.call_op("estimate", R"("m":512,"n":512,"k":512)");
          const serve::Response exp =
              client.call_op("explain", R"("m":256,"n":1024,"k":512)");
          const serve::Response adv =
              client.call_op("advise", R"("model":"gpt3-2.7b")");
          if (!est.ok() || est.payload != want_estimate) ++mismatches;
          if (!exp.ok() || exp.payload != want_explain) ++mismatches;
          if (!adv.ok() || adv.payload != want_advise) ++mismatches;
        }
        (void)c;
        client.close();
      });
    }
    for (std::thread& t : clients) t.join();
    return mismatches.load();
  };

  // Dark server: tracing off, metrics off, no recorder.
  {
    serve::ServerOptions off = options(4);
    off.trace.enabled = false;
    serve::Server server(off);
    server.start();
    EXPECT_EQ(hammer(server), 0);
    shut_down(server);
  }

  // Fully lit server: ring + registry + chrome-trace recorder.
  {
    obs::MetricsRegistry::set_enabled(true);
    obs::ScopedRecorder scoped;
    serve::Server server(options(4));
    server.start();
    EXPECT_EQ(hammer(server), 0);
    // Drain with metrics off so join()'s final flush does not publish
    // cache series into the process-global registry (the snapshot-local
    // stats test below asserts the registry stays cache-free).
    obs::MetricsRegistry::set_enabled(false);
    shut_down(server);
    // The recorder saw per-request serve spans while payloads stayed pure.
    EXPECT_GT(scoped.recorder().count("serve"), 0u);
  }
}

// ---------------------------------------------------------------------------
// stats is snapshot-local: reading it twice returns identical documents and
// leaves the global registry untouched (cache counters are folded into the
// response, not published). The process.* gauges are point-in-time process
// readings (uptime, RSS, fd count) — the one sanctioned exception to the
// byte-idempotence of back-to-back reads — so they are stripped before
// comparing.

/// Remove every `{"name":"process....}` series object (flat, no nesting)
/// from a stats payload.
std::string without_process_series(std::string payload) {
  const std::string needle = "{\"name\":\"process.";
  for (std::size_t pos = payload.find(needle); pos != std::string::npos;
       pos = payload.find(needle, pos)) {
    std::size_t end = payload.find('}', pos);
    if (end == std::string::npos) break;
    if (end + 1 < payload.size() && payload[end + 1] == ',') ++end;
    payload.erase(pos, end + 1 - pos);
  }
  return payload;
}

TEST_F(ServeTraceTest, StatsIsSnapshotLocalAndIdempotent) {
  serve::ServerOptions off = options(2);
  off.trace.enabled = false;  // no per-request series: pure bypass reads
  serve::Server server(off);
  server.start();
  ServeClient client("127.0.0.1", server.port());

  // Warm the shared cache before metrics exist, then let the worker's
  // post-response bookkeeping settle so nothing races the snapshots.
  for (int i = 0; i < 3; ++i) {
    const serve::Response r =
        client.call_op("estimate", R"("m":640,"n":640,"k":640)");
    ASSERT_TRUE(r.ok()) << r.error;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  obs::MetricsRegistry::set_enabled(true);

  // One warm-up read registers the server's queue-depth gauges (legitimate
  // server instrumentation, value 0 at idle); everything after must be a
  // pure read.
  ASSERT_TRUE(client.call_op("stats", "").ok());
  const std::string before = obs::MetricsRegistry::global()
                                 .snapshot({.include_best_effort = true})
                                 .to_json();
  const serve::Response s1 = client.call_op("stats", "");
  const serve::Response s2 = client.call_op("stats", "");
  ASSERT_TRUE(s1.ok()) << s1.error;
  ASSERT_TRUE(s2.ok()) << s2.error;
  EXPECT_EQ(without_process_series(s1.payload),
            without_process_series(s2.payload));
  EXPECT_NE(s1.payload.find("gemmsim.cache.hits"), std::string::npos);
  EXPECT_NE(s1.payload.find("process.uptime_s"), std::string::npos);
  EXPECT_NE(s1.payload.find("gemmsim.cache.entries"), std::string::npos);
  const std::string after = obs::MetricsRegistry::global()
                                .snapshot({.include_best_effort = true})
                                .to_json();
  // Reading stats did not publish cache series (or anything else) into the
  // registry.
  EXPECT_EQ(before, after);
  EXPECT_EQ(after.find("gemmsim.cache.hits"), std::string::npos);

  client.close();
  shut_down(server);
}

/// TSan drill: stats snapshots race real traffic and concurrent readers.
/// The interesting property is the absence of data races in append_metrics
/// against the cache's sharded counters; assertions are sanity only.
TEST_F(ServeTraceTest, ConcurrentStatsSnapshotsAreRaceFree) {
  obs::MetricsRegistry::set_enabled(true);
  serve::Server server(options(4));
  server.start();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      ServeClient client("127.0.0.1", server.port());
      for (int i = 0; i < 6; ++i) {
        const serve::Response r =
            client.call_op("estimate", R"("m":384,"n":384,"k":384)");
        if (!r.ok()) ++failures;
      }
      client.close();
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      ServeClient client("127.0.0.1", server.port());
      for (int i = 0; i < 6; ++i) {
        const serve::Response r = client.call_op("stats", "");
        if (!r.ok() ||
            r.payload.find("gemmsim.cache.misses") == std::string::npos) {
          ++failures;
        }
      }
      client.close();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  obs::MetricsRegistry::set_enabled(false);
  shut_down(server);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST_F(ServeTraceTest, StatsPromFormatRoundTrips) {
  obs::MetricsRegistry::set_enabled(true);
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response est =
      client.call_op("estimate", R"("m":320,"n":320,"k":320)");
  ASSERT_TRUE(est.ok()) << est.error;

  // The estimate's trace finishes (and records serve.request_us) after its
  // response is written; poll until the series lands.
  std::string prom;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const serve::Response r = client.call_op("stats", R"("format":"prom")");
    ASSERT_TRUE(r.ok()) << r.error;
    prom = r.payload;
    if (prom.find("codesign_serve_request_us") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_EQ(prom.rfind("# TYPE ", 0), 0u) << prom.substr(0, 80);
  EXPECT_NE(prom.find("# TYPE codesign_serve_request_us summary"),
            std::string::npos);
  EXPECT_NE(prom.find("codesign_serve_request_us{op=\"estimate\","
                      "stability=\"best_effort\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("codesign_serve_request_us_count{op=\"estimate\","
                      "stability=\"best_effort\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("codesign_serve_queue_depth{stability=\"best_effort\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("codesign_gemmsim_cache_hits"), std::string::npos);

  // json stays the default; unknown formats are typed usage errors.
  const serve::Response json_stats = client.call_op("stats", "");
  ASSERT_TRUE(json_stats.ok());
  EXPECT_EQ(json_stats.payload.front(), '{');
  const serve::Response bad = client.call_op("stats", R"("format":"xml")");
  EXPECT_EQ(bad.status, "error");
  EXPECT_EQ(bad.code, kExitUsage);

  client.close();
  obs::MetricsRegistry::set_enabled(false);
  shut_down(server);
}

// ---------------------------------------------------------------------------
// Work attribution: the estimator and search internals bill their work to
// the active request via obs::RequestScope.

TEST_F(ServeTraceTest, TailAttributesEstimatesAndSearchCandidates) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response est =
      client.call_op("estimate", R"("id":"bill-e","m":448,"n":448,"k":448)");
  ASSERT_TRUE(est.ok()) << est.error;
  const serve::Response search = client.call_op(
      "search", R"("id":"bill-s","model":"gpt3-2.7b","mode":"heads","max":4)");
  ASSERT_TRUE(search.ok()) << search.error;

  const auto has_id = [](const std::vector<json::Value>& recs,
                         const std::string& id) {
    return std::any_of(recs.begin(), recs.end(), [&](const json::Value& r) {
      return r.at("id").as_string() == id;
    });
  };
  const std::vector<json::Value> records =
      tail_until(client, R"("n":64,"filter":"all")", [&](const auto& recs) {
        return has_id(recs, "bill-e") && has_id(recs, "bill-s");
      });
  bool saw_estimate = false, saw_search = false;
  for (const json::Value& rec : records) {
    if (rec.at("id").as_string() == "bill-e") {
      saw_estimate = true;
      EXPECT_GE(rec.at("estimates").as_number(), 1.0);
    }
    if (rec.at("id").as_string() == "bill-s") {
      saw_search = true;
      EXPECT_GT(rec.at("search_candidates").as_number(), 0.0);
      EXPECT_GE(rec.at("estimates").as_number(), 1.0);
    }
  }
  EXPECT_TRUE(saw_estimate);
  EXPECT_TRUE(saw_search);

  client.close();
  shut_down(server);
}

// ---------------------------------------------------------------------------
// SLO accounting: deadline misses are counted and the p99 verdict works.

TEST_F(ServeTraceTest, SloSummaryCountsDeadlineMissesAndViolations) {
  serve::ServerOptions o = options(2);
  o.trace.slo_p99_ms = 0.001;  // absurdly tight: any real request violates
  serve::Server server(o);
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response ok = client.call_op("ping", "");
  ASSERT_TRUE(ok.ok());
  const serve::Response missed =
      client.call_op("sleep", R"("id":"late","ms":500,"deadline_ms":30)");
  EXPECT_EQ(missed.status, "error");
  EXPECT_EQ(missed.code, kExitCancelled);

  const std::vector<json::Value> records =
      tail_until(client, R"("filter":"errors")", [](const auto& recs) {
        return !recs.empty();
      });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("id").as_string(), "late");
  EXPECT_TRUE(records[0].at("deadline_missed").as_bool());
  EXPECT_EQ(static_cast<int>(records[0].at("code").as_number()),
            kExitCancelled);

  ASSERT_NE(server.trace_log(), nullptr);
  wait_for_requests(server, 3);  // ping + sleep + at least one tail
  const serve::SloSummary slo = server.trace_log()->slo_summary();
  EXPECT_GE(slo.requests, 3u);
  EXPECT_GE(slo.deadline_misses, 1u);
  EXPECT_GE(slo.errors, 1u);
  EXPECT_GT(slo.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(slo.slo_p99_ms, 0.001);
  EXPECT_TRUE(slo.violated());

  client.close();
  shut_down(server);

  // An untight SLO on a fresh log is not violated; no SLO never is.
  serve::TraceOptions relaxed;
  relaxed.slo_p99_ms = 1e9;
  serve::RequestTraceLog quiet(relaxed);
  EXPECT_FALSE(quiet.slo_summary().violated());
  serve::TraceOptions none;
  serve::RequestTraceLog bare(none);
  EXPECT_FALSE(bare.slo_summary().violated());
}

// ---------------------------------------------------------------------------
// Ring mechanics: the lock-striped ring keeps the newest records and the
// filters behave (direct RequestTraceLog unit coverage, no sockets).

TEST_F(ServeTraceTest, RingKeepsNewestRecordsAcrossStripes) {
  serve::TraceOptions opt;
  opt.ring_capacity = 8;
  opt.ring_stripes = 4;
  serve::RequestTraceLog log(opt);

  for (int i = 0; i < 40; ++i) {
    auto trace = log.begin_request();
    serve::RequestRecord& rec = trace->record();
    rec.op = "estimate";
    rec.status = i % 10 == 3 ? "error" : "ok";
    rec.code = i % 10 == 3 ? kExitError : 0;
    trace->add_phase(serve::Phase::kExecute, 10.0 + i);
    log.finish(*trace);
  }

  const std::vector<serve::RequestRecord> all = log.tail(64, "all");
  EXPECT_EQ(all.size(), 8u);  // capacity bounds retention
  for (const serve::RequestRecord& rec : all) {
    EXPECT_GE(rec.seq, 32u);  // only the newest survive in every stripe
  }
  // Newest-first ordering.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i - 1].seq, all[i].seq);
  }
  const std::vector<serve::RequestRecord> top = log.tail(3, "slow");
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].total_us, top[1].total_us);
  EXPECT_GE(top[1].total_us, top[2].total_us);
  for (const serve::RequestRecord& rec : log.tail(64, "errors")) {
    EXPECT_EQ(rec.status, "error");
  }
  EXPECT_THROW(log.tail(4, "weird"), UsageError);

  const serve::SloSummary slo = log.slo_summary();
  EXPECT_EQ(slo.requests, 40u);  // SLO counters outlive ring eviction
  EXPECT_EQ(slo.errors, 4u);
}

// ---------------------------------------------------------------------------
// Chrome-trace export: each request lays its phase spans on a per-request
// track keyed by the echoed id.

TEST_F(ServeTraceTest, ChromeTraceCarriesPerRequestSpans) {
  obs::ScopedRecorder scoped;
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());
  const serve::Response r =
      client.call_op("estimate", R"("id":"traced","m":192,"n":192,"k":192)");
  ASSERT_TRUE(r.ok()) << r.error;
  client.close();
  shut_down(server);  // all traces finished before join() returns

  bool saw_request = false, saw_execute = false;
  for (const obs::TraceEvent& ev : scoped.recorder().events()) {
    if (ev.category != "serve") continue;
    EXPECT_GE(ev.tid, serve::kTidServeBase);
    bool traced_id = false;
    for (const auto& [k, v] : ev.args) {
      if (k == "id" && v == "traced") traced_id = true;
    }
    if (!traced_id) continue;
    if (ev.name == "estimate") {
      saw_request = true;
      EXPECT_GT(ev.dur_us, 0.0);
    }
    if (ev.name == "execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_execute);
}

}  // namespace
}  // namespace codesign
