// metrics.hpp — a lightweight, deterministic metrics registry.
//
// The observability layer's contract (see docs/OBSERVABILITY.md):
//   * Zero overhead when disabled. Every instrumentation site guards on
//     MetricsRegistry::enabled() — a single relaxed atomic load — and takes
//     no locks and allocates nothing until metrics are switched on.
//   * Never changes results. Instrumentation only *reads* the quantities the
//     simulator computed; a metrics-on run produces bit-identical estimates
//     to a metrics-off run (lockstep-tested in tests/test_obs.cpp).
//   * Deterministic export. Series are tagged with a Stability: counters of
//     simulated quantities (kDeterministic) are byte-stable across thread
//     counts; wall-clock timers and race-sensitive counts (kBestEffort) are
//     not, and the deterministic snapshot excludes them. This is what lets
//     `codesign search --metrics` emit byte-identical files at any
//     --threads value (PR 1's determinism contract).
//
// Series are identified by (name, labels) where labels is a canonical
// "k=v,k2=v2" string. References returned by the registry stay valid for
// the registry's lifetime; reset_values() zeroes values without
// invalidating them.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace codesign::obs {

/// Whether a series is reproducible across thread counts and cache states.
enum class Stability { kDeterministic, kBestEffort };

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* stability_name(Stability s);
const char* metric_kind_name(MetricKind k);

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins (or running-max) double value. Lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if larger (CAS loop).
  void update_max(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Count/sum/min/max plus log-linear buckets. Mutex-protected: histograms
/// are recorded per task / per pipeline stage, not per GEMM estimate, so a
/// short critical section is fine.
///
/// The first kMaxSamples recorded values are retained verbatim so
/// snapshots can report exact p50/p95/p99 tail latencies (via
/// common/stats percentile). Past the cap, percentiles come from the
/// log-linear buckets — 64 power-of-two octaves × 16 linear sub-buckets,
/// interpolated within the bucket that holds the rank — so long runs keep
/// honest tails (≤ ~1/16 relative error) at fixed memory instead of the
/// pre-PR-7 behaviour of collapsing to a power-of-two lower bound.
class Histogram {
 public:
  static constexpr int kMajorBuckets = 64;  ///< power-of-two octaves
  static constexpr int kSubBuckets = 16;    ///< linear slices per octave
  static constexpr int kBuckets = kMajorBuckets * kSubBuckets;
  static constexpr std::size_t kMaxSamples = 4096;

  struct Data {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};
    /// Up to the first kMaxSamples recorded values (for exact percentiles).
    std::vector<double> samples;

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }

    /// p in [0, 100]. Exact (sorted-sample interpolation) while count <=
    /// kMaxSamples; afterwards interpolated inside the log-linear bucket
    /// whose cumulative count crosses the rank, clamped into [min, max].
    /// Returns 0 for an empty histogram.
    double percentile(double p) const;
  };

  void record(double v);
  Data data() const;
  void reset();

  /// Bucket index for `v`: octave floor(log2 v) (clamped to ±32) × 16
  /// linear sub-buckets within the octave. Values <= 0 land in bucket 0.
  static int bucket_index(double v);
  /// Inclusive lower bound of bucket `index`:
  /// 2^(major-32) * (1 + sub/16) where index = major*16 + sub.
  static double bucket_lower_bound(int index);

 private:
  mutable std::mutex mu_;
  Data data_;
};

/// Point-in-time copy of every registered series, sorted by (name, labels)
/// so exports are byte-deterministic given identical values.
struct MetricsSnapshot {
  struct Series {
    std::string name;
    std::string labels;
    MetricKind kind = MetricKind::kCounter;
    Stability stability = Stability::kDeterministic;
    std::uint64_t count = 0;  ///< counter value or histogram count
    double value = 0.0;       ///< gauge value
    double sum = 0.0, min = 0.0, max = 0.0;  ///< histogram aggregates
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;  ///< histogram tail latencies
    /// Non-empty histogram buckets as (lower bound, count).
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };
  std::vector<Series> series;

  std::string to_json() const;
  std::string to_csv() const;
  /// Prometheus text exposition (v0.0.4). Counters and gauges export
  /// verbatim; histograms export both summary-style quantile samples and
  /// true cumulative `_bucket` lines (`le` = the log-linear bucket's upper
  /// bound, closing with le="+Inf" == `_count`), plus
  /// _count/_sum/_min/_max. Series names are sanitized ('.' -> '_') and
  /// prefixed "codesign_"; every sample carries a stability="..." label so
  /// scrapers (and check.sh's serve-obs drill) can split deterministic
  /// series from wall-clock ones. Ordering follows the snapshot's sorted
  /// series, so the document is byte-deterministic for identical values.
  std::string to_prom() const;

  /// Append a synthesized series (used by callers that merge non-registry
  /// values — e.g. the serve stats op folding cache counters into a
  /// snapshot without mutating the global registry) and restore the
  /// (name, labels, kind) sort order.
  void add_series(Series series_to_add);
};

struct SnapshotOptions {
  /// Include kBestEffort series (wall-clock timers, cache counters).
  /// Pass false for the byte-deterministic export.
  bool include_best_effort = true;
};

class MetricsRegistry {
 public:
  /// Find or create a series. The Stability is fixed at creation; later
  /// calls with a different value keep the original. References stay valid
  /// for the registry's lifetime.
  Counter& counter(std::string_view name, std::string_view labels = {},
                   Stability stability = Stability::kDeterministic);
  Gauge& gauge(std::string_view name, std::string_view labels = {},
               Stability stability = Stability::kBestEffort);
  Histogram& histogram(std::string_view name, std::string_view labels = {},
                       Stability stability = Stability::kBestEffort);

  MetricsSnapshot snapshot(const SnapshotOptions& options = {}) const;

  /// Zero every value; registered series (and references to them) survive.
  void reset_values();

  /// The process-wide registry all instrumentation records into.
  static MetricsRegistry& global();

  /// The master switch. Off by default; instrumentation sites check this
  /// with one relaxed load and do nothing else when it is off.
  static bool enabled() {
    return g_enabled.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    g_enabled.store(on, std::memory_order_relaxed);
  }

 private:
  template <typename T>
  struct Entry {
    Stability stability;
    T metric;
  };
  template <typename T>
  using SeriesMap =
      std::map<std::pair<std::string, std::string>, std::unique_ptr<Entry<T>>>;

  template <typename T>
  T& find_or_create(SeriesMap<T>& map, std::string_view name,
                    std::string_view labels, Stability stability);

  static std::atomic<bool> g_enabled;

  mutable std::mutex mu_;
  SeriesMap<Counter> counters_;
  SeriesMap<Gauge> gauges_;
  SeriesMap<Histogram> histograms_;
};

/// A counter series of the global registry, resolved on first use and
/// kept: later events cost one atomic load plus Counter::add — no registry
/// lock, no string. Resolving lazily keeps a never-counted series out of
/// snapshots, exactly as a per-event registry.counter() call would. Meant
/// for static storage (constinit) or for tables owned by long-lived
/// objects; name and labels must outlive the handle.
class CounterHandle {
 public:
  constexpr explicit CounterHandle(
      std::string_view name, std::string_view labels = {},
      Stability stability = Stability::kDeterministic)
      : name_(name), labels_(labels), stability_(stability) {}

  Counter& get() const {
    Counter* c = counter_.load(std::memory_order_acquire);
    if (c != nullptr) return *c;
    c = &MetricsRegistry::global().counter(name_, labels_, stability_);
    counter_.store(c, std::memory_order_release);
    return *c;
  }

 private:
  std::string_view name_;
  std::string_view labels_;
  Stability stability_;
  mutable std::atomic<Counter*> counter_{nullptr};
};

/// RAII wall-clock timer recording elapsed microseconds into a histogram at
/// scope exit. The (name, labels) constructor resolves against the global
/// registry only when metrics are enabled at construction — otherwise the
/// timer is inert and never reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist);
  explicit ScopedTimer(std::string_view name, std::string_view labels = {});
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  bool active() const { return hist_ != nullptr; }
  double elapsed_us() const;

 private:
  Histogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace codesign::obs
