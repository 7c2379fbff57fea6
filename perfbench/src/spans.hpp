// spans.hpp — the benchmark's own trace: spans around each call it makes
// into a layer of the system, kept in memory and written when the run ends.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "loadgen.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  ///< steady clock, as now_us()
  double end_us = 0.0;
  int parent = -1;        ///< index into the log, -1 for a root
  std::string request;    ///< request id the span belongs to ("" = none)
};

class SpanLog {
 public:
  int add(std::string name, double start_us, double end_us, int parent = -1,
          std::string request = {});

  /// Run `fn` inside a span named `name`; returns fn's result.
  template <class F>
  auto time(const std::string& name, int parent, F&& fn) {
    const int idx = add(name, now_us(), 0.0, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_[static_cast<std::size_t>(idx)].end_us = now_us();
    } else {
      auto result = fn();
      spans_[static_cast<std::size_t>(idx)].end_us = now_us();
      return result;
    }
  }
  /// Begin a span whose end is set later with end().
  int begin(const std::string& name, int parent = -1) {
    return add(name, now_us(), 0.0, parent);
  }
  void end(int idx) { spans_[static_cast<std::size_t>(idx)].end_us = now_us(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total and self time (duration minus the part
  /// covered by child spans), as a text table sorted by self time.
  std::string self_time_table() const;

  /// `{"spans": [{"name", "start_us", "end_us", "parent", "request"}...]}`
  /// with times relative to the first span.
  std::string json() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
