#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "stats.hpp"

namespace perfbench {

int SpanLog::add(std::string name, double start_us, double end_us, int parent,
                 std::string request) {
  spans_.push_back({std::move(name), start_us, end_us, parent, std::move(request)});
  return static_cast<int>(spans_.size() - 1);
}

std::string SpanLog::self_time_table() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) child_us[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  struct Row { std::size_t count = 0; double total = 0.0, self = 0.0; };
  std::map<std::string, Row> rows;
  double all_self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = std::max(0.0, spans_[i].end_us - spans_[i].start_us);
    const double self = std::max(0.0, dur - child_us[i]);
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total += dur;
    r.self += self;
    all_self += self;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "  %-34s %9s %12s %12s %7s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  out += line;
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "  %-34s %9zu %12.3f %12.3f %6.1f%%\n",
                  name.c_str(), r.count, r.total / 1000.0, r.self / 1000.0,
                  all_self > 0 ? 100.0 * r.self / all_self : 0.0);
    out += line;
  }
  return out;
}

std::string SpanLog::json() const {
  const double base = spans_.empty() ? 0.0 : spans_.front().start_us;
  std::string out = "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n {\"name\": \"" + s.name + "\", \"start_us\": " +
           json_number(s.start_us - base) + ", \"end_us\": " +
           json_number(s.end_us - base) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"request\": \"" +
           s.request + "\"}";
  }
  return out + "\n]}\n";
}

}  // namespace perfbench
