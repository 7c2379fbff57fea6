// stats.hpp — order statistics and the result document.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0,1]) of `v`; +inf entries sort
/// last, so a missing reply counts as slower than every answered one.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Metric name → (value, unit), printed in name order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const { return m_.at(name).first; }
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// A number with all its digits, as JSON (non-finite values become null).
std::string json_number(double v);

}  // namespace perfbench
