// Quantiles from raw samples and the named metrics a run prints.

#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile `q` of raw samples, sorted here: linear interpolation between
/// closest ranks (Hyndman-Fan type 7). 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Regularised incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz).
inline double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  if (x > (a + 1) / (a + b + 2)) return 1 - IncompleteBeta(b, a, 1 - x);
  constexpr double kTiny = 1e-300;
  auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1, d = 1 / clamp(1 - (a + b) * x / (a + 1)), h = d;
  for (int m = 1; m <= 100000; ++m) {
    double num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
    d = 1 / clamp(1 + num * d);
    c = clamp(1 + num / c);
    h *= d * c;
    num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
    d = 1 / clamp(1 + num * d);
    c = clamp(1 + num / c);
    double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < 1e-15) break;
  }
  double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x));
  return front * h / a;
}

/// Quantile `q` of raw samples by the Harrell-Davis estimator: a weighted
/// mean of all order statistics, the weights being a Beta((n+1)q,
/// (n+1)(1-q)) distribution over ranks. Where the samples fall into a few
/// tight groups (one per TPC-H query, say), a single order statistic jumps
/// between groups and reads the extremes of one; this one does not.
/// Weights further than 12 standard deviations from q are left out.
inline double HdQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double n = static_cast<double>(v.size());
  double a = (n + 1) * q, b = (n + 1) * (1 - q);
  double sd = std::sqrt(a * b / ((a + b) * (a + b) * (a + b + 1)));
  size_t lo =
      static_cast<size_t>(std::max(0.0, std::floor((q - 12 * sd) * n)));
  size_t hi = static_cast<size_t>(std::min(n, std::ceil((q + 12 * sd) * n)));
  double first = IncompleteBeta(a, b, lo / n), prev = first, sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    double cdf = IncompleteBeta(a, b, (i + 1) / n);
    sum += (cdf - prev) * v[i];
    prev = cdf;
  }
  return prev > first ? sum / (prev - first) : v[lo];
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t n = 0;  // samples behind the value
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit, int64_t n) {
    all_.push_back({std::move(name), value, std::move(unit), n});
  }
  const std::vector<Metric>& all() const { return all_; }
  const Metric* Find(const std::string& name) const {
    for (const auto& m : all_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> all_;
};

/// Shortest decimal form that reads back as `v` (JSON-safe: non-finite
/// values print as 0).
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
