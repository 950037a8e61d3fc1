#include "src/numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stco::numeric {

namespace {
void check_pair(const Vec& a, const Vec& b) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument("stats: size mismatch or empty");
}
}  // namespace

double mean(const Vec& v) {
  if (v.empty()) throw std::invalid_argument("mean: empty");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(const Vec& v) {
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(const Vec& v) { return std::sqrt(variance(v)); }

double mse(const Vec& predicted, const Vec& actual) {
  check_pair(predicted, actual);
  double s = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = predicted[i] - actual[i];
    s += d * d;
  }
  return s / static_cast<double>(actual.size());
}

double rmse(const Vec& predicted, const Vec& actual) {
  return std::sqrt(mse(predicted, actual));
}

double mape(const Vec& predicted, const Vec& actual, double floor) {
  check_pair(predicted, actual);
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::fabs(actual[i]) < floor) continue;
    s += std::fabs((predicted[i] - actual[i]) / actual[i]);
    ++n;
  }
  if (n == 0) throw std::invalid_argument("mape: all reference values below floor");
  return 100.0 * s / static_cast<double>(n);
}

double r_squared(const Vec& predicted, const Vec& actual) {
  check_pair(predicted, actual);
  const double m = mean(actual);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ss_res += (actual[i] - predicted[i]) * (actual[i] - predicted[i]);
    ss_tot += (actual[i] - m) * (actual[i] - m);
  }
  if (ss_tot < 1e-300) return ss_res < 1e-300 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double mae(const Vec& predicted, const Vec& actual) {
  check_pair(predicted, actual);
  double s = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) s += std::fabs(predicted[i] - actual[i]);
  return s / static_cast<double>(actual.size());
}

double max_abs_error(const Vec& predicted, const Vec& actual) {
  check_pair(predicted, actual);
  double m = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i)
    m = std::max(m, std::fabs(predicted[i] - actual[i]));
  return m;
}

double interp1(const Vec& xs, const Vec& ys, double x) {
  if (xs.size() != ys.size() || xs.empty()) throw std::invalid_argument("interp1: sizes");
  if (xs.size() == 1 || x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

Bilinear bilinear(const Vec& xs, const Vec& ys, double x, double y) {
  if (xs.empty() || ys.empty()) throw std::invalid_argument("interp2: sizes");

  auto bracket = [](const Vec& axis, double v, std::size_t& lo, double& t) {
    if (axis.size() == 1 || v <= axis.front()) {
      lo = 0;
      t = 0.0;
      return;
    }
    if (v >= axis.back()) {
      lo = axis.size() - 2;
      t = 1.0;
      return;
    }
    const auto it = std::upper_bound(axis.begin(), axis.end(), v);
    const std::size_t hi = static_cast<std::size_t>(it - axis.begin());
    lo = hi - 1;
    t = (v - axis[lo]) / (axis[hi] - axis[lo]);
  };

  Bilinear b;
  b.rows = xs.size();
  b.cols = ys.size();
  bracket(xs, x, b.i, b.tx);
  bracket(ys, y, b.j, b.ty);
  b.i1 = std::min(b.i + 1, xs.size() - 1);
  b.j1 = std::min(b.j + 1, ys.size() - 1);
  return b;
}

double interp2(const Vec& xs, const Vec& ys, const Matrix& table, double x, double y) {
  return bilinear(xs, ys, x, y)(table);
}

}  // namespace stco::numeric
