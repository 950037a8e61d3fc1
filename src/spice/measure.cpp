#include "src/spice/measure.hpp"

#include <cmath>
#include <stdexcept>

namespace stco::spice {

std::optional<double> cross_time(const TranResult& tr, NodeId node, double level,
                                 EdgeDir dir, double t_after) {
  if (!tr.converged) return std::nullopt;
  for (std::size_t k = 1; k < tr.samples(); ++k) {
    if (tr.time[k] < t_after) continue;
    const double v0 = tr.v[k - 1][node], v1 = tr.v[k][node];
    const bool crossed = dir == EdgeDir::kRising ? (v0 < level && v1 >= level)
                                                 : (v0 > level && v1 <= level);
    if (!crossed) continue;
    const double t0 = tr.time[k - 1], t1 = tr.time[k];
    if (v1 == v0) return t1;
    const double t = t0 + (t1 - t0) * (level - v0) / (v1 - v0);
    if (t >= t_after) return t;
  }
  return std::nullopt;
}

std::optional<double> transition_time(const TranResult& tr, NodeId node, double v_low,
                                      double v_high, EdgeDir dir, double lo_frac,
                                      double hi_frac, double t_after) {
  const double swing = v_high - v_low;
  const double va = v_low + lo_frac * swing;
  const double vb = v_low + hi_frac * swing;
  if (dir == EdgeDir::kRising) {
    const auto ta = cross_time(tr, node, va, EdgeDir::kRising, t_after);
    if (!ta) return std::nullopt;
    const auto tb = cross_time(tr, node, vb, EdgeDir::kRising, *ta);
    if (!tb) return std::nullopt;
    return *tb - *ta;
  }
  const auto tb = cross_time(tr, node, vb, EdgeDir::kFalling, t_after);
  if (!tb) return std::nullopt;
  const auto ta = cross_time(tr, node, va, EdgeDir::kFalling, *tb);
  if (!ta) return std::nullopt;
  return *ta - *tb;
}

double integrate_source_charge(const TranResult& tr, std::size_t src, double t0,
                               double t1) {
  if (t1 < t0) throw std::invalid_argument("integrate_source_charge: t1 < t0");
  double q = 0.0;
  for (std::size_t k = 1; k < tr.samples(); ++k) {
    const double ta = std::max(tr.time[k - 1], t0);
    const double tb = std::min(tr.time[k], t1);
    if (tb <= ta) continue;
    // Interpolate currents at the clipped endpoints.
    const double span = tr.time[k] - tr.time[k - 1];
    auto interp = [&](double t) {
      if (span <= 0.0) return tr.i_src[k][src];
      const double f = (t - tr.time[k - 1]) / span;
      return tr.i_src[k - 1][src] + f * (tr.i_src[k][src] - tr.i_src[k - 1][src]);
    };
    q += 0.5 * (interp(ta) + interp(tb)) * (tb - ta);
  }
  return q;
}

double integrate_source_charge_smoothed(const TranResult& tr, std::size_t src,
                                        double t0, double t1) {
  if (t1 < t0) throw std::invalid_argument("integrate_source_charge_smoothed: t1 < t0");
  const std::size_t n = tr.samples();
  if (n < 3) return integrate_source_charge(tr, src, t0, t1);
  // Build a smoothed copy of the source current and integrate that.
  TranResult sm;
  sm.time = tr.time;
  sm.i_src.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double prev = tr.i_src[k == 0 ? 0 : k - 1][src];
    const double cur = tr.i_src[k][src];
    const double next = tr.i_src[k + 1 >= n ? n - 1 : k + 1][src];
    sm.i_src[k] = numeric::Vec{0.25 * (prev + 2.0 * cur + next)};
  }
  sm.v.assign(n, numeric::Vec{});
  return integrate_source_charge(sm, 0, t0, t1);
}

std::optional<double> supply_energy(const TranResult& tr, std::size_t src,
                                    double vdd, double t0, double t1) {
  if (!tr.converged) return std::nullopt;
  return -vdd * integrate_source_charge_smoothed(tr, src, t0, t1);
}

std::optional<double> final_voltage(const TranResult& tr, NodeId node) {
  if (!tr.converged || tr.samples() == 0) return std::nullopt;
  return tr.v.back()[node];
}

}  // namespace stco::spice
