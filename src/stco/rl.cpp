#include "src/stco/rl.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "src/obs/obs.hpp"

namespace stco {

TechGrid::TechGrid(const charlib::CornerRanges& ranges, std::size_t n_per_axis)
    : ranges_(ranges), n_(n_per_axis) {
  if (n_per_axis < 2) throw std::invalid_argument("TechGrid: need >= 2 per axis");
}

std::size_t TechGrid::state_of(std::size_t iv, std::size_t it, std::size_t ic) const {
  return (iv * n_ + it) * n_ + ic;
}

void TechGrid::indices_of(std::size_t state, std::size_t& iv, std::size_t& it,
                          std::size_t& ic) const {
  ic = state % n_;
  it = (state / n_) % n_;
  iv = state / (n_ * n_);
}

compact::TechnologyPoint TechGrid::point(std::size_t state) const {
  std::size_t iv, it, ic;
  indices_of(state, iv, it, ic);
  auto lerp = [&](double lo, double hi, std::size_t i) {
    return lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n_ - 1);
  };
  compact::TechnologyPoint p;
  p.kind = ranges_.kind;
  p.vdd = lerp(ranges_.vdd_min, ranges_.vdd_max, iv);
  p.vth = lerp(ranges_.vth_min, ranges_.vth_max, it);
  p.cox = lerp(ranges_.cox_min, ranges_.cox_max, ic);
  return p;
}

namespace {

/// Evaluation cache shared by the searches; the expensive evaluator runs
/// once per distinct grid state.
class CachedCost {
 public:
  CachedCost(const TechGrid& grid, const CostFn& cost) : grid_(grid), cost_(cost) {}
  double operator()(std::size_t state) {
    const auto it = cache_.find(state);
    if (it != cache_.end()) return it->second;
    const double c = cost_(grid_.point(state));
    cache_.emplace(state, c);
    return c;
  }
  std::size_t unique() const { return cache_.size(); }

 private:
  const TechGrid& grid_;
  const CostFn& cost_;
  std::map<std::size_t, double> cache_;
};

}  // namespace

SearchResult q_learning_search(const TechGrid& grid, const CostFn& cost,
                               const RlConfig& cfg) {
  numeric::Rng rng(cfg.seed);
  CachedCost eval(grid, cost);
  static obs::ProgressTask& prog = obs::progress("stco.search.steps");
  prog.add_work(cfg.episodes * cfg.steps_per_episode);
  const std::size_t n_actions = 7;  // +-vdd, +-vth, +-cox, stay
  std::vector<double> q(grid.num_states() * n_actions, 0.0);

  SearchResult res;
  res.best_cost = 1e300;
  auto note = [&](std::size_t state, double c) {
    if (c < res.best_cost) {
      res.best_cost = c;
      res.best_state = state;
    }
    res.best_cost_history.push_back(res.best_cost);
  };

  auto apply_action = [&](std::size_t state, std::size_t action) {
    std::size_t iv, it, ic;
    grid.indices_of(state, iv, it, ic);
    auto step_axis = [&](std::size_t& i, bool up) {
      if (up && i + 1 < grid.n()) ++i;
      if (!up && i > 0) --i;
    };
    switch (action) {
      case 0: step_axis(iv, true); break;
      case 1: step_axis(iv, false); break;
      case 2: step_axis(it, true); break;
      case 3: step_axis(it, false); break;
      case 4: step_axis(ic, true); break;
      case 5: step_axis(ic, false); break;
      default: break;  // stay
    }
    return grid.state_of(iv, it, ic);
  };

  for (std::size_t ep = 0; ep < cfg.episodes; ++ep) {
    const double eps =
        cfg.epsilon_start +
        (cfg.epsilon_end - cfg.epsilon_start) *
            (cfg.episodes > 1
                 ? static_cast<double>(ep) / static_cast<double>(cfg.episodes - 1)
                 : 1.0);
    std::size_t state = rng.uniform_index(grid.num_states());
    double c_state = eval(state);
    note(state, c_state);

    for (std::size_t step = 0; step < cfg.steps_per_episode; ++step) {
      std::size_t action;
      if (rng.bernoulli(eps)) {
        action = rng.uniform_index(n_actions);
      } else {
        action = 0;
        for (std::size_t a = 1; a < n_actions; ++a)
          if (q[state * n_actions + a] > q[state * n_actions + action]) action = a;
      }
      const std::size_t next = apply_action(state, action);
      const double c_next = eval(next);
      note(next, c_next);
      const double reward = c_state - c_next;  // cost decrease is positive
      double q_next_max = q[next * n_actions];
      for (std::size_t a = 1; a < n_actions; ++a)
        q_next_max = std::max(q_next_max, q[next * n_actions + a]);
      double& qa = q[state * n_actions + action];
      qa += cfg.alpha * (reward + cfg.discount * q_next_max - qa);
      state = next;
      c_state = c_next;
      prog.advance(1);
    }
  }
  res.best_point = grid.point(res.best_state);
  res.unique_evaluations = eval.unique();
  return res;
}

SearchResult random_search(const TechGrid& grid, const CostFn& cost,
                           std::size_t budget, std::uint64_t seed) {
  numeric::Rng rng(seed);
  CachedCost eval(grid, cost);
  static obs::ProgressTask& prog = obs::progress("stco.search.steps");
  prog.add_work(budget);
  SearchResult res;
  res.best_cost = 1e300;
  for (std::size_t i = 0; i < budget; ++i) {
    const std::size_t state = rng.uniform_index(grid.num_states());
    const double c = eval(state);
    if (c < res.best_cost) {
      res.best_cost = c;
      res.best_state = state;
    }
    res.best_cost_history.push_back(res.best_cost);
    prog.advance(1);
  }
  res.best_point = grid.point(res.best_state);
  res.unique_evaluations = eval.unique();
  return res;
}

}  // namespace stco
