#pragma once
// Reinforcement-learning design-space exploration (paper: "employing a
// reinforcement learning (RL) agent to explore the design space").
//
// The technology space is a discrete 3-D grid over (VDD, Vth, Cox). A
// tabular Q-learning agent moves one step per action along one axis (or
// stays); the reward is the decrease in PPA cost. A random-search baseline
// with the same evaluation budget is provided for the ablation bench.

#include <functional>
#include <vector>

#include "src/charlib/dataset.hpp"
#include "src/numeric/rng.hpp"

namespace stco {

/// Discrete grid over the corner ranges.
class TechGrid {
 public:
  TechGrid(const charlib::CornerRanges& ranges, std::size_t n_per_axis);

  std::size_t n() const { return n_; }
  std::size_t num_states() const { return n_ * n_ * n_; }
  compact::TechnologyPoint point(std::size_t state) const;
  std::size_t state_of(std::size_t iv, std::size_t it, std::size_t ic) const;
  void indices_of(std::size_t state, std::size_t& iv, std::size_t& it,
                  std::size_t& ic) const;

 private:
  charlib::CornerRanges ranges_;
  std::size_t n_;
};

/// Cost of one technology point; expected to be deterministic. Each search
/// memoizes it per grid state, so a search costs every state it visits once.
using CostFn = std::function<double(const compact::TechnologyPoint&)>;

struct RlConfig {
  std::size_t episodes = 12;
  std::size_t steps_per_episode = 20;
  std::uint64_t seed = 5;
};

struct SearchResult {
  std::size_t best_state = 0;
  compact::TechnologyPoint best_point;
  double best_cost = 0.0;
  std::size_t unique_evaluations = 0;  ///< distinct grid points evaluated
  std::vector<double> best_cost_history;  ///< best-so-far per step
};

/// Tabular Q-learning over the grid (7 actions: +-1 per axis, stay).
SearchResult q_learning_search(const TechGrid& grid, const CostFn& cost,
                               const RlConfig& cfg = {});

/// Random search with the same step budget (ablation baseline); the state
/// sequence depends only on `seed`.
SearchResult random_search(const TechGrid& grid, const CostFn& cost,
                           std::size_t budget, std::uint64_t seed = 11);

}  // namespace stco
