#include "src/stco/loop.hpp"

#include <gtest/gtest.h>

#include "src/stco/runtime_model.hpp"

namespace stco {
namespace {

TEST(RuntimeModel, Table1ReferenceComplete) {
  ASSERT_EQ(table1_reference().size(), 10u);
  for (const auto& r : table1_reference()) {
    EXPECT_GT(r.system_evaluation, 0.0);
    EXPECT_GT(r.speedup, 1.0);
    // Internal consistency of the paper's own numbers.
    EXPECT_NEAR(r.traditional / r.ours, r.speedup, 0.15);
  }
}

TEST(RuntimeModel, RowMatchesPaperWithDefaultConstants) {
  for (const auto& ref : table1_reference()) {
    const auto row = table1_row(ref.benchmark);
    EXPECT_NEAR(row.traditional, ref.traditional, 1.0) << ref.benchmark;
    EXPECT_NEAR(row.ours, ref.ours, 20.0) << ref.benchmark;
    EXPECT_NEAR(row.speedup, ref.speedup, 0.6) << ref.benchmark;
  }
}

TEST(RuntimeModel, SpeedupShrinksWithSystemEvaluationShare) {
  // Table I's core observation: small benchmarks (tech loop dominates) see
  // ~14x; big benchmarks (system evaluation dominates) see ~2x.
  const auto small = table1_row("s386");
  const auto big = table1_row("Darkriscv");
  EXPECT_GT(small.speedup, 3.0 * big.speedup);
}

TEST(RuntimeModel, MeasuredOverridesApply) {
  const auto row = table1_row("s298", {}, 1.0, 0.5, 2.0);
  EXPECT_NEAR(row.ours, 142.0 + 3.5, 1e-9);
  EXPECT_THROW(system_evaluation_seconds("bogus"), std::invalid_argument);
}

TEST(StcoEngine, SpicePathEvaluatesBenchmark) {
  StcoConfig cfg;
  cfg.benchmark = "s298";
  StcoEngine engine(cfg, SpiceBackend{});
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  const auto rep = engine.evaluate(grid.point(0));
  EXPECT_GT(rep.critical_path, 0.0);
  EXPECT_GT(rep.total_power, 0.0);
  EXPECT_EQ(engine.timing().evaluations.load(), 1u);
  EXPECT_GT(engine.timing().library_seconds.load(), 0.0);
}

TEST(StcoEngine, CostIsFiniteAndCalibrated) {
  StcoConfig cfg;
  cfg.benchmark = "s298";
  StcoEngine engine(cfg, SpiceBackend{});
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  const double c = engine.cost(grid.point(grid.num_states() / 2));
  // At the calibration point each normalized term is ~1.
  EXPECT_GT(c, 0.5);
  EXPECT_LT(c, 5.0);
}

TEST(StcoEngine, VddKnobTradesSpeedForPower) {
  StcoConfig cfg;
  cfg.benchmark = "s386";
  StcoEngine engine(cfg, SpiceBackend{});
  compact::TechnologyPoint lo{tcad::SemiconductorKind::kCnt, cfg.ranges.vdd_min,
                              0.8, 1.2e-4};
  compact::TechnologyPoint hi = lo;
  hi.vdd = cfg.ranges.vdd_max;
  const auto rl = engine.evaluate(lo);
  const auto rh = engine.evaluate(hi);
  EXPECT_LT(rh.critical_path, rl.critical_path);   // faster at high vdd
  EXPECT_GT(rh.dynamic_power, rl.dynamic_power);   // but more power
}

TEST(StcoEngine, RlSearchImprovesOverWorstCorner) {
  StcoConfig cfg;
  cfg.benchmark = "s298";
  cfg.grid_n = 3;
  cfg.rl.episodes = 3;
  cfg.rl.steps_per_episode = 6;
  StcoEngine engine(cfg, SpiceBackend{});
  const auto res = engine.optimize();
  // The found best must not be worse than every corner.
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  double worst = 0.0;
  for (std::size_t s : {std::size_t{0}, grid.num_states() - 1})
    worst = std::max(worst, engine.cost(grid.point(s)));
  EXPECT_LE(res.best_cost, worst);
  EXPECT_GT(res.unique_evaluations, 2u);
}


TEST(StcoEngine, InjectedLibraryFailureDegradesToFinitePenalty) {
  StcoConfig cfg;
  cfg.benchmark = "s298";
  cfg.grid_n = 3;
  cfg.rl.episodes = 2;
  cfg.rl.steps_per_episode = 4;
  // Fault injection through the library hook: every vdd_min technology
  // point "loses" its characterization, as if the sims died after retries.
  const double bad_vdd = cfg.ranges.vdd_min;
  cfg.library_hook = [bad_vdd](flow::TimingLibrary& lib) {
    if (lib.tech.vdd <= bad_vdd + 1e-12) lib.complete = false;
  };
  StcoEngine engine(cfg, SpiceBackend{});

  compact::TechnologyPoint bad{tcad::SemiconductorKind::kCnt, bad_vdd, 0.8, 1.2e-4};
  const auto rep = engine.evaluate(bad);
  EXPECT_TRUE(rep.infeasible);
  EXPECT_GE(engine.infeasible_evaluations(), 1u);

  // The infeasible point maps to the finite penalty — never NaN into the
  // RL reward.
  const double c = engine.cost(bad);
  EXPECT_TRUE(std::isfinite(c));
  EXPECT_EQ(c, cfg.infeasible_penalty);

  // Feasible points are unaffected and stay below the penalty.
  compact::TechnologyPoint good = bad;
  good.vdd = cfg.ranges.vdd_max;
  const auto rep_good = engine.evaluate(good);
  EXPECT_FALSE(rep_good.infeasible);
  EXPECT_LT(engine.cost(good), cfg.infeasible_penalty);

  // The optimizer terminates normally over the partially-infeasible grid
  // and settles on a finite cost (i.e. a feasible region).
  const auto res = engine.optimize();
  EXPECT_TRUE(std::isfinite(res.best_cost));
  EXPECT_LT(res.best_cost, cfg.infeasible_penalty);

  // The SPICE path actually ran solvers, so the aggregated counters moved.
  EXPECT_GT(engine.robustness().attempts, 0u);
}

/// Minimal trained charlib model, built once for the suite (normalization +
/// a few epochs: inference cost is what the fast path measures, and
/// predictions stay finite/positive).
charlib::CellCharModel& tiny_model() {
  static charlib::CellCharModel model = [] {
    charlib::CellCharModelConfig mcfg;
    mcfg.train.epochs = 3;
    charlib::CellCharModel m(mcfg);
    charlib::DatasetOptions dopts;
    dopts.cell_names = {"INV", "NAND2"};
    dopts.input_slews = {15e-9};
    dopts.output_loads = {40e-15};
    charlib::CornerRanges r;
    const auto tiny = charlib::build_charlib_dataset(charlib::corner_grid(r, 1), dopts);
    m.fit_normalization(tiny);
    m.train(tiny);
    return m;
  }();
  return model;
}

TEST(StcoEngine, GnnFastPathIsFasterThanSpicePath) {
  charlib::CellCharModel& model = tiny_model();

  StcoConfig cfg;
  cfg.benchmark = "s298";
  const TechGrid grid(cfg.ranges, cfg.grid_n);

  StcoEngine fast(cfg, GnnBackend{model});
  EXPECT_TRUE(fast.fast_path());
  const auto rep = fast.evaluate(grid.point(0));
  EXPECT_GT(rep.critical_path, 0.0);
  EXPECT_TRUE(std::isfinite(rep.total_power));

  StcoEngine slow(cfg, SpiceBackend{});
  (void)slow.evaluate(grid.point(0));
  EXPECT_LT(fast.timing().library_seconds.load(),
            0.2 * slow.timing().library_seconds.load());
}

TEST(StcoEngine, ParallelSearchMatchesSerial) {
  charlib::CellCharModel& model = tiny_model();
  StcoConfig cfg;
  cfg.benchmark = "s298";
  cfg.grid_n = 3;
  cfg.rl.episodes = 2;
  cfg.rl.steps_per_episode = 4;

  // Library builds fan out on the context and merge in a fixed order, so
  // the search trajectory — not just the final point — is unchanged.
  StcoEngine serial(cfg, GnnBackend{model});
  const auto a = serial.optimize();
  exec::Context ctx(4);
  StcoEngine par(cfg, GnnBackend{model}, ctx);
  const auto b = par.optimize();
  EXPECT_EQ(a.best_state, b.best_state);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.unique_evaluations, b.unique_evaluations);
  EXPECT_EQ(a.best_cost_history, b.best_cost_history);

  const auto ra = serial.optimize_random(6);
  const auto rb = par.optimize_random(6);
  EXPECT_EQ(ra.best_state, rb.best_state);
  EXPECT_DOUBLE_EQ(ra.best_cost, rb.best_cost);
  EXPECT_EQ(ra.best_cost_history, rb.best_cost_history);

  // The scheduler actually ran tasks for the parallel engine.
  EXPECT_GT(ctx.stats().tasks_run, 0u);
}

}  // namespace
}  // namespace stco
