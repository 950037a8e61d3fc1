#include "src/stco/loop.hpp"

#include <cmath>
#include <cstdlib>

#include "src/persist/storage.hpp"

namespace stco {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // stco-lint: allow(nondet-clock-now) StcoTiming wall-clock accounting
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string resolve_store_dir(const StcoConfig& cfg) {
  if (!cfg.cache_dir.empty()) return cfg.cache_dir;
  if (const char* env = std::getenv("STCO_CACHE_DIR"); env && *env) return env;
  return {};
}

}  // namespace

StcoEngine::StcoEngine(const StcoConfig& cfg, LibraryBackend backend,
                       const exec::Context& ctx)
    : cfg_(cfg),
      backend_(std::move(backend)),
      ctx_(&ctx),
      netlist_(flow::make_benchmark(cfg.benchmark)),
      sta_plan_(netlist_) {
  if (!fast_path()) store_dir_ = resolve_store_dir(cfg_);
  if (!store_dir_.empty()) persist::default_storage().create_directories(store_dir_);
}

flow::TimingLibrary StcoEngine::library(const compact::TechnologyPoint& tech) {
  static obs::Counter& c_evals = obs::counter("stco.evaluations");
  static obs::Counter& c_warm = obs::counter("persist.cache.warm_hits");
  const std::string path =
      store_dir_.empty() ? std::string() : flow::library_path(store_dir_, tech, cfg_.lib_opts);
  if (!path.empty()) {
    if (auto stored = flow::read_library(persist::default_storage(), path, tech,
                                         cfg_.lib_opts)) {
      c_warm.add(1);
      return std::move(*stored);
    }
  }
  const auto* gnn = std::get_if<GnnBackend>(&backend_);
  flow::TimingLibrary lib =
      gnn ? flow::build_library_gnn(gnn->model, tech, cfg_.lib_opts, *ctx_)
          : flow::build_library_spice(tech, cfg_.lib_opts, *ctx_);
  timing_.evaluations.fetch_add(1);
  c_evals.add(1);
  stats_.merge(lib.robustness);
  if (!path.empty()) flow::write_library(persist::default_storage(), path, lib);
  return lib;
}

flow::StaReport StcoEngine::evaluate(const compact::TechnologyPoint& tech) {
  obs::Span span("stco.evaluate");
  span.set_arg(fast_path() ? "gnn" : "spice");
  static obs::Counter& c_infeasible = obs::counter("stco.infeasible_evaluations");

  // stco-lint: allow(nondet-clock-now) StcoTiming wall-clock accounting
  const auto t0 = std::chrono::steady_clock::now();
  flow::TimingLibrary lib = library(tech);
  if (cfg_.library_hook) cfg_.library_hook(lib);
  timing_.library_seconds.fetch_add(seconds_since(t0));

  // stco-lint: allow(nondet-clock-now) StcoTiming wall-clock accounting
  const auto t1 = std::chrono::steady_clock::now();
  auto rep = [&] {
    obs::Span sta_span("stco.sta");
    return flow::analyze(netlist_, sta_plan_, lib, cfg_.sta_opts);
  }();
  timing_.sta_seconds.fetch_add(seconds_since(t1));
  // Degradation gate: an incomplete library or non-finite PPA marks the
  // point infeasible so cost() can substitute a finite penalty instead of
  // letting NaN leak into the RL reward.
  if (!lib.complete || !std::isfinite(rep.min_period) ||
      !std::isfinite(rep.total_power) || !std::isfinite(rep.area)) {
    rep.infeasible = true;
    c_infeasible.add(1);
    ++infeasible_evaluations_;
  }
  return rep;
}

const PpaWeights& StcoEngine::weights() {
  if (!weights_) {
    const TechGrid grid(cfg_.ranges, cfg_.grid_n);
    const auto nominal = evaluate(grid.point(grid.num_states() / 2));
    weights_ = calibrated_weights(nominal, cfg_.w_delay, cfg_.w_power, cfg_.w_area);
  }
  return *weights_;
}

double StcoEngine::cost(const compact::TechnologyPoint& tech) {
  const auto& w = weights();
  const auto rep = evaluate(tech);
  const double c = rep.infeasible ? cfg_.infeasible_penalty : w.cost(rep);
  return std::isfinite(c) ? c : cfg_.infeasible_penalty;
}

SearchResult StcoEngine::optimize() {
  obs::Span span("stco.optimize");
  const TechGrid grid(cfg_.ranges, cfg_.grid_n);
  return q_learning_search(
      grid, [this](const compact::TechnologyPoint& t) { return cost(t); }, cfg_.rl);
}

SearchResult StcoEngine::optimize_random(std::size_t budget) {
  obs::Span span("stco.optimize_random");
  const TechGrid grid(cfg_.ranges, cfg_.grid_n);
  return random_search(
      grid, [this](const compact::TechnologyPoint& t) { return cost(t); }, budget, 11);
}

obs::Snapshot make_run_snapshot(const StcoTiming& timing,
                                const numeric::RobustnessStats& robustness,
                                const exec::ContextStats& exec_stats,
                                std::size_t infeasible_evaluations,
                                obs::Snapshot base) {
  obs::Snapshot snap = std::move(base);
  snap.set_gauge("stco.library_seconds", timing.library_seconds.load());
  snap.set_gauge("stco.sta_seconds", timing.sta_seconds.load());
  snap.set_counter("stco.evaluations", timing.evaluations.load());
  snap.set_counter("stco.infeasible_evaluations", infeasible_evaluations);

  snap.set_counter("solver.attempts", robustness.attempts);
  snap.set_counter("solver.direct_success", robustness.direct_success);
  snap.set_counter("solver.gmin_retries", robustness.gmin_retries);
  snap.set_counter("solver.source_retries", robustness.source_retries);
  snap.set_counter("solver.continuation_retries", robustness.continuation_retries);
  snap.set_counter("solver.damping_retries", robustness.damping_retries);
  snap.set_counter("solver.recovered", robustness.recovered);
  snap.set_counter("solver.failures", robustness.failures);
  snap.set_counter("solver.budget_exhausted", robustness.budget_exhausted);
  snap.set_counter("solver.fallbacks", robustness.fallbacks);

  snap.set_counter("exec.threads", exec_stats.threads);
  snap.set_counter("exec.tasks_run", exec_stats.tasks_run);
  snap.set_counter("exec.steals", exec_stats.steals);
  snap.set_counter("exec.max_queue_depth", exec_stats.max_queue_depth);
  snap.set_counter("exec.parallel_regions", exec_stats.parallel_regions);
  return snap;
}

obs::Snapshot StcoEngine::obs_snapshot() const {
  return make_run_snapshot(timing_, stats_, ctx_->stats(), infeasible_evaluations_,
                           obs::snapshot());
}

}  // namespace stco
