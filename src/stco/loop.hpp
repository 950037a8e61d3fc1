#pragma once
// The full fast-STCO iteration loop (paper Fig. 1): technology parameters
// -> cell library (GNN fast path or SPICE traditional path) -> system
// evaluation (STA + power + area) -> PPA cost -> RL exploration.

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <variant>

#include "src/exec/context.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/sta.hpp"
#include "src/obs/obs.hpp"
#include "src/stco/ppa.hpp"
#include "src/stco/rl.hpp"

namespace stco {

struct StcoConfig {
  std::string benchmark = "s298";
  charlib::CornerRanges ranges{};
  std::size_t grid_n = 4;        ///< technology grid resolution per axis
  RlConfig rl{};
  flow::LibraryBuildOptions lib_opts{};
  flow::StaOptions sta_opts{};
  double w_delay = 1.0, w_power = 1.0, w_area = 0.5;
  /// Finite cost charged for technology points whose library build failed
  /// (incomplete cells, non-finite PPA). Chosen well above any real cost so
  /// the optimizer steers away, but never NaN/Inf — RL rewards stay finite.
  double infeasible_penalty = 100.0;
  /// Test seam: invoked on each library (built or loaded) before analysis,
  /// so fault-injection tests can corrupt specific technology points and
  /// check the degradation path without touching the real builders. The
  /// store keeps the library as built, before the hook.
  std::function<void(flow::TimingLibrary&)> library_hook;
  /// Directory of the SPICE library store. Empty = use $STCO_CACHE_DIR; both
  /// empty = no store. Each SPICE library is written there once, right after
  /// it is built, as `lib-<fingerprint>.stca` (flow::library_path), and later
  /// engines load it instead of building it, whatever their benchmark, cost
  /// weights or STA options. A corrupt or mismatched file is counted under
  /// persist.corrupt_artifacts and rebuilt. GNN libraries are not stored.
  std::string cache_dir;
  StcoConfig() {
    // Small NLDM axes keep per-iteration library builds cheap.
    lib_opts.slew_axis = {10e-9, 40e-9};
    lib_opts.load_axis = {20e-15, 100e-15};
  }
};

/// Wall-clock accounting for one engine's lifetime. The counters are atomic
/// so another thread can read them mid-run; field reads implicitly load, and
/// printf-style consumers must call .load().
struct StcoTiming {
  std::atomic<double> library_seconds{0.0};  ///< technology loop (TCAD excluded)
  std::atomic<double> sta_seconds{0.0};      ///< system evaluation
  std::atomic<std::size_t> evaluations{0};   ///< libraries built (not loaded)
};

/// Library-build backend selection, replacing the old nullable-pointer mode
/// switch: SpiceBackend runs transistor-level characterization (the paper's
/// traditional path), GnnBackend infers through a trained model (the fast
/// path). The referenced model must outlive the engine.
struct SpiceBackend {};
struct GnnBackend {
  const charlib::CellCharModel& model;
};
using LibraryBackend = std::variant<SpiceBackend, GnnBackend>;

class StcoEngine {
 public:
  /// `backend` selects how per-point libraries are built; `ctx` is where
  /// each library build fans out its characterizations or graph forwards.
  /// The context must outlive the engine. Results are bit-identical for any
  /// context. One engine runs one evaluation at a time.
  StcoEngine(const StcoConfig& cfg, LibraryBackend backend,
             const exec::Context& ctx = exec::Context::serial());

  /// Library (loaded from the store or built) + STA at one technology point.
  /// Nothing is memoized: every call analyzes again.
  flow::StaReport evaluate(const compact::TechnologyPoint& tech);

  /// Scalar PPA cost of evaluate(tech) (weights calibrated on the mid-grid
  /// nominal point at first use); infeasible points cost the finite
  /// infeasible_penalty. Not memoized: the searches memoize per grid state.
  double cost(const compact::TechnologyPoint& tech);

  /// RL exploration over the technology grid.
  SearchResult optimize();
  /// Random-search baseline with a comparable budget.
  SearchResult optimize_random(std::size_t budget);

  const StcoTiming& timing() const { return timing_; }
  const flow::GateNetlist& netlist() const { return netlist_; }
  const PpaWeights& weights();
  bool fast_path() const { return std::holds_alternative<GnnBackend>(backend_); }

  /// Execution context this engine schedules its parallel work on.
  const exec::Context& context() const { return *ctx_; }

  /// Solver robustness counters aggregated over every library this engine
  /// built (empty on the GNN path, which runs no solver; loaded libraries
  /// add nothing).
  const numeric::RobustnessStats& robustness() const { return stats_; }
  /// Technology points that degraded to the infeasible penalty.
  std::size_t infeasible_evaluations() const { return infeasible_evaluations_; }

  /// One observability cut of this engine's run: the process-wide
  /// obs::snapshot() overlaid with this engine's own timing, robustness,
  /// exec, and infeasibility counters under the stco./exec./solver. keys
  /// that stco::report renders. Works with STCO_OBS=OFF (the global part is
  /// then empty, the per-engine overlay still populates).
  [[nodiscard]] obs::Snapshot obs_snapshot() const;

 private:
  /// The library at `tech`: loaded when the store holds it, else built (and
  /// stored when there is a store; store_dir_ is empty on the GNN path).
  flow::TimingLibrary library(const compact::TechnologyPoint& tech);

  StcoConfig cfg_;
  LibraryBackend backend_;
  const exec::Context* ctx_;
  flow::GateNetlist netlist_;
  flow::StaPlan sta_plan_;  ///< compiled once; netlist_ never changes
  std::string store_dir_;   ///< empty = no library store
  StcoTiming timing_;
  std::optional<PpaWeights> weights_;  ///< calibrated at first use
  numeric::RobustnessStats stats_;
  std::size_t infeasible_evaluations_ = 0;
};

/// Fold one run's counters into an obs::Snapshot under the canonical keys
/// (stco.library_seconds, solver.attempts, exec.tasks_run, ...). This is
/// the bridge the report renderer consumes; StcoEngine::obs_snapshot()
/// calls it on top of the global metric snapshot, and tests / no-engine
/// callers can invoke it directly on a default Snapshot.
[[nodiscard]] obs::Snapshot make_run_snapshot(const StcoTiming& timing,
                                              const numeric::RobustnessStats& robustness,
                                              const exec::ContextStats& exec_stats,
                                              std::size_t infeasible_evaluations,
                                              obs::Snapshot base = {});

}  // namespace stco
