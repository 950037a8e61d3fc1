#pragma once
// Corner-sweep dataset generation for the GNN characterization model.
//
// The paper trains on 125 corners (a 5^3 grid over VDD / Vth / Cox) and
// tests on 512 corners (8^3). Grid resolutions here are parameters so the
// same driver runs CPU-sized experiments; see EXPERIMENTS.md for the
// scale-down accounting.

#include <functional>
#include <vector>

#include "src/charlib/model.hpp"
#include "src/exec/context.hpp"
#include "src/numeric/status.hpp"

namespace stco::charlib {

/// Axis ranges for the (VDD, Vth, Cox) technology corner grid.
struct CornerRanges {
  tcad::SemiconductorKind kind = tcad::SemiconductorKind::kCnt;
  double vdd_min = 2.4, vdd_max = 3.6;
  double vth_min = 0.6, vth_max = 1.0;
  double cox_min = 0.9e-4, cox_max = 1.6e-4;
};

/// n^3 corner grid (n points per axis, inclusive endpoints). n = 1 places
/// the point mid-range.
std::vector<compact::TechnologyPoint> corner_grid(const CornerRanges& ranges,
                                                  std::size_t n_per_axis);

/// Interleaved grid for testing: same ranges, different resolution, offset
/// half a step so test corners never coincide with train corners.
std::vector<compact::TechnologyPoint> corner_grid_offset(const CornerRanges& ranges,
                                                         std::size_t n_per_axis);

/// Robustness accounting for one dataset build: failed sims degrade into
/// dropped samples (never NaN targets), and this records how much was lost.
struct DatasetStats {
  std::size_t characterizations = 0;  ///< cell x corner x (slew, load) runs
  std::size_t degraded_characterizations = 0;  ///< runs with >= 1 failed sim
  std::size_t failed_sims = 0;        ///< sims dead even after the retry ladder
  numeric::RobustnessStats solver;    ///< aggregated solver counters

  void merge(const DatasetStats& o) {
    characterizations += o.characterizations;
    degraded_characterizations += o.degraded_characterizations;
    failed_sims += o.failed_sims;
    solver.merge(o.solver);
  }
};

struct DatasetOptions {
  std::vector<std::string> cell_names;  ///< empty = whole 35-cell library
  std::vector<double> input_slews = {10e-9, 30e-9};
  std::vector<double> output_loads = {20e-15, 80e-15};
  compact::CellSizing sizing{};
  double char_dt = 3e-9;
  double char_time_unit = 150e-9;
  CellScales scales{};
  /// Progress callback: (corners done, corners total).
  std::function<void(std::size_t, std::size_t)> on_progress;
  /// When non-null, filled with drop counts and solver counters.
  DatasetStats* stats = nullptr;
};

/// Run SPICE characterization over all corners and extract one CharSample
/// per (arc/pin/constraint, metric). Slew/load-independent metrics
/// (capacitance, leakage, constraints) are extracted once per corner.
/// Characterizations — one task per (corner, slew x load, cell) — run on
/// `ctx` and merge in grid order: samples, drop counts, and solver counters
/// are bit-identical for any thread count. on_progress fires once per
/// completed corner (serialized; count order matches the serial build).
std::vector<CharSample> build_charlib_dataset(
    const std::vector<compact::TechnologyPoint>& corners, const DatasetOptions& opts,
    const exec::Context& ctx = exec::Context::serial());

/// Convert one characterization result into samples (exposed for tests).
std::vector<CharSample> samples_from_characterization(
    const cells::CellDef& cell, const cells::CellCharacterization& ch,
    const compact::TechnologyPoint& tech, const cells::CharConfig& cfg,
    const CellScales& scales, bool include_static_metrics);

}  // namespace stco::charlib
