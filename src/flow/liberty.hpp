#pragma once
// Liberty-style timing library: per-cell NLDM tables (delay and output slew
// versus input slew x output load), input capacitance, leakage, and
// switching energies. Two builders fill the same structure:
//
//   * build_library_spice — transistor-level characterization through the
//     SPICE substrate (the paper's "traditional" path, ~1900 s per library
//     on commercial tools), and
//   * build_library_gnn — inference through the trained GCN model (the
//     paper's fast path, 8.88 s).
//
// Static timing and power analysis consume the structure without knowing
// which path produced it, which is exactly the property the STCO loop
// exploits.

#include <map>
#include <string>

#include "src/cells/characterize.hpp"
#include "src/charlib/model.hpp"
#include "src/exec/context.hpp"
#include "src/numeric/matrix.hpp"
#include "src/numeric/status.hpp"

namespace stco::flow {

/// NLDM tables for one cell.
struct CellTiming {
  numeric::Vec slew_axis;  ///< input slew points [s]
  numeric::Vec load_axis;  ///< output load points [F]
  numeric::Matrix delay;     ///< worst-arc delay [s], slew x load
  numeric::Matrix out_slew;  ///< output slew [s]
  double input_cap = 0.0;    ///< max input pin capacitance [F]
  double leakage = 0.0;      ///< leakage power [W]
  double flip_energy = 0.0;    ///< mean switching energy per output flip [J]
  double nonflip_energy = 0.0; ///< internal energy per non-flipping toggle [J]
  std::size_t transistors = 0;

  double delay_at(double slew, double load) const;
  double slew_at(double slew, double load) const;
};

struct TimingLibrary {
  compact::TechnologyPoint tech;
  std::map<std::string, CellTiming> cells;
  // Sequential parameters (from the DFF entry).
  double dff_clk2q = 0.0;
  double dff_setup = 0.0;
  double dff_cap = 0.0;
  double dff_leakage = 0.0;
  double dff_flip_energy = 0.0;

  // Robustness accounting from the build. `complete` goes false when some
  // cell lost every timing arc at a grid point (to simulation failures or
  // to an output that never switched in the window) or a table entry is
  // non-finite — consumers (the STCO loop) treat such libraries as
  // infeasible rather than trusting partially-characterized numbers.
  numeric::RobustnessStats robustness;
  std::size_t dropped_arcs = 0;  ///< sims dead even after the retry ladder
  /// Arcs skipped although their sim converged: the output missed the
  /// measurement window (CellCharacterization::incomplete_arcs).
  std::size_t incomplete_arcs = 0;
  bool complete = true;

  const CellTiming& cell(const std::string& name) const;
  bool has_cell(const std::string& name) const { return cells.count(name) != 0; }
};

struct LibraryBuildOptions {
  std::vector<std::string> cell_names;  ///< empty = every library cell
  std::vector<double> slew_axis = {5e-9, 20e-9, 60e-9};
  std::vector<double> load_axis = {10e-15, 50e-15, 150e-15};
  compact::CellSizing sizing{};
  double char_dt = 3e-9;
  double char_time_unit = 150e-9;
  charlib::CellScales scales{};
};

/// Characterize through SPICE (slow, reference). Grid points — one task per
/// (cell, slew, load) — run on `ctx`, and each characterization fans its arc
/// measurements out on the same context; results merge in grid order, so the
/// library is bit-identical for any thread count. Off-centre grid points
/// measure the arcs' delay and slew only; the centre point also measures the
/// scalar metrics the library keeps (leakage, energies, capacitance, setup).
TimingLibrary build_library_spice(const compact::TechnologyPoint& tech,
                                  const LibraryBuildOptions& opts = {},
                                  const exec::Context& ctx = exec::Context::serial());

/// Predict through the trained GNN (fast). The model must have been trained
/// on a compatible corner range. Every cell x slew x load graph is encoded
/// once and the whole library is one batched forward (model.predict_batch);
/// both run the graphs as tasks on `ctx`. The shared trunk runs once per
/// graph and feeds the delay and slew heads at every grid point and the
/// scalar heads (leakage, energies, capacitance, setup) read at each cell's
/// centre point. Each graph's forward is independent of the batch, so the
/// library is bit-identical to single-graph predictions and for any thread
/// count.
TimingLibrary build_library_gnn(const charlib::CellCharModel& model,
                                const compact::TechnologyPoint& tech,
                                const LibraryBuildOptions& opts = {},
                                const exec::Context& ctx = exec::Context::serial());

/// Cells the benchmark generators emit (the subset a library must cover).
const std::vector<std::string>& mapped_cell_set();

}  // namespace stco::flow
