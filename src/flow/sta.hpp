#pragma once
// Static timing, power, and area analysis over a gate-level netlist with a
// TimingLibrary — the "system evaluation" stage of the STCO loop (the paper
// uses commercial synthesis / P&R / signoff here; see DESIGN.md).

#include "src/flow/liberty.hpp"
#include "src/flow/netlist.hpp"

namespace stco::flow {

struct StaOptions {
  double primary_input_slew = 10e-9;  ///< boundary condition [s]
  double primary_output_load = 20e-15;
  double wire_cap_per_fanout = 2e-15; ///< crude interconnect estimate [F]
  double activity = 0.15;             ///< toggle probability per net
  double clock_margin = 1.1;          ///< period guard band
};

struct StaReport {
  double critical_path = 0.0;  ///< worst launch-to-capture delay [s]
  double min_period = 0.0;     ///< critical path + setup, with margin [s]
  double fmax = 0.0;           ///< 1 / min_period [Hz]
  double dynamic_power = 0.0;  ///< at fmax [W]
  double leakage_power = 0.0;  ///< [W]
  double total_power = 0.0;
  double area = 0.0;           ///< [m^2]
  std::size_t num_gates = 0;
  std::size_t num_ffs = 0;
  /// True when the backing library was degraded (missing arcs, non-finite
  /// entries after failed characterization) so the PPA numbers cannot be
  /// trusted. Set by the STCO loop, which maps such points to a finite
  /// penalty cost instead of feeding garbage into the optimizer.
  bool infeasible = false;
  /// Per-net arrival (debug / tests).
  numeric::Vec arrival;
};

/// Run static timing + power + area analysis.
StaReport analyze(const GateNetlist& nl, const TimingLibrary& lib,
                  const StaOptions& opts = {});

/// Cell footprint model: layout area of one cell at the library's sizing
/// (device area plus routing overhead).
double cell_area(const CellTiming& ct, const compact::TechnologyPoint& tech,
                 const compact::CellSizing& sizing = {});

}  // namespace stco::flow
