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

/// A netlist compiled for repeated analysis against changing libraries. The
/// constructor runs GateNetlist::check() once (and throws what it throws),
/// resolves each gate's cell name to a small integer id into the distinct
/// cell names, and counts each net's consumers (gate inputs and flip-flop D
/// pins). analyze() with a plan then looks each distinct cell up once per
/// library and walks integer ids instead of names.
///
/// A plan describes the netlist as it was when compiled, so compile it after
/// the last add_* / set_flipflop_d call. GateNetlist has no way to change a
/// gate once it is added, so a netlist that is only read from then on (as
/// StcoEngine's, whose plan is compiled in its constructor) keeps its plan
/// valid for its lifetime.
class StaPlan {
 public:
  explicit StaPlan(const GateNetlist& nl);

  /// Distinct cell names, indexed by cell id (order of first use).
  const std::vector<std::string>& cell_names() const { return cell_names_; }
  /// Cell id of each gate, in gate order.
  const std::vector<std::uint32_t>& gate_cells() const { return gate_cells_; }
  /// Consumers of each net (gate inputs and flip-flop D pins).
  const std::vector<std::uint32_t>& fanout() const { return fanout_; }

 private:
  std::vector<std::string> cell_names_;
  std::vector<std::uint32_t> gate_cells_;
  std::vector<std::uint32_t> fanout_;
};

/// Run static timing + power + area analysis of `nl`, compiled as `plan`.
/// Loads, leakage, area and energy accumulate per gate in gate order (not
/// weighted by cell counts, which would round differently), so the report
/// does not depend on how often a plan is reused. Flip-flops are timed and
/// powered as the library's "DFF" cell, with its centre delay as clock-to-Q
/// and TimingLibrary::dff_setup as setup. Throws std::invalid_argument when
/// the library lacks a cell the netlist uses (DFF included, when the netlist
/// has flip-flops), when the plan was compiled for a netlist of another
/// size, or when opts.activity is negative or NaN.
StaReport analyze(const GateNetlist& nl, const StaPlan& plan,
                  const TimingLibrary& lib, const StaOptions& opts = {});

/// One-shot analysis: compiles a plan for `nl` and runs the overload above.
StaReport analyze(const GateNetlist& nl, const TimingLibrary& lib,
                  const StaOptions& opts = {});

/// Cell footprint model: layout area of one cell at the library's sizing
/// (device area plus routing overhead).
double cell_area(const CellTiming& ct, const compact::TechnologyPoint& tech,
                 const compact::CellSizing& sizing = {});

}  // namespace stco::flow
