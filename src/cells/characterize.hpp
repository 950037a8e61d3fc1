#pragma once
// Transistor-level cell characterization via the SPICE substrate.
//
// Produces the paper's nine metrics (section II.C): delay, output slew,
// input-pin capacitance (max per pin), flip power (input and output both
// switch), non-flip power (input switches, output holds), leakage power,
// and — for sequential cells — minimum setup, minimum hold, and minimum
// clock pulse width (found by bisection on pass/fail transient captures).
// A caller that keeps only some of them passes a MetricSet, and the
// simulations that feed nothing it asked for are not run.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cells/builder.hpp"
#include "src/cells/library.hpp"
#include "src/exec/context.hpp"
#include "src/numeric/status.hpp"

namespace stco::cells {

enum class Metric : std::size_t {
  kDelay = 0,
  kOutputSlew = 1,
  kCapacitance = 2,
  kFlipPower = 3,
  kNonFlipPower = 4,
  kLeakagePower = 5,
  kMinPulseWidth = 6,
  kMinSetup = 7,
  kMinHold = 8,
};
inline constexpr std::size_t kNumMetrics = 9;
const char* to_string(Metric m);

/// A set of metrics to measure. Default-constructed it is empty; all()
/// holds every metric.
class MetricSet {
 public:
  constexpr MetricSet() = default;
  constexpr MetricSet(std::initializer_list<Metric> metrics) {
    for (Metric m : metrics) bits_ |= bit(m);
  }
  static constexpr MetricSet all() {
    MetricSet s;
    s.bits_ = (1u << kNumMetrics) - 1;
    return s;
  }
  constexpr bool has(Metric m) const { return (bits_ & bit(m)) != 0; }
  /// True when any of `metrics` is in the set.
  constexpr bool any(std::initializer_list<Metric> metrics) const {
    for (Metric m : metrics)
      if (has(m)) return true;
    return false;
  }

 private:
  static constexpr std::uint32_t bit(Metric m) {
    return 1u << static_cast<std::size_t>(m);
  }
  std::uint32_t bits_ = 0;
};

/// Characterization operating conditions. Time quantities in seconds.
struct CharConfig {
  compact::TechnologyPoint tech;
  compact::CellSizing sizing;
  double input_slew = 20e-9;   ///< stimulus 0->100% ramp time
  double load_cap = 50e-15;    ///< output load
  double time_unit = 150e-9;   ///< schedule quantum (documents the window layout)
  double dt = 2e-9;            ///< transient step
};

/// One sensitized timing arc (input edge propagating to the output).
struct ArcResult {
  std::string input_pin;                   ///< toggling pin (clock for seq)
  bool input_rising = true;
  bool output_rising = true;
  std::map<std::string, bool> side_inputs; ///< static pin values
  double delay = 0.0;        ///< 50%-to-50% [s]
  double output_slew = 0.0;  ///< 10%-90% [s]
  double flip_energy = 0.0;  ///< supply energy above leakage [J]
};

/// An input toggle that leaves the output unchanged.
struct NonFlipResult {
  std::string input_pin;
  bool input_rising = true;
  std::map<std::string, bool> side_inputs;
  double energy = 0.0;  ///< supply energy above leakage [J]
};

struct CellCharacterization {
  std::string cell;
  double leakage_power = 0.0;  ///< mean over static states [W]
  std::map<std::string, double> input_capacitance;  ///< max per pin [F]
  std::vector<ArcResult> arcs;
  std::vector<NonFlipResult> nonflip;
  // Sequential-only constraints [s]; zero for combinational cells.
  double min_setup = 0.0;
  double min_hold = 0.0;
  double min_pulse_width = 0.0;

  /// Solver recovery counters aggregated over every sim run for this cell.
  numeric::RobustnessStats stats;
  /// Simulations that failed even after the recovery ladder. Each one
  /// degrades the result (a skipped arc, a zeroed measurement) rather than
  /// contaminating it with unconverged waveforms.
  std::size_t failed_sims = 0;
  /// Arcs whose simulation converged but whose output never made the
  /// measured transition (no 50% crossing or 10-90% slew in the window, or
  /// a flip-flop that did not capture). The arc is skipped, as for a failed
  /// sim, but the cause is the cell at this point, not the solver.
  std::size_t incomplete_arcs = 0;

  /// Worst (max) delay over all arcs; 0 if none.
  double worst_delay() const;
  /// Mean flip energy over arcs; 0 if none.
  double mean_flip_energy() const;
};

/// Characterize one cell (dispatches on cell.sequential). Independent
/// measurements — static leakage states, per-pin cap/arc/non-flip batches,
/// and the six sequential constraint bisections — run as tasks on `ctx`;
/// results are merged in a fixed index order, so the output is bit-identical
/// for any thread count (the default serial context included).
///
/// Only the simulations that feed a metric in `metrics` run; the fields of
/// metrics left out stay at their defaults. Every requested field comes
/// from the same simulations on the same inputs as in a full run, so it is
/// bit-identical to the full run's value. Flip and non-flip energies
/// subtract a leakage baseline, so they run the simulations it needs (for a
/// sequential cell, the leakage run) without reporting leakage itself.
CellCharacterization characterize_cell(
    const CellDef& cell, const CharConfig& cfg,
    const exec::Context& ctx = exec::Context::serial(),
    MetricSet metrics = MetricSet::all());

}  // namespace stco::cells
