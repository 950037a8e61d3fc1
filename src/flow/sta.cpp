#include "src/flow/sta.hpp"

#include <algorithm>

namespace stco::flow {

double cell_area(const CellTiming& ct, const compact::TechnologyPoint& tech,
                 const compact::CellSizing& sizing) {
  (void)tech;
  // Average device footprint (half N, half P) with 2x routing overhead.
  const double dev =
      0.5 * (sizing.nfet_width + sizing.pfet_width) * sizing.length * 3.0;
  return 2.0 * dev * static_cast<double>(ct.transistors);
}

StaReport analyze(const GateNetlist& nl, const TimingLibrary& lib,
                  const StaOptions& opts) {
  nl.check();
  StaReport rep;
  rep.num_gates = nl.num_gates();
  rep.num_ffs = nl.num_flipflops();

  const std::size_t n = nl.num_nets();
  numeric::Vec arrival(n, 0.0), slew(n, opts.primary_input_slew);
  numeric::Vec load(n, 0.0);

  // Net loads: consumer input caps + wire estimate.
  std::vector<std::size_t> fanout(n, 0);
  for (const auto& g : nl.gates()) {
    const auto& ct = lib.cell(g.cell);
    for (NetId in : g.fanin) {
      load[in] += ct.input_cap;
      ++fanout[in];
    }
  }
  for (const auto& ff : nl.flipflops()) {
    load[ff.d] += lib.dff_cap;
    ++fanout[ff.d];
  }
  for (NetId po : nl.primary_outputs()) load[po] += opts.primary_output_load;
  for (std::size_t i = 0; i < n; ++i)
    load[i] += opts.wire_cap_per_fanout * static_cast<double>(fanout[i]);

  // Launch points.
  for (NetId pi : nl.primary_inputs()) {
    arrival[pi] = 0.0;
    slew[pi] = opts.primary_input_slew;
  }
  for (const auto& ff : nl.flipflops()) {
    arrival[ff.q] = lib.dff_clk2q;
    slew[ff.q] = opts.primary_input_slew;
  }

  // Gates are stored in topological order.
  for (const auto& g : nl.gates()) {
    const auto& ct = lib.cell(g.cell);
    double worst_arr = 0.0, worst_slew = opts.primary_input_slew;
    for (NetId in : g.fanin) {
      if (arrival[in] >= worst_arr) {
        worst_arr = arrival[in];
        worst_slew = slew[in];
      }
    }
    arrival[g.out] = worst_arr + ct.delay_at(worst_slew, load[g.out]);
    slew[g.out] = ct.slew_at(worst_slew, load[g.out]);
  }

  // Capture: FF D pins (plus setup) and primary outputs.
  double crit = 0.0;
  for (const auto& ff : nl.flipflops())
    crit = std::max(crit, arrival[ff.d] + lib.dff_setup);
  for (NetId po : nl.primary_outputs()) crit = std::max(crit, arrival[po]);
  rep.critical_path = crit;
  rep.min_period = crit * opts.clock_margin;
  rep.fmax = rep.min_period > 0 ? 1.0 / rep.min_period : 0.0;

  // Power at fmax. Output-flip energy scales with the output's toggle
  // rate; internal (non-flip) energy with the inputs' rate in excess of it.
  // Every net toggles at opts.activity, so the non-flip term is zero, but it
  // stays in the sum so a non-finite nonflip_energy still reaches the report.
  const double a_out = opts.activity;
  const double a_fanin = std::max(0.0, opts.activity);  // max over >= 1 input
  double dyn_energy_per_cycle = 0.0, leak = 0.0, area = 0.0;
  for (const auto& g : nl.gates()) {
    const auto& ct = lib.cell(g.cell);
    const double a_in = g.fanin.empty() ? 0.0 : a_fanin;
    dyn_energy_per_cycle +=
        a_out * ct.flip_energy + std::max(0.0, a_in - a_out) * ct.nonflip_energy;
    leak += ct.leakage;
    area += cell_area(ct, lib.tech);
  }
  if (lib.has_cell("DFF")) {
    const auto& dffct = lib.cell("DFF");
    for (std::size_t k = 0; k < nl.num_flipflops(); ++k) {
      dyn_energy_per_cycle += opts.activity * lib.dff_flip_energy;
      leak += lib.dff_leakage;
      area += cell_area(dffct, lib.tech);
    }
  }
  rep.dynamic_power = dyn_energy_per_cycle * rep.fmax;
  rep.leakage_power = leak;
  rep.total_power = rep.dynamic_power + rep.leakage_power;
  rep.area = area;
  rep.arrival = std::move(arrival);
  return rep;
}

}  // namespace stco::flow
