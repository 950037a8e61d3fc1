#include "src/flow/sta.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "src/numeric/stats.hpp"
#include "src/obs/obs.hpp"

namespace stco::flow {

double cell_area(const CellTiming& ct, const compact::TechnologyPoint& tech,
                 const compact::CellSizing& sizing) {
  (void)tech;
  // Average device footprint (half N, half P) with 2x routing overhead.
  const double dev =
      0.5 * (sizing.nfet_width + sizing.pfet_width) * sizing.length * 3.0;
  return 2.0 * dev * static_cast<double>(ct.transistors);
}

StaPlan::StaPlan(const GateNetlist& nl) {
  obs::Span span("flow.compile_sta");
  nl.check();
  std::map<std::string, std::uint32_t> ids;
  gate_cells_.reserve(nl.num_gates());
  fanout_.assign(nl.num_nets(), 0);
  for (const auto& g : nl.gates()) {
    const auto [it, added] =
        ids.try_emplace(g.cell, static_cast<std::uint32_t>(cell_names_.size()));
    if (added) cell_names_.push_back(g.cell);
    gate_cells_.push_back(it->second);
    for (NetId in : g.fanin) ++fanout_[in];
  }
  for (const auto& ff : nl.flipflops()) ++fanout_[ff.d];
}

StaReport analyze(const GateNetlist& nl, const TimingLibrary& lib,
                  const StaOptions& opts) {
  return analyze(nl, StaPlan(nl), lib, opts);
}

StaReport analyze(const GateNetlist& nl, const StaPlan& plan,
                  const TimingLibrary& lib, const StaOptions& opts) {
  const auto& gates = nl.gates();
  const auto& gate_cells = plan.gate_cells();
  const auto& fanout = plan.fanout();
  if (gate_cells.size() != gates.size() || fanout.size() != nl.num_nets())
    throw std::invalid_argument("analyze: StaPlan compiled for another netlist");
  if (!(opts.activity >= 0.0))
    throw std::invalid_argument("analyze: activity must be non-negative");
  // One lookup per distinct cell (throws on a cell the library lacks); the
  // footprint depends on the cell alone, so it is computed once too.
  std::vector<const CellTiming*> cells;
  std::vector<double> cell_areas;
  cells.reserve(plan.cell_names().size());
  cell_areas.reserve(plan.cell_names().size());
  for (const auto& name : plan.cell_names()) {
    cells.push_back(&lib.cell(name));
    cell_areas.push_back(cell_area(*cells.back(), lib.tech));
  }
  // Flip-flops are the DFF cell, looked up only when the netlist has some;
  // its centre delay is clock-to-Q.
  const CellTiming* dff = nl.num_flipflops() > 0 ? &lib.cell("DFF") : nullptr;
  const double clk2q =
      dff ? dff->delay(dff->slew_axis.size() / 2, dff->load_axis.size() / 2) : 0.0;

  StaReport rep;
  rep.num_gates = nl.num_gates();
  rep.num_ffs = nl.num_flipflops();

  const std::size_t n = nl.num_nets();
  numeric::Vec arrival(n, 0.0), slew(n, kPrimaryInputSlew);
  numeric::Vec load(n, 0.0);

  // Net loads: consumer input caps + wire estimate.
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const double cap = cells[gate_cells[k]]->input_cap;
    for (NetId in : gates[k].fanin) load[in] += cap;
  }
  for (const auto& ff : nl.flipflops()) load[ff.d] += dff->input_cap;
  for (NetId po : nl.primary_outputs()) load[po] += kPrimaryOutputLoad;
  for (std::size_t i = 0; i < n; ++i)
    load[i] += kWireCapPerFanout * static_cast<double>(fanout[i]);

  // Launch points.
  for (NetId pi : nl.primary_inputs()) {
    arrival[pi] = 0.0;
    slew[pi] = kPrimaryInputSlew;
  }
  for (const auto& ff : nl.flipflops()) {
    arrival[ff.q] = clk2q;
    slew[ff.q] = kPrimaryInputSlew;
  }

  // Gates are stored in topological order.
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const Gate& g = gates[k];
    const CellTiming& ct = *cells[gate_cells[k]];
    double worst_arr = 0.0, worst_slew = kPrimaryInputSlew;
    for (NetId in : g.fanin) {
      if (arrival[in] >= worst_arr) {
        worst_arr = arrival[in];
        worst_slew = slew[in];
      }
    }
    // delay_at and slew_at share the axes: bracket them once for both.
    const numeric::Bilinear at =
        numeric::bilinear(ct.slew_axis, ct.load_axis, worst_slew, load[g.out]);
    arrival[g.out] = worst_arr + at(ct.delay);
    slew[g.out] = at(ct.out_slew);
  }

  // Capture: FF D pins (plus setup) and primary outputs.
  double crit = 0.0;
  for (const auto& ff : nl.flipflops())
    crit = std::max(crit, arrival[ff.d] + lib.dff_setup);
  for (NetId po : nl.primary_outputs()) crit = std::max(crit, arrival[po]);
  rep.critical_path = crit;
  rep.min_period = crit * kClockMargin;
  rep.fmax = rep.min_period > 0 ? 1.0 / rep.min_period : 0.0;

  // Power at fmax: every net toggles at opts.activity, and each output flip
  // costs the cell's flip energy.
  double dyn_energy_per_cycle = 0.0, leak = 0.0, area = 0.0;
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const CellTiming& ct = *cells[gate_cells[k]];
    dyn_energy_per_cycle += opts.activity * ct.flip_energy;
    leak += ct.leakage;
    area += cell_areas[gate_cells[k]];
  }
  if (dff) {
    const double dff_area = cell_area(*dff, lib.tech);
    for (std::size_t k = 0; k < nl.num_flipflops(); ++k) {
      dyn_energy_per_cycle += opts.activity * dff->flip_energy;
      leak += dff->leakage;
      area += dff_area;
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
