#include "src/flow/liberty.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "src/charlib/encoder.hpp"
#include "src/numeric/stats.hpp"
#include "src/obs/obs.hpp"

namespace stco::flow {

double CellTiming::delay_at(double slew, double load) const {
  return numeric::interp2(slew_axis, load_axis, delay, slew, load);
}

double CellTiming::slew_at(double slew, double load) const {
  return numeric::interp2(slew_axis, load_axis, out_slew, slew, load);
}

const CellTiming& TimingLibrary::cell(const std::string& name) const {
  const auto it = cells.find(name);
  if (it == cells.end())
    throw std::invalid_argument("TimingLibrary: no cell " + name);
  return it->second;
}

const std::vector<std::string>& mapped_cell_set() {
  static const std::vector<std::string> names = {
      "INV",   "INVX2", "INVX4", "BUF",   "BUFX2", "BUFX4", "NAND2",
      "NAND3", "NAND4", "NOR2",  "NOR3",  "AND2",  "OR2",   "XOR2",
      "XNOR2", "AOI21", "OAI21", "MUX2",  "DFF",
  };
  return names;
}

namespace {

std::vector<std::string> effective_cells(const LibraryBuildOptions& opts) {
  return opts.cell_names.empty() ? mapped_cell_set() : opts.cell_names;
}

void finalize_sequential(TimingLibrary& lib) {
  if (!lib.has_cell("DFF")) return;
  const auto& d = lib.cell("DFF");
  lib.dff_clk2q = d.delay(d.slew_axis.size() / 2, d.load_axis.size() / 2);
  lib.dff_cap = d.input_cap;
  lib.dff_leakage = d.leakage;
  lib.dff_flip_energy = d.flip_energy;
}

// Stimulus of a GNN library query: toggle the first data input (the clock
// of a sequential cell) with the others low — the worst-arc convention the
// training samples encode.
charlib::PinContext worst_arc_stimulus(const cells::CellDef& def, double slew,
                                       double load) {
  charlib::PinContext pc;
  for (const auto& pin : def.inputs) {
    pc.current_state[pin] = false;
    pc.next_state[pin] = false;
  }
  const auto data = def.data_inputs();
  const std::string tog =
      def.sequential ? def.clock_pin : (data.empty() ? def.inputs[0] : data[0]);
  pc.toggling_pin = tog;
  pc.next_state[tog] = true;
  pc.input_slew = slew;
  pc.output_load = load;
  return pc;
}

// A single non-finite table entry poisons interpolation (and hence every
// downstream STA query), so it marks the whole library incomplete.
double checked(TimingLibrary& lib, double v) {
  if (!std::isfinite(v)) {
    lib.complete = false;
    return 0.0;
  }
  return v;
}

}  // namespace

TimingLibrary build_library_spice(const compact::TechnologyPoint& tech,
                                  const LibraryBuildOptions& opts,
                                  const exec::Context& ctx) {
  obs::Span span("flow.build_library_spice");
  TimingLibrary lib;
  lib.tech = tech;
  const auto names = effective_cells(opts);
  const std::size_t ns = opts.slew_axis.size();
  const std::size_t nl = opts.load_axis.size();
  const std::size_t per_cell = ns * nl;

  // The merge below reads the arcs' delay and slew at every grid point and
  // the remaining metrics at the centre point only, so only the centre point
  // measures them. Hold and pulse width are never read.
  using cells::Metric;
  const cells::MetricSet arcs_only{Metric::kDelay, Metric::kOutputSlew};
  const cells::MetricSet centre{Metric::kDelay,       Metric::kOutputSlew,
                                Metric::kFlipPower,   Metric::kNonFlipPower,
                                Metric::kCapacitance, Metric::kLeakagePower,
                                Metric::kMinSetup};
  const std::size_t centre_j = (ns / 2) * nl + nl / 2;

  // One task per (cell, slew, load) grid point. Each characterization fans
  // its own arc measurements out on the same context (nested regions).
  auto chars = ctx.map(names.size() * per_cell, [&](std::size_t j) {
    const auto& def = cells::find_cell(names[j / per_cell]);
    cells::CharConfig cfg;
    cfg.tech = tech;
    cfg.sizing = opts.sizing;
    cfg.input_slew = opts.slew_axis[(j % per_cell) / nl];
    cfg.load_cap = opts.load_axis[j % nl];
    cfg.dt = opts.char_dt;
    cfg.time_unit = opts.char_time_unit;
    return cells::characterize_cell(def, cfg, ctx,
                                    j % per_cell == centre_j ? centre : arcs_only);
  });

  // Grid-ordered merge: identical accumulation order to the serial loops.
  for (std::size_t c = 0; c < names.size(); ++c) {
    const auto& name = names[c];
    const auto& def = cells::find_cell(name);
    CellTiming ct;
    ct.slew_axis = opts.slew_axis;
    ct.load_axis = opts.load_axis;
    ct.delay.resize(ns, nl);
    ct.out_slew.resize(ns, nl);
    ct.transistors = def.num_transistors();

    for (std::size_t si = 0; si < ns; ++si) {
      for (std::size_t li = 0; li < nl; ++li) {
        const auto& ch = chars[c * per_cell + si * nl + li];
        lib.robustness.merge(ch.stats);
        lib.dropped_arcs += ch.failed_sims;
        lib.incomplete_arcs += ch.incomplete_arcs;
        // A characterization that lost every timing arc (to simulation
        // failures or to an output that missed the window) leaves the
        // (slew, load) entry with no measurement at all — the library
        // cannot honestly serve this cell.
        if (ch.arcs.empty()) lib.complete = false;
        double wd = 0.0, ws = 0.0;
        for (const auto& arc : ch.arcs) {
          wd = std::max(wd, arc.delay);
          ws = std::max(ws, arc.output_slew);
        }
        ct.delay(si, li) = checked(lib, wd);
        ct.out_slew(si, li) = checked(lib, ws);
        if (si == ns / 2 && li == nl / 2) {
          ct.leakage = ch.leakage_power;
          ct.flip_energy = ch.mean_flip_energy();
          if (!ch.nonflip.empty()) {
            double e = 0.0;
            for (const auto& nf : ch.nonflip) e += nf.energy;
            ct.nonflip_energy = e / static_cast<double>(ch.nonflip.size());
          }
          for (const auto& [pin, cap] : ch.input_capacitance)
            ct.input_cap = std::max(ct.input_cap, cap);
          if (def.sequential) lib.dff_setup = std::max(lib.dff_setup, ch.min_setup);
        }
      }
    }
    lib.cells.emplace(name, std::move(ct));
  }
  finalize_sequential(lib);
  return lib;
}

TimingLibrary build_library_gnn(const charlib::CellCharModel& model,
                                const compact::TechnologyPoint& tech,
                                const LibraryBuildOptions& opts,
                                const exec::Context& ctx) {
  obs::Span span("flow.build_library_gnn");
  TimingLibrary lib;
  lib.tech = tech;
  const auto names = effective_cells(opts);
  const std::size_t ns = opts.slew_axis.size();
  const std::size_t nl = opts.load_axis.size();
  const std::size_t per_cell = ns * nl;
  const std::size_t centre_j = (ns / 2) * nl + nl / 2;

  // Encode every cell x slew x load graph once, one task per graph, in
  // grid order.
  const auto graphs = ctx.map(names.size() * per_cell, [&](std::size_t j) {
    const auto& def = cells::find_cell(names[j / per_cell]);
    const double slew = opts.slew_axis[(j % per_cell) / nl];
    const double load = opts.load_axis[j % nl];
    return charlib::encode_cell(def, tech, opts.sizing,
                                worst_arc_stimulus(def, slew, load), opts.scales);
  });

  // One batched forward: the shared trunk runs once per graph and feeds
  // every head the library reads. The scalar metrics are load/slew-
  // independent by convention, so they are read at each cell's centre
  // grid point, as the SPICE path measures them.
  using cells::Metric;
  const Metric heads[] = {Metric::kDelay,        Metric::kOutputSlew,
                          Metric::kLeakagePower, Metric::kFlipPower,
                          Metric::kNonFlipPower, Metric::kCapacitance,
                          Metric::kMinSetup};
  constexpr std::size_t nh = std::size(heads);
  const std::vector<double> pred = model.predict_batch(graphs, heads, ctx);

  // Grid-ordered merge; raw predictions go through checked() so
  // `lib.complete` accounting matches the SPICE path.
  for (std::size_t c = 0; c < names.size(); ++c) {
    const auto& def = cells::find_cell(names[c]);
    CellTiming ct;
    ct.slew_axis = opts.slew_axis;
    ct.load_axis = opts.load_axis;
    ct.delay.resize(ns, nl);
    ct.out_slew.resize(ns, nl);
    ct.transistors = def.num_transistors();
    const double* row = pred.data() + c * per_cell * nh;
    for (std::size_t si = 0; si < ns; ++si) {
      for (std::size_t li = 0; li < nl; ++li) {
        const double* p = row + (si * nl + li) * nh;
        ct.delay(si, li) = checked(lib, p[0]);
        ct.out_slew(si, li) = checked(lib, p[1]);
      }
    }
    const double* centre = row + centre_j * nh;
    ct.leakage = centre[2];
    ct.flip_energy = centre[3];
    ct.nonflip_energy = centre[4];
    ct.input_cap = centre[5];
    if (def.sequential) lib.dff_setup = std::max(lib.dff_setup, centre[6]);
    lib.cells.emplace(names[c], std::move(ct));
  }
  finalize_sequential(lib);
  return lib;
}

}  // namespace stco::flow
