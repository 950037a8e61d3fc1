#include "src/flow/liberty.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/charlib/encoder.hpp"
#include "src/numeric/stats.hpp"
#include "src/obs/obs.hpp"
#include "src/persist/artifacts.hpp"
#include "src/persist/manifest.hpp"

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
                                Metric::kFlipPower,   Metric::kCapacitance,
                                Metric::kLeakagePower, Metric::kMinSetup};
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
          for (const auto& [pin, cap] : ch.input_capacitance)
            ct.input_cap = std::max(ct.input_cap, cap);
          if (def.sequential) lib.dff_setup = std::max(lib.dff_setup, ch.min_setup);
        }
      }
    }
    lib.cells.emplace(name, std::move(ct));
  }
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
                          Metric::kCapacitance,  Metric::kMinSetup};
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
    ct.input_cap = centre[4];
    if (def.sequential) lib.dff_setup = std::max(lib.dff_setup, centre[5]);
    lib.cells.emplace(names[c], std::move(ct));
  }
  return lib;
}

namespace {

constexpr std::uint32_t kLibrarySchema = 2;

void put_table(persist::PayloadWriter& w, const numeric::Matrix& m) {
  w.put_f64s(std::vector<double>(m.data(), m.data() + m.size()));
}

// A table is stored without its shape: one row per slew, one column per load.
numeric::Matrix get_table(persist::PayloadReader& r, std::size_t rows, std::size_t cols) {
  const std::vector<double> v = r.get_f64s();
  if (v.size() != rows * cols)
    throw persist::PayloadError("library: table does not match its axes");
  numeric::Matrix m(rows, cols);
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// True when `lib` is what building (`tech`, `opts`) would give in shape:
// the same point, cell set and axes.
bool built_for(const TimingLibrary& lib, const compact::TechnologyPoint& tech,
               const LibraryBuildOptions& opts) {
  if (lib.tech.kind != tech.kind || !same_bits(lib.tech.vdd, tech.vdd) ||
      !same_bits(lib.tech.vth, tech.vth) || !same_bits(lib.tech.cox, tech.cox))
    return false;
  const std::vector<std::string> cells = effective_cells(opts);
  const std::set<std::string> names(cells.begin(), cells.end());
  if (names.size() != lib.cells.size()) return false;
  for (const auto& [name, ct] : lib.cells)
    if (names.count(name) == 0 || ct.slew_axis != opts.slew_axis ||
        ct.load_axis != opts.load_axis)
      return false;
  return true;
}

}  // namespace

void put_library(persist::PayloadWriter& w, const TimingLibrary& lib) {
  w.put_u8(static_cast<std::uint8_t>(lib.tech.kind));
  w.put_f64(lib.tech.vdd);
  w.put_f64(lib.tech.vth);
  w.put_f64(lib.tech.cox);
  w.put_u64(lib.cells.size());
  for (const auto& [name, ct] : lib.cells) {
    w.put_str(name);
    w.put_f64s(ct.slew_axis);
    w.put_f64s(ct.load_axis);
    put_table(w, ct.delay);
    put_table(w, ct.out_slew);
    w.put_f64(ct.input_cap);
    w.put_f64(ct.leakage);
    w.put_f64(ct.flip_energy);
    w.put_u64(ct.transistors);
  }
  w.put_f64(lib.dff_setup);
  persist::put_robustness(w, lib.robustness);
  w.put_u64(lib.dropped_arcs);
  w.put_u64(lib.incomplete_arcs);
  w.put_u8(lib.complete ? 1 : 0);
}

TimingLibrary get_library(persist::PayloadReader& r) {
  TimingLibrary lib;
  lib.tech.kind = static_cast<tcad::SemiconductorKind>(r.get_u8());
  lib.tech.vdd = r.get_f64();
  lib.tech.vth = r.get_f64();
  lib.tech.cox = r.get_f64();
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining()) throw persist::PayloadError("library: cell count past the end");
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.get_str();
    CellTiming ct;
    ct.slew_axis = r.get_f64s();
    ct.load_axis = r.get_f64s();
    ct.delay = get_table(r, ct.slew_axis.size(), ct.load_axis.size());
    ct.out_slew = get_table(r, ct.slew_axis.size(), ct.load_axis.size());
    ct.input_cap = r.get_f64();
    ct.leakage = r.get_f64();
    ct.flip_energy = r.get_f64();
    ct.transistors = r.get_u64();
    if (!lib.cells.emplace(std::move(name), std::move(ct)).second)
      throw persist::PayloadError("library: repeated cell");
  }
  lib.dff_setup = r.get_f64();
  lib.robustness = persist::get_robustness(r);
  lib.dropped_arcs = r.get_u64();
  lib.incomplete_arcs = r.get_u64();
  lib.complete = r.get_u8() != 0;
  return lib;
}

std::string library_path(const std::string& dir, const compact::TechnologyPoint& tech,
                         const LibraryBuildOptions& opts) {
  persist::Fingerprint fp;
  fp.add_u64(static_cast<std::uint64_t>(tech.kind));
  fp.add_f64(tech.vdd).add_f64(tech.vth).add_f64(tech.cox);
  fp.add_u64(opts.cell_names.size());
  for (const auto& name : opts.cell_names) fp.add_str(name);
  fp.add_u64(opts.slew_axis.size());
  for (double s : opts.slew_axis) fp.add_f64(s);
  fp.add_u64(opts.load_axis.size());
  for (double l : opts.load_axis) fp.add_f64(l);
  fp.add_f64(opts.sizing.length).add_f64(opts.sizing.nfet_width);
  fp.add_f64(opts.sizing.pfet_width);
  fp.add_f64(opts.char_dt).add_f64(opts.char_time_unit);
  const charlib::CellScales& sc = opts.scales;
  fp.add_f64(sc.vdd).add_f64(sc.width).add_f64(sc.cox).add_f64(sc.vth);
  fp.add_f64(sc.slew).add_f64(sc.load);
  char name[32];
  std::snprintf(name, sizeof(name), "/lib-%016llx.stca",
                static_cast<unsigned long long>(fp.value()));
  return dir + name;
}

void write_library(persist::Storage& storage, const std::string& path,
                   const TimingLibrary& lib) {
  persist::PayloadWriter w;
  put_library(w, lib);
  persist::write_artifact(storage, path, persist::kind::kLibrary, kLibrarySchema,
                          w.bytes());
}

std::optional<TimingLibrary> read_library(persist::Storage& storage,
                                          const std::string& path,
                                          const compact::TechnologyPoint& tech,
                                          const LibraryBuildOptions& opts) {
  const persist::ArtifactData art =
      persist::read_artifact(storage, path, persist::kind::kLibrary, kLibrarySchema);
  if (!persist::ok(art.status)) return std::nullopt;  // absent, or counted corruption
  try {
    persist::PayloadReader r(art.payload);
    TimingLibrary lib = get_library(r);
    if (!r.done()) throw persist::PayloadError("library: trailing bytes");
    if (!built_for(lib, tech, opts))
      throw persist::PayloadError("library: another point, cell set or axes");
    return lib;
  } catch (const persist::PayloadError&) {
    persist::count_corrupt_artifact();
    return std::nullopt;
  }
}

}  // namespace stco::flow
