#include "src/flow/liberty.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/charlib/encoder.hpp"
#include "src/obs/obs.hpp"

namespace stco::flow {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The SPICE library measures only what it keeps (arcs everywhere, the
/// scalar metrics at the centre point), so every number it holds must equal
/// what a full characterization at the same grid point gives, bit for bit.
TEST(LibraryScope, SpiceLibraryEqualsFullCharacterization) {
  LibraryBuildOptions opts;
  opts.cell_names = {"INV", "NAND2", "XOR2", "DFF"};
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  const auto tech = compact::cnt_tech();
  const auto lib = build_library_spice(tech, opts);
  ASSERT_TRUE(lib.complete);
  EXPECT_EQ(lib.incomplete_arcs, 0u);

  const std::size_t sc = opts.slew_axis.size() / 2;
  const std::size_t lc = opts.load_axis.size() / 2;
  for (const auto& name : opts.cell_names) {
    const auto& def = cells::find_cell(name);
    const auto& ct = lib.cell(name);
    for (std::size_t si = 0; si < opts.slew_axis.size(); ++si) {
      for (std::size_t li = 0; li < opts.load_axis.size(); ++li) {
        cells::CharConfig cfg;
        cfg.tech = tech;
        cfg.sizing = opts.sizing;
        cfg.input_slew = opts.slew_axis[si];
        cfg.load_cap = opts.load_axis[li];
        cfg.dt = opts.char_dt;
        cfg.time_unit = opts.char_time_unit;
        const auto ch = cells::characterize_cell(def, cfg);
        ASSERT_FALSE(ch.arcs.empty()) << name;
        double wd = 0.0, ws = 0.0;
        for (const auto& arc : ch.arcs) {
          wd = std::max(wd, arc.delay);
          ws = std::max(ws, arc.output_slew);
        }
        EXPECT_EQ(ct.delay(si, li), wd) << name << " " << si << "," << li;
        EXPECT_EQ(ct.out_slew(si, li), ws) << name << " " << si << "," << li;
        if (si != sc || li != lc) continue;

        EXPECT_EQ(ct.leakage, ch.leakage_power) << name;
        EXPECT_EQ(ct.flip_energy, ch.mean_flip_energy()) << name;
        double cap = 0.0;
        for (const auto& [pin, c] : ch.input_capacitance) cap = std::max(cap, c);
        EXPECT_EQ(ct.input_cap, cap) << name;
        if (def.sequential) {
          EXPECT_GT(lib.dff_setup, 0.0);
          EXPECT_EQ(lib.dff_setup, ch.min_setup);
        }
      }
    }
  }
}

/// The centre point measures what the library keeps and nothing else: one
/// 19-cell build on the STCO loop's 2x2 axes runs 405 transients.
TEST(LibraryScope, SpiceLibraryRunsOnlyTheTransientsItKeeps) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with STCO_OBS=OFF";
  LibraryBuildOptions opts;
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  auto& runs = obs::counter("spice.transient.runs");
  const auto r0 = runs.value();
  const auto lib = build_library_spice(compact::cnt_tech(), opts);
  EXPECT_EQ(lib.cells.size(), mapped_cell_set().size());
  EXPECT_EQ(runs.value() - r0, 405u);
}

/// A library that loses every arc of a cell at some grid point is
/// incomplete; when no simulation failed, the lost arcs are counted as
/// incomplete rather than dropped, so the infeasibility has a reason.
TEST(LibraryScope, ArcsMissingTheWindowExplainAnIncompleteLibrary) {
  LibraryBuildOptions opts;  // default 3x3 axes, loads up to 150 fF
  opts.cell_names = {"XOR2"};
  compact::TechnologyPoint tech = compact::cnt_tech();
  tech.vdd = 2.6;
  tech.vth = 0.65;
  tech.cox = 1e-4;
  const auto lib = build_library_spice(tech, opts);
  EXPECT_FALSE(lib.complete);
  EXPECT_EQ(lib.dropped_arcs, 0u);
  EXPECT_GT(lib.incomplete_arcs, 0u);
}

/// An untrained model with unit normalization: its predictions are finite,
/// which is all a bit-for-bit comparison needs.
const charlib::CellCharModel& untrained_model() {
  static const charlib::CellCharModel model = [] {
    charlib::CellCharModel m;
    m.fit_normalization({});
    return m;
  }();
  return model;
}

/// The library's query convention: toggle the first data input (the clock
/// of a sequential cell) with the other inputs low.
charlib::PinContext stimulus(const cells::CellDef& def, double slew, double load) {
  charlib::PinContext pc;
  for (const auto& pin : def.inputs) {
    pc.current_state[pin] = false;
    pc.next_state[pin] = false;
  }
  const auto data = def.data_inputs();
  pc.toggling_pin =
      def.sequential ? def.clock_pin : (data.empty() ? def.inputs[0] : data[0]);
  pc.next_state[pc.toggling_pin] = true;
  pc.input_slew = slew;
  pc.output_load = load;
  return pc;
}

/// The one batched forward gives every table entry and scalar of the GNN
/// library bit for bit as a single-graph predict() of that grid point.
TEST(GnnLibrary, OneBatchedForwardEqualsSingleGraphPredictions) {
  const auto& model = untrained_model();
  LibraryBuildOptions opts;
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  const auto tech = compact::cnt_tech();
  const auto lib = build_library_gnn(model, tech, opts);
  ASSERT_TRUE(lib.complete);
  ASSERT_EQ(lib.cells.size(), mapped_cell_set().size());

  using cells::Metric;
  const std::size_t sc = opts.slew_axis.size() / 2;
  const std::size_t lc = opts.load_axis.size() / 2;
  for (const auto& name : mapped_cell_set()) {
    SCOPED_TRACE(name);
    const auto& def = cells::find_cell(name);
    const auto& ct = lib.cell(name);
    EXPECT_EQ(ct.transistors, def.num_transistors());
    for (std::size_t si = 0; si < opts.slew_axis.size(); ++si) {
      for (std::size_t li = 0; li < opts.load_axis.size(); ++li) {
        const auto g = charlib::encode_cell(
            def, tech, opts.sizing,
            stimulus(def, opts.slew_axis[si], opts.load_axis[li]), opts.scales);
        EXPECT_EQ(bits(ct.delay(si, li)), bits(model.predict(g, Metric::kDelay)));
        EXPECT_EQ(bits(ct.out_slew(si, li)),
                  bits(model.predict(g, Metric::kOutputSlew)));
        if (si != sc || li != lc) continue;
        EXPECT_EQ(bits(ct.leakage), bits(model.predict(g, Metric::kLeakagePower)));
        EXPECT_EQ(bits(ct.flip_energy), bits(model.predict(g, Metric::kFlipPower)));
        EXPECT_EQ(bits(ct.input_cap), bits(model.predict(g, Metric::kCapacitance)));
        if (def.sequential) {
          EXPECT_EQ(bits(lib.dff_setup), bits(model.predict(g, Metric::kMinSetup)));
        }
      }
    }
  }
}

TEST(GnnLibrary, OneInferenceBatchPerLibrary) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with STCO_OBS=OFF";
  auto& batches = obs::counter("gnn.infer.batches");
  auto& graphs = obs::counter("gnn.infer.graphs");
  LibraryBuildOptions opts;
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  for (int build = 0; build < 2; ++build) {
    const auto b0 = batches.value();
    const auto g0 = graphs.value();
    (void)build_library_gnn(untrained_model(), compact::cnt_tech(), opts);
    EXPECT_EQ(batches.value() - b0, 1u);
    EXPECT_EQ(graphs.value() - g0, mapped_cell_set().size() * 4);
  }
}

}  // namespace
}  // namespace stco::flow
