// Parameterized characterization sweep across technologies (the paper's
// closing claim: "its adaptability allows easy application to other
// technologies like IGZO and LTPS"): the full measurement pipeline must
// yield physical results for every material system without changes.

#include <gtest/gtest.h>

#include "src/cells/characterize.hpp"

namespace stco::cells {
namespace {

class TechnologySweep : public ::testing::TestWithParam<compact::TechnologyPoint> {
 protected:
  CharConfig config() const {
    CharConfig cfg;
    cfg.tech = GetParam();
    // Slow technologies (IGZO) need a longer schedule quantum.
    cfg.time_unit = 250e-9;
    cfg.dt = 4e-9;
    cfg.input_slew = 25e-9;
    return cfg;
  }
};

TEST_P(TechnologySweep, InverterCharacterizes) {
  const auto r = characterize_cell(find_cell("INV"), config());
  ASSERT_GE(r.arcs.size(), 2u);
  for (const auto& arc : r.arcs) {
    EXPECT_GT(arc.delay, 0.0);
    EXPECT_LT(arc.delay, 2e-6);
    EXPECT_GT(arc.output_slew, 0.0);
    EXPECT_GT(arc.flip_energy, 0.0);
  }
  EXPECT_GT(r.leakage_power, 0.0);
  EXPECT_GT(r.input_capacitance.at("A"), 1e-16);
}

TEST_P(TechnologySweep, Nand2DelayOrderingAcrossLoads) {
  CharConfig light = config(), heavy = config();
  light.load_cap = 20e-15;
  heavy.load_cap = 120e-15;
  const auto rl = characterize_cell(find_cell("NAND2"), light);
  const auto rh = characterize_cell(find_cell("NAND2"), heavy);
  ASSERT_FALSE(rl.arcs.empty());
  ASSERT_FALSE(rh.arcs.empty());
  EXPECT_GT(rh.worst_delay(), rl.worst_delay());
}

TEST_P(TechnologySweep, DffCapturesInEveryTechnology) {
  const auto r = characterize_cell(find_cell("DFF"), config());
  EXPECT_GE(r.arcs.size(), 1u);
  EXPECT_GT(r.min_setup, 0.0);
  EXPECT_GT(r.min_pulse_width, 0.0);
}

// gtest prints a parameter without operator<< as its raw bytes, padding
// included, and that text is part of the registered test name. Static
// storage zero-fills the padding before the presets are written into it, so
// the names are the same on every run.
const compact::TechnologyPoint kTechnologies[] = {
    compact::cnt_tech(), compact::ltps_tech(), compact::igzo_tech()};

INSTANTIATE_TEST_SUITE_P(
    Technologies, TechnologySweep, ::testing::ValuesIn(kTechnologies),
    [](const ::testing::TestParamInfo<compact::TechnologyPoint>& info) {
      return tcad::to_string(info.param.kind);
    });

}  // namespace
}  // namespace stco::cells
