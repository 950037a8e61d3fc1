#include "src/cells/characterize.hpp"

#include <gtest/gtest.h>

#include "src/obs/obs.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/measure.hpp"

namespace stco::cells {
namespace {

CharConfig fast_config() {
  CharConfig cfg;
  cfg.tech = compact::cnt_tech();
  cfg.input_slew = 20e-9;
  cfg.load_cap = 40e-15;
  cfg.time_unit = 150e-9;
  cfg.dt = 3e-9;
  return cfg;
}

/// Characterizations are slow(ish); cache per cell across tests.
const CellCharacterization& charred(const std::string& name) {
  static std::map<std::string, CellCharacterization> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, characterize_cell(find_cell(name), fast_config())).first;
  return it->second;
}

TEST(Builder, InverterNetlistShape) {
  spice::Netlist nl;
  const auto built = build_cell(nl, find_cell("INV"), compact::cnt_tech());
  EXPECT_EQ(built.num_transistors, 2u);
  EXPECT_EQ(nl.tfts().size(), 2u);
  EXPECT_TRUE(built.pins.count("A"));
  EXPECT_TRUE(built.pins.count("Y"));
  // One N (source at ground) and one P (source at vdd).
  bool has_n = false, has_p = false;
  for (const auto& t : nl.tfts()) {
    if (t.params.type == compact::TftType::kNType && t.source == spice::kGround)
      has_n = true;
    if (t.params.type == compact::TftType::kPType && t.source == built.vdd) has_p = true;
  }
  EXPECT_TRUE(has_n);
  EXPECT_TRUE(has_p);
}

TEST(Builder, Nand3StacksThreeNfets) {
  spice::Netlist nl;
  const auto built = build_cell(nl, find_cell("NAND3"), compact::cnt_tech());
  EXPECT_EQ(built.num_transistors, 6u);
  std::size_t nfets = 0, pfets = 0;
  for (const auto& t : nl.tfts())
    (t.params.type == compact::TftType::kNType ? nfets : pfets)++;
  EXPECT_EQ(nfets, 3u);
  EXPECT_EQ(pfets, 3u);
}

TEST(Builder, DriveVariantScalesWidth) {
  spice::Netlist nl1, nl4;
  build_cell(nl1, find_cell("INV"), compact::cnt_tech());
  build_cell(nl4, find_cell("INVX4"), compact::cnt_tech());
  EXPECT_NEAR(nl4.tfts()[0].params.width / nl1.tfts()[0].params.width, 4.0, 1e-12);
}

TEST(Builder, PrefixIsolatesInstances) {
  spice::Netlist nl;
  const auto a = build_cell(nl, find_cell("INV"), compact::cnt_tech(), {}, "u1_");
  const auto b = build_cell(nl, find_cell("INV"), compact::cnt_tech(), {}, "u2_");
  EXPECT_NE(a.pins.at("A"), b.pins.at("A"));
  EXPECT_EQ(a.vdd, b.vdd);  // shared supply
}

TEST(Characterize, InverterBasics) {
  const auto& r = charred("INV");
  ASSERT_GE(r.arcs.size(), 2u);
  for (const auto& arc : r.arcs) {
    EXPECT_GT(arc.delay, 0.0);
    EXPECT_LT(arc.delay, 500e-9);
    EXPECT_GT(arc.output_slew, 0.0);
    EXPECT_EQ(arc.output_rising, !arc.input_rising);  // inverting
    EXPECT_GT(arc.flip_energy, 0.0);
  }
  EXPECT_GT(r.leakage_power, 0.0);
  EXPECT_GT(r.input_capacitance.at("A"), 1e-16);
  EXPECT_LT(r.input_capacitance.at("A"), 1e-12);
  EXPECT_TRUE(r.nonflip.empty());  // every inverter input toggle flips Y
  EXPECT_DOUBLE_EQ(r.min_setup, 0.0);
}

TEST(Characterize, Nand2HasNonFlipArcs) {
  const auto& r = charred("NAND2");
  EXPECT_GE(r.arcs.size(), 4u);     // A rise/fall + B rise/fall
  EXPECT_GE(r.nonflip.size(), 4u);  // other input low -> output pinned high
  for (const auto& nf : r.nonflip) EXPECT_GE(nf.energy, 0.0);
  // Non-flip power must be below flip power on average (paper notes dynamic
  // power spans orders of magnitude; internal-only switching is cheaper).
  EXPECT_LT(r.nonflip.front().energy, r.mean_flip_energy());
}

TEST(Characterize, BiggerLoadMeansLongerDelay) {
  CharConfig small = fast_config(), big = fast_config();
  big.load_cap = 4.0 * small.load_cap;
  const auto rs = characterize_cell(find_cell("INV"), small);
  const auto rb = characterize_cell(find_cell("INV"), big);
  EXPECT_GT(rb.worst_delay(), rs.worst_delay());
}

TEST(Characterize, HigherDriveIsFaster) {
  const auto& x1 = charred("INV");
  const auto& x4 = charred("INVX4");
  EXPECT_LT(x4.worst_delay(), x1.worst_delay());
  // And burns more input cap on the driver before it.
  EXPECT_GT(x4.input_capacitance.at("A"), x1.input_capacitance.at("A"));
}

TEST(Characterize, VddAffectsLeakageAndDelay) {
  CharConfig hi = fast_config();
  hi.tech.vdd *= 1.4;
  const auto r_hi = characterize_cell(find_cell("NAND2"), hi);
  const auto& r_lo = charred("NAND2");
  EXPECT_LT(r_hi.worst_delay(), r_lo.worst_delay());  // more drive
}

TEST(Characterize, DffCapturesAndHasConstraints) {
  const auto& r = charred("DFF");
  ASSERT_GE(r.arcs.size(), 1u);  // at least one clk->Q arc captured
  for (const auto& arc : r.arcs) {
    EXPECT_EQ(arc.input_pin, "CK");
    EXPECT_GT(arc.delay, 0.0);
  }
  EXPECT_GT(r.min_setup, 0.0);
  EXPECT_GT(r.min_pulse_width, 0.0);
  EXPECT_GT(r.min_hold, 0.0);
  EXPECT_LT(r.min_setup, 400e-9);
  EXPECT_GT(r.input_capacitance.at("D"), 0.0);
  EXPECT_GT(r.input_capacitance.at("CK"), 0.0);
  ASSERT_EQ(r.nonflip.size(), 1u);
  EXPECT_GT(r.nonflip[0].energy, 0.0);  // master churns while Q holds
}

TEST(Characterize, LatchIsTransparentDToQ) {
  const auto& r = charred("DLATCH");
  ASSERT_GE(r.arcs.size(), 1u);
  for (const auto& arc : r.arcs) EXPECT_EQ(arc.input_pin, "D");
  EXPECT_GT(r.min_setup, 0.0);
}

TEST(Characterize, MetricNamesComplete) {
  EXPECT_STREQ(to_string(Metric::kDelay), "delay");
  EXPECT_STREQ(to_string(Metric::kMinHold), "min_hold");
  EXPECT_STREQ(to_string(Metric::kNonFlipPower), "non_flip_power");
}

TEST(MetricSet, DefaultIsEmptyAndAllHoldsEveryMetric) {
  const MetricSet none;
  const MetricSet all = MetricSet::all();
  const MetricSet timing{Metric::kDelay, Metric::kOutputSlew};
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const auto m = static_cast<Metric>(i);
    EXPECT_FALSE(none.has(m)) << to_string(m);
    EXPECT_TRUE(all.has(m)) << to_string(m);
    EXPECT_EQ(timing.has(m), m == Metric::kDelay || m == Metric::kOutputSlew)
        << to_string(m);
  }
  EXPECT_TRUE(timing.any({Metric::kLeakagePower, Metric::kOutputSlew}));
  EXPECT_FALSE(timing.any({Metric::kLeakagePower, Metric::kMinSetup}));
}

TEST(CharacterizeScope, DelaySlewRequestKeepsArcsAndRunsFewerSims) {
  // The full run is repeated here (not taken from the cache) so both runs'
  // transient counts are measured.
  const auto& def = find_cell("NAND2");
  auto& runs = obs::counter("spice.transient.runs");
  const auto r0 = runs.value();
  const auto full = characterize_cell(def, fast_config());
  const auto r1 = runs.value();
  const auto timing = characterize_cell(def, fast_config(), exec::Context::serial(),
                                        {Metric::kDelay, Metric::kOutputSlew});
  const auto r2 = runs.value();

  ASSERT_EQ(timing.arcs.size(), full.arcs.size());
  for (std::size_t i = 0; i < full.arcs.size(); ++i) {
    const auto& a = timing.arcs[i];
    const auto& b = full.arcs[i];
    EXPECT_EQ(a.input_pin, b.input_pin);
    EXPECT_EQ(a.input_rising, b.input_rising);
    EXPECT_EQ(a.output_rising, b.output_rising);
    EXPECT_EQ(a.side_inputs, b.side_inputs);
    EXPECT_EQ(a.delay, b.delay);
    EXPECT_EQ(a.output_slew, b.output_slew);
    EXPECT_EQ(a.flip_energy, 0.0);
  }
  EXPECT_EQ(timing.leakage_power, 0.0);
  EXPECT_TRUE(timing.input_capacitance.empty());
  EXPECT_TRUE(timing.nonflip.empty());
  EXPECT_EQ(timing.min_setup, 0.0);
  EXPECT_EQ(timing.failed_sims, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(r2 - r1, 0u);
    EXPECT_LT(r2 - r1, r1 - r0);
  }
}

TEST(CharacterizeScope, DffSetupRequestMatchesFullRun) {
  const auto& full = charred("DFF");
  const auto setup = characterize_cell(find_cell("DFF"), fast_config(),
                                       exec::Context::serial(), {Metric::kMinSetup});
  EXPECT_GT(setup.min_setup, 0.0);
  EXPECT_EQ(setup.min_setup, full.min_setup);
  EXPECT_EQ(setup.min_hold, 0.0);
  EXPECT_EQ(setup.min_pulse_width, 0.0);
  EXPECT_EQ(setup.leakage_power, 0.0);
  EXPECT_TRUE(setup.arcs.empty());
  EXPECT_TRUE(setup.nonflip.empty());
  EXPECT_TRUE(setup.input_capacitance.empty());
}

TEST(CharacterizeScope, ProgressCountsOnlyTasksThatRun) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with STCO_OBS=OFF";
  auto& prog = obs::progress("cells.characterize.sims");
  const auto done0 = prog.done();
  const auto total0 = prog.total();
  const auto& serial = exec::Context::serial();
  // A combinational cell has no setup time: nothing runs.
  (void)characterize_cell(find_cell("INV"), fast_config(), serial, {Metric::kMinSetup});
  EXPECT_EQ(prog.total(), total0);
  // One task per input pin, then one per setup bisection (both values).
  (void)characterize_cell(find_cell("NAND2"), fast_config(), serial,
                          {Metric::kDelay, Metric::kOutputSlew});
  (void)characterize_cell(find_cell("DFF"), fast_config(), serial, {Metric::kMinSetup});
  EXPECT_EQ(prog.total() - total0, 4u);
  EXPECT_EQ(prog.done() - done0, prog.total() - total0);
}

TEST(CharacterizeScope, EachStaticStateIsSolvedOnce) {
  // Leakage, flip and non-flip energy all read the powers of the 2^k input
  // states; a full characterization solves each of them exactly once.
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with STCO_OBS=OFF";
  const auto& def = find_cell("NAND2");
  auto& solves = obs::counter("spice.dc.solves");
  const auto s0 = solves.value();
  const auto r = characterize_cell(def, fast_config());
  EXPECT_EQ(solves.value() - s0, 1u << def.inputs.size());
  EXPECT_GE(r.arcs.size(), 4u);
  EXPECT_GE(r.nonflip.size(), 4u);
  EXPECT_GT(r.leakage_power, 0.0);
}

TEST(CharacterizeScope, ArcsThatMissTheWindowAreCounted) {
  // At this low-drive corner XOR2's output cannot swing a 150 fF load
  // before the input's return edge: every arc's simulation converges, yet
  // none yields a measurable transition.
  CharConfig cfg;
  cfg.tech = compact::cnt_tech();
  cfg.tech.vdd = 2.6;
  cfg.tech.vth = 0.65;
  cfg.tech.cox = 1e-4;
  cfg.input_slew = 20e-9;
  cfg.load_cap = 150e-15;
  cfg.dt = 3e-9;
  const auto r = characterize_cell(find_cell("XOR2"), cfg, exec::Context::serial(),
                                   {Metric::kDelay, Metric::kOutputSlew});
  EXPECT_TRUE(r.arcs.empty());
  EXPECT_EQ(r.failed_sims, 0u);
  EXPECT_EQ(r.incomplete_arcs, 4u);  // two pins, both edges
}

}  // namespace
}  // namespace stco::cells
