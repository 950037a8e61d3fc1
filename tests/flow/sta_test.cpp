#include "src/flow/sta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/flow/benchmarks.hpp"

namespace stco::flow {
namespace {

/// One SPICE-characterized library shared by the suite (slow to build).
const TimingLibrary& spice_lib() {
  static const TimingLibrary lib = [] {
    LibraryBuildOptions opts;
    opts.slew_axis = {10e-9, 40e-9};
    opts.load_axis = {20e-15, 100e-15};
    return build_library_spice(compact::cnt_tech(), opts);
  }();
  return lib;
}

TEST(Liberty, SpiceLibraryCoversMappedCells) {
  const auto& lib = spice_lib();
  for (const auto& name : mapped_cell_set()) {
    ASSERT_TRUE(lib.has_cell(name)) << name;
    const auto& ct = lib.cell(name);
    EXPECT_GT(ct.input_cap, 0.0) << name;
    EXPECT_GT(ct.leakage, 0.0) << name;
    EXPECT_GT(ct.transistors, 0u) << name;
    for (std::size_t si = 0; si < ct.slew_axis.size(); ++si)
      for (std::size_t li = 0; li < ct.load_axis.size(); ++li)
        EXPECT_GT(ct.delay(si, li), 0.0) << name;
  }
  EXPECT_GT(lib.dff_setup, 0.0);
}

TEST(Liberty, DelayIncreasesWithLoad) {
  const auto& ct = spice_lib().cell("INV");
  EXPECT_GT(ct.delay_at(10e-9, 100e-15), ct.delay_at(10e-9, 20e-15));
}

TEST(Liberty, InterpolationWithinTableRange) {
  const auto& ct = spice_lib().cell("NAND2");
  const double mid = ct.delay_at(25e-9, 60e-15);
  EXPECT_GT(mid, ct.delay_at(10e-9, 20e-15));
  EXPECT_LT(mid, ct.delay_at(40e-9, 100e-15));
}

TEST(Liberty, UnknownCellThrows) {
  EXPECT_THROW(spice_lib().cell("NAND9"), std::invalid_argument);
}

TEST(Sta, ChainDelayAccumulates) {
  // INV chain of length 4: critical path ~ 4 inverter delays.
  GateNetlist nl("chain");
  NetId n = nl.add_primary_input();
  for (int i = 0; i < 4; ++i) n = nl.add_gate("INV", {n});
  nl.mark_primary_output(n);
  const auto rep1 = analyze(nl, spice_lib());

  GateNetlist nl2("chain8");
  NetId m = nl2.add_primary_input();
  for (int i = 0; i < 8; ++i) m = nl2.add_gate("INV", {m});
  nl2.mark_primary_output(m);
  const auto rep2 = analyze(nl2, spice_lib());
  EXPECT_NEAR(rep2.critical_path / rep1.critical_path, 2.0, 0.35);
}

TEST(Sta, ReportFieldsConsistent) {
  const auto nl = make_benchmark("s298");
  const auto rep = analyze(nl, spice_lib());
  EXPECT_GT(rep.critical_path, 0.0);
  EXPECT_GT(rep.min_period, rep.critical_path * 0.99);
  EXPECT_NEAR(rep.fmax * rep.min_period, 1.0, 1e-9);
  EXPECT_GT(rep.dynamic_power, 0.0);
  EXPECT_GT(rep.leakage_power, 0.0);
  EXPECT_NEAR(rep.total_power, rep.dynamic_power + rep.leakage_power, 1e-12);
  EXPECT_GT(rep.area, 0.0);
  EXPECT_EQ(rep.num_gates, 119u);
}

TEST(Sta, BiggerBenchmarkHasMoreAreaAndPower) {
  const auto s298 = analyze(make_benchmark("s298"), spice_lib());
  const auto s1488 = analyze(make_benchmark("s1488"), spice_lib());
  EXPECT_GT(s1488.area, 2.0 * s298.area);
  EXPECT_GT(s1488.leakage_power, 2.0 * s298.leakage_power);
}

TEST(Sta, MacCriticalPathGrowsWithWidth) {
  const auto m8 = analyze(make_mac(8), spice_lib());
  const auto m16 = analyze(make_mac(16), spice_lib());
  EXPECT_GT(m16.critical_path, 1.4 * m8.critical_path);
}

TEST(Sta, HigherVddIsFaster) {
  LibraryBuildOptions opts;
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  auto hi_tech = compact::cnt_tech();
  hi_tech.vdd *= 1.3;
  const auto lib_hi = build_library_spice(hi_tech, opts);
  const auto nl = make_benchmark("s386");
  const auto lo = analyze(nl, spice_lib());
  const auto hi = analyze(nl, lib_hi);
  EXPECT_LT(hi.critical_path, lo.critical_path);
}

TEST(Sta, CellAreaScalesWithTransistors) {
  const auto& inv = spice_lib().cell("INV");
  const auto& nand4 = spice_lib().cell("NAND4");
  EXPECT_NEAR(cell_area(nand4, compact::cnt_tech()) / cell_area(inv, compact::cnt_tech()),
              4.0, 1e-9);
}

/// Name-based analysis (three library lookups per gate, the legality check
/// per call): the reference the compiled plan must match bit for bit.
StaReport reference_analyze(const GateNetlist& nl, const TimingLibrary& lib,
                            const StaOptions& opts) {
  nl.check();
  StaReport rep;
  rep.num_gates = nl.num_gates();
  rep.num_ffs = nl.num_flipflops();

  const std::size_t n = nl.num_nets();
  numeric::Vec arrival(n, 0.0), slew(n, kPrimaryInputSlew);
  numeric::Vec load(n, 0.0);

  std::vector<std::size_t> fanout(n, 0);
  for (const auto& g : nl.gates()) {
    const auto& ct = lib.cell(g.cell);
    for (NetId in : g.fanin) {
      load[in] += ct.input_cap;
      ++fanout[in];
    }
  }
  for (const auto& ff : nl.flipflops()) {
    load[ff.d] += lib.cell("DFF").input_cap;
    ++fanout[ff.d];
  }
  for (NetId po : nl.primary_outputs()) load[po] += kPrimaryOutputLoad;
  for (std::size_t i = 0; i < n; ++i)
    load[i] += kWireCapPerFanout * static_cast<double>(fanout[i]);

  for (NetId pi : nl.primary_inputs()) {
    arrival[pi] = 0.0;
    slew[pi] = kPrimaryInputSlew;
  }
  for (const auto& ff : nl.flipflops()) {
    const auto& dff = lib.cell("DFF");
    arrival[ff.q] = dff.delay(dff.slew_axis.size() / 2, dff.load_axis.size() / 2);
    slew[ff.q] = kPrimaryInputSlew;
  }

  for (const auto& g : nl.gates()) {
    const auto& ct = lib.cell(g.cell);
    double worst_arr = 0.0, worst_slew = kPrimaryInputSlew;
    for (NetId in : g.fanin) {
      if (arrival[in] >= worst_arr) {
        worst_arr = arrival[in];
        worst_slew = slew[in];
      }
    }
    arrival[g.out] = worst_arr + ct.delay_at(worst_slew, load[g.out]);
    slew[g.out] = ct.slew_at(worst_slew, load[g.out]);
  }

  double crit = 0.0;
  for (const auto& ff : nl.flipflops())
    crit = std::max(crit, arrival[ff.d] + lib.dff_setup);
  for (NetId po : nl.primary_outputs()) crit = std::max(crit, arrival[po]);
  rep.critical_path = crit;
  rep.min_period = crit * kClockMargin;
  rep.fmax = rep.min_period > 0 ? 1.0 / rep.min_period : 0.0;

  double dyn_energy_per_cycle = 0.0, leak = 0.0, area = 0.0;
  for (const auto& g : nl.gates()) {
    const auto& ct = lib.cell(g.cell);
    dyn_energy_per_cycle += opts.activity * ct.flip_energy;
    leak += ct.leakage;
    area += cell_area(ct, lib.tech);
  }
  for (std::size_t k = 0; k < nl.num_flipflops(); ++k) {
    const auto& dff = lib.cell("DFF");
    dyn_energy_per_cycle += opts.activity * dff.flip_energy;
    leak += dff.leakage;
    area += cell_area(dff, lib.tech);
  }
  rep.dynamic_power = dyn_energy_per_cycle * rep.fmax;
  rep.leakage_power = leak;
  rep.total_power = rep.dynamic_power + rep.leakage_power;
  rep.area = area;
  rep.arrival = std::move(arrival);
  return rep;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_report(const StaReport& a, const StaReport& b) {
  EXPECT_EQ(bits(a.critical_path), bits(b.critical_path));
  EXPECT_EQ(bits(a.min_period), bits(b.min_period));
  EXPECT_EQ(bits(a.fmax), bits(b.fmax));
  EXPECT_EQ(bits(a.dynamic_power), bits(b.dynamic_power));
  EXPECT_EQ(bits(a.leakage_power), bits(b.leakage_power));
  EXPECT_EQ(bits(a.total_power), bits(b.total_power));
  EXPECT_EQ(bits(a.area), bits(b.area));
  EXPECT_EQ(a.num_gates, b.num_gates);
  EXPECT_EQ(a.num_ffs, b.num_ffs);
  EXPECT_EQ(a.infeasible, b.infeasible);
  ASSERT_EQ(a.arrival.size(), b.arrival.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.arrival.size(); ++i)
    differing += bits(a.arrival[i]) != bits(b.arrival[i]);
  EXPECT_EQ(differing, 0u);
}

/// One plan per benchmark, reused across libraries and activities, gives
/// the reference report bit for bit — NaN propagation included.
TEST(StaPlan, MatchesNameBasedAnalysisBitForBit) {
  TimingLibrary nan_lib = spice_lib();
  for (auto& [name, ct] : nan_lib.cells)
    ct.flip_energy = std::numeric_limits<double>::quiet_NaN();
  for (const auto& name : table1_benchmarks()) {
    SCOPED_TRACE(name);
    const GateNetlist nl = make_benchmark(name);
    const StaPlan plan(nl);
    const TimingLibrary* libs[] = {&spice_lib(), &nan_lib};
    for (const TimingLibrary* lib : libs) {
      for (const double activity : {0.15, 0.3}) {
        SCOPED_TRACE(activity);
        StaOptions opts;
        opts.activity = activity;
        const StaReport ref = reference_analyze(nl, *lib, opts);
        expect_same_report(analyze(nl, plan, *lib, opts), ref);
        if (lib == &nan_lib) {
          EXPECT_TRUE(std::isnan(ref.total_power));
        }
      }
    }
    expect_same_report(analyze(nl, spice_lib()),
                       reference_analyze(nl, spice_lib(), StaOptions{}));
  }
}

TEST(StaPlan, ResolvesEachDistinctCellOnce) {
  const GateNetlist nl = make_benchmark("s298");
  const StaPlan plan(nl);
  ASSERT_EQ(plan.gate_cells().size(), nl.num_gates());
  ASSERT_EQ(plan.fanout().size(), nl.num_nets());
  const auto hist = nl.cell_histogram();
  EXPECT_EQ(plan.cell_names().size(), hist.size());
  for (std::size_t k = 0; k < nl.num_gates(); ++k)
    EXPECT_EQ(plan.cell_names()[plan.gate_cells()[k]], nl.gates()[k].cell);
}

/// A gate cell or, for a netlist with flip-flops, the DFF cell.
TEST(StaPlan, MissingLibraryCellThrows) {
  const GateNetlist nl = make_benchmark("s298");
  ASSERT_GT(nl.num_flipflops(), 0u);
  const StaPlan plan(nl);
  for (const char* missing : {"NAND2", "DFF"}) {
    SCOPED_TRACE(missing);
    TimingLibrary lib = spice_lib();
    ASSERT_EQ(lib.cells.erase(missing), 1u);
    EXPECT_THROW(analyze(nl, plan, lib), std::invalid_argument);
    EXPECT_THROW(analyze(nl, lib), std::invalid_argument);
  }
}

TEST(StaPlan, NegativeOrNanActivityThrows) {
  const GateNetlist nl = make_benchmark("s298");
  const StaPlan plan(nl);
  for (const double activity : {-0.1, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(activity);
    StaOptions opts;
    opts.activity = activity;
    EXPECT_THROW(analyze(nl, plan, spice_lib(), opts), std::invalid_argument);
  }
  StaOptions zero;
  zero.activity = 0.0;
  EXPECT_EQ(analyze(nl, plan, spice_lib(), zero).dynamic_power, 0.0);
}

TEST(StaPlan, IllegalNetlistThrowsAtCompile) {
  GateNetlist nl("undriven");
  const NetId a = nl.add_primary_input();
  nl.add_gate("INV", {a});
  nl.mark_primary_output(nl.new_net());  // never driven
  EXPECT_THROW(StaPlan{nl}, std::invalid_argument);
  EXPECT_THROW(analyze(nl, spice_lib()), std::invalid_argument);
}

TEST(StaPlan, PlanOfAnotherNetlistThrows) {
  const GateNetlist s298 = make_benchmark("s298");
  const GateNetlist s386 = make_benchmark("s386");
  const StaPlan plan(s298);
  EXPECT_THROW(analyze(s386, plan, spice_lib()), std::invalid_argument);
}

}  // namespace
}  // namespace stco::flow
