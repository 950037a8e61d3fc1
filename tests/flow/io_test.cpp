#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/flow/benchmarks.hpp"
#include "src/flow/liberty_writer.hpp"
#include "src/flow/netlist_io.hpp"

namespace stco::flow {
namespace {

const TimingLibrary& tiny_lib() {
  static const TimingLibrary lib = [] {
    LibraryBuildOptions opts;
    opts.cell_names = {"INV", "NAND2", "DFF"};
    opts.slew_axis = {10e-9, 40e-9};
    opts.load_axis = {20e-15, 100e-15};
    return build_library_spice(compact::cnt_tech(), opts);
  }();
  return lib;
}

TEST(LibertyWriter, ContainsRequiredGroups) {
  const std::string text = liberty_text(tiny_lib());
  EXPECT_NE(text.find("library (fast_stco_lib)"), std::string::npos);
  EXPECT_NE(text.find("lu_table_template (nldm_template)"), std::string::npos);
  EXPECT_NE(text.find("cell (INV)"), std::string::npos);
  EXPECT_NE(text.find("cell (NAND2)"), std::string::npos);
  EXPECT_NE(text.find("cell (DFF)"), std::string::npos);
  EXPECT_NE(text.find("clocked_on : \"CK\""), std::string::npos);
  EXPECT_NE(text.find("clock : true"), std::string::npos);
  EXPECT_NE(text.find("cell_rise"), std::string::npos);
  EXPECT_NE(text.find("rise_transition"), std::string::npos);
}

TEST(LibertyWriter, UnitsConverted) {
  // The INV delay values (tens of ns in SI) must appear in ns units —
  // numbers of order 10-1000, not 1e-8.
  const std::string text = liberty_text(tiny_lib());
  EXPECT_EQ(text.find("e-08"), std::string::npos);
  EXPECT_EQ(text.find("e-15"), std::string::npos);
}

/// `v` formatted as the writer streams it: default precision.
std::string fmt(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

/// Concatenation by append; `"literal" + std::string&&` trips GCC 12's
/// -Wrestrict false positive.
template <class... Parts>
std::string cat(const Parts&... parts) {
  std::string s;
  (s += ... += parts);
  return s;
}

TEST(LibertyWriter, EmitsCellValuesInLibertyUnits) {
  const auto& lib = tiny_lib();
  const std::string text = liberty_text(lib);
  // The NAND2 group runs from its header to the next cell's.
  const auto begin = text.find("cell (NAND2)");
  ASSERT_NE(begin, std::string::npos);
  const std::string cell = text.substr(begin, text.find("  cell (", begin + 1) - begin);
  const auto& ct = lib.cell("NAND2");
  // Table values in ns, one quoted row per input slew.
  auto table = [](const char* group, const numeric::Matrix& t) {
    std::string s = cat("      ", group, " (nldm_template) {\n        values ( \\\n");
    for (std::size_t r = 0; r < t.rows(); ++r) {
      s += "          \"";
      for (std::size_t c = 0; c < t.cols(); ++c) s += cat(c ? ", " : "", fmt(t(r, c) * 1e9));
      s += r + 1 < t.rows() ? "\", \\\n" : "\" \\\n";
    }
    return s;
  };
  auto has = [](const std::string& haystack, const std::string& needle) {
    return haystack.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(has(text, cat("index_1 (\"", fmt(ct.slew_axis[0] * 1e9), ", ",
                            fmt(ct.slew_axis[1] * 1e9), "\");")));
  EXPECT_TRUE(has(text, cat("index_2 (\"", fmt(ct.load_axis[0] * 1e12), ", ",
                            fmt(ct.load_axis[1] * 1e12), "\");")));
  EXPECT_TRUE(has(cell, cat("cell_leakage_power : ", fmt(ct.leakage * 1e9), ";")));
  EXPECT_TRUE(has(cell, cat("capacitance : ", fmt(ct.input_cap * 1e12), ";")));
  EXPECT_TRUE(has(cell, table("cell_rise", ct.delay)));
  EXPECT_TRUE(has(cell, table("rise_transition", ct.out_slew)));
  EXPECT_TRUE(has(cell, cat("rise_power_value : ", fmt(ct.flip_energy * 1e12), ";")));
  EXPECT_TRUE(has(cell, cat("non_flip_power_value : ", fmt(ct.nonflip_energy * 1e12), ";")));
  EXPECT_TRUE(has(text, cat("setup_time : ", fmt(lib.dff_setup * 1e9), ";")));
  // Nonzero values, so a dropped scale factor cannot pass as 0 == 0.
  EXPECT_GT(ct.leakage, 0.0);
  EXPECT_GT(ct.input_cap, 0.0);
  EXPECT_GT(ct.flip_energy, 0.0);
  EXPECT_GT(ct.nonflip_energy, 0.0);
  EXPECT_GT(lib.dff_setup, 0.0);
}

TEST(LibertyWriter, FileRoundTrip) {
  const std::string path = "/tmp/stco_test_lib.lib";
  write_liberty_file(path, tiny_lib());
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string first;
  std::getline(f, first);
  EXPECT_NE(first.find("library"), std::string::npos);
  EXPECT_THROW(write_liberty_file("/nonexistent_dir/x.lib", tiny_lib()),
               std::runtime_error);
}

TEST(VerilogWriter, StructureAndInstances) {
  GateNetlist nl("demo");
  const NetId a = nl.add_primary_input();
  const NetId b = nl.add_primary_input();
  const NetId y = nl.add_gate("NAND2", {a, b});
  const NetId q = nl.add_flipflop(y);
  nl.mark_primary_output(q);
  const std::string v = verilog_text(nl);
  EXPECT_NE(v.find("module demo (clk, pi0, pi1, po0);"), std::string::npos);
  EXPECT_NE(v.find("NAND2 u0 (.Y(net2), .A(net0), .B(net1));"), std::string::npos);
  EXPECT_NE(v.find("DFF u1 (.Q(net3), .D(net2), .CK(clk));"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(VerilogWriter, AllBenchmarksSerialize) {
  for (const auto& name : {"s298", "16bit MAC"}) {
    const auto nl = make_benchmark(name);
    const std::string v = verilog_text(nl);
    EXPECT_GT(v.size(), 1000u) << name;
    // One instance line per gate + FF.
    std::size_t instances = 0;
    for (std::size_t pos = 0; (pos = v.find("\n  ", pos)) != std::string::npos; ++pos)
      if (v.compare(pos + 3, 4, "wire") != 0 && v.compare(pos + 3, 5, "input") != 0 &&
          v.compare(pos + 3, 6, "output") != 0 && v.compare(pos + 3, 6, "assign") != 0)
        ++instances;
    EXPECT_EQ(instances, nl.num_gates() + nl.num_flipflops()) << name;
  }
}

TEST(NetlistStats, DepthAndHistogram) {
  GateNetlist nl("chain");
  NetId n = nl.add_primary_input();
  for (int i = 0; i < 5; ++i) n = nl.add_gate("INV", {n});
  nl.mark_primary_output(n);
  EXPECT_EQ(logic_depth(nl), 5u);
  const std::string s = netlist_stats(nl);
  EXPECT_NE(s.find("5 gates"), std::string::npos);
  EXPECT_NE(s.find("INV: 5"), std::string::npos);
  EXPECT_NE(s.find("depth 5"), std::string::npos);
}

TEST(NetlistStats, MacDepthScalesWithWidth) {
  EXPECT_GT(logic_depth(make_mac(16)), logic_depth(make_mac(8)));
}

}  // namespace
}  // namespace stco::flow
