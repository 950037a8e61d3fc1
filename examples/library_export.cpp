// Example: the EDA-facing surfaces of the library — characterize a cell
// library, export it as Liberty (.lib), dump a benchmark netlist as
// structural Verilog, and quantify process-variation spread with Monte Carlo.

#include <cstdio>

#include "src/compact/variation.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/liberty_writer.hpp"
#include "src/flow/netlist_io.hpp"

int main() {
  using namespace stco;
  const auto tech = compact::cnt_tech();

  // 1. Characterize a compact library and write it as Liberty.
  flow::LibraryBuildOptions opts;
  opts.cell_names = {"INV", "NAND2", "NOR2", "XOR2", "DFF"};
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  printf("characterizing %zu cells via SPICE...\n", opts.cell_names.size());
  const auto lib = flow::build_library_spice(tech, opts);
  flow::write_liberty_file("/tmp/fast_stco_cnt.lib", lib);
  printf("wrote /tmp/fast_stco_cnt.lib (%zu cells, DFF setup %.1f ns)\n",
         lib.cells.size(), lib.dff_setup * 1e9);

  // 2. Export a benchmark netlist as structural Verilog.
  const auto s298 = flow::make_benchmark("s298");
  flow::write_verilog_file("/tmp/s298.v", s298);
  printf("\nwrote /tmp/s298.v\n%s", flow::netlist_stats(s298).c_str());

  // 3. Monte Carlo process variation of the on-current.
  const auto nominal = compact::make_nfet(tech, 8e-6, 2e-6);
  const auto mc = compact::on_current_spread(nominal, {}, tech.vdd, tech.vdd, 1000);
  printf("\nNFET on-current under process variation (1000 samples):\n");
  printf("  mean %.3e A, sigma/mean %.1f%%, [p5, p95] = [%.3e, %.3e] A\n", mc.mean,
         100.0 * mc.stddev / mc.mean, mc.p05, mc.p95);
  return 0;
}
