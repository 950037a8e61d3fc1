// Example: the EDA-facing surface of the library — characterize a cell
// library and export it as Liberty (.lib).

#include <cstdio>

#include "src/flow/liberty_writer.hpp"

int main() {
  using namespace stco;
  const auto tech = compact::cnt_tech();

  flow::LibraryBuildOptions opts;
  opts.cell_names = {"INV", "NAND2", "NOR2", "XOR2", "DFF"};
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  printf("characterizing %zu cells via SPICE...\n", opts.cell_names.size());
  const auto lib = flow::build_library_spice(tech, opts);
  flow::write_liberty_file("/tmp/fast_stco_cnt.lib", lib);
  printf("wrote /tmp/fast_stco_cnt.lib (%zu cells, DFF setup %.1f ns)\n",
         lib.cells.size(), lib.dff_setup * 1e9);
  return 0;
}
