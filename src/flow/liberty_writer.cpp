#include "src/flow/liberty_writer.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/cells/library.hpp"
#include "src/flow/sta.hpp"
#include "src/persist/storage.hpp"

namespace stco::flow {

namespace {

constexpr double kToNs = 1e9;
constexpr double kToPf = 1e12;
constexpr double kToNw = 1e9;
constexpr double kToPj = 1e12;

void write_axis(std::ostream& os, const char* name, const numeric::Vec& axis,
                double scale) {
  os << "        " << name << " (\"";
  for (std::size_t i = 0; i < axis.size(); ++i)
    os << (i ? ", " : "") << axis[i] * scale;
  os << "\");\n";
}

void write_table(std::ostream& os, const char* group, const numeric::Matrix& t,
                 double scale) {
  os << "      " << group << " (nldm_template) {\n        values ( \\\n";
  for (std::size_t r = 0; r < t.rows(); ++r) {
    os << "          \"";
    for (std::size_t c = 0; c < t.cols(); ++c) os << (c ? ", " : "") << t(r, c) * scale;
    os << "\"" << (r + 1 < t.rows() ? ", \\" : " \\") << "\n";
  }
  os << "        );\n      }\n";
}

}  // namespace

void write_liberty(std::ostream& os, const TimingLibrary& lib) {
  os << "library (fast_stco_lib) {\n";
  os << "  /* generated by fast-stco; technology "
     << tcad::to_string(lib.tech.kind) << ", VDD " << lib.tech.vdd << " V, Vth "
     << lib.tech.vth << " V, Cox " << lib.tech.cox << " F/m^2 */\n";
  os << "  time_unit : \"1ns\";\n";
  os << "  capacitive_load_unit (1, pf);\n";
  os << "  voltage_unit : \"1V\";\n";
  os << "  leakage_power_unit : \"1nW\";\n";
  os << "  nom_voltage : " << lib.tech.vdd << ";\n";

  // One shared table template (all cells share axes in this library).
  if (!lib.cells.empty()) {
    const auto& first = lib.cells.begin()->second;
    os << "  lu_table_template (nldm_template) {\n";
    os << "    variable_1 : input_net_transition;\n";
    os << "    variable_2 : total_output_net_capacitance;\n";
    write_axis(os, "index_1", first.slew_axis, kToNs);
    write_axis(os, "index_2", first.load_axis, kToPf);
    os << "  }\n";
  }

  for (const auto& [name, ct] : lib.cells) {
    const auto& def = cells::find_cell(name);
    os << "  cell (" << name << ") {\n";
    os << "    area : " << cell_area(ct, lib.tech) * 1e12 << "; /* um^2 */\n";
    os << "    cell_leakage_power : " << ct.leakage * kToNw << ";\n";
    for (const auto& pin : def.inputs) {
      os << "    pin (" << pin << ") {\n      direction : input;\n";
      os << "      capacitance : " << ct.input_cap * kToPf << ";\n";
      if (def.sequential && pin == def.clock_pin) os << "      clock : true;\n";
      os << "    }\n";
    }
    os << "    pin (" << def.output << ") {\n      direction : output;\n";
    os << "      timing () {\n";
    os << "        related_pin : \"" << def.inputs.front() << "\";\n";
    write_table(os, "cell_rise", ct.delay, kToNs);
    write_table(os, "rise_transition", ct.out_slew, kToNs);
    os << "      }\n";
    os << "      internal_power () {\n        /* pJ per transition */\n";
    os << "        rise_power_value : " << ct.flip_energy * kToPj << ";\n";
    os << "      }\n";
    os << "    }\n";
    if (def.sequential) {
      os << "    ff (IQ) {\n      clocked_on : \"" << def.clock_pin
         << "\";\n      next_state : \"D\";\n    }\n";
      os << "    setup_time : " << lib.dff_setup * kToNs
         << "; /* ns, extension attribute */\n";
    }
    os << "  }\n";
  }
  os << "}\n";
}

std::string liberty_text(const TimingLibrary& lib) {
  std::ostringstream ss;
  write_liberty(ss, lib);
  return ss.str();
}

void write_liberty_file(const std::string& path, const TimingLibrary& lib) {
  persist::default_storage().write_atomic(path, liberty_text(lib));
}

}  // namespace stco::flow
