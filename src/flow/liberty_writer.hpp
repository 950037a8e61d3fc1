#pragma once
// Liberty (.lib) text export for a TimingLibrary — the interchange format
// downstream synthesis/STA tools consume. Emits library-level units, one
// cell group per entry with leakage, pin capacitance, NLDM delay and
// output-slew tables (lu_table_template), and internal (flip) power.

#include <iosfwd>
#include <string>

#include "src/flow/liberty.hpp"

namespace stco::flow {

/// Serialize the library as Liberty text, as library `fast_stco_lib`. Time
/// values are written in ns, capacitance in pF, power in nW and energy in pJ
/// (Liberty conventions).
void write_liberty(std::ostream& os, const TimingLibrary& lib);

/// Convenience: to a string.
std::string liberty_text(const TimingLibrary& lib);

/// Convenience: to a file; throws on I/O failure.
void write_liberty_file(const std::string& path, const TimingLibrary& lib);

}  // namespace stco::flow
