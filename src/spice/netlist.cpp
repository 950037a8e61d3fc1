#include "src/spice/netlist.hpp"

#include <stdexcept>

namespace stco::spice {

NodeId Netlist::node(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const NodeId id = names_.size();
  names_.push_back(name);
  by_name_.emplace(name, id);
  return id;
}

void Netlist::add_resistor(std::string name, NodeId n1, NodeId n2, double ohms) {
  if (ohms <= 0.0) throw std::invalid_argument("add_resistor: nonpositive resistance");
  if (n1 >= num_nodes() || n2 >= num_nodes())
    throw std::out_of_range("add_resistor: node id");
  resistors_.push_back({std::move(name), n1, n2, ohms});
}

void Netlist::add_capacitor(std::string name, NodeId n1, NodeId n2, double farads) {
  if (farads < 0.0) throw std::invalid_argument("add_capacitor: negative capacitance");
  if (n1 >= num_nodes() || n2 >= num_nodes())
    throw std::out_of_range("add_capacitor: node id");
  capacitors_.push_back({std::move(name), n1, n2, farads});
}

std::size_t Netlist::add_vsource(std::string name, NodeId pos, NodeId neg, Waveform w) {
  if (pos >= num_nodes() || neg >= num_nodes())
    throw std::out_of_range("add_vsource: node id");
  vsources_.push_back({std::move(name), pos, neg, std::move(w)});
  return vsources_.size() - 1;
}

void Netlist::add_isource(std::string name, NodeId from, NodeId to, Waveform w) {
  if (from >= num_nodes() || to >= num_nodes())
    throw std::out_of_range("add_isource: node id");
  isources_.push_back({std::move(name), from, to, std::move(w)});
}

void Netlist::add_tft(std::string name, NodeId drain, NodeId gate, NodeId source,
                      const compact::TftParams& params, double c_overlap) {
  if (drain >= num_nodes() || gate >= num_nodes() || source >= num_nodes())
    throw std::out_of_range("add_tft: node id");
  tfts_.push_back({std::move(name), drain, gate, source, params, c_overlap});
}

}  // namespace stco::spice
