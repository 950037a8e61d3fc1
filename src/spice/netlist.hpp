#pragma once
// Transistor-level netlist for the MNA circuit simulator.
//
// Node 0 is ground. Named nodes are created on demand; element constructors
// take node ids from `node()`. TFT devices use the unified compact model,
// with Meyer-style gate capacitances added automatically (Cgs, Cgd).

#include <string>
#include <unordered_map>
#include <vector>

#include "src/compact/tft_model.hpp"
#include "src/spice/waveform.hpp"

namespace stco::spice {

using NodeId = std::size_t;
inline constexpr NodeId kGround = 0;

struct Resistor {
  std::string name;
  NodeId n1, n2;
  double r;
};

struct Capacitor {
  std::string name;
  NodeId n1, n2;
  double c;
};

struct VSource {
  std::string name;
  NodeId pos, neg;
  Waveform wave;
};

/// Independent current source: `amps(t)` flows from `from` through the
/// source into `to` (i.e. it injects current into `to`).
struct ISource {
  std::string name;
  NodeId from, to;
  Waveform wave;
};

struct Tft {
  std::string name;
  NodeId drain, gate, source;
  compact::TftParams params;
  double c_overlap = 0.0;  ///< extra gate-source/drain overlap cap [F]
};

class Netlist {
 public:
  /// Id for a named node, creating it if new. "0" and "gnd" map to ground.
  NodeId node(const std::string& name);
  std::size_t num_nodes() const { return names_.size(); }  ///< includes ground
  const std::string& node_name(NodeId id) const { return names_.at(id); }

  void add_resistor(std::string name, NodeId n1, NodeId n2, double ohms);
  void add_capacitor(std::string name, NodeId n1, NodeId n2, double farads);
  /// Returns the source index (used to read its branch current later).
  std::size_t add_vsource(std::string name, NodeId pos, NodeId neg, Waveform w);
  void add_isource(std::string name, NodeId from, NodeId to, Waveform w);
  void add_tft(std::string name, NodeId drain, NodeId gate, NodeId source,
               const compact::TftParams& params, double c_overlap = 0.0);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<ISource>& isources() const { return isources_; }
  const std::vector<Tft>& tfts() const { return tfts_; }

 private:
  std::vector<std::string> names_{"0"};
  std::unordered_map<std::string, NodeId> by_name_{{"0", 0}, {"gnd", 0}};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VSource> vsources_;
  std::vector<ISource> isources_;
  std::vector<Tft> tfts_;
};

}  // namespace stco::spice
