#include "src/tcad/recovery.hpp"

namespace stco::tcad {

Bias bias_fraction(const Bias& b, double f) {
  Bias out;
  out.vg = b.vs + f * (b.vg - b.vs);
  out.vd = b.vs + f * (b.vd - b.vs);
  out.vs = b.vs;
  return out;
}

mesh::DeviceMesh rebias_mesh(const mesh::DeviceMesh& m, const TftDevice& dev,
                             const Bias& b) {
  mesh::DeviceMesh out = m;
  for (std::size_t i = 0; i < out.num_nodes(); ++i) {
    auto& nd = out.node(i);
    if (!nd.dirichlet) continue;
    switch (nd.region) {
      case mesh::Region::kGate: nd.dirichlet_value = b.vg - dev.semi.flatband; break;
      case mesh::Region::kSource: nd.dirichlet_value = b.vs + dev.contact_phi; break;
      case mesh::Region::kDrain: nd.dirichlet_value = b.vd + dev.contact_phi; break;
      default: break;
    }
  }
  return out;
}

}  // namespace stco::tcad
