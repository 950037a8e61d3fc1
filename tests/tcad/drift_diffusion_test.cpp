#include "src/tcad/drift_diffusion.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/tcad/transport.hpp"

namespace stco::tcad {
namespace {

TftDevice device() {
  TftDevice dev;
  dev.semi = igzo_params();
  return dev;
}

/// Coarse-mesh options keep each solve ~100 ms in the test suite.
DriftDiffusionSolution solve(const TftDevice& dev, const Bias& b) {
  return solve_drift_diffusion(dev, b, 20, 6, 4);
}

TEST(Bernoulli, ValuesAndSymmetry) {
  EXPECT_NEAR(bernoulli(0.0), 1.0, 1e-12);
  EXPECT_NEAR(bernoulli(1e-6), 1.0 - 5e-7, 1e-9);
  // Identity: B(-x) = B(x) + x.
  for (double x : {0.5, 2.0, 10.0, 50.0})
    EXPECT_NEAR(bernoulli(-x), bernoulli(x) + x, 1e-9 * (1 + x));
  EXPECT_NEAR(bernoulli(40.0), 40.0 * std::exp(-40.0), 1e-18);
}

TEST(DriftDiffusion, ConvergesAndConservesCurrent) {
  const auto dd = solve(device(), Bias{3.0, 1.0, 0.0});
  EXPECT_TRUE(dd.converged);
  // Kirchhoff: source and drain terminal currents balance.
  EXPECT_NEAR(dd.source_current + dd.drain_current, 0.0,
              1e-4 * std::fabs(dd.drain_current) + 1e-15);
}

TEST(DriftDiffusion, EquilibriumCarriesNoCurrent) {
  const auto dd = solve(device(), Bias{0.0, 0.0, 0.0});
  EXPECT_TRUE(dd.converged);
  EXPECT_LT(std::fabs(dd.drain_current), 1e-12);
}

TEST(DriftDiffusion, GateBiasTurnsTheDeviceOn) {
  const auto off = solve(device(), Bias{-1.0, 1.0, 0.0});
  const auto on = solve(device(), Bias{4.0, 1.0, 0.0});
  EXPECT_GT(on.drain_current, 100.0 * std::max(off.drain_current, 1e-15));
}

TEST(DriftDiffusion, AgreesWithSliceTransportAtOnState) {
  // Two independent approximations of the same device should land within a
  // small factor at on-state.
  const auto dev = device();
  const Bias b{4.0, 1.0, 0.0};
  const auto dd = solve_drift_diffusion(dev, b);  // fine default mesh
  const double slice = drain_current(dev, b);
  EXPECT_GT(dd.drain_current / slice, 0.3);
  EXPECT_LT(dd.drain_current / slice, 3.0);
}

TEST(DriftDiffusion, DrainBiasIncreasesCurrent) {
  const auto dev = device();
  const auto lo = solve(dev, Bias{3.0, 0.5, 0.0});
  const auto hi = solve(dev, Bias{3.0, 2.0, 0.0});
  EXPECT_GT(hi.drain_current, lo.drain_current);
}

TEST(DriftDiffusion, CarrierDensitiesPositiveAndContactsPinned) {
  const auto dev = device();
  const Bias b{2.0, 1.0, 0.0};
  const auto mesh = build_mesh(dev, b, 20, 6, 4);
  const auto dd = solve_drift_diffusion(dev, b, mesh);
  DriftDiffusionOptions opts;
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).material != mesh::Material::kSemiconductor) continue;
    EXPECT_GT(dd.electron_density[i], 0.0);
    EXPECT_GT(dd.hole_density[i], 0.0);
    if (mesh.node(i).dirichlet) {
      // Ohmic contact: majority density equals the reservoir doping.
      EXPECT_NEAR(dd.electron_density[i] / kContactDoping, 1.0, 1e-6);
    }
  }
}

TEST(DriftDiffusion, PTypeMirror) {
  TftDevice dev = device();
  dev.semi = cnt_params();  // p-type
  const auto on = solve(dev, Bias{-4.0, -1.0, 0.0});
  const auto off = solve(dev, Bias{1.0, -1.0, 0.0});
  EXPECT_TRUE(on.converged);
  EXPECT_GT(std::fabs(on.drain_current), 50.0 * std::fabs(off.drain_current));
}

}  // namespace
}  // namespace stco::tcad
