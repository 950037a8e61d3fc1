#include "src/tcad/poisson.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/obs/metrics.hpp"

namespace stco::tcad {
namespace {

TftDevice small_device() {
  TftDevice dev;
  dev.semi = igzo_params();  // n-type, well behaved
  dev.length = 2e-6;
  dev.contact_len = 0.4e-6;
  dev.t_ox = 100e-9;
  dev.t_ch = 40e-9;
  return dev;
}

TEST(Poisson, ConvergesAtEquilibrium) {
  const auto dev = small_device();
  const auto sol = solve_poisson(dev, Bias{0.0, 0.0, 0.0}, 12, 4, 3);
  EXPECT_TRUE(sol.converged);
  EXPECT_LT(sol.newton_iterations, 60u);
}

TEST(Poisson, DirichletValuesPinned) {
  const auto dev = small_device();
  const Bias bias{3.0, 1.0, 0.0};
  const auto mesh = build_mesh(dev, bias, 12, 4, 3);
  const auto sol = solve_poisson(dev, bias, mesh);
  ASSERT_TRUE(sol.converged);
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i)
    if (mesh.node(i).dirichlet) {
      EXPECT_NEAR(sol.potential[i], mesh.node(i).dirichlet_value, 1e-6);
    }
}

TEST(Poisson, PositiveGateAccumulatesElectronsInNType) {
  const auto dev = small_device();
  const Bias off{0.0, 0.1, 0.0}, on{5.0, 0.1, 0.0};
  const auto mesh_on = build_mesh(dev, on, 12, 4, 3);
  const auto sol_off = solve_poisson(dev, off, 12, 4, 3);
  const auto sol_on = solve_poisson(dev, on, mesh_on);
  ASSERT_TRUE(sol_on.converged);
  // Compare electron density at the back-channel node mid-device (row
  // adjacent to the oxide where the gate field accumulates carriers).
  const std::size_t mid = mesh_on.index(6, 3);
  EXPECT_GT(sol_on.electron_density[mid], 100.0 * sol_off.electron_density[mid]);
}

TEST(Poisson, PotentialBoundedByContacts) {
  // With no fixed charge the solution obeys a discrete maximum principle:
  // potential extremes occur on the Dirichlet boundary.
  auto dev = small_device();
  dev.doping = 0.0;
  const Bias bias{2.0, 1.0, 0.0};
  const auto mesh = build_mesh(dev, bias, 12, 4, 3);
  const auto sol = solve_poisson(dev, bias, mesh);
  ASSERT_TRUE(sol.converged);
  double bc_min = 1e9, bc_max = -1e9;
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i)
    if (mesh.node(i).dirichlet) {
      bc_min = std::min(bc_min, mesh.node(i).dirichlet_value);
      bc_max = std::max(bc_max, mesh.node(i).dirichlet_value);
    }
  // Mobile charge can only pull the potential toward the quasi-Fermi level,
  // which lies within [vs, vd]; allow a small kT-scale margin.
  for (double phi : sol.potential) {
    EXPECT_GT(phi, bc_min - 0.5);
    EXPECT_LT(phi, bc_max + 0.5);
  }
}

TEST(Poisson, QuasiFermiRampMonotonicAlongChannel) {
  const auto dev = small_device();
  const Bias bias{2.0, 2.0, 0.0};
  const auto mesh = build_mesh(dev, bias, 12, 4, 3);
  const auto sol = solve_poisson(dev, bias, mesh);
  for (std::size_t ix = 1; ix < mesh.nx(); ++ix)
    EXPECT_GE(sol.quasi_fermi[mesh.index(ix, 0)] + 1e-12,
              sol.quasi_fermi[mesh.index(ix - 1, 0)]);
  EXPECT_DOUBLE_EQ(sol.quasi_fermi[mesh.index(0, 0)], 0.0);
  EXPECT_DOUBLE_EQ(sol.quasi_fermi[mesh.index(mesh.nx() - 1, 0)], 2.0);
}

TEST(Poisson, ChargeDensityConsistentWithCarriers) {
  const auto dev = small_device();
  const Bias bias{4.0, 0.5, 0.0};
  const auto mesh = build_mesh(dev, bias, 12, 4, 3);
  const auto sol = solve_poisson(dev, bias, mesh);
  for (std::size_t i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).material != mesh::Material::kSemiconductor) {
      EXPECT_DOUBLE_EQ(sol.charge_density[i], 0.0);
      continue;
    }
    const double expected =
        kQ * (sol.hole_density[i] - sol.electron_density[i] + dev.doping);
    EXPECT_NEAR(sol.charge_density[i], expected, std::fabs(expected) * 1e-12 + 1e-20);
  }
}

TEST(Poisson, PTypeDeviceAccumulatesHolesUnderNegativeGate) {
  TftDevice dev = small_device();
  dev.semi = cnt_params();  // p-type
  const Bias on{-5.0, -0.1, 0.0};
  const auto mesh = build_mesh(dev, on, 12, 4, 3);
  const auto sol = solve_poisson(dev, on, mesh);
  ASSERT_TRUE(sol.converged);
  const std::size_t back = mesh.index(6, 3);
  EXPECT_GT(sol.hole_density[back], sol.electron_density[back] * 1e3);
}

// 48 nodes per side: the ILU(0) -> band ladder must settle every linear
// solve of a bias sweep on its Krylov or band rung, never on dense LU.
TEST(Poisson, LargeMeshSweepNeverFallsBackToDense) {
  TftDevice dev;
  dev.semi = igzo_params();
  const auto fallback_before = obs::counter("solver.linear.dense_fallback").value();
  for (double vg : {0.0, 2.0, 4.0}) {
    const Bias bias{vg, 1.0, 0.0};
    const auto mesh = build_mesh(dev, bias, 48, 32, 15);
    ASSERT_EQ(mesh.ny(), 48u);
    const auto sol = solve_poisson(dev, bias, mesh);
    EXPECT_TRUE(sol.converged) << "vg = " << vg;
  }
  EXPECT_EQ(obs::counter("solver.linear.dense_fallback").value() - fallback_before, 0u);
}

}  // namespace
}  // namespace stco::tcad
