// TCAD linear-solver bench (seeds the solver trajectory).
//
// Sweeps square structured meshes and times the TCAD nonlinear Poisson
// and drift-diffusion solves on the one linear-solver ladder every caller
// runs: ILU(0)-preconditioned BiCGSTAB, then banded LU, then the counted
// dense LU. Per size it reports both solve times, the mean Krylov
// iterations per linear solve of the Poisson run (from the
// solver.linear.iterations histogram delta), and whether every solve
// converged.
//
// Also runs a standard bias sweep and reports the
// `solver.linear.dense_fallback` delta, which must be 0.
//
// Emits BENCH_solver.json with the embedded obs snapshot.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/obs/metrics.hpp"
#include "src/tcad/drift_diffusion.hpp"
#include "src/tcad/poisson.hpp"

namespace {

using namespace stco;

struct SizeResult {
  std::size_t nx = 0, ny = 0;
  double poisson_s = 0.0;
  double dd_s = 0.0;            ///< 0 when DD skipped at this size
  double mean_krylov_iters = 0.0;  ///< per linear solve of the Poisson run
  bool converged = true;        ///< Poisson (and DD when run) converged
};

/// ny = n_ch + n_ox + 1 (gate row); pick a film/oxide split with ny == nx.
void square_mesh_rows(std::size_t nx, std::size_t& n_ch, std::size_t& n_ox) {
  n_ch = (2 * nx) / 3;
  n_ox = nx - n_ch - 1;
}

}  // namespace

int main() {
  bench::header("bench_solver: TCAD ILU(0) -> band -> dense linear ladder");

  tcad::TftDevice dev;
  dev.semi = tcad::igzo_params();
  const tcad::Bias bias{3.0, 1.0, 0.0};

  const std::size_t max_size = bench::env_size("STCO_BENCH_SOLVER_MAX", 64, 256);
  const std::size_t dd_max_size = bench::env_size("STCO_BENCH_SOLVER_DD_MAX", 64, 64);
  std::vector<std::size_t> sizes;
  for (std::size_t nx : {std::size_t{16}, std::size_t{32}, std::size_t{48},
                         std::size_t{64}, std::size_t{96}, std::size_t{128},
                         std::size_t{192}, std::size_t{256}})
    if (nx <= max_size) sizes.push_back(nx);

  auto& iters_hist =
      obs::histogram("solver.linear.iterations", {2, 5, 10, 20, 40, 80, 160, 320});

  std::printf("%7s  %10s %8s %10s\n", "mesh", "poisson", "krylov-it", "dd");
  bench::rule('-', 60);

  std::vector<SizeResult> results;
  for (std::size_t nx : sizes) {
    std::size_t n_ch, n_ox;
    square_mesh_rows(nx, n_ch, n_ox);
    const auto mesh = tcad::build_mesh(dev, bias, nx, n_ch, n_ox);

    SizeResult r;
    r.nx = nx;
    r.ny = mesh.ny();

    const auto it_count0 = iters_hist.count();
    const auto it_sum0 = iters_hist.sum();
    bench::Timer t;
    const auto ps = tcad::solve_poisson(dev, bias, mesh);
    r.poisson_s = t.seconds();
    const auto it_dcount = iters_hist.count() - it_count0;
    r.mean_krylov_iters = it_dcount == 0
                              ? 0.0
                              : (iters_hist.sum() - it_sum0) /
                                    static_cast<double>(it_dcount);
    r.converged = ps.converged;

    if (nx <= dd_max_size) {
      t.reset();
      const auto dd = tcad::solve_drift_diffusion(dev, bias, mesh);
      r.dd_s = t.seconds();
      r.converged = r.converged && dd.converged;
    }

    std::printf("%3zux%-3zu %9.3fs %9.1f %9.3fs%s\n", r.nx, r.ny, r.poisson_s,
                r.mean_krylov_iters, r.dd_s,
                r.converged ? "" : "  [NOT CONVERGED]");
    results.push_back(r);
  }

  // Standard bias sweep: the dense-fallback counter must not move.
  const auto fallback_before =
      obs::counter("solver.linear.dense_fallback").value();
  {
    std::size_t n_ch, n_ox;
    square_mesh_rows(64, n_ch, n_ox);
    for (double vg : {0.0, 1.0, 2.0, 3.0, 4.0}) {
      const tcad::Bias b{vg, 1.0, 0.0};
      const auto mesh_b = tcad::build_mesh(dev, b, 64, n_ch, n_ox);
      (void)tcad::solve_poisson(dev, b, mesh_b);
    }
  }
  const auto fallback_sweep =
      obs::counter("solver.linear.dense_fallback").value() - fallback_before;
  bench::rule('-', 60);
  std::printf("dense fallbacks during bias sweep: %llu (target 0)\n",
              static_cast<unsigned long long>(fallback_sweep));

  std::string payload = "  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "    {\"nx\": %zu, \"ny\": %zu, \"poisson_s\": %.6f, "
                  "\"dd_s\": %.6f, \"mean_krylov_iters\": %.2f, "
                  "\"converged\": %s}%s\n",
                  r.nx, r.ny, r.poisson_s, r.dd_s, r.mean_krylov_iters,
                  r.converged ? "true" : "false",
                  i + 1 < results.size() ? "," : "");
    payload += buf;
  }
  payload += "  ],\n  \"dense_fallback_bias_sweep\": " + std::to_string(fallback_sweep);
  bench::write_bench_json("BENCH_solver.json", "solver", payload);
  std::printf("wrote BENCH_solver.json\n");
  return 0;
}
