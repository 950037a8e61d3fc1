#pragma once
// Procedural device-population generator — our stand-in for the paper's
// 50,000-device TCAD dataset (and the 576-device calibrated study of planar
// CNT devices). Sizes are parameters; the distributional role is identical.

#include <cstdint>
#include <vector>

#include "src/exec/context.hpp"
#include "src/gnn/graph.hpp"
#include "src/numeric/rng.hpp"
#include "src/surrogate/encoding.hpp"
#include "src/tcad/device.hpp"
#include "src/tcad/poisson.hpp"
#include "src/tcad/transport.hpp"

namespace stco::surrogate {

/// One solved device at one bias point, with both encodings attached.
struct DeviceSample {
  tcad::TftDevice device;
  tcad::Bias bias;
  double drain_current = 0.0;   ///< TCAD ground truth [A]
  gnn::Graph poisson_graph;     ///< node-regression sample
  gnn::Graph iv_graph;          ///< graph-regression sample (target set later)
};

/// Robustness accounting for one population build: devices whose TCAD
/// solves fail even after the recovery ladders are dropped and re-drawn,
/// so the dataset never carries unconverged ground truth.
struct PopulationStats {
  std::size_t attempts = 0;  ///< devices drawn (successes + drops)
  std::size_t dropped = 0;   ///< devices discarded after solver failure
  numeric::RobustnessStats solver;  ///< aggregated solver counters

  void merge(const PopulationStats& o) {
    attempts += o.attempts;
    dropped += o.dropped;
    solver.merge(o.solver);
  }
};

struct PopulationOptions {
  std::size_t mesh_nx = 14;
  std::size_t mesh_nch = 4;
  std::size_t mesh_nox = 3;
  /// Technologies sampled uniformly.
  std::vector<tcad::SemiconductorKind> kinds = {tcad::SemiconductorKind::kCnt,
                                                tcad::SemiconductorKind::kIgzo,
                                                tcad::SemiconductorKind::kLtps};
  double length_min = 0.8e-6, length_max = 4e-6;
  double tox_min = 50e-9, tox_max = 200e-9;
  double tch_min = 20e-9, tch_max = 60e-9;
  double vg_mag_min = 0.0, vg_mag_max = 5.0;
  double vd_mag_min = 0.1, vd_mag_max = 5.0;
  double doping_mag_max = 3e22;  ///< |N_D - N_A| upper bound [1/m^3]
  EncodingScales scales;
  /// Solver knobs, exposed so tests can starve the iteration budgets and
  /// exercise the drop-and-redraw path deterministically.
  tcad::PoissonOptions poisson{};
  tcad::TransportOptions transport{};
  /// When non-null, filled with drop counts and solver counters.
  PopulationStats* stats = nullptr;
};

/// Generate `count` independent random devices, solve each with the TCAD
/// substrate, and attach both graph encodings (including the normalized
/// log-current target on iv_graph). Devices whose solves fail after the
/// recovery ladders are dropped and replaced by fresh draws (bounded at 4x
/// `count` attempts), so the returned set can fall short of `count` only
/// for a pathologically infeasible option set.
///
/// Attempt i draws its randomness from numeric::stream_rng(seed, i), so a
/// device is a pure function of (seed, attempt index) — independent of how
/// many samples preceded it, of drops, and of the thread that computes it.
/// Attempts run as tasks on `ctx` in deficit-sized waves; the kept set,
/// drop counts, and solver counters are bit-identical for any thread count.
std::vector<DeviceSample> generate_population(
    std::size_t count, std::uint64_t seed, const PopulationOptions& opts = {},
    const exec::Context& ctx = exec::Context::serial());

/// Normalized log-current target used by the IV predictor.
/// y = (log10(|id| + 1e-15) + 9) / 6 maps pA..mA into roughly [-1, 1].
double normalize_current(double id_amps);
double denormalize_current(double y);

}  // namespace stco::surrogate
