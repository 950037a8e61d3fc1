// Cross-layer determinism contracts: the parallel execution core must make
// characterization, dataset generation, and training *schedule-independent*
// — bit-identical (or, for training, arithmetic-identical) results for any
// thread count. These tests pin that contract by comparing a serial run
// against an 8-thread run of the same work.

#include <gtest/gtest.h>

#include "src/cells/characterize.hpp"
#include "src/charlib/dataset.hpp"
#include "src/exec/context.hpp"
#include "src/flow/liberty.hpp"
#include "src/gnn/trainer.hpp"
#include "src/surrogate/dataset.hpp"
#include "src/tensor/ops.hpp"

namespace stco {
namespace {

void expect_same_characterization(const cells::CellCharacterization& a,
                                  const cells::CellCharacterization& b) {
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.leakage_power, b.leakage_power);  // bitwise, not NEAR
  EXPECT_EQ(a.input_capacitance, b.input_capacitance);
  ASSERT_EQ(a.arcs.size(), b.arcs.size());
  for (std::size_t i = 0; i < a.arcs.size(); ++i) {
    EXPECT_EQ(a.arcs[i].input_pin, b.arcs[i].input_pin);
    EXPECT_EQ(a.arcs[i].input_rising, b.arcs[i].input_rising);
    EXPECT_EQ(a.arcs[i].output_rising, b.arcs[i].output_rising);
    EXPECT_EQ(a.arcs[i].side_inputs, b.arcs[i].side_inputs);
    EXPECT_EQ(a.arcs[i].delay, b.arcs[i].delay);
    EXPECT_EQ(a.arcs[i].output_slew, b.arcs[i].output_slew);
    EXPECT_EQ(a.arcs[i].flip_energy, b.arcs[i].flip_energy);
  }
  ASSERT_EQ(a.nonflip.size(), b.nonflip.size());
  for (std::size_t i = 0; i < a.nonflip.size(); ++i) {
    EXPECT_EQ(a.nonflip[i].input_pin, b.nonflip[i].input_pin);
    EXPECT_EQ(a.nonflip[i].energy, b.nonflip[i].energy);
  }
  EXPECT_EQ(a.min_setup, b.min_setup);
  EXPECT_EQ(a.min_hold, b.min_hold);
  EXPECT_EQ(a.min_pulse_width, b.min_pulse_width);
  EXPECT_EQ(a.failed_sims, b.failed_sims);
  EXPECT_EQ(a.stats.attempts, b.stats.attempts);
  EXPECT_EQ(a.stats.direct_success, b.stats.direct_success);
  EXPECT_EQ(a.stats.recovered, b.stats.recovered);
  EXPECT_EQ(a.stats.failures, b.stats.failures);
}

TEST(Determinism, CombinationalCharacterizationBitIdentical) {
  const cells::CellDef& cell = cells::find_cell("NAND2");
  cells::CharConfig cfg;
  const auto serial = cells::characterize_cell(cell, cfg);
  exec::Context ctx(8);
  const auto parallel = cells::characterize_cell(cell, cfg, ctx);
  expect_same_characterization(serial, parallel);
}

TEST(Determinism, SequentialCharacterizationBitIdentical) {
  const cells::CellDef& cell = cells::find_cell("DFF");
  cells::CharConfig cfg;
  const auto serial = cells::characterize_cell(cell, cfg);
  exec::Context ctx(8);
  const auto parallel = cells::characterize_cell(cell, cfg, ctx);
  expect_same_characterization(serial, parallel);
}

TEST(Determinism, CharlibDatasetBitIdentical) {
  charlib::DatasetOptions opts;
  opts.cell_names = {"INV", "NOR2"};
  opts.input_slews = {15e-9};
  opts.output_loads = {40e-15};
  charlib::CornerRanges ranges;
  const auto corners = charlib::corner_grid(ranges, 1);

  charlib::DatasetStats stats_a;
  auto opts_a = opts;
  opts_a.stats = &stats_a;
  const auto serial = charlib::build_charlib_dataset(corners, opts_a);

  charlib::DatasetStats stats_b;
  auto opts_b = opts;
  opts_b.stats = &stats_b;
  std::vector<std::size_t> progress;
  opts_b.on_progress = [&](std::size_t done, std::size_t total) {
    progress.push_back(done);
    EXPECT_EQ(total, corners.size());
  };
  exec::Context ctx(8);
  const auto parallel = charlib::build_charlib_dataset(corners, opts_b, ctx);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cell, parallel[i].cell);
    EXPECT_EQ(serial[i].metric, parallel[i].metric);
    EXPECT_EQ(serial[i].target, parallel[i].target);  // bitwise
    EXPECT_EQ(serial[i].graph.node_features, parallel[i].graph.node_features);
    EXPECT_EQ(serial[i].graph.edge_features, parallel[i].graph.edge_features);
    EXPECT_EQ(serial[i].graph.graph_targets, parallel[i].graph.graph_targets);
  }
  EXPECT_EQ(stats_a.characterizations, stats_b.characterizations);
  EXPECT_EQ(stats_a.degraded_characterizations, stats_b.degraded_characterizations);
  EXPECT_EQ(stats_a.failed_sims, stats_b.failed_sims);
  // on_progress fired once per corner, counting 1..N.
  ASSERT_EQ(progress.size(), corners.size());
  for (std::size_t i = 0; i < progress.size(); ++i) EXPECT_EQ(progress[i], i + 1);
}

TEST(Determinism, GnnLibraryBitIdenticalAcrossThreadCounts) {
  // The GNN library is one batched forward whose graphs run as tasks on the
  // context; an untrained model with unit normalization predicts finite
  // values, which is all the comparison needs.
  charlib::CellCharModel model;
  model.fit_normalization({});
  flow::LibraryBuildOptions opts;
  opts.slew_axis = {10e-9, 40e-9};
  opts.load_axis = {20e-15, 100e-15};
  const auto tech = compact::cnt_tech();
  const auto serial = flow::build_library_gnn(model, tech, opts);
  auto same = [&](const flow::TimingLibrary& lib) {
    ASSERT_EQ(serial.cells.size(), lib.cells.size());
    for (const auto& [name, a] : serial.cells) {
      SCOPED_TRACE(name);
      const auto& b = lib.cell(name);
      auto entries = [](const numeric::Matrix& m) {
        return std::vector<double>(m.data(), m.data() + m.size());
      };
      EXPECT_EQ(entries(a.delay), entries(b.delay));  // bitwise, not NEAR
      EXPECT_EQ(entries(a.out_slew), entries(b.out_slew));
      EXPECT_EQ(a.input_cap, b.input_cap);
      EXPECT_EQ(a.leakage, b.leakage);
      EXPECT_EQ(a.flip_energy, b.flip_energy);
      EXPECT_EQ(a.nonflip_energy, b.nonflip_energy);
    }
    EXPECT_EQ(serial.dff_clk2q, lib.dff_clk2q);
    EXPECT_EQ(serial.dff_setup, lib.dff_setup);
    EXPECT_EQ(serial.dff_cap, lib.dff_cap);
    EXPECT_EQ(serial.dff_leakage, lib.dff_leakage);
    EXPECT_EQ(serial.dff_flip_energy, lib.dff_flip_energy);
    EXPECT_EQ(serial.complete, lib.complete);
  };
  for (const std::size_t threads : {1u, 7u}) {
    SCOPED_TRACE(threads);
    exec::Context ctx(threads);
    same(flow::build_library_gnn(model, tech, opts, ctx));
    EXPECT_GT(ctx.stats().tasks_run, 0u);
  }
}

TEST(Determinism, PopulationBitIdenticalAcrossThreadCounts) {
  surrogate::PopulationOptions opts;
  opts.mesh_nx = 10;
  opts.mesh_nch = 3;
  opts.mesh_nox = 3;

  surrogate::PopulationStats stats_a;
  auto opts_a = opts;
  opts_a.stats = &stats_a;
  const auto serial = surrogate::generate_population(12, /*seed=*/33, opts_a);

  surrogate::PopulationStats stats_b;
  auto opts_b = opts;
  opts_b.stats = &stats_b;
  exec::Context ctx(8);
  const auto parallel = surrogate::generate_population(12, /*seed=*/33, opts_b, ctx);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].drain_current, parallel[i].drain_current);  // bitwise
    EXPECT_EQ(serial[i].device.length, parallel[i].device.length);
    EXPECT_EQ(serial[i].bias.vg, parallel[i].bias.vg);
    EXPECT_EQ(serial[i].iv_graph.graph_targets, parallel[i].iv_graph.graph_targets);
    EXPECT_EQ(serial[i].poisson_graph.node_targets,
              parallel[i].poisson_graph.node_targets);
  }
  EXPECT_EQ(stats_a.attempts, stats_b.attempts);
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
}

TEST(Determinism, PopulationDropCountsMatchUnderInjectedSolverFailures) {
  // Starve the solver budgets so a fraction of attempts fail after the
  // recovery ladders: the drop-and-redraw path must consume the identical
  // attempt prefix — and drop the identical attempts — at any thread count.
  surrogate::PopulationOptions opts;
  opts.mesh_nx = 10;
  opts.mesh_nch = 3;
  opts.mesh_nox = 3;
  opts.poisson.max_newton = 4;
  opts.transport.max_newton = 4;

  surrogate::PopulationStats stats_a;
  auto opts_a = opts;
  opts_a.stats = &stats_a;
  const auto serial = surrogate::generate_population(10, /*seed=*/7, opts_a);

  surrogate::PopulationStats stats_b;
  auto opts_b = opts;
  opts_b.stats = &stats_b;
  exec::Context ctx(8);
  const auto parallel = surrogate::generate_population(10, /*seed=*/7, opts_b, ctx);

  // Some attempts must actually have failed, or this test tests nothing.
  EXPECT_GT(stats_a.dropped, 0u);
  EXPECT_EQ(stats_a.attempts, stats_b.attempts);
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].drain_current, parallel[i].drain_current);
}

TEST(Determinism, TrainerParallelMatchesSerialTrajectory) {
  // Same linear problem trained twice; the parallel forward / serial
  // index-ordered backward schedule must reproduce the serial trajectory
  // exactly (same losses, same final weight, bit for bit).
  auto run = [](const exec::Context& ctx) {
    tensor::Tensor w = tensor::Tensor::scalar(0.0, true);
    std::vector<double> xs, ys;
    for (int i = 0; i < 24; ++i) {
      xs.push_back(0.1 * i);
      ys.push_back(0.2 * i);
    }
    auto loss = [&](std::size_t i) {
      const auto x = tensor::Tensor::scalar(xs[i]);
      const auto y = tensor::Tensor::scalar(ys[i]);
      return tensor::mse_loss(tensor::mul(x, w), y);
    };
    gnn::TrainConfig cfg;
    cfg.epochs = 25;
    cfg.lr = 0.05;
    cfg.batch_size = 5;
    const auto stats = gnn::train({w}, loss, xs.size(), cfg, ctx);
    return std::make_pair(stats.epoch_loss, w.item());
  };
  const auto serial = run(exec::Context::serial());
  exec::Context ctx(8);
  const auto parallel = run(ctx);
  EXPECT_EQ(serial.first, parallel.first);  // per-epoch losses, bitwise
  EXPECT_EQ(serial.second, parallel.second);
}

}  // namespace
}  // namespace stco
