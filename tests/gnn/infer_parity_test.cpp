// Parity suite for the inference engine (src/gnn/infer): the compiled plan
// must match the training-path forward to 1e-12 relative on every config the
// repo ships (node/graph regression, edge ablation, no-norm/no-residual),
// and its batched output must be bit-identical across thread counts —
// parallelism is over whole graphs, so the per-graph arithmetic never
// changes shape.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/gnn/batch.hpp"
#include "src/gnn/infer/gcn_plan.hpp"
#include "src/gnn/infer/predictor.hpp"
#include "src/gnn/models.hpp"
#include "src/obs/obs.hpp"
#include "src/surrogate/surrogate.hpp"
#include "src/tensor/ops.hpp"

namespace stco::gnn {
namespace {

constexpr std::size_t kNodeDim = 6;
constexpr std::size_t kEdgeDim = 3;

Graph make_graph(std::size_t n, std::uint64_t seed, bool with_edges = true) {
  numeric::Rng rng(seed);
  Graph g;
  g.num_nodes = n;
  g.node_dim = kNodeDim;
  g.edge_dim = kEdgeDim;
  if (with_edges) {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      g.edge_src.push_back(i);
      g.edge_dst.push_back(i + 1);
      g.edge_src.push_back(i + 1);
      g.edge_dst.push_back(i);
    }
    // A couple of long-range edges so attention sees fan-in > 1.
    if (n > 3) {
      g.edge_src.push_back(0);
      g.edge_dst.push_back(n - 1);
    }
  }
  g.node_features.resize(n * kNodeDim);
  for (auto& v : g.node_features) v = rng.normal();
  g.edge_features.resize(g.num_edges() * kEdgeDim);
  for (auto& v : g.edge_features) v = rng.normal();
  g.node_targets.assign(n, 0.0);
  g.graph_targets = {0.0};
  return g;
}

double rel_err(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) / scale;
}

void expect_parity(const std::vector<double>& plan_out,
                   const std::vector<double>& train_out, double tol = 1e-12) {
  ASSERT_EQ(plan_out.size(), train_out.size());
  for (std::size_t i = 0; i < plan_out.size(); ++i)
    EXPECT_LE(rel_err(plan_out[i], train_out[i]), tol)
        << "i=" << i << " plan=" << plan_out[i] << " train=" << train_out[i];
}

RelGatConfig node_cfg() {
  RelGatConfig cfg = poisson_emulator_config(kNodeDim, kEdgeDim, /*hidden=*/12);
  cfg.num_layers = 3;  // keep the suite fast; all layer kinds still execute
  return cfg;
}

RelGatConfig graph_cfg() {
  return iv_predictor_config(kNodeDim, kEdgeDim, /*hidden=*/12);
}

TEST(InferParity, SingleGraphNodeRegression) {
  numeric::Rng rng(7);
  const RelGatModel model(node_cfg(), rng);
  Predictor pred;
  pred.compile(model);
  const Graph g = make_graph(9, 11);
  expect_parity(pred.predict_one(g), model.forward(g).value());
}

TEST(InferParity, SingleGraphGraphRegression) {
  numeric::Rng rng(8);
  const RelGatModel model(graph_cfg(), rng);
  Predictor pred;
  pred.compile(model);
  const Graph g = make_graph(7, 21);
  expect_parity(pred.predict_one(g), model.forward(g).value());
  EXPECT_EQ(pred.predict_scalar(g), pred.predict_one(g)[0]);
}

TEST(InferParity, EdgeAblationAndPlainTrunkVariants) {
  for (const bool edge_feats : {true, false}) {
    for (const bool norm_res : {true, false}) {
      RelGatConfig cfg = node_cfg();
      cfg.use_edge_features = edge_feats;
      cfg.use_layer_norm = norm_res;
      cfg.use_residual = norm_res;
      numeric::Rng rng(5);
      const RelGatModel model(cfg, rng);
      Predictor pred;
      pred.compile(model);
      const Graph g = make_graph(6, 31);
      SCOPED_TRACE(testing::Message() << "edge_feats=" << edge_feats
                                      << " norm_res=" << norm_res);
      expect_parity(pred.predict_one(g), model.forward(g).value());
    }
  }
}

TEST(InferParity, EmptyEdgeGraphs) {
  numeric::Rng rng(9);
  const RelGatModel model(node_cfg(), rng);
  Predictor pred;
  pred.compile(model);
  const Graph lone = make_graph(4, 41, /*with_edges=*/false);
  expect_parity(pred.predict_one(lone), model.forward(lone).value());
  // And mixed into a batch next to connected graphs.
  const std::vector<Graph> gs = {make_graph(5, 42), lone, make_graph(3, 43)};
  std::vector<double> ref;
  for (const auto& g : gs) {
    const auto v = model.forward(g).value();
    ref.insert(ref.end(), v.begin(), v.end());
  }
  expect_parity(pred.predict(gs), ref);
}

TEST(InferParity, BatchOf64MatchesPerGraphTrainingForward) {
  numeric::Rng rng(10);
  const RelGatModel model(graph_cfg(), rng);
  Predictor pred;
  pred.compile(model);
  std::vector<Graph> gs;
  for (std::size_t i = 0; i < 64; ++i) gs.push_back(make_graph(3 + i % 7, 100 + i));
  std::vector<double> ref;
  for (const auto& g : gs) {
    const auto v = model.forward(g).value();
    ref.insert(ref.end(), v.begin(), v.end());
  }
  expect_parity(pred.predict(gs), ref);
}

TEST(InferParity, BitIdenticalAcrossThreadCounts) {
  numeric::Rng rng(12);
  const RelGatModel model(node_cfg(), rng);
  Predictor pred;
  pred.compile(model);
  std::vector<Graph> gs;
  for (std::size_t i = 0; i < 64; ++i)
    gs.push_back(make_graph(2 + i % 9, 200 + i, /*with_edges=*/i % 5 != 0));
  const std::vector<double> serial = pred.predict(gs);
  for (const std::size_t threads : {2u, 8u}) {
    const exec::Context ctx(threads);
    const std::vector<double> parallel = pred.predict(gs, ctx);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(parallel[i], serial[i]) << "threads=" << threads << " i=" << i;
  }
}

TEST(InferParity, RepeatedCallsReuseArenaWithoutDrift) {
  numeric::Rng rng(13);
  const RelGatModel model(graph_cfg(), rng);
  Predictor pred;
  pred.compile(model);
  const Graph g = make_graph(8, 77);
  const auto first = pred.predict_one(g);
  for (int i = 0; i < 5; ++i) {
    const auto again = pred.predict_one(g);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t j = 0; j < first.size(); ++j) EXPECT_EQ(again[j], first[j]);
  }
}

TEST(InferParity, GcnPlanMatchesTrainingChain) {
  // The charlib trunk at gnn level: Linear -> GCN stack -> mean pool ->
  // per-metric MLP heads, compiled via compile_gcn_plan.
  numeric::Rng rng(14);
  const Linear proj(kNodeDim, 10, rng);
  std::vector<GcnLayer> layers;
  for (int i = 0; i < 3; ++i) layers.emplace_back(10, 10, rng, Activation::kRelu);
  std::vector<Mlp> heads;
  for (int i = 0; i < 4; ++i)
    heads.emplace_back(std::vector<std::size_t>{10, 8, 1}, rng);
  const infer::GcnPlan plan = infer::compile_gcn_plan(proj, layers, heads);
  ASSERT_TRUE(plan.compiled());

  std::vector<Graph> gs = {make_graph(6, 51), make_graph(4, 52),
                           make_graph(5, 53, /*with_edges=*/false)};
  const std::size_t head_ids[] = {0, 3};
  const auto batch = merge_graphs(gs);
  const auto out = plan.run(batch, head_ids, infer::scratch_arena());
  ASSERT_EQ(out.size(), gs.size() * 2);
  for (std::size_t gi = 0; gi < gs.size(); ++gi) {
    tensor::Tensor h = proj.forward(gs[gi].node_tensor());
    for (const auto& l : layers) h = l.forward(h, gs[gi]);
    const tensor::Tensor pooled = tensor::mean_rows(h);
    for (std::size_t hj = 0; hj < 2; ++hj) {
      const double ref = heads[head_ids[hj]].forward(pooled).item();
      EXPECT_LE(rel_err(out[gi * 2 + hj], ref), 1e-12);
    }
  }
  // run_one agrees with the batched path bit-for-bit.
  const auto one = plan.run_one(gs[0], head_ids, infer::scratch_arena());
  EXPECT_EQ(one[0], out[0]);
  EXPECT_EQ(one[1], out[1]);
}

TEST(InferParity, WarmStartCompilesPlanExactlyOncePerEngine) {
  surrogate::SurrogateConfig cfg;
  cfg.poisson_hidden = 8;
  cfg.iv_hidden = 8;
  const surrogate::TcadSurrogate trained(cfg);
  trained.save_weights("/tmp/stco_infer_parity_weights.bin");

  surrogate::TcadSurrogate warm(cfg);
  const std::uint64_t before = obs::counter("gnn.infer.plan_compiles").value();
  const auto status = warm.try_load_weights("/tmp/stco_infer_parity_weights.bin");
  ASSERT_TRUE(persist::ok(status));
  // One rebuild per engine (poisson + iv), nothing more.
  EXPECT_EQ(obs::counter("gnn.infer.plan_compiles").value(), before + 2);
  EXPECT_EQ(warm.poisson_predictor().fingerprint(),
            trained.poisson_predictor().fingerprint());
  EXPECT_EQ(warm.iv_predictor().fingerprint(),
            trained.iv_predictor().fingerprint());
}

TEST(InferParity, FingerprintTracksWeightState) {
  numeric::Rng rng_a(1), rng_b(2);
  const RelGatModel a(node_cfg(), rng_a), b(node_cfg(), rng_b);
  Predictor pa, pb, pa2;
  pa.compile(a);
  pb.compile(b);
  pa2.compile(a);
  EXPECT_NE(pa.fingerprint(), 0u);
  EXPECT_EQ(pa.fingerprint(), pa2.fingerprint());
  EXPECT_NE(pa.fingerprint(), pb.fingerprint());
}

TEST(InferParity, DimensionMismatchThrowsBeforeExecution) {
  numeric::Rng rng(15);
  const RelGatModel model(node_cfg(), rng);
  Predictor pred;
  pred.compile(model);
  Graph g = make_graph(4, 61);
  g.node_dim = kNodeDim + 1;
  g.node_features.resize(g.num_nodes * g.node_dim);
  EXPECT_THROW((void)pred.predict_one(g), std::invalid_argument);
}

}  // namespace
}  // namespace stco::gnn
