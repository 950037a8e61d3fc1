// Parameterized architecture sweeps for the GNN stack: shapes, gradient
// flow, and permutation behaviour must hold for every configuration.

#include <gtest/gtest.h>

#include <cmath>

#include "src/gnn/models.hpp"
#include "src/tensor/ops.hpp"

namespace stco::gnn {
namespace {

struct ArchCase {
  std::size_t layers, heads, hidden;
  bool graph_regression;
};

Graph ring_graph(std::size_t n, std::size_t node_dim, std::size_t edge_dim,
                 std::uint64_t seed) {
  numeric::Rng rng(seed);
  Graph g;
  g.num_nodes = n;
  g.node_dim = node_dim;
  g.edge_dim = edge_dim;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t j = (i + 1) % n;
    g.edge_src.push_back(i);
    g.edge_dst.push_back(j);
    g.edge_src.push_back(j);
    g.edge_dst.push_back(i);
  }
  g.node_features.resize(n * node_dim);
  for (auto& v : g.node_features) v = rng.uniform(-1, 1);
  g.edge_features.resize(g.num_edges() * edge_dim);
  for (auto& v : g.edge_features) v = rng.uniform(-1, 1);
  return g;
}

class ArchSweep : public ::testing::TestWithParam<ArchCase> {
 protected:
  RelGatConfig config() const {
    const auto& c = GetParam();
    RelGatConfig cfg;
    cfg.node_dim = 6;
    cfg.edge_dim = 3;
    cfg.hidden = c.hidden;
    cfg.heads = c.heads;
    cfg.num_layers = c.layers;
    cfg.mlp_hidden = {c.hidden};
    cfg.out_dim = 2;
    cfg.graph_regression = c.graph_regression;
    return cfg;
  }
};

TEST_P(ArchSweep, OutputShape) {
  numeric::Rng rng(1);
  const RelGatModel model(config(), rng);
  const Graph g = ring_graph(7, 6, 3, 2);
  const auto y = model.forward(g);
  EXPECT_EQ(y.rows(), GetParam().graph_regression ? 1u : 7u);
  EXPECT_EQ(y.cols(), 2u);
  for (double v : y.value()) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(ArchSweep, AllParametersReceiveGradient) {
  numeric::Rng rng(2);
  const RelGatModel model(config(), rng);
  const Graph g = ring_graph(6, 6, 3, 3);
  const auto y = model.forward(g);
  tensor::sum_all(tensor::mul(y, y)).backward();
  std::size_t dead = 0;
  for (const auto& p : model.parameters()) {
    double s = 0.0;
    for (double v : p.grad()) s += std::fabs(v);
    if (s == 0.0) ++dead;
  }
  // Allow the rare dead ReLU unit but not systematic disconnection.
  EXPECT_LE(dead, model.parameters().size() / 8);
}

TEST_P(ArchSweep, GraphPoolingIsNodeOrderInvariant) {
  if (!GetParam().graph_regression) GTEST_SKIP();
  numeric::Rng rng(4);
  const RelGatModel model(config(), rng);
  Graph g = ring_graph(5, 6, 3, 5);
  const double y1 = model.forward(g).value()[0];

  // Relabel nodes with a rotation; same graph, permuted ids.
  Graph h = g;
  auto perm = [&](std::uint32_t v) { return (v + 2) % 5; };
  for (auto& s : h.edge_src) s = perm(s);
  for (auto& d : h.edge_dst) d = perm(d);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t k = 0; k < 6; ++k)
      h.node_features[perm(static_cast<std::uint32_t>(i)) * 6 + k] =
          g.node_features[i * 6 + k];
  const double y2 = model.forward(h).value()[0];
  EXPECT_NEAR(y1, y2, 1e-9);
}

TEST_P(ArchSweep, ParameterCountMatchesAnalyticFormula) {
  numeric::Rng rng(6);
  const auto cfg = config();
  const RelGatModel model(cfg, rng);
  const std::size_t head_dim = cfg.hidden / cfg.heads;
  std::size_t expected = cfg.node_dim * cfg.hidden + cfg.hidden;  // input proj
  expected += cfg.num_layers *
              (cfg.heads * (cfg.hidden * head_dim + cfg.edge_dim * head_dim +
                            2 * head_dim) +
               cfg.hidden);  // GAT layers (+bias)
  if (cfg.use_layer_norm) expected += cfg.num_layers * 2 * cfg.hidden;
  expected += cfg.hidden * cfg.mlp_hidden[0] + cfg.mlp_hidden[0] +
              cfg.mlp_hidden[0] * cfg.out_dim + cfg.out_dim;  // head MLP
  EXPECT_EQ(model.num_parameters(), expected);
}

// gtest prints an ArchCase (it has no operator<<) as its raw bytes, padding
// included, and that text is part of the registered test name. Static
// storage zero-fills the padding, so the names are the same on every run;
// temporaries built on the stack would carry whatever bytes were there.
constexpr ArchCase kArchCases[] = {{1, 1, 8, false},   {3, 1, 8, true},
                                   {3, 2, 8, false},   {6, 2, 16, true},
                                   {12, 2, 16, false}, {2, 4, 16, true}};

INSTANTIATE_TEST_SUITE_P(
    Architectures, ArchSweep, ::testing::ValuesIn(kArchCases),
    [](const ::testing::TestParamInfo<ArchCase>& info) {
      const auto& c = info.param;
      std::string name = "L";
      name += std::to_string(c.layers);
      name += 'H';
      name += std::to_string(c.heads);
      name += 'W';
      name += std::to_string(c.hidden);
      name += c.graph_regression ? "graph" : "node";
      return name;
    });

}  // namespace
}  // namespace stco::gnn
