#include "src/gnn/infer/plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/contract.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

namespace stco::gnn::infer {

namespace {

tensor::AlignedVec copy_aligned(const std::vector<double>& v) {
  return tensor::AlignedVec(v.begin(), v.end());
}

void fingerprint_block(persist::Fingerprint& fp, const tensor::AlignedVec& v) {
  fp.add_u64(v.size());
  for (double x : v) fp.add_f64(x);
}

}  // namespace

LinearBlock pack_linear(const Linear& lin) {
  LinearBlock lb;
  lb.in = lin.in_dim();
  lb.out = lin.out_dim();
  lb.w = copy_aligned(lin.weight().value());
  lb.b = copy_aligned(lin.bias().value());
  return lb;
}

void fingerprint_linear(persist::Fingerprint& fp, const LinearBlock& lb) {
  fp.add_u64(lb.in);
  fp.add_u64(lb.out);
  fingerprint_block(fp, lb.w);
  fingerprint_block(fp, lb.b);
}

MlpBlock pack_mlp(const Mlp& mlp) {
  MlpBlock m;
  m.hidden_act = mlp.hidden_activation();
  for (const Linear& l : mlp.layers()) {
    m.layers.push_back(pack_linear(l));
    m.max_width = std::max({m.max_width, m.layers.back().in, m.layers.back().out});
  }
  return m;
}

void k_activation(double* y, std::size_t stride, std::size_t r0, std::size_t r1,
                  std::size_t cols, Activation act) {
  // Scalar bodies mirror gnn::apply_activation → tensor unary lambdas.
  auto map = [&](auto f) {
    for (std::size_t i = r0; i < r1; ++i) {
      double* yr = y + i * stride;
      for (std::size_t j = 0; j < cols; ++j) yr[j] = f(yr[j]);
    }
  };
  switch (act) {
    case Activation::kNone: break;
    case Activation::kRelu:
      map([](double x) { return x > 0 ? x : 0.0; });
      break;
    case Activation::kLeakyRelu:
      map([](double x) { return x > 0 ? x : 0.2 * x; });
      break;
    case Activation::kElu:
      map([](double x) { return x > 0 ? x : 1.0 * (std::exp(x) - 1.0); });
      break;
    case Activation::kTanh:
      map([](double x) { return std::tanh(x); });
      break;
    case Activation::kSigmoid:
      map([](double x) { return 1.0 / (1.0 + std::exp(-x)); });
      break;
  }
}

void run_mlp_rows(const MlpBlock& m, const double* x, std::size_t istride,
                  double* out, std::size_t ostride, std::size_t r0,
                  std::size_t r1, double* ping, double* pong) {
  const std::size_t n_layers = m.layers.size();
  const double* cur = x;
  std::size_t cur_stride = istride;
  for (std::size_t li = 0; li < n_layers; ++li) {
    const LinearBlock& lb = m.layers[li];
    const bool last = li + 1 == n_layers;
    double* dst = last ? out : (li % 2 == 0 ? ping : pong);
    const std::size_t dst_stride = last ? ostride : m.max_width;
    k_linear(cur, cur_stride, dst, dst_stride, r0, r1, lb.in, lb.out, lb.w.data(),
             lb.b.data());
    if (!last) k_activation(dst, dst_stride, r0, r1, lb.out, m.hidden_act);
    cur = dst;
    cur_stride = dst_stride;
  }
}

InferencePlan compile_plan(const RelGatModel& model) {
  obs::Span span("gnn.infer.compile");
  InferencePlan plan;
  plan.cfg_ = model.config();
  plan.input_proj_ = pack_linear(model.input_proj());
  plan.head_ = pack_mlp(model.head_mlp());

  const bool use_norm = plan.cfg_.use_layer_norm;
  const std::size_t hidden = plan.cfg_.hidden;
  const auto& gat = model.gat_layers();
  const auto& norms = model.layer_norms();
  for (std::size_t li = 0; li < gat.size(); ++li) {
    const RelGatLayer& layer = gat[li];
    const std::size_t heads = layer.heads();
    const std::size_t hd = layer.head_dim();
    if (heads * hd != hidden)
      throw std::invalid_argument("compile_plan: GAT width != hidden");
    GatLayerBlock b;
    b.heads = heads;
    b.head_dim = hd;
    b.edge_dim = layer.edge_weights()[0].rows();
    b.w.assign(hidden * hidden, 0.0);
    b.we.assign(b.edge_dim * hidden, 0.0);
    b.a_dst.assign(hidden, 0.0);
    b.a_msg.assign(hidden, 0.0);
    // Pack head h's projection into columns [h*hd, (h+1)*hd): column
    // permutation only, so each output element keeps its training-matmul
    // k-term order.
    for (std::size_t h = 0; h < heads; ++h) {
      const auto& w = layer.head_weights()[h].value();    // hidden x hd
      const auto& we = layer.edge_weights()[h].value();   // edge_dim x hd
      const auto& a = layer.attention()[h].value();       // 2*hd x 1
      for (std::size_t k = 0; k < hidden; ++k)
        for (std::size_t j = 0; j < hd; ++j)
          b.w[k * hidden + h * hd + j] = w[k * hd + j];
      for (std::size_t k = 0; k < b.edge_dim; ++k)
        for (std::size_t j = 0; j < hd; ++j)
          b.we[k * hidden + h * hd + j] = we[k * hd + j];
      for (std::size_t j = 0; j < hd; ++j) {
        b.a_dst[h * hd + j] = a[j];
        b.a_msg[h * hd + j] = a[hd + j];
      }
    }
    b.bias = copy_aligned(layer.bias().value());
    if (use_norm) {
      b.ln_gain = copy_aligned(norms[li].gain().value());
      b.ln_bias = copy_aligned(norms[li].bias().value());
    }
    plan.layers_.push_back(std::move(b));
  }

  // Fingerprint topology + packed weights; ties the plan to the exact
  // weight artifact its owner trained or warm-loaded.
  persist::Fingerprint fp;
  fp.add_str("gnn.infer.plan");
  fp.add_u64(plan.cfg_.node_dim);
  fp.add_u64(plan.cfg_.edge_dim);
  fp.add_u64(plan.cfg_.hidden);
  fp.add_u64(plan.cfg_.heads);
  fp.add_u64(plan.cfg_.num_layers);
  fp.add_u64(plan.cfg_.out_dim);
  fp.add_u64((plan.cfg_.graph_regression ? 1u : 0u) |
             (plan.cfg_.use_layer_norm ? 2u : 0u) |
             (plan.cfg_.use_residual ? 4u : 0u) |
             (plan.cfg_.use_edge_features ? 8u : 0u));
  fingerprint_linear(fp, plan.input_proj_);
  for (const auto& b : plan.layers_) {
    fingerprint_block(fp, b.w);
    fingerprint_block(fp, b.we);
    fingerprint_block(fp, b.a_dst);
    fingerprint_block(fp, b.a_msg);
    fingerprint_block(fp, b.bias);
    fingerprint_block(fp, b.ln_gain);
    fingerprint_block(fp, b.ln_bias);
  }
  for (const auto& lb : plan.head_.layers) fingerprint_linear(fp, lb);
  plan.fingerprint_ = fp.value();

  obs::counter("gnn.infer.plan_compiles").add();
  return plan;
}

void InferencePlan::run_span(const Graph& merged,
                             const tensor::IndexVec& node_offset,
                             const tensor::IndexVec& edge_offset, Arena& arena,
                             double* out, const exec::Context& ctx) const {
  const std::size_t num_graphs = node_offset.size() - 1;
  const std::size_t n = merged.num_nodes;
  const std::size_t e = merged.num_edges();
  const std::size_t hid = cfg_.hidden;
  if (merged.node_dim != cfg_.node_dim)
    throw std::invalid_argument("InferencePlan::run: node_dim mismatch");
  if (cfg_.use_edge_features && merged.edge_dim != cfg_.edge_dim)
    throw std::invalid_argument("InferencePlan::run: edge_dim mismatch");
  if (cfg_.graph_regression)
    for (std::size_t g = 0; g < num_graphs; ++g)
      if (node_offset[g + 1] == node_offset[g])
        throw std::invalid_argument(
            "InferencePlan::run: empty graph in graph-regression batch");

  arena.reset();
  double* h = arena.alloc(n * hid);
  GatScratch s;
  s.z = arena.alloc(n * hid);
  s.msg = arena.alloc(e * hid);
  s.logit = arena.alloc(e * cfg_.heads);
  s.seg_max = arena.alloc(n * cfg_.heads);
  s.seg_sum = arena.alloc(n * cfg_.heads);
  s.agg = arena.alloc(n * hid);
  const std::size_t mlp_rows = cfg_.graph_regression ? num_graphs : n;
  double* pooled =
      cfg_.graph_regression ? arena.alloc(num_graphs * hid) : nullptr;
  double* ping = arena.alloc(mlp_rows * head_.max_width);
  double* pong = arena.alloc(mlp_rows * head_.max_width);

  const double* edge_feat =
      cfg_.use_edge_features ? merged.edge_features.data() : nullptr;
  const std::uint32_t* src = merged.edge_src.data();
  const std::uint32_t* dst = merged.edge_dst.data();

  // One task per graph: each task runs the whole fused pipeline over its
  // disjoint node/edge slice, so outputs are bit-identical at any thread
  // count (and identical to the single-graph training forward).
  ctx.parallel_for(num_graphs, [&](std::size_t g) {
    const std::size_t n0 = node_offset[g], n1 = node_offset[g + 1];
    const std::size_t e0 = edge_offset[g], e1 = edge_offset[g + 1];
    k_linear(merged.node_features.data(), cfg_.node_dim, h, hid, n0, n1,
             cfg_.node_dim, hid, input_proj_.w.data(), input_proj_.b.data());
    for (const GatLayerBlock& b : layers_) {
      GatLayerView view;
      view.heads = b.heads;
      view.head_dim = b.head_dim;
      view.hidden = hid;
      view.edge_dim = b.edge_dim;
      view.w = b.w.data();
      view.we = b.we.data();
      view.a_dst = b.a_dst.data();
      view.a_msg = b.a_msg.data();
      view.bias = b.bias.data();
      view.ln_gain = b.ln_gain.empty() ? nullptr : b.ln_gain.data();
      view.ln_bias = b.ln_bias.empty() ? nullptr : b.ln_bias.data();
      view.residual = cfg_.use_residual;
      k_gat_layer(view, s, src, dst, n0, n1, e0, e1, edge_feat, h);
    }
    if (cfg_.graph_regression) {
      k_mean_rows(h, hid, n0, n1, hid, pooled + g * hid);
      run_mlp_rows(head_, pooled, hid, out, cfg_.out_dim, g, g + 1, ping, pong);
    } else {
      run_mlp_rows(head_, h, hid, out, cfg_.out_dim, n0, n1, ping, pong);
    }
  });

  obs::counter("gnn.infer.batches").add();
  obs::counter("gnn.infer.graphs").add(num_graphs);
  obs::gauge("gnn.infer.arena_bytes")
      .set(static_cast<double>(arena.capacity() * sizeof(double)));
  obs::gauge("gnn.infer.arena_high_water_bytes")
      .set_max(static_cast<double>(arena.used() * sizeof(double)));
}

std::vector<double> InferencePlan::run(const BatchedGraph& batch, Arena& arena,
                                       const exec::Context& ctx) const {
  obs::Span span("gnn.infer.run");
  const std::size_t rows =
      cfg_.graph_regression ? batch.num_graphs : batch.merged.num_nodes;
  std::vector<double> out(rows * cfg_.out_dim);
  run_span(batch.merged, batch.node_offset, batch.edge_offset, arena, out.data(),
           ctx);
  return out;
}

std::vector<double> InferencePlan::run_one(const Graph& g, Arena& arena) const {
  obs::Span span("gnn.infer.run");
  STCO_REQUIRE(g.valid(), "InferencePlan::run_one: invalid graph");
  const tensor::IndexVec node_offset = {
      0, static_cast<std::uint32_t>(g.num_nodes)};
  const tensor::IndexVec edge_offset = {
      0, static_cast<std::uint32_t>(g.num_edges())};
  const std::size_t rows = cfg_.graph_regression ? 1 : g.num_nodes;
  std::vector<double> out(rows * cfg_.out_dim);
  run_span(g, node_offset, edge_offset, arena, out.data(), exec::Context::serial());
  return out;
}

}  // namespace stco::gnn::infer
