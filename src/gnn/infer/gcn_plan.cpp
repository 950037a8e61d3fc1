#include "src/gnn/infer/gcn_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/numeric/contract.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

namespace stco::gnn::infer {

GcnPlan compile_gcn_plan(const Linear& input_proj,
                         std::span<const GcnLayer> layers,
                         std::span<const Mlp> heads) {
  obs::Span span("gnn.infer.compile");
  GcnPlan plan;
  plan.node_dim_ = input_proj.in_dim();
  plan.hidden_ = input_proj.out_dim();
  plan.input_proj_ = pack_linear(input_proj);
  for (const GcnLayer& l : layers) {
    plan.gcn_.push_back(pack_linear(l.linear()));
    plan.gcn_act_.push_back(l.activation());
    if (plan.gcn_.back().in != plan.hidden_ || plan.gcn_.back().out != plan.hidden_)
      throw std::invalid_argument("compile_gcn_plan: GCN layer width != hidden");
  }
  for (const Mlp& h : heads) {
    plan.head_blocks_.push_back(pack_mlp(h));
    if (plan.head_blocks_.back().out_dim() != 1)
      throw std::invalid_argument("compile_gcn_plan: head out_dim != 1");
  }
  if (plan.head_blocks_.empty())
    throw std::invalid_argument("compile_gcn_plan: no heads");

  persist::Fingerprint fp;
  fp.add_str("gnn.infer.gcn_plan");
  fp.add_u64(plan.node_dim_);
  fp.add_u64(plan.hidden_);
  fingerprint_linear(fp, plan.input_proj_);
  for (const auto& lb : plan.gcn_) fingerprint_linear(fp, lb);
  for (const auto& m : plan.head_blocks_)
    for (const auto& lb : m.layers) fingerprint_linear(fp, lb);
  plan.fingerprint_ = fp.value();

  obs::counter("gnn.infer.plan_compiles").add();
  return plan;
}

void GcnPlan::run_span(const Graph& merged, const tensor::IndexVec& node_offset,
                       const tensor::IndexVec& edge_offset,
                       std::span<const std::size_t> heads, Arena& arena,
                       double* out, const exec::Context& ctx) const {
  if (!compiled()) throw std::logic_error("GcnPlan::run before compile");
  if (merged.node_dim != node_dim_)
    throw std::invalid_argument("GcnPlan::run: node_dim mismatch");
  for (std::size_t hi : heads)
    if (hi >= head_blocks_.size())
      throw std::out_of_range("GcnPlan::run: head index");
  const std::size_t num_graphs = node_offset.size() - 1;
  for (std::size_t g = 0; g < num_graphs; ++g)
    if (node_offset[g + 1] == node_offset[g])
      throw std::invalid_argument("GcnPlan::run: empty graph");

  const std::size_t n = merged.num_nodes;
  const std::size_t e = merged.num_edges();
  const std::size_t hid = hidden_;
  std::size_t max_width = 0;
  for (std::size_t hi : heads)
    max_width = std::max(max_width, head_blocks_[hi].max_width);

  arena.reset();
  double* h = arena.alloc(n * hid);
  double* z = arena.alloc(n * hid);
  double* deg = arena.alloc(n);
  double* deg_out = arena.alloc(n);
  double* self_w = arena.alloc(n);
  double* wdata = arena.alloc(e);
  double* pooled = arena.alloc(num_graphs * hid);
  double* ping = arena.alloc(num_graphs * max_width);
  double* pong = arena.alloc(num_graphs * max_width);

  const std::uint32_t* src = merged.edge_src.data();
  const std::uint32_t* dst = merged.edge_dst.data();

  ctx.parallel_for(num_graphs, [&](std::size_t g) {
    const std::size_t n0 = node_offset[g], n1 = node_offset[g + 1];
    const std::size_t e0 = edge_offset[g], e1 = edge_offset[g + 1];

    // Degree normalization is a pure function of the graph, identical for
    // every layer, so it is computed once per graph (the training path
    // recomputes the same values per layer).
    for (std::size_t i = n0; i < n1; ++i) {
      deg[i] = 1.0;
      deg_out[i] = 1.0;
    }
    for (std::size_t ei = e0; ei < e1; ++ei) {
      deg[dst[ei]] += 1.0;
      deg_out[src[ei]] += 1.0;
    }
    for (std::size_t ei = e0; ei < e1; ++ei)
      wdata[ei] = 1.0 / std::sqrt(deg_out[src[ei]] * deg[dst[ei]]);
    for (std::size_t i = n0; i < n1; ++i)
      self_w[i] = 1.0 / std::sqrt(deg_out[i] * deg[i]);

    k_linear(merged.node_features.data(), node_dim_, h, hid, n0, n1, node_dim_,
             hid, input_proj_.w.data(), input_proj_.b.data());

    for (std::size_t li = 0; li < gcn_.size(); ++li) {
      const LinearBlock& lb = gcn_[li];
      k_linear(h, hid, z, hid, n0, n1, hid, hid, lb.w.data(), lb.b.data());
      // h is dead once z is computed, so it accumulates the aggregate (agg)
      // in place: one n x hidden scratch block less per batch.
      for (std::size_t i = n0; i < n1; ++i) {
        double* ar = h + i * hid;
        for (std::size_t c = 0; c < hid; ++c) ar[c] = 0.0;
      }
      // agg[dst] += z[src] * w[e]: the product is rounded before the add,
      // matching gather_rows → scale_rows → scatter_add_rows.
      for (std::size_t ei = e0; ei < e1; ++ei) {
        const double w = wdata[ei];
        const double* STCO_RESTRICT zs = z + src[ei] * hid;
        double* ar = h + dst[ei] * hid;
        for (std::size_t c = 0; c < hid; ++c) {
          const double t = zs[c] * w;
          ar[c] += t;
        }
      }
      // Self loop (add(agg, scale_rows(z, self_w))) + activation, fused.
      for (std::size_t i = n0; i < n1; ++i) {
        const double sw = self_w[i];
        const double* STCO_RESTRICT zr = z + i * hid;
        double* STCO_RESTRICT hr = h + i * hid;
        for (std::size_t c = 0; c < hid; ++c) {
          const double t = zr[c] * sw;
          hr[c] += t;
        }
      }
      k_activation(h, hid, n0, n1, hid, gcn_act_[li]);
    }

    k_mean_rows(h, hid, n0, n1, hid, pooled + g * hid);
    for (std::size_t oi = 0; oi < heads.size(); ++oi) {
      double head_out = 0.0;
      run_mlp_rows(head_blocks_[heads[oi]], pooled + g * hid, hid, &head_out, 1,
                   0, 1, ping + g * max_width, pong + g * max_width);
      out[g * heads.size() + oi] = head_out;
    }
  });

  obs::counter("gnn.infer.batches").add();
  obs::counter("gnn.infer.graphs").add(num_graphs);
  obs::gauge("gnn.infer.arena_bytes")
      .set(static_cast<double>(arena.capacity() * sizeof(double)));
  obs::gauge("gnn.infer.arena_high_water_bytes")
      .set_max(static_cast<double>(arena.used() * sizeof(double)));
}

std::vector<double> GcnPlan::run(const BatchedGraph& batch,
                                 std::span<const std::size_t> heads,
                                 Arena& arena, const exec::Context& ctx) const {
  obs::Span span("gnn.infer.run");
  std::vector<double> out(batch.num_graphs * heads.size());
  run_span(batch.merged, batch.node_offset, batch.edge_offset, heads, arena,
           out.data(), ctx);
  return out;
}

std::vector<double> GcnPlan::run_one(const Graph& g,
                                     std::span<const std::size_t> heads,
                                     Arena& arena) const {
  obs::Span span("gnn.infer.run");
  STCO_REQUIRE(g.valid(), "GcnPlan::run_one: invalid graph");
  const tensor::IndexVec node_offset = {0,
                                        static_cast<std::uint32_t>(g.num_nodes)};
  const tensor::IndexVec edge_offset = {
      0, static_cast<std::uint32_t>(g.num_edges())};
  std::vector<double> out(heads.size());
  run_span(g, node_offset, edge_offset, heads, arena, out.data(),
           exec::Context::serial());
  return out;
}

}  // namespace stco::gnn::infer
