#include "src/charlib/model.hpp"

#include <cmath>
#include <stdexcept>

#include "src/numeric/stats.hpp"
#include "src/persist/artifacts.hpp"
#include "src/tensor/ops.hpp"

namespace stco::charlib {

namespace {
constexpr double kFloor = 1e-21;
constexpr std::size_t kGcnLayers = 3;  ///< paper: 3-layer GCN
/// Model tag inside the weights artifact: distinguishes a charlib model
/// file from any other parameter dump with the same tensor shapes.
constexpr std::uint32_t kModelTag = persist::fourcc('C', 'H', 'M', 'D');
}

double log_target(double raw) { return std::log10(std::fabs(raw) + kFloor); }
double unlog_target(double logged) { return std::pow(10.0, logged); }

CellCharModel::CellCharModel(const CellCharModelConfig& cfg) : cfg_(cfg) {
  numeric::Rng rng(cfg.seed);
  input_proj_ = std::make_unique<gnn::Linear>(kCellNodeDim, cfg.hidden, rng);
  for (std::size_t i = 0; i < kGcnLayers; ++i)
    gcn_.emplace_back(cfg.hidden, cfg.hidden, rng, gnn::Activation::kRelu);
  for (std::size_t m = 0; m < cells::kNumMetrics; ++m)
    heads_.emplace_back(std::vector<std::size_t>{cfg.hidden, cfg.mlp_hidden, 1}, rng);
  norm_mean_.fill(0.0);
  norm_std_.fill(1.0);
  recompile_plan();
}

void CellCharModel::recompile_plan() {
  plan_ = gnn::infer::compile_gcn_plan(*input_proj_, gcn_, heads_);
}

void CellCharModel::fit_normalization(std::span<const CharSample> train) {
  std::array<numeric::Vec, cells::kNumMetrics> per_metric;
  for (const auto& s : train)
    per_metric[static_cast<std::size_t>(s.metric)].push_back(log_target(s.target));
  for (std::size_t m = 0; m < cells::kNumMetrics; ++m) {
    if (per_metric[m].empty()) continue;
    norm_mean_[m] = numeric::mean(per_metric[m]);
    norm_std_[m] = std::max(numeric::stddev(per_metric[m]), 1e-3);
  }
  normalized_ = true;
}

tensor::Tensor CellCharModel::trunk_forward(const gnn::Graph& g,
                                            const exec::Context& ctx) const {
  tensor::Tensor h = input_proj_->forward(g.node_tensor(), ctx);
  for (const auto& layer : gcn_) h = layer.forward(h, g, ctx);
  return tensor::mean_rows(h);
}

tensor::Tensor CellCharModel::head_forward(const tensor::Tensor& pooled,
                                           cells::Metric metric,
                                           const exec::Context& ctx) const {
  return heads_[static_cast<std::size_t>(metric)].forward(pooled, ctx);
}

std::vector<tensor::Tensor> CellCharModel::parameters() const {
  std::vector<tensor::Tensor> ps = input_proj_->parameters();
  for (const auto& l : gcn_)
    for (auto& p : l.parameters()) ps.push_back(p);
  for (const auto& h : heads_)
    for (auto& p : h.parameters()) ps.push_back(p);
  return ps;
}

std::size_t CellCharModel::num_parameters() const {
  std::size_t n = 0;
  for (const auto& p : parameters()) n += p.size();
  return n;
}

gnn::TrainStats CellCharModel::train(std::span<const CharSample> train_split,
                                     const exec::Context& ctx) {
  if (!normalized_) fit_normalization(train_split);
  // Multi-task balance: delay/slew/power samples outnumber capacitance,
  // leakage, and constraint samples by an order of magnitude; inverse-
  // sqrt-frequency weights keep the shared trunk from ignoring the rare
  // heads.
  const auto counts = count_by_metric(train_split);
  std::size_t max_count = 1;
  for (auto c : counts) max_count = std::max(max_count, c);
  std::array<double, cells::kNumMetrics> weight{};
  for (std::size_t m = 0; m < cells::kNumMetrics; ++m)
    weight[m] = counts[m]
                    ? std::clamp(std::sqrt(static_cast<double>(max_count) /
                                           static_cast<double>(counts[m])),
                                 0.5, 4.0)
                    : 0.0;

  auto loss = [&, weight](std::size_t i) {
    const auto& s = train_split[i];
    const std::size_t m = static_cast<std::size_t>(s.metric);
    const double y = (log_target(s.target) - norm_mean_[m]) / norm_std_[m];
    const tensor::Tensor pred =
        head_forward(trunk_forward(s.graph, ctx), s.metric, ctx);
    return tensor::scale(tensor::mse_loss(pred, tensor::Tensor::scalar(y)), weight[m]);
  };
  auto stats = gnn::train(parameters(), loss, train_split.size(), cfg_.train, ctx);
  recompile_plan();  // weights changed: new plan snapshot
  return stats;
}

double CellCharModel::predict(const gnn::Graph& g, cells::Metric metric) const {
  if (!normalized_) throw std::logic_error("CellCharModel::predict before training");
  const std::size_t m = static_cast<std::size_t>(metric);
  const std::size_t head[] = {m};
  const double y = plan_.run_one(g, head, gnn::infer::scratch_arena())[0];
  return unlog_target(y * norm_std_[m] + norm_mean_[m]);
}

std::vector<double> CellCharModel::predict_batch(
    std::span<const gnn::Graph> graphs, std::span<const cells::Metric> metrics,
    const exec::Context& ctx) const {
  if (!normalized_)
    throw std::logic_error("CellCharModel::predict_batch before training");
  std::vector<std::size_t> heads(metrics.size());
  for (std::size_t j = 0; j < metrics.size(); ++j)
    heads[j] = static_cast<std::size_t>(metrics[j]);
  const gnn::BatchedGraph batch = gnn::merge_graphs(graphs);
  std::vector<double> out =
      plan_.run(batch, heads, gnn::infer::scratch_arena(), ctx);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    for (std::size_t j = 0; j < heads.size(); ++j) {
      double& v = out[i * heads.size() + j];
      v = unlog_target(v * norm_std_[heads[j]] + norm_mean_[heads[j]]);
    }
  return out;
}

std::array<double, cells::kNumMetrics> CellCharModel::mape_by_metric(
    std::span<const CharSample> split) const {
  std::array<numeric::Vec, cells::kNumMetrics> pred, act;
  for (const auto& s : split) {
    const std::size_t m = static_cast<std::size_t>(s.metric);
    pred[m].push_back(predict(s.graph, s.metric));
    act[m].push_back(s.target);
  }
  std::array<double, cells::kNumMetrics> out;
  out.fill(-1.0);
  for (std::size_t m = 0; m < cells::kNumMetrics; ++m) {
    if (act[m].empty()) continue;
    out[m] = numeric::mape(pred[m], act[m], kFloor);
  }
  return out;
}

std::map<std::string, double> CellCharModel::mape_by_cell(
    std::span<const CharSample> split, cells::Metric metric) const {
  std::map<std::string, std::pair<numeric::Vec, numeric::Vec>> per_cell;
  for (const auto& s : split) {
    if (s.metric != metric) continue;
    auto& [pred, act] = per_cell[s.cell];
    pred.push_back(predict(s.graph, s.metric));
    act.push_back(s.target);
  }
  std::map<std::string, double> out;
  for (const auto& [cell, pa] : per_cell)
    out[cell] = numeric::mape(pa.first, pa.second, kFloor);
  return out;
}

void CellCharModel::save(const std::string& path) const {
  auto params = parameters();
  // Normalization statistics ride along as one extra 2 x 9 tensor.
  std::vector<double> stats(2 * cells::kNumMetrics);
  for (std::size_t m = 0; m < cells::kNumMetrics; ++m) {
    stats[m] = norm_mean_[m];
    stats[cells::kNumMetrics + m] = norm_std_[m];
  }
  params.push_back(tensor::Tensor::from_data(std::move(stats), 2, cells::kNumMetrics));
  persist::write_weights(persist::default_storage(), path, kModelTag, params);
}

persist::LoadStatus CellCharModel::try_load(const std::string& path) {
  auto params = parameters();
  auto stats = tensor::Tensor::zeros(2, cells::kNumMetrics);
  params.push_back(stats);
  const persist::LoadStatus status =
      persist::read_weights(persist::default_storage(), path, kModelTag, params);
  if (!persist::ok(status)) return status;
  for (std::size_t m = 0; m < cells::kNumMetrics; ++m) {
    norm_mean_[m] = stats(0, m);
    norm_std_[m] = stats(1, m);
  }
  normalized_ = true;
  // Warm start: the loaded artifact is the new weight state, so the plan
  // is rebuilt exactly once here.
  recompile_plan();
  return status;
}

void CellCharModel::load(const std::string& path) {
  const persist::LoadStatus status = try_load(path);
  if (!persist::ok(status))
    throw std::runtime_error("CellCharModel::load: " + path + ": " +
                             persist::to_string(status));
}

std::array<std::size_t, cells::kNumMetrics> CellCharModel::count_by_metric(
    std::span<const CharSample> split) {
  std::array<std::size_t, cells::kNumMetrics> out{};
  for (const auto& s : split) ++out[static_cast<std::size_t>(s.metric)];
  return out;
}

}  // namespace stco::charlib
