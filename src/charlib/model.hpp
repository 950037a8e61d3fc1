#pragma once
// GNN cell-characterization model (paper section II.C): a shared 3-layer
// GCN trunk over the Table III cell graph, global mean pooling, and an
// additional 2-layer MLP per metric.
//
// Targets span many orders of magnitude (the paper notes dynamic power
// varies by orders of magnitude between cells), so each metric head is
// trained on standardized log10 targets; statistics are fit on the training
// split and kept with the model.

#include <array>
#include <map>
#include <memory>
#include <span>

#include "src/cells/characterize.hpp"
#include "src/charlib/encoder.hpp"
#include "src/gnn/infer/gcn_plan.hpp"
#include "src/gnn/layers.hpp"
#include "src/gnn/trainer.hpp"
#include "src/persist/storage.hpp"

namespace stco::charlib {

/// One supervised sample: a cell graph and a single metric target.
struct CharSample {
  gnn::Graph graph;
  cells::Metric metric = cells::Metric::kDelay;
  double target = 0.0;  ///< raw physical units (s, J, F, W)
  std::string cell;     ///< provenance, for per-cell error breakdowns
};

struct CellCharModelConfig {
  std::size_t hidden = 32;
  std::size_t mlp_hidden = 32;  ///< paper: 2-layer MLP per metric
  std::uint64_t seed = 17;
  gnn::TrainConfig train{};
  CellCharModelConfig() {
    train.epochs = 60;
    train.lr = 3e-3;
    train.batch_size = 16;
  }
};

class CellCharModel {
 public:
  explicit CellCharModel(const CellCharModelConfig& cfg = {});

  /// Fit per-metric log-space normalization statistics from these samples.
  /// Must be called (with the training split) before train()/predict().
  void fit_normalization(std::span<const CharSample> train);

  /// Train all heads jointly (each sample supervises its own head).
  /// Mini-batch forwards run as tasks on `ctx` (see gnn::train).
  gnn::TrainStats train(std::span<const CharSample> train_split,
                        const exec::Context& ctx = exec::Context::serial());

  /// Predicted raw value for a sample's graph/metric. Runs the compiled
  /// inference plan (no autograd); safe to call concurrently.
  double predict(const gnn::Graph& g, cells::Metric metric) const;

  /// Batched predict: one fused CSR forward over all graphs (graphs run as
  /// tasks on `ctx`), the trunk once per graph feeding every head in
  /// `metrics`. Returns (graphs.size() x metrics.size()) row-major raw
  /// values, each bit-identical to predict(graph, metric) for any batch
  /// composition and thread count. flow::build_library_gnn runs a whole
  /// library through one call.
  std::vector<double> predict_batch(
      std::span<const gnn::Graph> graphs, std::span<const cells::Metric> metrics,
      const exec::Context& ctx = exec::Context::serial()) const;

  /// Fingerprint of the compiled plan's weight snapshot (warm-start
  /// observability; recompiled exactly once per train()/load()).
  std::uint64_t plan_fingerprint() const { return plan_.fingerprint(); }

  /// MAPE [%] per metric over a split; metrics absent from the split get -1.
  std::array<double, cells::kNumMetrics> mape_by_metric(
      std::span<const CharSample> split) const;

  /// Count of samples per metric in a split.
  static std::array<std::size_t, cells::kNumMetrics> count_by_metric(
      std::span<const CharSample> split);

  /// MAPE [%] per cell for one metric (worst offenders first when printed
  /// by callers); cells absent from the split are omitted.
  std::map<std::string, double> mape_by_cell(std::span<const CharSample> split,
                                             cells::Metric metric) const;

  std::size_t num_parameters() const;

  /// Persist / restore weights plus the per-metric normalization
  /// statistics (a loaded model is immediately usable for predict()).
  /// Artifacts are checksummed and written atomically (src/persist);
  /// try_load degrades a missing or corrupt artifact to a LoadStatus so
  /// callers can fall back to retraining; load throws instead.
  void save(const std::string& path) const;
  [[nodiscard]] persist::LoadStatus try_load(const std::string& path);
  void load(const std::string& path);

 private:
  tensor::Tensor trunk_forward(
      const gnn::Graph& g,
      const exec::Context& ctx = exec::Context::serial()) const;
  tensor::Tensor head_forward(
      const tensor::Tensor& pooled, cells::Metric metric,
      const exec::Context& ctx = exec::Context::serial()) const;
  std::vector<tensor::Tensor> parameters() const;

  void recompile_plan();

  CellCharModelConfig cfg_;
  std::unique_ptr<gnn::Linear> input_proj_;
  std::vector<gnn::GcnLayer> gcn_;
  std::vector<gnn::Mlp> heads_;  ///< one per metric
  /// Compiled inference plan over the trunk + heads; rebuilt at every
  /// weight mutation point (construction, train(), try_load()).
  gnn::infer::GcnPlan plan_;
  std::array<double, cells::kNumMetrics> norm_mean_{};
  std::array<double, cells::kNumMetrics> norm_std_{};
  bool normalized_ = false;
};

/// log10 with the floor used for all metric targets.
double log_target(double raw);
double unlog_target(double logged);

}  // namespace stco::charlib
