#pragma once
// Generic mini-batch training loop used by both surrogates and the cell
// characterization model. The loop is agnostic to model structure: the
// caller provides a per-sample loss closure.

#include <functional>
#include <vector>

#include "src/exec/context.hpp"
#include "src/numeric/rng.hpp"
#include "src/tensor/optim.hpp"

namespace stco::gnn {

struct TrainConfig {
  std::size_t epochs = 50;
  std::size_t batch_size = 8;
  double lr = 1e-3;
  std::uint64_t shuffle_seed = 7;
  /// Called after each epoch with (epoch, mean training loss); return false
  /// to stop early.
  std::function<bool(std::size_t, double)> on_epoch;
};

struct TrainStats {
  std::vector<double> epoch_loss;
  double final_loss = 0.0;
  std::size_t epochs_run = 0;
};

/// Per-sample loss closure: returns a scalar loss tensor for sample i.
using SampleLossFn = std::function<tensor::Tensor(std::size_t)>;

/// Train `params` with Adam over `n_samples` samples. Each optimizer step
/// averages the losses of one shuffled mini-batch.
///
/// Mini-batch forward passes (independent autograd graph builds) run as
/// tasks on `ctx`; the per-sample backward passes then run serially in
/// batch-index order, so gradient accumulation — and hence the entire
/// training trajectory — is bit-identical for any thread count.
TrainStats train(std::vector<tensor::Tensor> params, const SampleLossFn& sample_loss,
                 std::size_t n_samples, const TrainConfig& cfg,
                 const exec::Context& ctx = exec::Context::serial());

}  // namespace stco::gnn
