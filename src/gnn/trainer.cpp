#include "src/gnn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "src/obs/obs.hpp"
#include "src/tensor/ops.hpp"

namespace stco::gnn {

namespace {

constexpr double kLrDecay = 0.99;  ///< multiplicative per epoch
constexpr double kGradClip = 5.0;  ///< global L2 norm clip

}  // namespace

TrainStats train(std::vector<tensor::Tensor> params, const SampleLossFn& sample_loss,
                 std::size_t n_samples, const TrainConfig& cfg,
                 const exec::Context& ctx) {
  if (n_samples == 0) throw std::invalid_argument("train: empty dataset");
  obs::Span train_span("gnn.train");
  static obs::Counter& c_epochs = obs::counter("gnn.epochs");
  static obs::Gauge& g_loss = obs::gauge("gnn.epoch_loss");
  static obs::Histogram& h_epoch_s = obs::histogram(
      "gnn.epoch_seconds", {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0});
  static obs::ProgressTask& prog = obs::progress("gnn.train.epochs");
  prog.add_work(cfg.epochs);
  tensor::Adam opt(std::move(params), cfg.lr);
  numeric::Rng rng(cfg.shuffle_seed);

  std::vector<std::size_t> order(n_samples);
  std::iota(order.begin(), order.end(), 0);

  TrainStats stats;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::Span epoch_span("gnn.epoch");
    // stco-lint: allow(nondet-clock-now) epoch-duration histogram
    const auto epoch_t0 = std::chrono::steady_clock::now();
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = n_samples; i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform_index(i)]);

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n_samples; start += cfg.batch_size) {
      const std::size_t end = std::min(start + cfg.batch_size, n_samples);
      const double inv = 1.0 / static_cast<double>(end - start);
      opt.zero_grad();
      // Forward passes build independent autograd graphs (they share only
      // the read-only parameter leaves), so they run as parallel tasks.
      auto losses = ctx.map(
          end - start, [&](std::size_t k) { return sample_loss(order[start + k]); });
      // Backward runs serially in batch-index order: each sample's gradient
      // lands on the shared parameters in the same sequence regardless of
      // thread count, keeping the training trajectory deterministic.
      double batch_sum = 0.0;
      for (auto& l : losses) {
        tensor::Tensor scaled = tensor::scale(l, inv);
        scaled.backward();
        batch_sum += l.item();
      }
      opt.clip_grad_norm(kGradClip);
      opt.step();
      epoch_loss += batch_sum * inv;
      ++batches;
    }
    epoch_loss /= static_cast<double>(batches);
    stats.epoch_loss.push_back(epoch_loss);
    stats.final_loss = epoch_loss;
    stats.epochs_run = epoch + 1;
    c_epochs.add(1);
    g_loss.set(epoch_loss);
    h_epoch_s.observe(std::chrono::duration<double>(
                          // stco-lint: allow(nondet-clock-now) epoch timing
                          std::chrono::steady_clock::now() - epoch_t0)
                          .count());
    opt.lr() *= kLrDecay;
    prog.advance(1);
    if (cfg.on_epoch && !cfg.on_epoch(epoch, epoch_loss)) break;
  }
  // Early stop: retract the epochs we decided not to run so the task reads
  // complete (done == total, ETA 0) instead of stalled.
  prog.reduce_work(cfg.epochs - stats.epochs_run);
  return stats;
}

}  // namespace stco::gnn
