#include "src/gnn/infer/arena.hpp"

#include "src/numeric/contract.hpp"
#include "src/obs/obs.hpp"

namespace stco::gnn::infer {

namespace {
// Round a block up to a whole number of cache lines (8 doubles) so every
// block handed out of the arena starts 64-byte aligned.
constexpr std::size_t kBlockDoubles = tensor::kKernelAlignment / sizeof(double);

std::size_t round_up(std::size_t n) {
  return (n + kBlockDoubles - 1) / kBlockDoubles * kBlockDoubles;
}
}  // namespace

double* Arena::alloc(std::size_t n) {
  const std::size_t need = round_up(n == 0 ? 1 : n);
  double* p = nullptr;
  if (used_ + need <= buf_.size()) {
    p = buf_.data() + used_;
    used_ += need;
  } else {
    // Current batch outgrew the primary block: satisfy it from a growth
    // chunk. reset() folds the high-water mark back into one block.
    if (overflow_used_ + need > overflow_.size()) {
      const std::size_t grow = overflow_.size() + (overflow_.size() / 2) + need;
      tensor::AlignedVec next(grow);
      // Old overflow pointers from this batch must stay valid, so the
      // outgrown chunk is swapped out but kept alive until reset().
      overflow_retired_ += overflow_used_;
      retired_.push_back(std::move(overflow_));
      overflow_ = std::move(next);
      overflow_used_ = 0;
    }
    p = overflow_.data() + overflow_used_;
    overflow_used_ += need;
  }
  if constexpr (numeric::contract::kChecksEnabled) {
    numeric::contract::poison(p, need);
  }
  return p;
}

void Arena::reset() {
  const std::size_t high_water = used();
  // Process-wide high-water gauge across every (thread-local) arena: the
  // peak footprint one batch actually touched, vs arena_bytes' capacity.
  static obs::Gauge& g_high_water =
      obs::gauge("gnn.infer.arena_high_water_bytes");
  g_high_water.set_max(static_cast<double>(high_water * sizeof(double)));
  used_ = 0;
  overflow_used_ = 0;
  overflow_retired_ = 0;
  retired_.clear();
  if (high_water > buf_.size()) {
    // Coalesce: next batch of this shape fits the primary block.
    reserve(high_water);
  }
  overflow_.clear();
  overflow_.shrink_to_fit();
}

void Arena::reserve(std::size_t doubles) {
  const std::size_t need = round_up(doubles);
  if (need > buf_.size()) {
    buf_.assign(need, 0.0);
    static obs::Gauge& g_high_water =
        obs::gauge("gnn.infer.arena_high_water_bytes");
    g_high_water.set_max(static_cast<double>(need * sizeof(double)));
  }
}

Arena& scratch_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace stco::gnn::infer
