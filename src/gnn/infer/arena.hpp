#pragma once
// Per-batch bump allocator for the inference engine.
//
// A forward pass through an InferencePlan needs a handful of scratch
// matrices (projected features, per-edge messages, attention logits,
// pooled rows).  Allocating them per call through the autograd Tensor
// machinery is what makes the training path slow for inference, so the
// plan instead carves all scratch out of one Arena: a single aligned
// allocation that grows to the high-water mark of the largest batch seen
// and is then reused (reset, not freed) between calls.  Under STCO_CHECKS
// every handed-out block is NaN-poisoned so a kernel reading scratch it
// never wrote fails loudly.

#include <cstddef>

#include "src/tensor/aligned.hpp"

namespace stco::gnn::infer {

class Arena {
 public:
  Arena() = default;

  /// Hand out `n` doubles, 64-byte aligned. Pointers stay valid until the
  /// next reset()/reserve(); a grow coalesces into one block so steady
  /// state is exactly one allocation per batch size class.
  double* alloc(std::size_t n);

  /// Rewind to empty, keeping capacity. If the previous batch overflowed
  /// into a growth chunk, the arena re-reserves the high-water mark so the
  /// next batch of the same shape runs out of one block.
  void reset();

  /// Pre-size the arena (one allocation up front).
  void reserve(std::size_t doubles);

  std::size_t capacity() const { return buf_.size(); }
  std::size_t used() const { return used_ + overflow_retired_ + overflow_used_; }

 private:
  tensor::AlignedVec buf_;       // primary block
  std::size_t used_ = 0;         // doubles handed out of buf_
  tensor::AlignedVec overflow_;  // growth chunk for the current batch
  std::size_t overflow_used_ = 0;
  // Outgrown overflow chunks from the current batch; pointers into them
  // must survive until reset().
  std::vector<tensor::AlignedVec> retired_;
  std::size_t overflow_retired_ = 0;  // doubles used in retired chunks
};

/// Thread-local scratch arena. Inference entry points that do not manage
/// their own arena (e.g. charlib::CellCharModel::predict called from
/// parallel exec tasks) draw from here, so concurrent predictions never
/// contend and steady-state predictions allocate nothing.
Arena& scratch_arena();

}  // namespace stco::gnn::infer
