#pragma once
// Typed artifact helpers shared by the model/dataset persistence code.
//
// Registry of STCA artifact kinds (fourcc), the weights artifact (any
// parameter list as its tensor count, shapes and values, tagged per model
// so a charlib model file cannot be loaded as a surrogate), and the codec for
// numeric::RobustnessStats (checkpointed per shard so resumed aggregate
// stats match an uninterrupted run exactly).

#include <cstdint>
#include <string>
#include <vector>

#include "src/numeric/status.hpp"
#include "src/persist/format.hpp"
#include "src/persist/storage.hpp"
#include "src/tensor/tensor.hpp"

namespace stco::persist {

namespace kind {
inline constexpr std::uint32_t kWeights = fourcc('W', 'G', 'T', 'S');
inline constexpr std::uint32_t kCharlibShard = fourcc('C', 'H', 'D', 'S');
inline constexpr std::uint32_t kSurrogateShard = fourcc('S', 'G', 'D', 'S');
inline constexpr std::uint32_t kCostCache = fourcc('C', 'O', 'S', 'T');
inline constexpr std::uint32_t kManifest = fourcc('M', 'A', 'N', 'I');
}  // namespace kind

/// Write a model's parameter list as a checksummed weights artifact.
/// `model_tag` is a fourcc naming the owning model (e.g. charlib vs
/// surrogate) so kind confusion inside kWeights is detected too.
void write_weights(Storage& storage, const std::string& path, std::uint32_t model_tag,
                   const std::vector<tensor::Tensor>& params);

/// Load a weights artifact into `params` (shapes must already match; the
/// copy is all-or-nothing). A tag, count or shape mismatch, or bytes left
/// over, degrades to a status.
[[nodiscard]] LoadStatus read_weights(Storage& storage, const std::string& path,
                                      std::uint32_t model_tag,
                                      std::vector<tensor::Tensor>& params);

/// RobustnessStats codec, used inside shard payloads.
void put_robustness(PayloadWriter& w, const numeric::RobustnessStats& s);
numeric::RobustnessStats get_robustness(PayloadReader& r);  ///< throws PayloadError

}  // namespace stco::persist
