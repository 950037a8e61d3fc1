#include "src/persist/artifacts.hpp"

#include <utility>

namespace stco::persist {

namespace {
// Schema 2 encodes tensors directly; a schema-1 file reads as kBadVersion,
// so its model retrains.
constexpr std::uint32_t kWeightsSchema = 2;
}  // namespace

void write_weights(Storage& storage, const std::string& path, std::uint32_t model_tag,
                   const std::vector<tensor::Tensor>& params) {
  PayloadWriter w;
  w.put_u32(model_tag);
  w.put_u64(params.size());
  for (const tensor::Tensor& p : params) {
    w.put_u64(p.rows());
    w.put_u64(p.cols());
    w.put_f64s(p.value());
  }
  write_artifact(storage, path, kind::kWeights, kWeightsSchema, w.bytes());
}

LoadStatus read_weights(Storage& storage, const std::string& path,
                        std::uint32_t model_tag, std::vector<tensor::Tensor>& params) {
  const ArtifactData art = read_artifact(storage, path, kind::kWeights, kWeightsSchema);
  if (!ok(art.status)) return art.status;
  try {
    PayloadReader r(art.payload);
    if (r.get_u32() != model_tag) {
      count_corrupt_artifact();
      return LoadStatus::kWrongKind;
    }
    if (r.get_u64() != params.size()) throw PayloadError("weights: tensor count mismatch");
    // Decode every tensor before touching `params`, so a payload that fails
    // mid-way cannot leave them half-overwritten.
    std::vector<std::vector<double>> values;
    values.reserve(params.size());
    for (const tensor::Tensor& p : params) {
      const std::uint64_t rows = r.get_u64();
      const std::uint64_t cols = r.get_u64();
      values.push_back(r.get_f64s());
      if (rows != p.rows() || cols != p.cols() || values.back().size() != p.size())
        throw PayloadError("weights: shape mismatch");
    }
    if (!r.done()) throw PayloadError("weights: trailing bytes");
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i].value() = std::move(values[i]);
  } catch (const PayloadError&) {
    count_corrupt_artifact();
    return LoadStatus::kBadPayload;
  }
  return LoadStatus::kOk;
}

void put_robustness(PayloadWriter& w, const numeric::RobustnessStats& s) {
  w.put_u64(s.attempts);
  w.put_u64(s.direct_success);
  w.put_u64(s.gmin_retries);
  w.put_u64(s.source_retries);
  w.put_u64(s.continuation_retries);
  w.put_u64(s.damping_retries);
  w.put_u64(s.recovered);
  w.put_u64(s.failures);
  w.put_u64(s.budget_exhausted);
  w.put_u64(s.fallbacks);
}

numeric::RobustnessStats get_robustness(PayloadReader& r) {
  numeric::RobustnessStats s;
  s.attempts = r.get_u64();
  s.direct_success = r.get_u64();
  s.gmin_retries = r.get_u64();
  s.source_retries = r.get_u64();
  s.continuation_retries = r.get_u64();
  s.damping_retries = r.get_u64();
  s.recovered = r.get_u64();
  s.failures = r.get_u64();
  s.budget_exhausted = r.get_u64();
  s.fallbacks = r.get_u64();
  return s;
}

}  // namespace stco::persist
