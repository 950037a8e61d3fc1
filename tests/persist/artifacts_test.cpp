// Typed artifact tests: the weights artifact (bit-exact round trip, model-tag
// confusion, every decode failure mapped to a counted LoadStatus,
// all-or-nothing restore) and the RobustnessStats payload codec.

#include "src/persist/artifacts.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/gnn/models.hpp"
#include "src/numeric/rng.hpp"
#include "src/obs/obs.hpp"
#include "src/tensor/tensor.hpp"

namespace stco::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kTagA = fourcc('T', 'A', 'G', 'A');
constexpr std::uint32_t kTagB = fourcc('T', 'A', 'G', 'B');
constexpr std::uint32_t kWeightsSchema = 2;

class ArtifactsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("persist_artifacts_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  static std::vector<tensor::Tensor> sample_params() {
    return {tensor::Tensor::from_data({1.5, -2.0, 0.25, 1e-9}, 2, 2),
            tensor::Tensor::from_data({3.0, 4.0, 5.0}, 3, 1)};
  }

  /// The payload of a weights artifact written by write_weights.
  std::string weights_payload(const char* name) {
    ArtifactData art = read_artifact(storage_, path(name), kind::kWeights);
    EXPECT_TRUE(ok(art.status));
    return art.payload;
  }

  static std::uint64_t corrupt_count() {
    return obs::snapshot().counter_or("persist.corrupt_artifacts");
  }
  static void expect_counted(std::uint64_t before) {
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(corrupt_count(), before + 1);
    }
  }

  fs::path dir_;
  Storage storage_{RetryPolicy{1, 0, false}};
};

TEST_F(ArtifactsTest, WeightsRoundTrip) {
  const auto saved = sample_params();
  write_weights(storage_, path("w.stca"), kTagA, saved);

  auto loaded = sample_params();
  for (auto& t : loaded)
    for (auto& v : t.value()) v = 0.0;
  ASSERT_TRUE(ok(read_weights(storage_, path("w.stca"), kTagA, loaded)));
  for (std::size_t i = 0; i < saved.size(); ++i)
    EXPECT_EQ(loaded[i].value(), saved[i].value());
}

TEST_F(ArtifactsTest, WeightsRoundTripIsBitExact) {
  // Random values plus the doubles a text or rounding codec would alter:
  // signed zero, subnormals, extremes, infinities.
  numeric::Rng rng(1);
  std::vector<double> big(12);
  for (auto& v : big) v = rng.normal();
  big[0] = -0.0;
  big[1] = std::numeric_limits<double>::denorm_min();
  big[2] = -std::numeric_limits<double>::max();
  big[3] = std::numeric_limits<double>::infinity();
  big[4] = -std::numeric_limits<double>::infinity();
  big[5] = 0.1;
  const std::vector<tensor::Tensor> saved = {
      tensor::Tensor::from_data({rng.normal(), rng.normal()}, 1, 2),
      tensor::Tensor::from_data(std::move(big), 3, 4)};
  write_weights(storage_, path("w.stca"), kTagA, saved);

  std::vector<tensor::Tensor> loaded = {tensor::Tensor::full(1, 2, 7.0),
                                        tensor::Tensor::full(3, 4, 7.0)};
  ASSERT_EQ(read_weights(storage_, path("w.stca"), kTagA, loaded), LoadStatus::kOk);
  for (std::size_t i = 0; i < saved.size(); ++i) {
    ASSERT_EQ(loaded[i].size(), saved[i].size());
    for (std::size_t k = 0; k < saved[i].size(); ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[i].value()[k]),
                std::bit_cast<std::uint64_t>(saved[i].value()[k]))
          << "tensor " << i << " element " << k;
  }
}

TEST_F(ArtifactsTest, MissingWeightsDegradeToNotFound) {
  auto params = sample_params();
  EXPECT_EQ(read_weights(storage_, path("absent.stca"), kTagA, params),
            LoadStatus::kNotFound);
}

TEST_F(ArtifactsTest, ModelTagConfusionIsWrongKind) {
  write_weights(storage_, path("w.stca"), kTagA, sample_params());
  auto params = sample_params();
  EXPECT_EQ(read_weights(storage_, path("w.stca"), kTagB, params),
            LoadStatus::kWrongKind);
}

TEST_F(ArtifactsTest, ShapeMismatchIsBadPayloadAndLeavesParamsUntouched) {
  write_weights(storage_, path("w.stca"), kTagA, sample_params());
  // Different topology: the tensor codec must reject, and the target
  // parameters must keep their pre-load values (all-or-nothing).
  std::vector<tensor::Tensor> other = {tensor::Tensor::full(4, 4, 7.0)};
  const LoadStatus status = read_weights(storage_, path("w.stca"), kTagA, other);
  EXPECT_EQ(status, LoadStatus::kBadPayload);
  for (const double v : other[0].value()) EXPECT_EQ(v, 7.0);
}

TEST_F(ArtifactsTest, TruncatedWeightsDegradeNotThrow) {
  write_weights(storage_, path("w.stca"), kTagA, sample_params());
  std::string bytes;
  ASSERT_EQ(storage_.read(path("w.stca"), bytes), LoadStatus::kOk);
  storage_.write_atomic(path("w.stca"),
                        std::string_view(bytes).substr(0, bytes.size() / 2));
  auto params = sample_params();
  const LoadStatus status = read_weights(storage_, path("w.stca"), kTagA, params);
  EXPECT_FALSE(ok(status));
  EXPECT_TRUE(corrupt(status));
}

TEST_F(ArtifactsTest, WeightsTruncatedPayloadIsBadPayload) {
  // Cut the payload, not the file: the re-wrapped artifact carries a valid
  // checksum, so the weights decoder itself must catch the short payload.
  write_weights(storage_, path("w.stca"), kTagA, sample_params());
  const std::string payload = weights_payload("w.stca");
  write_artifact(storage_, path("w.stca"), kind::kWeights, kWeightsSchema,
                 std::string_view(payload).substr(0, payload.size() / 2));
  auto params = sample_params();
  for (auto& t : params) t.value().assign(t.size(), 7.0);
  const std::uint64_t before = corrupt_count();
  EXPECT_EQ(read_weights(storage_, path("w.stca"), kTagA, params),
            LoadStatus::kBadPayload);
  expect_counted(before);
  for (const auto& t : params)
    for (const double v : t.value()) EXPECT_EQ(v, 7.0);
}

TEST_F(ArtifactsTest, WeightsCountMismatchIsBadPayload) {
  write_weights(storage_, path("w.stca"), kTagA, sample_params());
  std::vector<tensor::Tensor> one = {sample_params()[0]};
  const std::uint64_t before = corrupt_count();
  EXPECT_EQ(read_weights(storage_, path("w.stca"), kTagA, one), LoadStatus::kBadPayload);
  expect_counted(before);
}

TEST_F(ArtifactsTest, WeightsShapeMismatchIsBadPayload) {
  write_weights(storage_, path("w.stca"), kTagA, sample_params());
  // Same tensor count and element counts, transposed shapes.
  std::vector<tensor::Tensor> wrong = {tensor::Tensor::zeros(2, 2),
                                       tensor::Tensor::zeros(1, 3)};
  const std::uint64_t before = corrupt_count();
  EXPECT_EQ(read_weights(storage_, path("w.stca"), kTagA, wrong),
            LoadStatus::kBadPayload);
  expect_counted(before);
  for (const auto& t : wrong)
    for (const double v : t.value()) EXPECT_EQ(v, 0.0);
}

TEST_F(ArtifactsTest, WeightsTrailingBytesAreBadPayload) {
  write_weights(storage_, path("w.stca"), kTagA, sample_params());
  write_artifact(storage_, path("w.stca"), kind::kWeights, kWeightsSchema,
                 weights_payload("w.stca") + "x");
  auto params = sample_params();
  const std::uint64_t before = corrupt_count();
  EXPECT_EQ(read_weights(storage_, path("w.stca"), kTagA, params),
            LoadStatus::kBadPayload);
  expect_counted(before);
}

TEST_F(ArtifactsTest, WeightsBadHeaderIsRejected) {
  auto params = sample_params();
  // Not an STCA container at all.
  storage_.write_atomic(path("junk.stca"), std::string(64, 'N'));
  std::uint64_t before = corrupt_count();
  EXPECT_EQ(read_weights(storage_, path("junk.stca"), kTagA, params),
            LoadStatus::kBadMagic);
  expect_counted(before);
  // A weights artifact from the schema that nested a tensor stream: the
  // model retrains instead of decoding it.
  write_weights(storage_, path("w.stca"), kTagA, params);
  write_artifact(storage_, path("w.stca"), kind::kWeights, kWeightsSchema - 1,
                 weights_payload("w.stca"));
  before = corrupt_count();
  EXPECT_EQ(read_weights(storage_, path("w.stca"), kTagA, params),
            LoadStatus::kBadVersion);
  expect_counted(before);
}

TEST_F(ArtifactsTest, TrainedModelRoundTripsThroughWeights) {
  // Save a model's parameters, perturb them, reload: predictions restored.
  numeric::Rng rng(7);
  gnn::RelGatModel model(gnn::iv_predictor_config(4, 2, 8), rng);

  gnn::Graph g;
  g.num_nodes = 3;
  g.node_dim = 4;
  g.edge_dim = 2;
  g.edge_src = {0, 1};
  g.edge_dst = {1, 2};
  g.node_features.assign(12, 0.3);
  g.edge_features.assign(4, 0.1);

  const double before = model.forward(g).item();
  auto params = model.parameters();
  write_weights(storage_, path("model.stca"), kTagA, params);
  for (auto& p : params)
    for (auto& v : p.value()) v += 1.0;  // wreck the weights
  EXPECT_NE(model.forward(g).item(), before);
  ASSERT_TRUE(ok(read_weights(storage_, path("model.stca"), kTagA, params)));
  EXPECT_DOUBLE_EQ(model.forward(g).item(), before);
}

TEST(RobustnessCodec, RoundTripsEveryField) {
  numeric::RobustnessStats s;
  s.attempts = 11;
  s.direct_success = 7;
  s.gmin_retries = 1;
  s.source_retries = 2;
  s.continuation_retries = 3;
  s.damping_retries = 4;
  s.recovered = 5;
  s.failures = 6;
  s.budget_exhausted = 8;
  s.fallbacks = 9;

  PayloadWriter w;
  put_robustness(w, s);
  PayloadReader r(w.bytes());
  const numeric::RobustnessStats got = get_robustness(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(got.attempts, s.attempts);
  EXPECT_EQ(got.direct_success, s.direct_success);
  EXPECT_EQ(got.gmin_retries, s.gmin_retries);
  EXPECT_EQ(got.source_retries, s.source_retries);
  EXPECT_EQ(got.continuation_retries, s.continuation_retries);
  EXPECT_EQ(got.damping_retries, s.damping_retries);
  EXPECT_EQ(got.recovered, s.recovered);
  EXPECT_EQ(got.failures, s.failures);
  EXPECT_EQ(got.budget_exhausted, s.budget_exhausted);
  EXPECT_EQ(got.fallbacks, s.fallbacks);
}

}  // namespace
}  // namespace stco::persist
