// Checkpoint / resume tests: manifest round trip, configuration
// fingerprints, and the headline contract — a dataset build killed
// mid-generation and resumed produces exactly what an uninterrupted run
// produces, and a corrupt shard is detected, counted, and rebuilt.

#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/charlib/checkpoint.hpp"
#include "src/gnn/serialize.hpp"
#include "src/obs/obs.hpp"
#include "src/persist/artifacts.hpp"
#include "src/persist/fault.hpp"
#include "src/persist/manifest.hpp"

namespace stco {
namespace {

namespace fs = std::filesystem;

persist::RetryPolicy no_sleep() { return persist::RetryPolicy{1, 0, false}; }

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("persist_resume_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string sub(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

void expect_same_graph(const gnn::Graph& a, const gnn::Graph& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.node_dim, b.node_dim);
  EXPECT_EQ(a.edge_dim, b.edge_dim);
  EXPECT_EQ(a.edge_src, b.edge_src);
  EXPECT_EQ(a.edge_dst, b.edge_dst);
  EXPECT_EQ(a.node_features, b.node_features);
  EXPECT_EQ(a.edge_features, b.edge_features);
  EXPECT_EQ(a.node_targets, b.node_targets);
  EXPECT_EQ(a.graph_targets, b.graph_targets);
}

// --- manifest ------------------------------------------------------------

TEST_F(ResumeTest, ManifestRoundTrip) {
  persist::Storage storage(no_sleep());
  persist::Manifest m;
  m.dataset_kind = "charlib";
  m.fingerprint = 0xABCDEF0123456789ull;
  m.num_shards = 3;
  m.completed = {0, 2};
  persist::save_manifest(storage, sub("m.stca"), m);

  persist::Manifest got;
  ASSERT_TRUE(persist::ok(persist::load_manifest(storage, sub("m.stca"), got)));
  EXPECT_EQ(got.dataset_kind, m.dataset_kind);
  EXPECT_EQ(got.fingerprint, m.fingerprint);
  EXPECT_EQ(got.num_shards, m.num_shards);
  EXPECT_EQ(got.completed, m.completed);
  EXPECT_TRUE(got.has(0));
  EXPECT_FALSE(got.has(1));
  EXPECT_TRUE(got.has(2));
}

// Whatever single payload byte is damaged behind a valid checksum, loading
// ends in a LoadStatus: no other exception, no read past the buffer (ASan).
TEST_F(ResumeTest, ManifestEveryMutatedByteEndsInAStatus) {
  persist::Storage storage(no_sleep());
  persist::Manifest m;
  m.dataset_kind = "charlib";
  m.fingerprint = 0xABCDEF0123456789ull;
  m.num_shards = 3;
  m.completed = {0, 2};
  persist::save_manifest(storage, sub("m.stca"), m);
  const persist::ArtifactData art =
      persist::read_artifact(storage, sub("m.stca"), persist::kind::kManifest);
  ASSERT_TRUE(persist::ok(art.status));
  for (std::size_t i = 0; i < art.payload.size(); ++i) {
    std::string bytes = art.payload;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
    persist::write_artifact(storage, sub("x.stca"), persist::kind::kManifest, art.schema,
                            bytes);
    persist::Manifest got;
    try {
      (void)persist::load_manifest(storage, sub("x.stca"), got);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << i << ": " << e.what();
    }
  }
}

TEST_F(ResumeTest, MissingManifestIsNotFound) {
  persist::Storage storage(no_sleep());
  persist::Manifest got;
  EXPECT_EQ(persist::load_manifest(storage, sub("absent.stca"), got),
            persist::LoadStatus::kNotFound);
}

TEST(FingerprintApi, OrderAndContentSensitive) {
  persist::Fingerprint a, b;
  a.add_str("x").add_u64(1).add_f64(2.5);
  b.add_str("x").add_u64(1).add_f64(2.5);
  EXPECT_EQ(a.value(), b.value());
  persist::Fingerprint c;
  c.add_u64(1).add_str("x").add_f64(2.5);  // same fields, different order
  EXPECT_NE(a.value(), c.value());
}

// --- graph codec ---------------------------------------------------------

TEST(GraphCodec, RoundTripsAndValidates) {
  gnn::Graph g;
  g.num_nodes = 3;
  g.node_dim = 2;
  g.edge_dim = 1;
  g.edge_src = {0, 1, 2};
  g.edge_dst = {1, 2, 0};
  g.node_features = {1, 2, 3, 4, 5, 6};
  g.edge_features = {0.5, -0.5, 0.25};
  g.node_targets = {7, 8, 9};
  g.graph_targets = {10};

  persist::PayloadWriter w;
  gnn::put_graph(w, g);
  persist::PayloadReader r(w.bytes());
  const gnn::Graph got = gnn::get_graph(r);
  EXPECT_TRUE(r.done());
  expect_same_graph(got, g);

  // An edge index past num_nodes must throw PayloadError, not produce an
  // invalid graph the trainer would index out of bounds with.
  gnn::Graph bad = g;
  bad.edge_src[0] = 99;
  persist::PayloadWriter wb;
  gnn::put_graph(wb, bad);
  persist::PayloadReader rb(wb.bytes());
  EXPECT_THROW(gnn::get_graph(rb), persist::PayloadError);
}

/// 2^63 nodes of dimension 2 and no feature values: the feature-size
/// product wraps to 0, so only an overflow-aware check rejects it.
gnn::Graph wrapped_feature_graph() {
  gnn::Graph g;
  g.num_nodes = std::size_t{1} << 63;
  g.node_dim = 2;
  return g;
}

TEST(GraphCodec, WrappedFeatureSizeIsRejected) {
  EXPECT_FALSE(wrapped_feature_graph().valid());
  persist::PayloadWriter w;
  gnn::put_graph(w, wrapped_feature_graph());
  persist::PayloadReader r(w.bytes());
  EXPECT_THROW(gnn::get_graph(r), persist::PayloadError);
}

// --- charlib resume ------------------------------------------------------

/// A charlib shard payload (manifest.hpp schema 2), encoded field by field
/// so a test can place any sample behind a valid checksum.
std::string charlib_shard_payload(const persist::ShardHeader& header,
                                  const std::vector<charlib::CharSample>& samples,
                                  const charlib::DatasetStats& stats) {
  persist::PayloadWriter w;
  w.put_u64(header.fingerprint);
  w.put_u32(header.index);
  w.put_u64(samples.size());
  for (const auto& s : samples) {
    gnn::put_graph(w, s.graph);
    w.put_u32(static_cast<std::uint32_t>(s.metric));
    w.put_f64(s.target);
    w.put_str(s.cell);
  }
  w.put_u64(stats.characterizations);
  w.put_u64(stats.degraded_characterizations);
  w.put_u64(stats.failed_sims);
  persist::put_robustness(w, stats.solver);
  return w.bytes();
}

// Whatever single payload byte of a one-graph shard is damaged behind a
// valid checksum, loading ends in a LoadStatus: no other exception, no
// read past the buffer (ASan).
TEST_F(ResumeTest, CharlibShardEveryMutatedByteEndsInAStatus) {
  charlib::CharSample sample;
  sample.graph.num_nodes = 3;
  sample.graph.node_dim = 2;
  sample.graph.edge_dim = 1;
  sample.graph.edge_src = {0, 1};
  sample.graph.edge_dst = {1, 2};
  sample.graph.node_features = {1, 2, 3, 4, 5, 6};
  sample.graph.edge_features = {0.5, -0.5};
  sample.graph.graph_targets = {1e-9};
  sample.metric = cells::Metric::kDelay;
  sample.target = 1e-9;
  sample.cell = "INV";
  charlib::DatasetStats stats;
  stats.characterizations = 1;
  const std::string payload = charlib_shard_payload({7, 0}, {sample}, stats);

  persist::Storage storage(no_sleep());
  const std::string path = sub("charlib-shard-0.stca");
  persist::write_artifact(storage, path, persist::kind::kCharlibShard,
                          persist::kShardSchema, payload);
  const auto pristine = charlib::load_charlib_shard(storage, path);
  ASSERT_TRUE(persist::ok(pristine.status));
  ASSERT_EQ(pristine.samples.size(), 1u);
  expect_same_graph(pristine.samples[0].graph, sample.graph);

  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::string bytes = payload;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
    persist::write_artifact(storage, path, persist::kind::kCharlibShard,
                            persist::kShardSchema, bytes);
    try {
      (void)charlib::load_charlib_shard(storage, path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << i << ": " << e.what();
    }
  }
}

charlib::DatasetOptions tiny_charlib_opts() {
  charlib::DatasetOptions opts;
  opts.cell_names = {"INV"};
  opts.input_slews = {15e-9};
  opts.output_loads = {30e-15};
  return opts;
}

TEST_F(ResumeTest, CharlibFingerprintTracksConfiguration) {
  const charlib::CornerRanges ranges;
  const auto corners = charlib::corner_grid(ranges, 2);
  const auto opts = tiny_charlib_opts();
  const std::uint64_t base = charlib::charlib_dataset_fingerprint(corners, opts, 3);
  EXPECT_EQ(charlib::charlib_dataset_fingerprint(corners, opts, 3), base);
  EXPECT_NE(charlib::charlib_dataset_fingerprint(corners, opts, 4), base);
  auto opts2 = opts;
  opts2.input_slews = {20e-9};
  EXPECT_NE(charlib::charlib_dataset_fingerprint(corners, opts2, 3), base);
  EXPECT_NE(charlib::charlib_dataset_fingerprint(
                charlib::corner_grid(ranges, 3), opts, 3),
            base);
}

TEST_F(ResumeTest, CharlibKillAndResumeIsBitIdentical) {
  const charlib::CornerRanges ranges;
  const auto corners = charlib::corner_grid(ranges, 2);  // 8 corners
  const auto opts = tiny_charlib_opts();

  // Ground truth: the plain, non-checkpointed builder.
  const auto plain = charlib::build_charlib_dataset(corners, opts);

  // Run 1: killed while writing shard 1 (write order per shard is
  // [shard artifact, manifest], so op 3 is the second shard's artifact).
  persist::FaultInjector kill(/*seed=*/5, persist::FaultKind::kCrashBeforeRename,
                              /*at_op=*/3);
  persist::Storage faulty(no_sleep(), &kill);
  charlib::CheckpointOptions ckpt{sub("ckpt"), /*shard_size=*/3, &faulty};
  EXPECT_THROW(charlib::build_charlib_dataset_resumable(corners, opts, ckpt),
               persist::CrashError);

  // Run 2: resume with a healthy storage. Shard 0 must load from disk, the
  // rest regenerate, and the result is bit-identical to the plain build.
  const std::uint64_t loaded_before = obs::snapshot().counter_or("persist.shards_loaded");
  persist::Storage healthy(no_sleep());
  charlib::CheckpointOptions resume{sub("ckpt"), /*shard_size=*/3, &healthy};
  charlib::DatasetStats stats;
  auto opts2 = opts;
  opts2.stats = &stats;
  const auto resumed =
      charlib::build_charlib_dataset_resumable(corners, opts2, resume);

  ASSERT_EQ(resumed.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(resumed[i].metric, plain[i].metric);
    EXPECT_EQ(resumed[i].target, plain[i].target);
    EXPECT_EQ(resumed[i].cell, plain[i].cell);
    expect_same_graph(resumed[i].graph, plain[i].graph);
  }
  EXPECT_GT(stats.characterizations, 0u);
  EXPECT_EQ(obs::snapshot().counter_or("persist.shards_loaded"), loaded_before + 1);

  // Run 3: everything checkpointed — a pure load, still identical.
  const auto warm = charlib::build_charlib_dataset_resumable(corners, opts, resume);
  ASSERT_EQ(warm.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(warm[i].target, plain[i].target);
}

TEST_F(ResumeTest, CharlibCorruptShardIsRebuiltNotTrusted) {
  const charlib::CornerRanges ranges;
  const auto corners = charlib::corner_grid(ranges, 1);  // 1 corner
  const auto opts = tiny_charlib_opts();
  persist::Storage storage(no_sleep());
  charlib::CheckpointOptions ckpt{sub("ckpt"), /*shard_size=*/1, &storage};

  const auto first = charlib::build_charlib_dataset_resumable(corners, opts, ckpt);
  ASSERT_FALSE(first.empty());

  // Flip one byte of the recorded shard on disk (tests may do raw I/O).
  const std::string shard_path = sub("ckpt") + "/charlib-shard-0.stca";
  std::string bytes;
  ASSERT_EQ(storage.read(shard_path, bytes), persist::LoadStatus::kOk);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::ofstream(shard_path, std::ios::binary).write(bytes.data(),
                                                    static_cast<std::streamsize>(bytes.size()));

  const std::uint64_t corrupt_before =
      obs::snapshot().counter_or("persist.corrupt_artifacts");
  const auto rebuilt = charlib::build_charlib_dataset_resumable(corners, opts, ckpt);
  ASSERT_EQ(rebuilt.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(rebuilt[i].target, first[i].target);
  EXPECT_GT(obs::snapshot().counter_or("persist.corrupt_artifacts"), corrupt_before);
  // The rebuilt shard validates again.
  const auto reloaded = charlib::load_charlib_shard(storage, shard_path);
  EXPECT_TRUE(persist::ok(reloaded.status));
}

// A recorded shard whose graph claims 2^63 nodes with no features passes
// the checksum and the header check; the graph check must still refuse it,
// so the shard is counted as corrupt and rebuilt.
TEST_F(ResumeTest, CharlibShardWithWrappedGraphIsRebuilt) {
  const auto corners = charlib::corner_grid(charlib::CornerRanges{}, 1);
  const auto opts = tiny_charlib_opts();
  persist::Storage storage(no_sleep());
  charlib::CheckpointOptions ckpt{sub("ckpt"), /*shard_size=*/1, &storage};
  const auto first = charlib::build_charlib_dataset_resumable(corners, opts, ckpt);
  ASSERT_FALSE(first.empty());

  const std::string shard_path = sub("ckpt") + "/charlib-shard-0.stca";
  const persist::ShardHeader header{
      charlib::charlib_dataset_fingerprint(corners, opts, ckpt.shard_size), 0};
  const auto built = charlib::load_charlib_shard(storage, shard_path);
  ASSERT_TRUE(persist::ok(built.status));
  // The field-by-field encoding is the codec's: it re-encodes the real shard.
  const persist::ArtifactData art =
      persist::read_artifact(storage, shard_path, persist::kind::kCharlibShard);
  ASSERT_EQ(charlib_shard_payload(header, built.samples, built.stats), art.payload);

  charlib::CharSample bad = built.samples[0];
  bad.graph = wrapped_feature_graph();
  persist::write_artifact(storage, shard_path, persist::kind::kCharlibShard,
                          persist::kShardSchema,
                          charlib_shard_payload(header, {bad}, built.stats));

  std::uint64_t corrupt_before = obs::snapshot().counter_or("persist.corrupt_artifacts");
  EXPECT_EQ(charlib::load_charlib_shard(storage, shard_path).status,
            persist::LoadStatus::kBadPayload);
  EXPECT_EQ(obs::snapshot().counter_or("persist.corrupt_artifacts"), corrupt_before + 1);

  corrupt_before = obs::snapshot().counter_or("persist.corrupt_artifacts");
  const auto rebuilt = charlib::build_charlib_dataset_resumable(corners, opts, ckpt);
  ASSERT_EQ(rebuilt.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_graph(rebuilt[i].graph, first[i].graph);
    EXPECT_EQ(rebuilt[i].target, first[i].target);
  }
  EXPECT_EQ(obs::snapshot().counter_or("persist.corrupt_artifacts"), corrupt_before + 1);
  EXPECT_TRUE(persist::ok(charlib::load_charlib_shard(storage, shard_path).status));
}

TEST_F(ResumeTest, CharlibConfigChangeInvalidatesCheckpoint) {
  const charlib::CornerRanges ranges;
  const auto corners = charlib::corner_grid(ranges, 1);
  persist::Storage storage(no_sleep());
  charlib::CheckpointOptions ckpt{sub("ckpt"), /*shard_size=*/1, &storage};

  const auto opts = tiny_charlib_opts();
  (void)charlib::build_charlib_dataset_resumable(corners, opts, ckpt);

  // Different slew axis: old shards must not be resumed into this build.
  auto opts2 = tiny_charlib_opts();
  opts2.input_slews = {25e-9};
  const auto fresh = charlib::build_charlib_dataset_resumable(corners, opts2, ckpt);
  const auto plain = charlib::build_charlib_dataset(corners, opts2);
  ASSERT_EQ(fresh.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(fresh[i].target, plain[i].target);
}

TEST_F(ResumeTest, CharlibRejectsDegenerateOptions) {
  const auto corners = charlib::corner_grid(charlib::CornerRanges{}, 1);
  const auto opts = tiny_charlib_opts();
  EXPECT_THROW(charlib::build_charlib_dataset_resumable(
                   corners, opts, charlib::CheckpointOptions{"", 4, nullptr}),
               std::invalid_argument);
  EXPECT_THROW(charlib::build_charlib_dataset_resumable(
                   corners, opts, charlib::CheckpointOptions{"d", 0, nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace stco
