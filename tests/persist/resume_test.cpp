// Checkpoint / resume tests: manifest round trip, configuration
// fingerprints, and the headline contract — a dataset build killed
// mid-generation and resumed produces exactly what an uninterrupted run
// produces, and a corrupt shard is detected, counted, and rebuilt.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/charlib/checkpoint.hpp"
#include "src/gnn/serialize.hpp"
#include "src/obs/obs.hpp"
#include "src/persist/fault.hpp"
#include "src/persist/manifest.hpp"
#include "src/surrogate/checkpoint.hpp"

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

// --- charlib resume ------------------------------------------------------

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
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(obs::snapshot().counter_or("persist.shards_loaded"), loaded_before + 1);
  }

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
  if constexpr (obs::kEnabled) {
    EXPECT_GT(obs::snapshot().counter_or("persist.corrupt_artifacts"), corrupt_before);
  }
  // The rebuilt shard validates again.
  const auto reloaded = charlib::load_charlib_shard(storage, shard_path);
  EXPECT_TRUE(persist::ok(reloaded.status));
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

// --- surrogate resume ----------------------------------------------------

surrogate::PopulationOptions tiny_population_opts() {
  surrogate::PopulationOptions opts;
  opts.mesh_nx = 10;
  opts.mesh_nch = 3;
  opts.mesh_nox = 3;
  return opts;
}

TEST_F(ResumeTest, SurrogateKillAndResumeMatchesUninterruptedRun) {
  const std::size_t count = 6;
  const std::uint64_t seed = 77;
  const auto opts = tiny_population_opts();

  // Uninterrupted sharded run (the determinism reference for resume).
  persist::Storage storage_a(no_sleep());
  surrogate::CheckpointOptions ckpt_a{sub("a"), /*shard_size=*/2, &storage_a};
  const auto uninterrupted =
      surrogate::generate_population_resumable(count, seed, opts, ckpt_a);

  // Killed while writing shard 1, then resumed.
  persist::FaultInjector kill(/*seed=*/9, persist::FaultKind::kCrashBeforeRename,
                              /*at_op=*/3);
  persist::Storage faulty(no_sleep(), &kill);
  surrogate::CheckpointOptions ckpt_b{sub("b"), /*shard_size=*/2, &faulty};
  EXPECT_THROW(surrogate::generate_population_resumable(count, seed, opts, ckpt_b),
               persist::CrashError);

  persist::Storage healthy(no_sleep());
  surrogate::CheckpointOptions resume{sub("b"), /*shard_size=*/2, &healthy};
  surrogate::PopulationStats stats;
  auto opts2 = opts;
  opts2.stats = &stats;
  const auto resumed =
      surrogate::generate_population_resumable(count, seed, opts2, resume);

  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].drain_current, uninterrupted[i].drain_current);
    EXPECT_EQ(resumed[i].bias.vg, uninterrupted[i].bias.vg);
    EXPECT_EQ(resumed[i].bias.vd, uninterrupted[i].bias.vd);
    EXPECT_EQ(resumed[i].device.length, uninterrupted[i].device.length);
    EXPECT_EQ(resumed[i].device.doping, uninterrupted[i].device.doping);
    expect_same_graph(resumed[i].poisson_graph, uninterrupted[i].poisson_graph);
    expect_same_graph(resumed[i].iv_graph, uninterrupted[i].iv_graph);
  }
  EXPECT_GT(stats.attempts, 0u);
}

TEST_F(ResumeTest, SurrogateShardCodecRoundTrips) {
  const auto opts = tiny_population_opts();
  const auto pop = surrogate::generate_population(2, /*seed=*/5, opts);
  ASSERT_EQ(pop.size(), 2u);

  persist::Storage storage(no_sleep());
  surrogate::PopulationStats stats;
  stats.attempts = 3;
  stats.dropped = 1;
  stats.solver.attempts = 12;
  surrogate::save_surrogate_shard(storage, sub("s.stca"), pop, stats);

  const auto loaded = surrogate::load_surrogate_shard(storage, sub("s.stca"));
  ASSERT_TRUE(persist::ok(loaded.status));
  ASSERT_EQ(loaded.samples.size(), 2u);
  EXPECT_EQ(loaded.stats.attempts, 3u);
  EXPECT_EQ(loaded.stats.dropped, 1u);
  EXPECT_EQ(loaded.stats.solver.attempts, 12u);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_EQ(loaded.samples[i].drain_current, pop[i].drain_current);
    EXPECT_EQ(loaded.samples[i].device.semi.kind, pop[i].device.semi.kind);
    EXPECT_EQ(loaded.samples[i].device.t_ox, pop[i].device.t_ox);
    expect_same_graph(loaded.samples[i].poisson_graph, pop[i].poisson_graph);
    expect_same_graph(loaded.samples[i].iv_graph, pop[i].iv_graph);
  }
}

}  // namespace
}  // namespace stco
