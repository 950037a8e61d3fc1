// persist::build_sharded on a trivial item type (u64), without any physics:
// kill-and-resume equals an uninterrupted run, a corrupt / misplaced /
// padded shard is counted and rebuilt, a configuration change starts
// fresh, loaded + built shards always cover the build, and the kind's
// progress task reads done == total after a resume.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/persist/fault.hpp"
#include "src/persist/format.hpp"
#include "src/persist/manifest.hpp"

namespace stco::persist {
namespace {

namespace fs = std::filesystem;

constexpr const char* kProgressTask = "test.shards.items";

struct U64Stats {
  std::uint64_t items = 0;
  void merge(const U64Stats& o) { items += o.items; }
};

struct U64Codec {
  using Sample = std::uint64_t;
  using Stats = U64Stats;
  static constexpr const char* kName = "u64";
  static constexpr std::uint32_t kArtifact = fourcc('T', 'U', '6', '4');
  static constexpr const char* kProgress = kProgressTask;
  static constexpr bool kProgressPerSample = false;

  static void put(PayloadWriter& w, std::uint64_t v) { w.put_u64(v); }
  static std::uint64_t get(PayloadReader& r) { return r.get_u64(); }
  static void put_stats(PayloadWriter& w, const U64Stats& s) { w.put_u64(s.items); }
  static U64Stats get_stats(PayloadReader& r) { return {r.get_u64()}; }
};

constexpr std::size_t kItems = 10;
constexpr std::size_t kShardSize = 3;  // 4 shards, the last one short
constexpr std::uint32_t kNumShards = 4;

std::uint64_t counter(const char* name) {
  return obs::snapshot().counter_or(name);
}

class ShardsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("persist_shards_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string ckpt_dir() const { return (dir_ / "ckpt").string(); }
  std::string shard_file(std::uint32_t index) const {
    return ckpt_dir() + "/u64-shard-" + std::to_string(index) + ".stca";
  }

  /// One sharded build of items k -> k * k + fingerprint. Records which
  /// shards were built and, like the real builders, advances the progress
  /// task for the items it builds.
  std::vector<std::uint64_t> run(Storage& storage, std::uint64_t fingerprint = 1,
                                 U64Stats* stats = nullptr) {
    built_.clear();
    const CheckpointOptions ckpt{ckpt_dir(), kShardSize, &storage};
    return build_sharded<U64Codec>(
        ckpt, fingerprint, kItems,
        [&](const ShardRange& range, U64Stats& s) {
          built_.push_back(range.index);
          obs::ProgressTask& prog = obs::progress(kProgressTask);
          prog.add_work(range.end - range.begin);
          std::vector<std::uint64_t> out;
          for (std::size_t k = range.begin; k < range.end; ++k) {
            out.push_back(k * k + fingerprint);
            prog.advance(1);
          }
          s.items = out.size();
          return out;
        },
        stats);
  }

  static std::vector<std::uint64_t> expected(std::uint64_t fingerprint = 1) {
    std::vector<std::uint64_t> out;
    for (std::size_t k = 0; k < kItems; ++k) out.push_back(k * k + fingerprint);
    return out;
  }

  /// Rewrite a file's bytes in place (tests may do raw I/O).
  static void overwrite(const std::string& file, const std::string& bytes) {
    std::ofstream(file, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  Storage storage_{RetryPolicy{1, 0, false}};
  std::vector<std::uint32_t> built_;  ///< shard indices built by the last run
};

TEST_F(ShardsTest, KillBeforeRenameThenResumeMatchesUninterruptedRun) {
  // Writes per shard are [shard artifact, manifest]: op 3 is shard 1's
  // artifact, so the kill leaves only shard 0 recorded.
  FaultInjector kill(/*seed=*/3, FaultKind::kCrashBeforeRename, /*at_op=*/3);
  Storage faulty(RetryPolicy{1, 0, false}, &kill);
  EXPECT_THROW(run(faulty), CrashError);

  obs::progress(kProgressTask).reset();
  const std::uint64_t loaded = counter("persist.shards_loaded");
  const std::uint64_t built = counter("persist.shards_built");
  U64Stats stats;
  EXPECT_EQ(run(storage_, 1, &stats), expected());
  EXPECT_EQ(built_, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(stats.items, kItems);  // loaded shard's stats count too
  EXPECT_EQ(counter("persist.shards_loaded") - loaded, 1u);
  EXPECT_EQ(counter("persist.shards_loaded") - loaded +
                counter("persist.shards_built") - built,
            kNumShards);
  const obs::ProgressSnapshot p = obs::progress(kProgressTask).sample();
  EXPECT_EQ(p.done, kItems);
  EXPECT_EQ(p.total, kItems);

  // Everything recorded: a pure load.
  EXPECT_EQ(run(storage_), expected());
  EXPECT_TRUE(built_.empty());
}

TEST_F(ShardsTest, CorruptShardIsCountedAndRebuilt) {
  ASSERT_EQ(run(storage_), expected());
  std::string bytes;
  ASSERT_EQ(storage_.read(shard_file(2), bytes), LoadStatus::kOk);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  overwrite(shard_file(2), bytes);

  const std::uint64_t corrupt = counter("persist.corrupt_artifacts");
  EXPECT_EQ(run(storage_), expected());
  EXPECT_EQ(built_, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(counter("persist.corrupt_artifacts"), corrupt + 1);
  EXPECT_TRUE(ok(load_shard<U64Codec>(storage_, shard_file(2)).status));
}

TEST_F(ShardsTest, ConfigurationChangeStartsFresh) {
  ASSERT_EQ(run(storage_, /*fingerprint=*/1), expected(1));
  EXPECT_EQ(run(storage_, /*fingerprint=*/2), expected(2));
  EXPECT_EQ(built_, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST_F(ShardsTest, ShardFromAnotherIndexIsRejected) {
  ASSERT_EQ(run(storage_), expected());
  // Shard 0's artifact copied over shard 1's: the checksum still holds,
  // but the header names index 0.
  std::string bytes;
  ASSERT_EQ(storage_.read(shard_file(0), bytes), LoadStatus::kOk);
  overwrite(shard_file(1), bytes);

  const std::uint64_t corrupt = counter("persist.corrupt_artifacts");
  EXPECT_EQ(run(storage_), expected());
  EXPECT_EQ(built_, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(counter("persist.corrupt_artifacts"), corrupt + 1);
}

TEST_F(ShardsTest, ShardFromAnotherConfigurationIsRejected) {
  ASSERT_EQ(run(storage_), expected());
  const ShardHeader other{/*fingerprint=*/9, /*index=*/1};
  EXPECT_EQ(load_shard<U64Codec>(storage_, shard_file(1), &other).status,
            LoadStatus::kBadPayload);
  const ShardHeader same{/*fingerprint=*/1, /*index=*/1};
  EXPECT_TRUE(ok(load_shard<U64Codec>(storage_, shard_file(1), &same).status));
}

TEST_F(ShardsTest, ShardWithTrailingBytesIsRejected) {
  ASSERT_EQ(run(storage_), expected());
  // Re-wrap shard 3's payload with one extra byte under a valid checksum.
  const ArtifactData art = read_artifact(storage_, shard_file(3), U64Codec::kArtifact);
  ASSERT_TRUE(ok(art.status));
  write_artifact(storage_, shard_file(3), U64Codec::kArtifact, kShardSchema,
                 art.payload + "x");

  const std::uint64_t corrupt = counter("persist.corrupt_artifacts");
  EXPECT_EQ(run(storage_), expected());
  EXPECT_EQ(built_, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(counter("persist.corrupt_artifacts"), corrupt + 1);
}

TEST_F(ShardsTest, ManifestIndexOutOfRangeIsBadPayload) {
  Manifest m{"u64", 1, /*num_shards=*/2, {0, 5}};
  save_manifest(storage_, (dir_ / "m.stca").string(), m);
  Manifest got;
  EXPECT_EQ(load_manifest(storage_, (dir_ / "m.stca").string(), got),
            LoadStatus::kBadPayload);
}

TEST_F(ShardsTest, RejectsDegenerateOptions) {
  const auto build = [](const ShardRange&, U64Stats&) {
    return std::vector<std::uint64_t>{};
  };
  EXPECT_THROW(build_sharded<U64Codec>(CheckpointOptions{"", 4, &storage_}, 1, kItems,
                                       build, nullptr),
               std::invalid_argument);
  EXPECT_THROW(build_sharded<U64Codec>(CheckpointOptions{ckpt_dir(), 0, &storage_}, 1,
                                       kItems, build, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace stco::persist
