// STCA container + payload codec tests: CRC32C vector, round trips, and
// every envelope-validation failure mode mapped to its LoadStatus.

#include "src/persist/format.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "src/obs/obs.hpp"
#include "src/persist/crc32c.hpp"

namespace stco::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kTestKind = fourcc('T', 'E', 'S', 'T');

/// Fresh per-test scratch directory under the build cwd.
class FormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("persist_format_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
  Storage storage_{RetryPolicy{1, 0, false}};
};

TEST(Crc32c, MatchesRfc3720Vector) {
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t crc = 0;
  crc = crc32c_update(crc, data.data(), 10);
  crc = crc32c_update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, crc32c(data));
}

TEST(Payload, RoundTripsEveryFieldType) {
  PayloadWriter w;
  w.put_u8(7);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(1ull << 40);
  w.put_f64(-2.5e-19);
  w.put_str("hello artifact");
  w.put_f64s({1.0, -0.5, 3.25});

  PayloadReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7u);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 1ull << 40);
  EXPECT_EQ(r.get_f64(), -2.5e-19);
  EXPECT_EQ(r.get_str(), "hello artifact");
  EXPECT_EQ(r.get_f64s(), (std::vector<double>{1.0, -0.5, 3.25}));
  EXPECT_TRUE(r.done());
}

TEST(Payload, OverrunThrowsPayloadError) {
  PayloadWriter w;
  w.put_u32(1);
  PayloadReader r(w.bytes());
  EXPECT_THROW(r.get_u64(), PayloadError);
}

TEST(Payload, CorruptLengthPrefixDoesNotAllocate) {
  // A length field claiming ~2^61 doubles must throw before allocating.
  PayloadWriter w;
  w.put_u64(0x2000000000000000ull);
  PayloadReader strs(w.bytes());
  EXPECT_THROW(strs.get_str(), PayloadError);
  PayloadReader f64s(w.bytes());
  EXPECT_THROW(f64s.get_f64s(), PayloadError);
}

TEST_F(FormatTest, ArtifactRoundTrip) {
  PayloadWriter w;
  w.put_str("payload");
  w.put_f64(42.0);
  write_artifact(storage_, path("a.stca"), kTestKind, 3, w.bytes());

  const ArtifactData got = read_artifact(storage_, path("a.stca"), kTestKind);
  EXPECT_TRUE(ok(got.status));
  EXPECT_EQ(got.schema, 3u);
  PayloadReader r(got.payload);
  EXPECT_EQ(r.get_str(), "payload");
  EXPECT_EQ(r.get_f64(), 42.0);
}

TEST_F(FormatTest, MissingFileIsNotFoundNotCorrupt) {
  const ArtifactData got = read_artifact(storage_, path("nope.stca"), kTestKind);
  EXPECT_EQ(got.status, LoadStatus::kNotFound);
  EXPECT_FALSE(corrupt(got.status));
}

TEST_F(FormatTest, TruncationIsDetected) {
  PayloadWriter w;
  w.put_f64s({1, 2, 3, 4});
  write_artifact(storage_, path("t.stca"), kTestKind, 1, w.bytes());

  std::string bytes;
  ASSERT_EQ(storage_.read(path("t.stca"), bytes), LoadStatus::kOk);
  // Cut inside the payload: header parses, the declared size does not fit.
  storage_.write_atomic(path("t.stca"), std::string_view(bytes).substr(0, bytes.size() - 9));
  EXPECT_EQ(read_artifact(storage_, path("t.stca"), kTestKind).status,
            LoadStatus::kTruncated);
  // Cut inside the header: too short for any STCA file.
  storage_.write_atomic(path("t.stca"), std::string_view(bytes).substr(0, 11));
  EXPECT_EQ(read_artifact(storage_, path("t.stca"), kTestKind).status,
            LoadStatus::kTruncated);
}

TEST_F(FormatTest, ForeignFileIsBadMagic) {
  storage_.write_atomic(path("m.stca"), std::string(64, 'x'));
  EXPECT_EQ(read_artifact(storage_, path("m.stca"), kTestKind).status,
            LoadStatus::kBadMagic);
}

TEST_F(FormatTest, FutureContainerVersionIsBadVersion) {
  write_artifact(storage_, path("v.stca"), kTestKind, 1, "p");
  std::string bytes;
  ASSERT_EQ(storage_.read(path("v.stca"), bytes), LoadStatus::kOk);
  bytes[4] = static_cast<char>(kContainerVersion + 1);  // u32 LE at offset 4
  storage_.write_atomic(path("v.stca"), bytes);
  EXPECT_EQ(read_artifact(storage_, path("v.stca"), kTestKind).status,
            LoadStatus::kBadVersion);
}

TEST_F(FormatTest, KindConfusionIsWrongKind) {
  write_artifact(storage_, path("k.stca"), kTestKind, 1, "p");
  const ArtifactData got =
      read_artifact(storage_, path("k.stca"), fourcc('O', 'T', 'H', 'R'));
  EXPECT_EQ(got.status, LoadStatus::kWrongKind);
}

TEST_F(FormatTest, SingleBitFlipIsBadChecksum) {
  PayloadWriter w;
  w.put_str("bits matter");
  write_artifact(storage_, path("c.stca"), kTestKind, 1, w.bytes());
  std::string bytes;
  ASSERT_EQ(storage_.read(path("c.stca"), bytes), LoadStatus::kOk);
  bytes[kHeaderSize + 3] ^= 0x10;  // one payload bit
  storage_.write_atomic(path("c.stca"), bytes);
  EXPECT_EQ(read_artifact(storage_, path("c.stca"), kTestKind).status,
            LoadStatus::kBadChecksum);
}

TEST_F(FormatTest, CorruptionIsCountedGracefully) {
  storage_.write_atomic(path("g.stca"), "definitely not an artifact, long enough");
  const std::uint64_t before = obs::snapshot().counter_or("persist.corrupt_artifacts");
  const ArtifactData got = read_artifact(storage_, path("g.stca"), kTestKind);
  EXPECT_TRUE(corrupt(got.status));
  if constexpr (obs::kEnabled) {
    EXPECT_GT(obs::snapshot().counter_or("persist.corrupt_artifacts"), before);
  }
}

TEST_F(FormatTest, AtomicWriteReplacesAndCleansUpTemp) {
  const std::string p = path("f.txt");
  storage_.write_atomic(p, "first");
  storage_.write_atomic(p, "second");
  std::string got;
  ASSERT_EQ(storage_.read(p, got), LoadStatus::kOk);
  EXPECT_EQ(got, "second");
  EXPECT_FALSE(fs::exists(tmp_path_for(p)));
}

TEST_F(FormatTest, LoadStatusStringsAreDistinct) {
  EXPECT_STRNE(to_string(LoadStatus::kOk), to_string(LoadStatus::kBadChecksum));
  EXPECT_STRNE(to_string(LoadStatus::kTruncated), to_string(LoadStatus::kBadMagic));
}

}  // namespace
}  // namespace stco::persist
