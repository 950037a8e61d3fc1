// Fault-injection tests for the persist layer: every FaultKind exercised
// through a Storage wired to a FaultInjector, proving the crash-safety
// contract — transient errors retry and succeed, corruption is caught by
// the checksum, and a simulated kill never damages the destination file.

#include "src/persist/fault.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "src/obs/obs.hpp"
#include "src/persist/format.hpp"
#include "src/persist/storage.hpp"

namespace stco::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kTestKind = fourcc('T', 'E', 'S', 'T');

/// No-sleep retry policy so injected transient windows clear instantly.
RetryPolicy fast_retry(std::size_t attempts = 4) {
  return RetryPolicy{attempts, 0, false};
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("persist_fault_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(FaultTest, TransientErrorIsRetriedToSuccess) {
  FaultInjector inject(/*seed=*/1, FaultKind::kTransientError, /*at_op=*/1,
                       /*times=*/2);
  Storage storage(fast_retry(), &inject);
  const std::uint64_t retries_before = obs::snapshot().counter_or("persist.retries");

  storage.write_atomic(path("w.txt"), "survives two failed attempts");

  EXPECT_EQ(inject.injected(), 2u);
  EXPECT_EQ(inject.ops(), 3u);  // two failures + the success
  std::string got;
  ASSERT_EQ(storage.read(path("w.txt"), got), LoadStatus::kOk);
  EXPECT_EQ(got, "survives two failed attempts");
  EXPECT_EQ(obs::snapshot().counter_or("persist.retries"), retries_before + 2);
}

TEST_F(FaultTest, ExhaustedRetriesThrowRuntimeError) {
  FaultInjector inject(/*seed=*/1, FaultKind::kTransientError, /*at_op=*/1,
                       /*times=*/10);
  Storage storage(fast_retry(/*attempts=*/3), &inject);
  EXPECT_THROW(storage.write_atomic(path("w.txt"), "never lands"), std::runtime_error);
  EXPECT_EQ(inject.injected(), 3u);
  EXPECT_FALSE(storage.exists(path("w.txt")));
}

TEST_F(FaultTest, BitFlipIsCaughtByChecksumOnRead) {
  FaultInjector inject(/*seed=*/7, FaultKind::kBitFlip);
  Storage faulty(fast_retry(), &inject);
  Storage clean(fast_retry());

  PayloadWriter w;
  w.put_str("precious data");
  write_artifact(faulty, path("a.stca"), kTestKind, 1, w.bytes());
  EXPECT_EQ(inject.injected(), 1u);

  EXPECT_EQ(read_artifact(clean, path("a.stca"), kTestKind).status,
            LoadStatus::kBadChecksum);
}

TEST_F(FaultTest, BitFlipIsDeterministicPerSeed) {
  auto flipped_bytes = [&](std::uint64_t seed, const char* name) {
    FaultInjector inject(seed, FaultKind::kBitFlip);
    Storage storage(fast_retry(), &inject);
    storage.write_atomic(path(name), std::string(256, 'z'));
    std::string got;
    EXPECT_EQ(storage.read(path(name), got), LoadStatus::kOk);
    return got;
  };
  EXPECT_EQ(flipped_bytes(3, "a"), flipped_bytes(3, "b"));
  EXPECT_NE(flipped_bytes(3, "c"), flipped_bytes(4, "d"));
}

TEST_F(FaultTest, ShortWriteCrashLeavesDestinationIntact) {
  Storage clean(fast_retry());
  PayloadWriter w;
  w.put_str("the good version");
  write_artifact(clean, path("a.stca"), kTestKind, 1, w.bytes());

  FaultInjector inject(/*seed=*/11, FaultKind::kShortWriteCrash);
  Storage faulty(fast_retry(), &inject);
  PayloadWriter w2;
  w2.put_str("the torn version");
  EXPECT_THROW(write_artifact(faulty, path("a.stca"), kTestKind, 1, w2.bytes()),
               CrashError);

  // The destination still validates and holds the old payload; the torn
  // bytes only ever existed in the temp file.
  const ArtifactData got = read_artifact(clean, path("a.stca"), kTestKind);
  ASSERT_TRUE(ok(got.status));
  PayloadReader r(got.payload);
  EXPECT_EQ(r.get_str(), "the good version");
  EXPECT_TRUE(fs::exists(tmp_path_for(path("a.stca"))));
}

TEST_F(FaultTest, CrashBeforeRenameLeavesDestinationAbsent) {
  FaultInjector inject(/*seed=*/13, FaultKind::kCrashBeforeRename);
  Storage faulty(fast_retry(), &inject);
  EXPECT_THROW(faulty.write_atomic(path("n.txt"), "new file"), CrashError);
  // Kill landed between durability and commit: no destination, full temp.
  EXPECT_FALSE(fs::exists(path("n.txt")));
  std::string tmp;
  Storage clean(fast_retry());
  ASSERT_EQ(clean.read(tmp_path_for(path("n.txt")), tmp), LoadStatus::kOk);
  EXPECT_EQ(tmp, "new file");
}

TEST_F(FaultTest, CrashIsNeverRetried) {
  FaultInjector inject(/*seed=*/17, FaultKind::kCrashBeforeRename, /*at_op=*/1,
                       /*times=*/1);
  Storage storage(fast_retry(/*attempts=*/10), &inject);
  EXPECT_THROW(storage.write_atomic(path("n.txt"), "x"), CrashError);
  EXPECT_EQ(inject.ops(), 1u);  // one attempt, no retry loop
}

TEST_F(FaultTest, InjectionWindowTargetsTheNthWrite) {
  FaultInjector inject(/*seed=*/19, FaultKind::kCrashBeforeRename, /*at_op=*/3);
  Storage storage(fast_retry(), &inject);
  storage.write_atomic(path("1.txt"), "one");
  storage.write_atomic(path("2.txt"), "two");
  EXPECT_THROW(storage.write_atomic(path("3.txt"), "three"), CrashError);
  EXPECT_TRUE(storage.exists(path("1.txt")));
  EXPECT_TRUE(storage.exists(path("2.txt")));
  EXPECT_FALSE(storage.exists(path("3.txt")));
}

TEST_F(FaultTest, InjectedFaultsAreCounted) {
  const std::uint64_t before = obs::snapshot().counter_or("persist.faults_injected");
  FaultInjector inject(/*seed=*/23, FaultKind::kBitFlip);
  Storage storage(fast_retry(), &inject);
  storage.write_atomic(path("b.bin"), "some payload bytes");
  EXPECT_EQ(obs::snapshot().counter_or("persist.faults_injected"), before + 1);
}

}  // namespace
}  // namespace stco::persist
