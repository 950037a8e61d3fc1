// SPICE library store tests. A stored library serves every later engine
// whatever its benchmark, cost weights or STA options, with costs
// bit-identical to a fresh engine's; a change to the library options
// rebuilds; $STCO_CACHE_DIR selects the directory; and every malformed LIBR
// artifact (torn, oversized counts, wrong schema, another point, mutated
// bytes behind a valid checksum) is counted and rebuilt, never thrown.

#include "src/stco/loop.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/obs.hpp"
#include "src/persist/artifacts.hpp"

namespace stco {
namespace {

namespace fs = std::filesystem;

std::uint64_t corrupt_count() {
  return obs::snapshot().counter_or("persist.corrupt_artifacts");
}
std::uint64_t warm_hits() { return obs::snapshot().counter_or("persist.cache.warm_hits"); }

class CostCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("persist_cache_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StcoConfig config() const {
    StcoConfig cfg;
    cfg.benchmark = "s298";
    cfg.cache_dir = dir_.string();
    return cfg;
  }
  std::string path_of(const StcoConfig& cfg, const compact::TechnologyPoint& tech) const {
    return flow::library_path(dir_.string(), tech, cfg.lib_opts);
  }

  fs::path dir_;
};

TEST_F(CostCacheTest, WarmStartRestoresCostsAndWeights) {
  const StcoConfig cfg = config();
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  double cold_cost = 0.0;
  {
    StcoEngine cold(cfg, SpiceBackend{});
    cold_cost = cold.cost(grid.point(0));
    EXPECT_EQ(cold.timing().evaluations.load(), 2u);  // calibration point + point 0
  }
  // Each library was stored right after it was built.
  EXPECT_TRUE(fs::exists(path_of(cfg, grid.point(0))));
  EXPECT_TRUE(fs::exists(path_of(cfg, grid.point(grid.num_states() / 2))));

  const std::uint64_t warm_before = warm_hits();
  StcoEngine warm(cfg, SpiceBackend{});
  EXPECT_EQ(warm.cost(grid.point(0)), cold_cost);  // bit-identical from disk
  // The weights came from the stored calibration library: nothing was built.
  EXPECT_EQ(warm.timing().evaluations.load(), 0u);
  EXPECT_EQ(warm.robustness().attempts, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(warm_hits() - warm_before, 2u);
  }
}

// A library depends on the technology point and the library options only.
// Engines with other STA options, cost weights or benchmark load it, and
// cost exactly what a fresh engine without the store computes.
TEST_F(CostCacheTest, StoredLibraryServesOtherCostSettings) {
  const StcoConfig cfg = config();
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  {
    StcoEngine cold(cfg, SpiceBackend{});
    (void)cold.cost(grid.point(0));
  }
  auto expect_fresh_cost_from_store = [&](const StcoConfig& other) {
    StcoEngine warm(other, SpiceBackend{});
    const double c = warm.cost(grid.point(0));
    EXPECT_EQ(warm.timing().evaluations.load(), 0u);
    StcoConfig no_store = other;
    no_store.cache_dir.clear();
    StcoEngine fresh(no_store, SpiceBackend{});
    EXPECT_EQ(c, fresh.cost(grid.point(0)));
  };
  StcoConfig activity = cfg;
  activity.sta_opts.activity = 0.5;
  expect_fresh_cost_from_store(activity);
  StcoConfig area = cfg;
  area.w_area = 0.25;
  expect_fresh_cost_from_store(area);

  StcoConfig other_benchmark = cfg;
  other_benchmark.benchmark = "s386";
  StcoEngine engine(other_benchmark, SpiceBackend{});
  (void)engine.cost(grid.point(0));
  EXPECT_EQ(engine.timing().evaluations.load(), 0u);
}

TEST_F(CostCacheTest, CorruptCacheDegradesToCountedColdStart) {
  const StcoConfig cfg = config();
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  double cold_cost = 0.0;
  {
    StcoEngine cold(cfg, SpiceBackend{});
    cold_cost = cold.cost(grid.point(0));
  }
  const std::string path = path_of(cfg, grid.point(0));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  const std::uint64_t corrupt_before = corrupt_count();
  {
    StcoEngine again(cfg, SpiceBackend{});
    // The engine rebuilds the same deterministic library and cost.
    EXPECT_EQ(again.cost(grid.point(0)), cold_cost);
    EXPECT_EQ(again.timing().evaluations.load(), 1u);  // calibration loads
  }
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(corrupt_count() - corrupt_before, 1u);
  }
  // The rebuilt library replaced the corrupt file.
  StcoEngine healed(cfg, SpiceBackend{});
  EXPECT_EQ(healed.cost(grid.point(0)), cold_cost);
  EXPECT_EQ(healed.timing().evaluations.load(), 0u);
}

TEST_F(CostCacheTest, ConfigChangeInvalidatesCache) {
  const StcoConfig cfg = config();
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  {
    StcoEngine cold(cfg, SpiceBackend{});
    (void)cold.cost(grid.point(0));
  }
  // Other NLDM axes make other libraries: nothing stored may be reused.
  StcoConfig other = config();
  other.lib_opts.slew_axis = {10e-9, 30e-9};
  StcoEngine engine(other, SpiceBackend{});
  (void)engine.cost(grid.point(0));
  EXPECT_EQ(engine.timing().evaluations.load(), 2u);
  EXPECT_NE(path_of(other, grid.point(0)), path_of(cfg, grid.point(0)));
}

TEST_F(CostCacheTest, EnvVarSelectsCacheDirectory) {
  StcoConfig cfg;
  cfg.benchmark = "s298";  // cache_dir left empty -> $STCO_CACHE_DIR
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  ASSERT_EQ(setenv("STCO_CACHE_DIR", dir_.string().c_str(), 1), 0);
  {
    StcoEngine engine(cfg, SpiceBackend{});
    (void)engine.evaluate(grid.point(0));
  }
  unsetenv("STCO_CACHE_DIR");
  EXPECT_TRUE(fs::exists(path_of(cfg, grid.point(0))));

  // With neither config nor environment, the store is off: the stored
  // library is not read.
  StcoEngine off(cfg, SpiceBackend{});
  (void)off.evaluate(grid.point(0));
  EXPECT_EQ(off.timing().evaluations.load(), 1u);
}

/// Malformed LIBR artifacts. Each test builds one pristine library (one-point
/// NLDM axes, so builds are cheap) in its own directory, writes a damaged
/// payload under a valid envelope, and requires the next engine to count it,
/// rebuild, and reproduce the pristine analysis.
class LibraryDecoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("persist_cache_scratch") /
           ("LibraryDecoder." +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    StcoEngine cold(config(), SpiceBackend{});
    report_ = cold.evaluate(point());
    const persist::ArtifactData art =
        persist::read_artifact(persist::default_storage(), path(), persist::kind::kLibrary);
    ASSERT_TRUE(persist::ok(art.status));
    payload_ = art.payload;
  }
  void TearDown() override { fs::remove_all(dir_); }

  StcoConfig config() const {
    StcoConfig cfg;
    cfg.benchmark = "s298";
    cfg.cache_dir = dir_.string();
    cfg.lib_opts.slew_axis = {20e-9};
    cfg.lib_opts.load_axis = {50e-15};
    return cfg;
  }
  compact::TechnologyPoint point() const {
    const StcoConfig cfg = config();
    return TechGrid(cfg.ranges, cfg.grid_n).point(0);
  }
  std::string path() const {
    return flow::library_path(dir_.string(), point(), config().lib_opts);
  }

  flow::TimingLibrary pristine() const {
    persist::PayloadReader r(payload_);
    return flow::get_library(r);
  }

  void expect_counted_rebuild(const std::string& payload, std::uint32_t schema = 2) {
    persist::write_artifact(persist::default_storage(), path(), persist::kind::kLibrary,
                            schema, payload);
    const std::uint64_t before = corrupt_count();
    StcoEngine engine(config(), SpiceBackend{});
    flow::StaReport rep;
    ASSERT_NO_THROW(rep = engine.evaluate(point()));
    EXPECT_EQ(engine.timing().evaluations.load(), 1u);
    EXPECT_EQ(rep.min_period, report_.min_period);
    EXPECT_EQ(rep.total_power, report_.total_power);
    EXPECT_EQ(rep.area, report_.area);
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(corrupt_count() - before, 1u);
    }
    // The rebuild stored a good library again.
    EXPECT_TRUE(flow::read_library(persist::default_storage(), path(), point(),
                                   config().lib_opts)
                    .has_value());
  }

  static std::string with_u64(std::string payload, std::size_t offset, std::uint64_t v) {
    for (std::size_t b = 0; b < 8; ++b)
      payload[offset + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
    return payload;
  }

  // Payload layout: u8 kind, three f64 (vdd, vth, cox), u64 cell count, then
  // per cell a u64-prefixed name followed by its u64-prefixed slew axis.
  static constexpr std::size_t kCellCountOffset = 1 + 3 * 8;
  static std::size_t first_name_offset() { return kCellCountOffset + 8 + 8; }

  fs::path dir_;
  flow::StaReport report_;
  std::string payload_;
};

TEST_F(LibraryDecoderTest, PristineLibraryLoadsWithoutBuilding) {
  StcoEngine engine(config(), SpiceBackend{});
  const auto rep = engine.evaluate(point());
  EXPECT_EQ(engine.timing().evaluations.load(), 0u);
  EXPECT_EQ(rep.min_period, report_.min_period);
}

TEST_F(LibraryDecoderTest, TruncatedPayloadIsRebuilt) {
  expect_counted_rebuild(payload_.substr(0, payload_.size() / 2));
}

TEST_F(LibraryDecoderTest, OversizedCellCountIsRebuilt) {
  expect_counted_rebuild(with_u64(payload_, kCellCountOffset, std::uint64_t{1} << 62));
}

TEST_F(LibraryDecoderTest, OversizedAxisCountIsRebuilt) {
  const std::size_t axis_offset =
      first_name_offset() + pristine().cells.begin()->first.size();
  expect_counted_rebuild(with_u64(payload_, axis_offset, std::uint64_t{1} << 61));
}

// Schema 1 held non-flip energy and copies of the DFF cell's numbers: a
// store written before they left the library is counted and rebuilt.
TEST_F(LibraryDecoderTest, WrongSchemaIsRebuilt) { expect_counted_rebuild(payload_, 1); }

TEST_F(LibraryDecoderTest, OtherTechnologyPointIsRebuilt) {
  flow::TimingLibrary lib = pristine();
  lib.tech.vdd += 0.25;
  persist::PayloadWriter w;
  flow::put_library(w, lib);
  expect_counted_rebuild(w.bytes());
}

TEST_F(LibraryDecoderTest, MutatedByteBehindValidChecksumIsRebuilt) {
  // Renames the first cell, so the cell set no longer matches the request.
  std::string bytes = payload_;
  bytes[first_name_offset()] = static_cast<char>(bytes[first_name_offset()] ^ 0x20);
  expect_counted_rebuild(bytes);
}

// Whatever single byte is damaged, decoding either succeeds or throws
// PayloadError: no other exception, no read past the buffer (ASan).
TEST_F(LibraryDecoderTest, EveryMutatedByteDecodesOrFailsCleanly) {
  for (std::size_t i = 0; i < payload_.size(); ++i) {
    std::string bytes = payload_;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
    persist::PayloadReader r(bytes);
    try {
      (void)flow::get_library(r);
    } catch (const persist::PayloadError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << i << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace stco
