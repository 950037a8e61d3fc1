// stco-perfdiff core tests: JSON flattening, direction heuristics, the
// diff/regression gate (identical inputs clean, degraded latency keys
// flagged past the threshold), telemetry-stream validation, and the CLI
// exit-code contract driven in-process through run_cli.

#include "tools/stco-perfdiff/perfdiff.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/obs/telemetry.hpp"

namespace stco::perfdiff {
namespace {

namespace fs = std::filesystem;

class PerfdiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("perfdiff_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const char* name, const std::string& body) {
    const std::string p = (dir_ / name).string();
    std::ofstream out(p, std::ios::binary);
    out << body;
    return p;
  }

  int cli(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "stco-perfdiff");
    std::ostringstream out, err;
    return run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  }

  fs::path dir_;
};

// --- direction heuristics ------------------------------------------------

TEST(KeyDirection, LowerIsBetterFamilies) {
  EXPECT_EQ(key_direction("latency.0.plan_us"), Direction::kLowerIsBetter);
  EXPECT_EQ(key_direction("gnn.infer.arena_high_water_bytes"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(key_direction("solver.fallbacks"), Direction::kLowerIsBetter);
  EXPECT_EQ(key_direction("persist.corrupt_artifacts"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(key_direction("cells.characterize_seconds"),
            Direction::kLowerIsBetter);
}

TEST(KeyDirection, HigherIsBetterFamilies) {
  EXPECT_EQ(key_direction("throughput.graphs_per_s"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(key_direction("batch.speedup"), Direction::kHigherIsBetter);
  EXPECT_EQ(key_direction("persist.cache.warm_hits"), Direction::kHigherIsBetter);
}

TEST(KeyDirection, UnknownKeysAreInformational) {
  EXPECT_EQ(key_direction("config.threads"), Direction::kInformational);
  EXPECT_EQ(key_direction("exec.parallel_regions"),
            Direction::kInformational);
}

// --- flattening ----------------------------------------------------------

TEST(Flatten, NestedObjectsArraysBools) {
  const auto v = obs::parse_json(
      R"({"a":{"b":1.5,"c":[2,3]},"flag":true,"name":"skip","n":null})");
  ASSERT_TRUE(v.has_value());
  const auto flat = flatten_numeric(*v);
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_DOUBLE_EQ(flat.at("a.b"), 1.5);
  EXPECT_DOUBLE_EQ(flat.at("a.c.0"), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("a.c.1"), 3.0);
  EXPECT_DOUBLE_EQ(flat.at("flag"), 1.0);
  EXPECT_EQ(flat.count("name"), 0u);
  EXPECT_EQ(flat.count("n"), 0u);
}

// --- diff / regression gate ---------------------------------------------

PerfInput make_input(std::map<std::string, double> values) {
  PerfInput in;
  in.values = std::move(values);
  in.ok = true;
  return in;
}

TEST(Diff, IdenticalInputsHaveNoRegressions) {
  const auto a = make_input({{"solver.latency_us", 120.0},
                             {"throughput.graphs_per_s", 50.0}});
  const DiffResult res = diff(a, a, DiffOptions{});
  EXPECT_EQ(res.regressions, 0u);
  ASSERT_EQ(res.rows.size(), 2u);
  for (const auto& row : res.rows) {
    EXPECT_DOUBLE_EQ(row.rel, 0.0);
    EXPECT_FALSE(row.regressed);
  }
}

TEST(Diff, DegradedLatencyKeyPastThresholdRegresses) {
  const auto a = make_input({{"solver.latency_us", 100.0}});
  const auto b = make_input({{"solver.latency_us", 125.0}});
  DiffOptions opts;
  opts.threshold = 0.10;
  const DiffResult res = diff(a, b, opts);
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_TRUE(res.rows[0].regressed);
  EXPECT_NEAR(res.rows[0].rel, 0.25, 1e-12);
  EXPECT_EQ(res.regressions, 1u);
  // The same movement inside the threshold is not a regression.
  const auto c = make_input({{"solver.latency_us", 105.0}});
  EXPECT_EQ(diff(a, c, opts).regressions, 0u);
  // An improvement is never a regression.
  const auto d = make_input({{"solver.latency_us", 50.0}});
  EXPECT_EQ(diff(a, d, opts).regressions, 0u);
}

TEST(Diff, HigherIsBetterKeyRegressesOnDrop) {
  const auto a = make_input({{"throughput.graphs_per_s", 100.0}});
  const auto b = make_input({{"throughput.graphs_per_s", 60.0}});
  const DiffResult res = diff(a, b, DiffOptions{});
  EXPECT_EQ(res.regressions, 1u);
}

TEST(Diff, InformationalKeysNeverGate) {
  const auto a = make_input({{"config.threads", 4.0}});
  const auto b = make_input({{"config.threads", 1.0}});
  EXPECT_EQ(diff(a, b, DiffOptions{}).regressions, 0u);
}

TEST(Diff, GatesRestrictWhichKeysCount) {
  const auto a = make_input(
      {{"solver.latency_us", 100.0}, {"gnn.infer.batch_us", 100.0}});
  const auto b = make_input(
      {{"solver.latency_us", 200.0}, {"gnn.infer.batch_us", 200.0}});
  DiffOptions opts;
  opts.gates = {"gnn."};
  const DiffResult res = diff(a, b, opts);
  EXPECT_EQ(res.regressions, 1u);
  for (const auto& row : res.rows)
    EXPECT_EQ(row.regressed, row.key.rfind("gnn.", 0) == 0);
}

TEST(Diff, DisjointKeysReportedNotGated) {
  const auto a = make_input({{"old.latency_us", 10.0}});
  const auto b = make_input({{"new.latency_us", 10.0}});
  const DiffResult res = diff(a, b, DiffOptions{});
  EXPECT_TRUE(res.rows.empty());
  ASSERT_EQ(res.only_a.size(), 1u);
  ASSERT_EQ(res.only_b.size(), 1u);
  EXPECT_EQ(res.regressions, 0u);
}

TEST(Diff, TinyBaselineIsNoiseNotRegression) {
  const auto a = make_input({{"solver.latency_us", 0.0}});
  const auto b = make_input({{"solver.latency_us", 5.0}});
  EXPECT_EQ(diff(a, b, DiffOptions{}).regressions, 0u);
}

// --- file loading --------------------------------------------------------

TEST_F(PerfdiffTest, LoadsPlainJsonDocument) {
  const auto p = write("bench.json", R"({"latency":{"plan_us":42.0}})");
  const PerfInput in = load_perf_file(p);
  ASSERT_TRUE(in.ok) << in.error;
  EXPECT_FALSE(in.is_telemetry);
  EXPECT_DOUBLE_EQ(in.values.at("latency.plan_us"), 42.0);
}

TEST_F(PerfdiffTest, LoadsTelemetryStreamAsMergedSnapshot) {
  const auto p = write(
      "t.jsonl",
      R"({"telemetry_schema_version":1,"seq":0,"t_ns":1,"kind":"start","obs":{"obs_schema_version":2,"counters":{"test.pd.c":3}}})"
      "\n"
      R"({"telemetry_schema_version":1,"seq":1,"t_ns":2,"kind":"final","obs":{"obs_schema_version":2,"counters":{"test.pd.c":4}}})"
      "\n");
  const PerfInput in = load_perf_file(p);
  ASSERT_TRUE(in.ok) << in.error;
  EXPECT_TRUE(in.is_telemetry);
  EXPECT_DOUBLE_EQ(in.values.at("counters.test.pd.c"), 7.0);  // 3 + 4 merged
}

TEST_F(PerfdiffTest, MissingFileReportsError) {
  const PerfInput in = load_perf_file((dir_ / "absent.json").string());
  EXPECT_FALSE(in.ok);
  EXPECT_FALSE(in.error.empty());
}

// --- telemetry validation ------------------------------------------------

TEST_F(PerfdiffTest, ValidatesSessionProducedStream) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with STCO_OBS=OFF";
  const std::string file = (dir_ / "live.jsonl").string();
  obs::reset_progress();
  {
    obs::TelemetrySession session({file, /*interval_ms=*/60'000});
    obs::ProgressTask& p = obs::progress("test.pd.items");
    p.reset();
    p.add_work(4);
    p.advance(2);
    session.flush_now();
    p.advance(2);
    session.flush_now();
  }
  const ValidateResult res = validate_telemetry(file);
  EXPECT_TRUE(res.ok) << (res.errors.empty() ? "" : res.errors.front());
  EXPECT_GE(res.records, 3u);
  EXPECT_FALSE(res.truncated_tail);
}

TEST_F(PerfdiffTest, ValidateFlagsNonMonotoneProgress) {
  const auto p = write(
      "bad.jsonl",
      R"({"telemetry_schema_version":1,"seq":0,"t_ns":1,"kind":"start","obs":{"obs_schema_version":2,"progress":{"test.pd.p":{"done":5,"total":8,"rate_per_sec":1.0,"eta_seconds":3.0}}}})"
      "\n"
      R"({"telemetry_schema_version":1,"seq":1,"t_ns":2,"kind":"final","obs":{"obs_schema_version":2,"progress":{"test.pd.p":{"done":2,"total":8,"rate_per_sec":1.0,"eta_seconds":6.0}}}})"
      "\n");
  const ValidateResult res = validate_telemetry(p);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.errors.empty());
}

TEST_F(PerfdiffTest, ValidateFlagsNonIncreasingSeqWithinSession) {
  const auto p = write(
      "seq.jsonl",
      R"({"telemetry_schema_version":1,"seq":3,"t_ns":1,"kind":"start","obs":{"obs_schema_version":2}})"
      "\n"
      R"({"telemetry_schema_version":1,"seq":3,"t_ns":2,"kind":"sample","obs":{"obs_schema_version":2}})"
      "\n");
  EXPECT_FALSE(validate_telemetry(p).ok);
}

TEST_F(PerfdiffTest, ValidateAllowsSeqRestartForResumedRuns) {
  // A resumed run appends a second session: seq restarts at 0 and progress
  // done-counts restart too (the new process counts its own work from
  // zero) — legal at the "start" boundary, monotone within each session.
  const auto p = write(
      "resume.jsonl",
      R"({"telemetry_schema_version":1,"seq":0,"t_ns":1,"kind":"start","obs":{"obs_schema_version":2,"progress":{"test.pd.p":{"done":5,"total":8,"rate_per_sec":1.0,"eta_seconds":3.0}}}})"
      "\n"
      R"({"telemetry_schema_version":1,"seq":1,"t_ns":2,"kind":"final","obs":{"obs_schema_version":2,"progress":{"test.pd.p":{"done":6,"total":8,"rate_per_sec":1.0,"eta_seconds":2.0}}}})"
      "\n"
      R"({"telemetry_schema_version":1,"seq":0,"t_ns":3,"kind":"start","obs":{"obs_schema_version":2,"progress":{"test.pd.p":{"done":2,"total":8,"rate_per_sec":1.0,"eta_seconds":6.0}}}})"
      "\n"
      R"({"telemetry_schema_version":1,"seq":1,"t_ns":4,"kind":"final","obs":{"obs_schema_version":2,"progress":{"test.pd.p":{"done":8,"total":8,"rate_per_sec":1.0,"eta_seconds":0.0}}}})"
      "\n");
  const ValidateResult res = validate_telemetry(p);
  EXPECT_TRUE(res.ok) << (res.errors.empty() ? "" : res.errors.front());
  EXPECT_EQ(res.records, 4u);
}

// --- CLI exit codes ------------------------------------------------------

TEST_F(PerfdiffTest, CliUsageErrorsExitTwo) {
  EXPECT_EQ(cli({}), 2);
  EXPECT_EQ(cli({"only-one.json"}), 2);
  EXPECT_EQ(cli({"a.json", "b.json", "--bogus-flag"}), 2);
}

TEST_F(PerfdiffTest, CliIdenticalFilesExitZero) {
  const auto a = write("a.json", R"({"solver":{"latency_us":100.0}})");
  const auto b = write("b.json", R"({"solver":{"latency_us":100.0}})");
  EXPECT_EQ(cli({a.c_str(), b.c_str()}), 0);
  EXPECT_EQ(cli({a.c_str(), a.c_str()}), 0);
}

TEST_F(PerfdiffTest, CliDegradedLatencyExitsOne) {
  const auto a = write("a.json", R"({"solver":{"latency_us":100.0}})");
  const auto b = write("b.json", R"({"solver":{"latency_us":150.0}})");
  EXPECT_EQ(cli({a.c_str(), b.c_str()}), 1);
  // A generous threshold waves the same movement through.
  EXPECT_EQ(cli({a.c_str(), b.c_str(), "--threshold=0.9"}), 0);
}

TEST_F(PerfdiffTest, CliMissingInputExitsOne) {
  const auto a = write("a.json", R"({"x":1})");
  EXPECT_EQ(cli({a.c_str(), (dir_ / "absent.json").string().c_str()}), 1);
}

TEST_F(PerfdiffTest, CliValidateMode) {
  const auto good = write(
      "good.jsonl",
      R"({"telemetry_schema_version":1,"seq":0,"t_ns":1,"kind":"start","obs":{"obs_schema_version":2}})"
      "\n");
  EXPECT_EQ(cli({"--validate", good.c_str()}), 0);
  const auto bad = write("bad.jsonl", "not json\n");
  EXPECT_EQ(cli({"--validate", bad.c_str()}), 1);
}

}  // namespace
}  // namespace stco::perfdiff
