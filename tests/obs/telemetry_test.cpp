// Telemetry & progress tests: Snapshot delta/merge algebra (counter
// resets, keys appearing mid-stream, empty histograms), ProgressTask
// rate/ETA semantics, always-on span statistics without a TraceSession,
// and the TelemetrySession JSONL contract — including a kill-mid-write
// torn tail and a fault-injected charlib build that is killed, resumed,
// and must leave a parseable stream with monotone done-counts and a
// final ETA of zero.

#include "src/obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/charlib/checkpoint.hpp"
#include "src/obs/obs.hpp"
#include "src/persist/fault.hpp"

namespace stco::obs {
namespace {

namespace fs = std::filesystem;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("obs_telemetry_scratch") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

// --- Snapshot::merge -----------------------------------------------------

TEST(SnapshotMerge, CountersAddGaugesOverwrite) {
  Snapshot a, b;
  a.counters["test.m.c"] = 10;
  a.gauges["test.m.g"] = 1.0;
  b.counters["test.m.c"] = 5;
  b.counters["test.m.new"] = 7;
  b.gauges["test.m.g"] = 2.5;
  a.merge(b);
  EXPECT_EQ(a.counter_or("test.m.c"), 15u);
  EXPECT_EQ(a.counter_or("test.m.new"), 7u);
  EXPECT_DOUBLE_EQ(a.gauge_or("test.m.g"), 2.5);
}

TEST(SnapshotMerge, HistogramsBucketwiseAddMinMaxWiden) {
  HistogramSnapshot h1{{1.0, 10.0}, {2, 1, 0}, 3, 6.0, 0.5, 7.0};
  HistogramSnapshot h2{{1.0, 10.0}, {0, 2, 1}, 3, 120.0, 4.0, 100.0};
  Snapshot a, b;
  a.histograms["test.m.h"] = h1;
  b.histograms["test.m.h"] = h2;
  a.merge(b);
  const HistogramSnapshot* m = a.histogram_or_null("test.m.h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 6u);
  EXPECT_DOUBLE_EQ(m->sum, 126.0);
  EXPECT_DOUBLE_EQ(m->min, 0.5);
  EXPECT_DOUBLE_EQ(m->max, 100.0);
  ASSERT_EQ(m->buckets.size(), 3u);
  EXPECT_EQ(m->buckets[0], 2u);
  EXPECT_EQ(m->buckets[1], 3u);
  EXPECT_EQ(m->buckets[2], 1u);
}

TEST(SnapshotMerge, HistogramBoundsMismatchOverwrites) {
  Snapshot a, b;
  a.histograms["test.m.h"] = {{1.0}, {1, 0}, 1, 0.5, 0.5, 0.5};
  b.histograms["test.m.h"] = {{2.0, 4.0}, {1, 1, 0}, 2, 4.0, 1.0, 3.0};
  a.merge(b);
  const HistogramSnapshot* m = a.histogram_or_null("test.m.h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->bounds, (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(m->count, 2u);
}

TEST(SnapshotMerge, EmptyHistogramIsIgnored) {
  Snapshot a, b;
  a.histograms["test.m.h"] = {{1.0}, {1, 0}, 1, 0.5, 0.5, 0.5};
  b.histograms["test.m.h"] = {};  // count == 0: merging must not clobber
  a.merge(b);
  EXPECT_EQ(a.histogram_or_null("test.m.h")->count, 1u);
}

TEST(SnapshotMerge, SpansAddAndWidenProgressOverwrites) {
  Snapshot a, b;
  a.spans["gnn.epoch"] = {2, 100, 60};
  b.spans["gnn.epoch"] = {3, 300, 200};
  a.progress["test.m.p"] = {1, 10, 0.5, 18.0};
  b.progress["test.m.p"] = {10, 10, 0.5, 0.0};
  a.merge(b);
  const SpanStatSnapshot* s = a.span_or_null("gnn.epoch");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 5u);
  EXPECT_EQ(s->total_ns, 400u);
  EXPECT_EQ(s->max_ns, 200u);
  const ProgressSnapshot* p = a.progress_or_null("test.m.p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->done, 10u);
  EXPECT_DOUBLE_EQ(p->eta_seconds, 0.0);
}

// --- Snapshot::delta_since ----------------------------------------------

TEST(SnapshotDelta, CountersEmitDifferences) {
  Snapshot prev, cur;
  prev.counters["test.d.c"] = 10;
  cur.counters["test.d.c"] = 17;
  cur.counters["test.d.unchanged"] = 3;
  prev.counters["test.d.unchanged"] = 3;
  Snapshot d = cur.delta_since(prev);
  EXPECT_EQ(d.counter_or("test.d.c"), 7u);
  EXPECT_EQ(d.counters.count("test.d.unchanged"), 0u);
}

TEST(SnapshotDelta, CounterResetEmitsFreshValue) {
  // A counter that went backwards (reset between samples) must emit its
  // current value so the merged running total stays monotone.
  Snapshot prev, cur;
  prev.counters["test.d.c"] = 100;
  cur.counters["test.d.c"] = 4;
  Snapshot d = cur.delta_since(prev);
  EXPECT_EQ(d.counter_or("test.d.c"), 4u);
  prev.merge(d);
  EXPECT_EQ(prev.counter_or("test.d.c"), 104u);  // monotone, never shrinks
}

TEST(SnapshotDelta, KeyAppearingMidStreamEmittedInFull) {
  Snapshot prev, cur;
  cur.counters["test.d.fresh"] = 42;
  cur.gauges["test.d.g"] = 1.5;
  cur.histograms["test.d.h"] = {{1.0}, {2, 1}, 3, 5.0, 0.5, 3.0};
  cur.spans["gnn.epoch"] = {1, 50, 50};
  cur.progress["test.d.p"] = {1, 4, 2.0, 1.5};
  Snapshot d = cur.delta_since(prev);
  EXPECT_EQ(d.counter_or("test.d.fresh"), 42u);
  EXPECT_DOUBLE_EQ(d.gauge_or("test.d.g"), 1.5);
  ASSERT_NE(d.histogram_or_null("test.d.h"), nullptr);
  EXPECT_EQ(d.histogram_or_null("test.d.h")->count, 3u);
  ASSERT_NE(d.span_or_null("gnn.epoch"), nullptr);
  ASSERT_NE(d.progress_or_null("test.d.p"), nullptr);
}

TEST(SnapshotDelta, EmptyHistogramOmitted) {
  Snapshot prev, cur;
  cur.histograms["test.d.h"] = {};  // registered but never observed
  Snapshot d = cur.delta_since(prev);
  EXPECT_EQ(d.histograms.count("test.d.h"), 0u);
  EXPECT_TRUE(d.empty());
}

TEST(SnapshotDelta, UnchangedStateYieldsEmptyDelta) {
  Snapshot s;
  s.counters["test.d.c"] = 5;
  s.gauges["test.d.g"] = 2.0;
  s.histograms["test.d.h"] = {{1.0}, {1, 0}, 1, 0.5, 0.5, 0.5};
  s.spans["gnn.epoch"] = {1, 10, 10};
  s.progress["test.d.p"] = {1, 2, 1.0, 1.0};
  EXPECT_TRUE(s.delta_since(s).empty());
}

TEST(SnapshotDelta, ProgressWithUnchangedCountsYieldsEmptyDelta) {
  // An unfinished task's rate and ETA move with the clock between samples;
  // with done and total unchanged there is nothing to report.
  Snapshot prev, cur;
  prev.progress["test.d.p"] = {1, 4, 2.0, 1.5};
  cur.progress["test.d.p"] = {1, 4, 1.0, 3.0};
  EXPECT_TRUE(cur.delta_since(prev).empty());
  cur.progress["test.d.p"] = {2, 4, 2.0, 1.0};
  ASSERT_NE(cur.delta_since(prev).progress_or_null("test.d.p"), nullptr);
}

TEST(SnapshotDelta, DeltaStreamFoldsBackIntoTotals) {
  // Three successive states; merging the start record plus every delta in
  // order must reconstruct the last state exactly.
  Snapshot s0, s1, s2;
  s0.counters["test.d.c"] = 1;
  s0.histograms["test.d.h"] = {{1.0, 2.0}, {1, 0, 0}, 1, 0.5, 0.5, 0.5};
  s1 = s0;
  s1.counters["test.d.c"] = 6;
  s1.gauges["test.d.g"] = 3.0;
  s1.histograms["test.d.h"] = {{1.0, 2.0}, {1, 2, 1}, 4, 9.5, 0.5, 5.0};
  s1.spans["gnn.epoch"] = {2, 40, 30};
  s2 = s1;
  s2.counters["test.d.c"] = 9;
  s2.spans["gnn.epoch"] = {3, 100, 60};
  s2.progress["test.d.p"] = {4, 4, 2.0, 0.0};

  Snapshot folded = s0.delta_since(Snapshot{});  // "start" record
  folded.merge(s1.delta_since(s0));
  folded.merge(s2.delta_since(s1));

  EXPECT_EQ(folded.counter_or("test.d.c"), 9u);
  EXPECT_DOUBLE_EQ(folded.gauge_or("test.d.g"), 3.0);
  const HistogramSnapshot* h = folded.histogram_or_null("test.d.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_DOUBLE_EQ(h->sum, 9.5);
  EXPECT_EQ(h->buckets, (std::vector<std::uint64_t>{1, 2, 1}));
  const SpanStatSnapshot* sp = folded.span_or_null("gnn.epoch");
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->count, 3u);
  EXPECT_EQ(sp->total_ns, 100u);
  EXPECT_EQ(sp->max_ns, 60u);
  EXPECT_EQ(folded.progress_or_null("test.d.p")->done, 4u);
}

// --- ProgressTask --------------------------------------------------------

TEST(Progress, AddAdvanceSampleEta) {
  ProgressTask& p = progress("test.prog.basic");
  p.reset();
  EXPECT_EQ(p.total(), 0u);
  p.add_work(10);
  p.advance(3);
  p.advance();
  EXPECT_EQ(p.done(), 4u);
  EXPECT_EQ(p.total(), 10u);
  ProgressSnapshot s = p.sample();
  EXPECT_EQ(s.done, 4u);
  EXPECT_EQ(s.total, 10u);
  // Same task on re-lookup; totals keep accumulating across phases.
  EXPECT_EQ(&progress("test.prog.basic"), &p);
  p.add_work(2);
  EXPECT_EQ(p.total(), 12u);
}

TEST(Progress, ReduceWorkFinishesEarlyStop) {
  ProgressTask& p = progress("test.prog.early");
  p.reset();
  p.add_work(100);
  p.advance(40);
  p.reduce_work(60);  // early stop: the remaining units will never run
  EXPECT_EQ(p.done(), 40u);
  EXPECT_EQ(p.total(), 40u);
  ProgressSnapshot s = p.sample();
  EXPECT_DOUBLE_EQ(s.eta_seconds, 0.0);
}

TEST(Progress, SnapshotCarriesRegisteredTasks) {
  ProgressTask& p = progress("test.prog.snap");
  p.reset();
  p.add_work(5);
  p.advance(5);
  Snapshot s = snapshot();
  const ProgressSnapshot* got = s.progress_or_null("test.prog.snap");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->done, 5u);
  EXPECT_EQ(got->total, 5u);
  EXPECT_DOUBLE_EQ(got->eta_seconds, 0.0);
}

// --- always-on span statistics ------------------------------------------

TEST(SpanStats, AggregatedWithoutTraceSession) {
  ASSERT_FALSE(tracing_enabled());
  reset_span_stats();
  {
    Span outer("gnn.epoch");
    Span inner("charlib.build_dataset");
  }
  { Span again("gnn.epoch"); }
  const auto stats = span_stats();
  const SpanStat* epoch = nullptr;
  const SpanStat* build = nullptr;
  for (const auto& s : stats) {
    if (s.name == "gnn.epoch") epoch = &s;
    if (s.name == "charlib.build_dataset") build = &s;
  }
  ASSERT_NE(epoch, nullptr);
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(epoch->count, 2u);
  EXPECT_EQ(build->count, 1u);
  EXPECT_GE(epoch->total_ns, epoch->max_ns);
  // And the registry snapshot carries them for reports/telemetry.
  Snapshot snap = snapshot();
  ASSERT_NE(snap.span_or_null("gnn.epoch"), nullptr);
  EXPECT_EQ(snap.span_or_null("gnn.epoch")->count, 2u);
  reset_span_stats();
  EXPECT_EQ(snapshot().span_or_null("gnn.epoch"), nullptr);
}

// --- TelemetrySession JSONL ---------------------------------------------

TEST_F(TelemetryTest, SessionWritesParseableDeltaStream) {
  Counter& c = counter("test.tel.events");
  c.reset();
  const std::string file = path("t.jsonl");
  {
    TelemetrySession session({file, /*interval_ms=*/60'000});
    c.add(5);
    session.flush_now();
    c.add(7);
    session.flush_now();
    EXPECT_GE(session.records_written(), 3u);  // start + 2 samples
  }  // destructor appends the "final" record

  TelemetryLog log = read_telemetry_file(file);
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.bad_lines, 0u);
  ASSERT_GE(log.records.size(), 3u);
  EXPECT_EQ(log.records.front().kind, "start");
  EXPECT_EQ(log.records.back().kind, "final");
  for (std::size_t i = 1; i < log.records.size(); ++i)
    EXPECT_GT(log.records[i].seq, log.records[i - 1].seq);
  // Folding the deltas reconstructs the cumulative counter.
  Snapshot merged = log.merged();
  EXPECT_EQ(merged.counter_or("test.tel.events"), 12u);
}

TEST_F(TelemetryTest, QuietTicksWriteNothing) {
  const std::string file = path("quiet.jsonl");
  std::uint64_t after_start = 0;
  {
    TelemetrySession session({file, /*interval_ms=*/60'000});
    after_start = session.records_written();
    // No obs mutations: repeated explicit flushes must not grow the file.
    session.flush_now();
    session.flush_now();
    EXPECT_EQ(session.records_written(), after_start);
  }
  TelemetryLog log = read_telemetry_file(file);
  ASSERT_GE(log.records.size(), 1u);
  EXPECT_EQ(log.records.front().kind, "start");
  EXPECT_EQ(log.records.back().kind, "final");
}

TEST_F(TelemetryTest, TornTailLineIsSkippedNotFatal) {
  Counter& c = counter("test.tel.torn");
  c.reset();
  const std::string file = path("torn.jsonl");
  {
    TelemetrySession session({file, /*interval_ms=*/60'000});
    c.add(3);
    session.flush_now();
  }
  // Simulate a kill mid-write(2): sever the stream mid-record, no newline.
  std::ofstream tail(file, std::ios::app | std::ios::binary);
  tail << R"({"telemetry_schema_version":1,"seq":99,"t_ns":12,"kind":"sam)";
  tail.close();

  TelemetryLog log = read_telemetry_file(file);
  EXPECT_TRUE(log.truncated_tail);
  EXPECT_EQ(log.bad_lines, 0u);
  ASSERT_GE(log.records.size(), 2u);
  EXPECT_EQ(log.merged().counter_or("test.tel.torn"), 3u);
}

TEST_F(TelemetryTest, CompleteGarbageLineCountsAsBad) {
  const std::string file = path("bad.jsonl");
  std::ofstream out(file, std::ios::binary);
  out << R"({"telemetry_schema_version":1,"seq":0,"t_ns":1,"kind":"start","obs":{"obs_schema_version":2,"counters":{"test.tel.x":4}}})"
      << "\n";
  out << "not json at all\n";
  out.close();
  TelemetryLog log = read_telemetry_file(file);
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.bad_lines, 1u);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.merged().counter_or("test.tel.x"), 4u);
}

TEST_F(TelemetryTest, MissingFileYieldsEmptyLog) {
  TelemetryLog log = read_telemetry_file(path("absent.jsonl"));
  EXPECT_TRUE(log.records.empty());
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.bad_lines, 0u);
  EXPECT_TRUE(log.merged().empty());
}

TEST(SnapshotJson, JsonRoundTripThroughParser) {
  // to_json -> parse_json -> snapshot_from_json preserves every section.
  // Pure value-type path: works in both build modes.
  Snapshot s;
  s.counters["test.j.c"] = 11;
  s.gauges["test.j.g"] = -2.5;
  s.histograms["test.j.h"] = {{1.0, 8.0}, {1, 2, 3}, 6, 40.0, 0.25, 30.0};
  s.spans["gnn.epoch"] = {4, 2000, 900};
  s.progress["test.j.p"] = {3, 9, 1.5, 4.0};

  const std::optional<JsonValue> v = parse_json(s.to_json());
  ASSERT_TRUE(v.has_value());
  Snapshot back = snapshot_from_json(*v);
  EXPECT_EQ(back.counter_or("test.j.c"), 11u);
  EXPECT_DOUBLE_EQ(back.gauge_or("test.j.g"), -2.5);
  const HistogramSnapshot* h = back.histogram_or_null("test.j.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->bounds, (std::vector<double>{1.0, 8.0}));
  EXPECT_EQ(h->buckets, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(h->count, 6u);
  EXPECT_DOUBLE_EQ(h->sum, 40.0);
  EXPECT_DOUBLE_EQ(h->min, 0.25);
  EXPECT_DOUBLE_EQ(h->max, 30.0);
  const SpanStatSnapshot* sp = back.span_or_null("gnn.epoch");
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->count, 4u);
  EXPECT_EQ(sp->total_ns, 2000u);
  EXPECT_EQ(sp->max_ns, 900u);
  const ProgressSnapshot* p = back.progress_or_null("test.j.p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->done, 3u);
  EXPECT_EQ(p->total, 9u);
  EXPECT_DOUBLE_EQ(p->rate_per_sec, 1.5);
  EXPECT_DOUBLE_EQ(p->eta_seconds, 4.0);
}

// --- the headline contract: killed-and-resumed build under telemetry ----

TEST_F(TelemetryTest, KilledAndResumedBuildLeavesCoherentStream) {
  const std::string file = path("build.jsonl");
  persist::RetryPolicy no_sleep{1, 0, false};

  const charlib::CornerRanges ranges;
  const auto corners = charlib::corner_grid(ranges, 2);  // 8 corners
  charlib::DatasetOptions opts;
  opts.cell_names = {"INV"};
  opts.input_slews = {15e-9};
  opts.output_loads = {30e-15};

  reset_progress();

  // Run 1: telemetry on, build killed while writing the second shard.
  {
    TelemetrySession session({file, /*interval_ms=*/60'000});
    persist::FaultInjector kill(/*seed=*/5,
                                persist::FaultKind::kCrashBeforeRename,
                                /*at_op=*/3);
    persist::Storage faulty(no_sleep, &kill);
    charlib::CheckpointOptions ckpt{path("ckpt"), /*shard_size=*/3, &faulty};
    EXPECT_THROW(charlib::build_charlib_dataset_resumable(corners, opts, ckpt),
                 persist::CrashError);
    session.flush_now();
  }  // "final" record closes session 1

  // Run 2: a fresh session appends to the same file; resume finishes.
  {
    TelemetrySession session({file, /*interval_ms=*/60'000});
    persist::Storage healthy(no_sleep);
    charlib::CheckpointOptions resume{path("ckpt"), /*shard_size=*/3,
                                      &healthy};
    const auto data =
        charlib::build_charlib_dataset_resumable(corners, opts, resume);
    EXPECT_FALSE(data.empty());
    EXPECT_EQ(data.size() % corners.size(), 0u);  // same samples per corner
    session.flush_now();
  }

  // The stream must be fully parseable (no torn or bad lines: every append
  // was a single write(2) that completed).
  TelemetryLog log = read_telemetry_file(file);
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.bad_lines, 0u);
  ASSERT_GE(log.records.size(), 4u);  // two sessions, >= 2 records each

  // Done-counts for the build's progress task are monotone across the
  // whole file, including the kill/resume boundary.
  Snapshot running;
  std::uint64_t prev_done = 0;
  for (const auto& rec : log.records) {
    running.merge(rec.obs);
    const ProgressSnapshot* p =
        running.progress_or_null("charlib.dataset.corners");
    if (p == nullptr) continue;
    EXPECT_GE(p->done, prev_done);
    prev_done = p->done;
  }

  // Final cumulative state: the task is finished — done == total, ETA 0.
  const ProgressSnapshot* fin =
      running.progress_or_null("charlib.dataset.corners");
  ASSERT_NE(fin, nullptr);
  EXPECT_GT(fin->done, 0u);
  EXPECT_EQ(fin->done, fin->total);
  EXPECT_DOUBLE_EQ(fin->eta_seconds, 0.0);
}

}  // namespace
}  // namespace stco::obs
