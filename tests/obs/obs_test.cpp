// Metrics-registry unit tests: instrument semantics, snapshot JSON, and
// the determinism contract — serialized reductions produce identical
// snapshots regardless of how many exec worker threads ran the work.

#include "src/obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/exec/context.hpp"

namespace stco::obs {
namespace {

TEST(Metrics, CounterGaugeBasics) {
  Counter& c = counter("test.obs.counter_basics");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = gauge("test.obs.gauge_basics");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  // Registry returns the same instrument on re-lookup.
  EXPECT_EQ(&counter("test.obs.counter_basics"), &c);
  EXPECT_EQ(&gauge("test.obs.gauge_basics"), &g);
}

TEST(Metrics, HistogramBuckets) {
  Histogram& h = histogram("test.obs.hist_buckets", {1.0, 10.0, 100.0});
  h.reset();
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(7.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  // Bounds are fixed at first registration.
  EXPECT_EQ(&histogram("test.obs.hist_buckets", {99.0}), &h);
  EXPECT_EQ(h.bounds().size(), 3u);
}

TEST(Metrics, SnapshotValueSemantics) {
  // Snapshot is a plain value type: stco::report fills one by hand.
  Snapshot s;
  s.set_counter("a", 3);
  s.set_gauge("b", 1.5);
  EXPECT_EQ(s.counter_or("a"), 3u);
  EXPECT_EQ(s.counter_or("missing", 9), 9u);
  EXPECT_DOUBLE_EQ(s.gauge_or("b"), 1.5);
  EXPECT_EQ(s.histogram_or_null("none"), nullptr);

  Snapshot t;
  t.set_counter("a", 2);
  t.set_gauge("b", 9.0);
  s.merge(t);
  EXPECT_EQ(s.counter_or("a"), 5u);     // counters add
  EXPECT_DOUBLE_EQ(s.gauge_or("b"), 9.0);  // gauges overwrite
}

TEST(Metrics, SnapshotJsonIsValidAndTagged) {
  Snapshot s;
  s.set_counter("solver.attempts", 12);
  s.set_gauge("stco.library_seconds", 0.25);
  const std::string js = s.to_json();
  EXPECT_TRUE(json_valid(js)) << js;
  EXPECT_NE(js.find("\"obs_schema_version\""), std::string::npos);
  EXPECT_NE(js.find("\"solver.attempts\""), std::string::npos);
}

TEST(Metrics, RegistrySnapshotRoundTrip) {
  Counter& c = counter("test.obs.roundtrip.c");
  Histogram& h = histogram("test.obs.roundtrip.h", {1.0});
  c.reset();
  h.reset();
  c.add(7);
  h.observe(0.5);
  h.observe(2.0);
  const Snapshot s = snapshot();
  EXPECT_EQ(s.counter_or("test.obs.roundtrip.c"), 7u);
  const HistogramSnapshot* hs = s.histogram_or_null("test.obs.roundtrip.h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  ASSERT_EQ(hs->buckets.size(), 2u);
  EXPECT_EQ(hs->buckets[0], 1u);
  EXPECT_EQ(hs->buckets[1], 1u);
  EXPECT_TRUE(json_valid(s.to_json()));
}

// The determinism contract: the same serialized reduction, run on exec
// contexts of different widths, must leave identical metric values — the
// scheduler may interleave the atomic increments differently but the
// totals (and therefore the Snapshot) cannot depend on thread count.
TEST(Metrics, DeterministicAcrossThreadCounts) {
  constexpr std::size_t kItems = 257;
  auto run = [&](std::size_t threads) {
    Counter& c = counter("test.obs.determinism.c");
    Histogram& h = histogram("test.obs.determinism.h", {10.0, 100.0});
    c.reset();
    h.reset();
    exec::Context ctx(threads);
    ctx.parallel_for(kItems, [&](std::size_t i) {
      c.add(1);
      h.observe(static_cast<double>(i % 13));
    });
    const Snapshot s = snapshot();
    Snapshot out;
    out.set_counter("c", s.counter_or("test.obs.determinism.c"));
    const auto* hs = s.histogram_or_null("test.obs.determinism.h");
    out.histograms["h"] = *hs;
    return out;
  };
  const Snapshot serial = run(0);
  EXPECT_EQ(serial.counter_or("c"), kItems);
  for (std::size_t threads : {2u, 8u}) {
    const Snapshot wide = run(threads);
    EXPECT_EQ(wide.counter_or("c"), serial.counter_or("c")) << threads;
    EXPECT_EQ(wide.to_json(), serial.to_json()) << threads;
  }
}

}  // namespace
}  // namespace stco::obs
