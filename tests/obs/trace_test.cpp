// Span-tracing tests: RAII nesting, parent propagation across
// exec::Context task boundaries (parallel_for), and the
// chrome://tracing JSON export round-tripping through the validator.

#include "src/obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/exec/context.hpp"

namespace stco::obs {
namespace {

std::map<SpanId, SpanRecord> by_id(const std::vector<SpanRecord>& spans) {
  std::map<SpanId, SpanRecord> m;
  for (const auto& s : spans) m[s.id] = s;
  return m;
}

// Every non-root parent id must refer to a collected span (no orphans),
// and children must nest inside their parent's [start, end] window.
void expect_valid_tree(const std::vector<SpanRecord>& spans) {
  const auto ids = by_id(spans);
  for (const auto& s : spans) {
    EXPECT_NE(s.id, 0u);
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent == 0) continue;
    const auto it = ids.find(s.parent);
    ASSERT_NE(it, ids.end()) << "orphan parent for span " << s.name;
    EXPECT_LE(it->second.start_ns, s.start_ns) << s.name;
    EXPECT_GE(it->second.end_ns, s.end_ns) << s.name;
  }
}

// Walk parent links from `s` to the root; true if `ancestor` is on the path.
bool has_ancestor(const std::map<SpanId, SpanRecord>& ids, SpanRecord s,
                  SpanId ancestor) {
  while (s.parent != 0) {
    if (s.parent == ancestor) return true;
    const auto it = ids.find(s.parent);
    if (it == ids.end()) return false;
    s = it->second;
  }
  return false;
}

TEST(Trace, NestedSpansSameThread) {
  TraceSession trace;
  {
    Span outer("test.outer");
    {
      Span inner("test.inner");
      inner.active();
    }
    outer.set_arg("annotated");
  }
  const auto spans = trace.collect();
  ASSERT_EQ(spans.size(), 2u);
  expect_valid_tree(spans);
  // collect_spans sorts by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "test.outer");
  EXPECT_STREQ(spans[1].name, "test.inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].arg, "annotated");
}

TEST(Trace, DisabledRecordsNothing) {
  clear_spans();
  {
    Span s("test.never");  // no TraceSession active
    EXPECT_FALSE(s.active());
  }
  EXPECT_TRUE(collect_spans().empty());
}

TEST(Trace, SpanTreeAcrossParallelFor) {
  TraceSession trace;
  SpanId root_id = 0;
  constexpr std::size_t kTasks = 64;
  {
    Span root("test.root");
    root_id = root.context().id;
    exec::Context ctx(4);
    ctx.parallel_for(kTasks, [&](std::size_t) { Span task("test.task"); });
  }
  const auto spans = trace.collect();
  expect_valid_tree(spans);
  const auto ids = by_id(spans);
  std::size_t tasks_seen = 0;
  for (const auto& s : spans) {
    if (std::string(s.name) != "test.task") continue;
    ++tasks_seen;
    // Worker threads restore the submitting span context, so every task
    // span — wherever it ran — chains back to the root span.
    EXPECT_TRUE(has_ancestor(ids, s, root_id)) << "task span detached from root";
  }
  EXPECT_EQ(tasks_seen, kTasks);
}

TEST(Trace, ChromeTraceJsonRoundTrip) {
  TraceSession trace;
  {
    Span root("test.export_root");
    exec::Context ctx(2);
    ctx.parallel_for(16, [&](std::size_t) { Span task("test.export_task"); });
  }
  const auto spans = trace.collect();
  std::ostringstream os;
  write_chrome_trace(os, spans);
  const std::string js = os.str();
  // The export must parse as JSON and carry the trace-event schema.
  EXPECT_TRUE(json_valid(js)) << js.substr(0, 400);
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(js.find("test.export_task"), std::string::npos);
  // One complete event per collected span.
  std::size_t events = 0;
  for (std::size_t p = js.find("\"ph\":\"X\""); p != std::string::npos;
       p = js.find("\"ph\":\"X\"", p + 1))
    ++events;
  EXPECT_EQ(events, spans.size());
}

TEST(Trace, WriteFileAndReload) {
  const std::string path = "/tmp/stco_obs_trace_test.json";
  {
    TraceSession trace;
    { Span s("test.file_span"); }
    trace.write(path);
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::ostringstream ss;
  ss << f.rdbuf();
  EXPECT_TRUE(json_valid(ss.str()));
  EXPECT_NE(ss.str().find("test.file_span"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_THROW(write_chrome_trace_file("/no/such/dir/x.json"),
               std::runtime_error);
}

TEST(Trace, JsonValidatorRejectsMalformed) {
  EXPECT_TRUE(json_valid("{\"a\": [1, 2.5e3, \"s\\u00e9\", true, null]}"));
  EXPECT_FALSE(json_valid("{\"a\": }"));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_valid("[1, 2"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{\"a\": 1} extra"));
  // RFC 8259 numbers and strings: strtod would take each of these.
  EXPECT_TRUE(json_valid("[0, -0.5, 10, 1e5, 1E+2, -3.25e-4]"));
  EXPECT_FALSE(json_valid("1."));
  EXPECT_FALSE(json_valid("+1"));
  EXPECT_FALSE(json_valid("01"));
  EXPECT_FALSE(json_valid(".5"));
  EXPECT_FALSE(json_valid("1e"));
  EXPECT_FALSE(json_valid("-"));
  EXPECT_FALSE(json_valid("\"a\nb\""));  // raw newline inside a string
  EXPECT_TRUE(json_valid("\"a\\nb\""));  // escaped newline
}

}  // namespace
}  // namespace stco::obs
