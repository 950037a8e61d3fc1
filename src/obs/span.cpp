#include "src/obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/obs/keys.hpp"
#include "src/persist/atomic_file.hpp"

namespace stco::obs {

namespace detail {
std::atomic<bool> g_tracing{false};
}  // namespace detail

namespace {

constexpr std::size_t kRingCapacity = std::size_t{1} << 15;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One completed-span ring per thread. The owning thread pushes; collectors
// drain under the same mutex. The mutex is per-thread, so the push path is
// uncontended except while a snapshot is being taken.
struct ThreadRing {
  std::mutex m;
  std::uint32_t tid = 0;
  std::vector<SpanRecord> ring;  // capacity-bounded, overwrite-oldest
  std::size_t head = 0;          // next write slot once full
  bool full = false;

  void push(SpanRecord&& rec, std::atomic<std::uint64_t>& dropped) {
    std::lock_guard<std::mutex> lock(m);
    if (!full) {
      ring.push_back(std::move(rec));
      if (ring.size() == kRingCapacity) full = true;
    } else {
      ring[head] = std::move(rec);
      head = (head + 1) % kRingCapacity;
      dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void drain_into(std::vector<SpanRecord>& out) {
    std::lock_guard<std::mutex> lock(m);
    if (!full) {
      out.insert(out.end(), ring.begin(), ring.end());
    } else {
      out.insert(out.end(), ring.begin() + static_cast<std::ptrdiff_t>(head),
                 ring.end());
      out.insert(out.end(), ring.begin(),
                 ring.begin() + static_cast<std::ptrdiff_t>(head));
    }
  }

  void clear() {
    std::lock_guard<std::mutex> lock(m);
    ring.clear();
    head = 0;
    full = false;
  }
};

// Leaked singleton: spans may be recorded from detached/worker threads all
// the way through static destruction, so the registry must outlive
// everything.
struct Registry {
  std::mutex m;  // guards `rings` growth only
  std::vector<ThreadRing*> rings;
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> next_tid{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint64_t epoch_ns = steady_now_ns();

  ThreadRing* make_ring() {
    auto* ring = new ThreadRing;  // leaked with the registry
    ring->tid = static_cast<std::uint32_t>(
        next_tid.fetch_add(1, std::memory_order_relaxed));
    ring->ring.reserve(256);
    std::lock_guard<std::mutex> lock(m);
    rings.push_back(ring);
    return ring;
  }
};

Registry& registry() {
  static Registry* r = new Registry;  // intentionally leaked
  return *r;
}

// Always-on per-span-name aggregate, indexed by keys::span_name_index.
// Fixed-size and constant-initialized: updating a slot is three relaxed
// RMWs with no registration step, safe from any thread at any time.
struct SpanAgg {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> max_ns{0};
};
SpanAgg g_span_aggs[keys::kSpanNames.size()];

void agg_record(int idx, std::uint64_t dur_ns) {
  SpanAgg& a = g_span_aggs[idx];
  a.count.fetch_add(1, std::memory_order_relaxed);
  a.total_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  std::uint64_t cur = a.max_ns.load(std::memory_order_relaxed);
  while (dur_ns > cur &&
         !a.max_ns.compare_exchange_weak(cur, dur_ns,
                                         std::memory_order_relaxed)) {
  }
}

ThreadRing& thread_ring() {
  thread_local ThreadRing* ring = registry().make_ring();
  return *ring;
}

// STCO_TRACE=<path>: start tracing at static-init time, dump at exit.
struct EnvTrace {
  std::string path;
  EnvTrace() {
    if (const char* p = std::getenv("STCO_TRACE"); p && *p) {
      path = p;
      start_tracing();
    }
  }
  ~EnvTrace() {
    if (path.empty()) return;
    stop_tracing();
    try {
      write_chrome_trace_file(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "obs: STCO_TRACE dump failed: %s\n", e.what());
    }
  }
};
EnvTrace g_env_trace;

void json_escape(std::ostream& os, const char* s) {
  for (; s && *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (static_cast<unsigned char>(c) >= 0x20)
      os << c;
  }
}

}  // namespace

std::uint64_t now_ns() { return steady_now_ns() - registry().epoch_ns; }

void Span::begin(const char* name, SpanContext parent) {
#ifdef STCO_CHECKS
  // Mirror of the obs-unknown-span lint rule, catching names the linter
  // cannot see (non-literal or macro-assembled). obs cannot link the
  // numeric contract layer (it sits below it), so report-and-abort here.
  if (!keys::is_canonical_span_name(name) && !keys::is_test_key(name)) {
    std::fprintf(stderr,
                 "obs: span name \"%s\" is not in the canonical registry "
                 "(src/obs/keys.hpp)\n",
                 name);
    std::abort();
  }
#endif
  name_ = name;
  stat_idx_ = keys::span_name_index(name);
  // Full record machinery (ids, nesting, ring push at end()) only while a
  // trace session is live; the aggregate above is maintained regardless.
  if (tracing_enabled()) {
    auto& reg = registry();
    id_ = reg.next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = parent.id;
    saved_current_ = detail::t_current;
    detail::t_current = id_;
  }
  start_ns_ = now_ns();
}

void Span::end() {
  const std::uint64_t end_ns = now_ns();
  if (stat_idx_ >= 0) agg_record(stat_idx_, end_ns - start_ns_);
  if (id_ == 0) return;
  detail::t_current = saved_current_;
  SpanRecord rec;
  rec.name = name_;
  if (arg_[0] != 0) rec.arg = arg_;
  rec.id = id_;
  rec.parent = parent_;
  rec.start_ns = start_ns_;
  rec.end_ns = end_ns;
  auto& ring = thread_ring();
  rec.tid = ring.tid;
  ring.push(std::move(rec), registry().dropped);
  id_ = 0;
}

void Span::set_arg(const char* arg) {
  if (id_ == 0 || arg == nullptr) return;
  std::strncpy(arg_, arg, sizeof(arg_) - 1);
  arg_[sizeof(arg_) - 1] = 0;
}

std::vector<SpanStat> span_stats() {
  std::vector<SpanStat> out;
  for (std::size_t i = 0; i < keys::kSpanNames.size(); ++i) {
    const SpanAgg& a = g_span_aggs[i];
    const std::uint64_t count = a.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    SpanStat s;
    s.name = keys::kSpanNames[i];
    s.count = count;
    s.total_ns = a.total_ns.load(std::memory_order_relaxed);
    s.max_ns = a.max_ns.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void reset_span_stats() {
  for (SpanAgg& a : g_span_aggs) {
    a.count.store(0, std::memory_order_relaxed);
    a.total_ns.store(0, std::memory_order_relaxed);
    a.max_ns.store(0, std::memory_order_relaxed);
  }
}

void start_tracing() { detail::g_tracing.store(true, std::memory_order_relaxed); }
void stop_tracing() { detail::g_tracing.store(false, std::memory_order_relaxed); }

void clear_spans() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.m);
  for (ThreadRing* ring : reg.rings) ring->clear();
  reg.dropped.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecord> collect_spans() {
  auto& reg = registry();
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(reg.m);
    for (ThreadRing* ring : reg.rings) ring->drain_into(out);
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

std::uint64_t dropped_spans() {
  return registry().dropped.load(std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& os, const std::vector<SpanRecord>& spans) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) os << ',';
    first = false;
    const double ts_us = static_cast<double>(s.start_ns) / 1000.0;
    const double dur_us =
        static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    os << "{\"name\":\"";
    json_escape(os, s.name);
    os << "\",\"cat\":\"stco\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us
       << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent;
    if (!s.arg.empty()) {
      os << ",\"arg\":\"";
      json_escape(os, s.arg.c_str());
      os << '"';
    }
    os << "}}";
  }
  os << "]}";
}

void write_chrome_trace_file(const std::string& path) {
  std::ostringstream os;
  write_chrome_trace(os, collect_spans());
  os << '\n';
  // Atomic replace: a crash mid-export can never leave a torn trace file.
  persist::atomic_write_file(path, os.str());
}

}  // namespace stco::obs
