#pragma once
// Scoped-span tracing: the "where did the wall-clock go" half of src/obs.
//
// A Span is an RAII region marker. Spans nest through a thread-local
// current-span pointer, so the trace of one thread is a tree; crossing an
// exec::Context task boundary keeps the tree connected because the
// scheduler captures obs::current_context() at submit time and restores it
// (via obs::TaskScope) on whichever worker runs the task. Completed spans
// land in fixed-capacity per-thread ring buffers (oldest overwritten) and
// can be drained into a chrome://tracing / Perfetto-loadable JSON file.
//
// Cost model:
//   * tracing disabled at runtime (the default): two steady_clock reads
//     plus three relaxed atomic RMWs per span — the always-on per-name
//     aggregate (span_stats()) is maintained even without a TraceSession,
//     so every run can answer "where did the time go" for free. No
//     allocation, no ring-buffer push, no locks.
//   * tracing enabled: the above plus one push into the owning thread's
//     ring buffer (guarded by that thread's own mutex, uncontended except
//     while a collector drains).
//
// Enabling tracing: construct a TraceSession (programmatic), or set
// STCO_TRACE=<path> in the environment — tracing then starts at process
// start and the chrome-trace JSON is written to <path> at exit.
//
// Span names must be string literals (static storage duration): records
// keep the pointer, not a copy. The optional arg (Span::set_arg) IS
// copied, into a small fixed buffer.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace stco::obs {

using SpanId = std::uint64_t;  ///< 0 = "no span"

namespace detail {
extern std::atomic<bool> g_tracing;        ///< runtime tracing switch
/// Innermost live span of this thread. Defined here with a constant
/// initializer so every access is a direct TLS load, never a call through
/// the lazy-init wrapper an `extern thread_local` needs.
inline constinit thread_local SpanId t_current = 0;
}  // namespace detail

/// True while a TraceSession (or the STCO_TRACE environment session) is
/// active. One relaxed load — this is the per-span disabled-mode cost.
inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Nanoseconds since the process-wide trace epoch (first obs use).
std::uint64_t now_ns();

/// Propagatable span identity, captured on one thread and restored on
/// another (see TaskScope). Default-constructed = "no parent".
struct SpanContext {
  SpanId id = 0;
};

/// The innermost live span of the calling thread, as a propagatable
/// context. Returns {0} when tracing is off or no span is open.
inline SpanContext current_context() {
  return {detail::t_current};
}

/// One completed span, as drained by collect_spans().
struct SpanRecord {
  const char* name = nullptr;  ///< static literal passed to the Span ctor
  std::string arg;             ///< optional annotation (set_arg)
  SpanId id = 0;
  SpanId parent = 0;           ///< 0 = root
  std::uint32_t tid = 0;       ///< small sequential thread index
  std::uint64_t start_ns = 0;  ///< now_ns() timestamps
  std::uint64_t end_ns = 0;
};

/// RAII scoped span. Construction opens the region (child of the thread's
/// current span, or of an explicit SpanContext); destruction closes it.
/// The per-name wall-clock aggregate (span_stats()) is always updated;
/// full records (ids, nesting, ring-buffer push) only while tracing.
class Span {
 public:
  explicit Span(const char* name) { begin(name, current_context()); }
  Span(const char* name, SpanContext parent) { begin(name, parent); }
  ~Span() {
    if (name_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Annotate the span with a short string (copied, truncated to 23
  /// chars). No-op when the span is not recording.
  void set_arg(const char* arg);

  /// True when this span is live and recording.
  bool active() const { return id_ != 0; }
  SpanContext context() const { return {id_}; }

 private:
  void begin(const char* name, SpanContext parent);
  void end();

  // id_ stays 0 unless tracing was live at construction (active()/context()
  // keep their tracing-only semantics); stat_idx_ is the always-on
  // aggregate slot (-1 for test./unknown names).
  const char* name_ = nullptr;
  SpanId id_ = 0;
  SpanId parent_ = 0;
  SpanId saved_current_ = 0;
  std::uint64_t start_ns_ = 0;
  int stat_idx_ = -1;
  char arg_[24] = {0};
};

/// Restores a captured SpanContext as the calling thread's current span
/// for the lifetime of the scope — the task-boundary half of span
/// propagation (exec::Context wraps every task body in one). Does not
/// itself record anything.
class TaskScope {
 public:
  explicit TaskScope(SpanContext ctx) {
    if (ctx.id != 0 || detail::t_current != 0) {
      active_ = true;
      saved_ = detail::t_current;
      detail::t_current = ctx.id;
    }
  }
  ~TaskScope() {
    if (active_) detail::t_current = saved_;
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool active_ = false;
  SpanId saved_ = 0;
};

/// One row of the always-on per-span-name aggregate: how many times a
/// canonical span ran and how much wall-clock it consumed, maintained by
/// every Span even when no TraceSession is active.
struct SpanStat {
  std::string_view name;      ///< canonical name (keys::kSpanNames entry)
  std::uint64_t count = 0;    ///< completed spans
  std::uint64_t total_ns = 0; ///< summed wall-clock
  std::uint64_t max_ns = 0;   ///< longest single span
};

/// The aggregate rows with count > 0, in kSpanNames (sorted) order.
/// Ad-hoc `test.` span names are not aggregated.
std::vector<SpanStat> span_stats();
/// Zero the always-on aggregate (used by telemetry tests and sessions that
/// want per-phase attribution).
void reset_span_stats();

/// Start recording spans process-wide. Idempotent.
void start_tracing();
/// Stop recording (already-buffered spans are kept until clear_spans()).
void stop_tracing();
/// Drop every buffered span and reset the dropped-span counter.
void clear_spans();
/// Drain every thread's ring buffer (completed spans only, sorted by
/// start time). Safe to call while tracing is active.
std::vector<SpanRecord> collect_spans();
/// Spans lost to ring-buffer overwrite since the last clear_spans().
std::uint64_t dropped_spans();

/// Serialize records in chrome://tracing "trace event" JSON format
/// (complete "X" events; span/parent ids are carried in args, and a
/// chrome-trace flow arrow is emitted for parent->child links that cross
/// threads). Loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
void write_chrome_trace(std::ostream& os, const std::vector<SpanRecord>& spans);
/// Collect + write to `path`. Throws std::runtime_error if unwritable.
void write_chrome_trace_file(const std::string& path);

/// RAII trace capture: clears buffers and enables tracing on
/// construction, disables on destruction.
///
///   { obs::TraceSession trace;  run();  trace.write("run.trace"); }
///
/// Equivalent to running the process with STCO_TRACE=run.trace.
class TraceSession {
 public:
  TraceSession() {
    clear_spans();
    start_tracing();
  }
  ~TraceSession() { stop_tracing(); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  std::vector<SpanRecord> collect() const { return collect_spans(); }
  void write(const std::string& path) const { write_chrome_trace_file(path); }
};

}  // namespace stco::obs
