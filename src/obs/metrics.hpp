#pragma once
// Metrics registry: the "how often / how big" half of src/obs.
//
// Three instrument kinds, all registered by name in a process-wide
// registry and read back through an immutable Snapshot:
//
//   Counter    monotonically increasing uint64 (events, cache hits)
//   Gauge      last-written double (current epoch loss, queue depth)
//   Histogram  fixed upper-bound buckets + count/sum (iterations, latency)
//
// Hot-path cost: a Counter::add / Gauge::set / Histogram::observe is a
// handful of relaxed atomic RMWs — no locks, no allocation. Lookup by
// name (obs::counter("...") etc.) takes a registry mutex, so call sites
// cache the reference:
//
//   static obs::Counter& warm = obs::counter("persist.cache.warm_hits");
//   warm.add(1);
//
// References returned by the registry are stable for the process lifetime
// (node-based storage, leaked registry). With STCO_OBS=OFF every
// instrument method compiles to an empty inline body and snapshots are
// empty — but Snapshot itself stays a fully functional value type, so
// reporting code (stco::report) works unchanged in both modes.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/span.hpp"  // kEnabled

namespace stco::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if constexpr (kEnabled) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    if constexpr (kEnabled) return value_.load(std::memory_order_relaxed);
    return 0;
  }
  void reset() {
    if constexpr (kEnabled) value_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge.
class Gauge {
 public:
  void set(double v) {
    if constexpr (kEnabled) value_.store(v, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if `v` is larger — lock-free high-water marks
  /// (arena capacity, workspace footprint) shared across threads.
  void set_max(double v) {
    if constexpr (kEnabled) {
      double cur = value_.load(std::memory_order_relaxed);
      while (v > cur &&
             !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
    }
  }
  double value() const {
    if constexpr (kEnabled) return value_.load(std::memory_order_relaxed);
    return 0.0;
  }
  void reset() {
    if constexpr (kEnabled) value_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], with
/// one implicit overflow bucket. Bounds are set at registration and never
/// change. count/sum/min/max ride along for mean and range reporting.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) {
    if constexpr (kEnabled) observe_impl(v);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Bucket counts, one per bound plus the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  double min() const;
  double max() const;
  double mean() const {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  void reset();

 private:
  void observe_impl(double v);

  std::vector<double> bounds_;                    // sorted upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // min/max stored as raw bits for lock-free CAS update.
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
};

/// Registry lookup: returns the instrument registered under `name`,
/// creating it on first use. References stay valid for the process
/// lifetime. For histograms the bounds apply only on first registration.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name, std::vector<double> bounds);

/// Point-in-time copy of a histogram, used inside Snapshot.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Always-on per-span-name aggregate (count / total / max wall-clock), as
/// carried inside Snapshot. Sampled by every Span even with tracing off.
struct SpanStatSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Point-in-time view of one registered progress task (obs/progress.hpp).
/// `rate_per_sec` and `eta_seconds` are computed at sample time from the
/// monotone done count; eta is 0 once done == total.
struct ProgressSnapshot {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  double rate_per_sec = 0.0;
  double eta_seconds = 0.0;
};

/// Immutable copy of every registered metric. Plain value type — fully
/// functional even with STCO_OBS=OFF (snapshots are then just empty until
/// populated by hand with set_counter/set_gauge, which is how
/// stco::make_run_snapshot keeps reports working in the no-op build).
struct Snapshot {
  /// Schema version stamped into to_json() output; bump when the JSON
  /// layout changes incompatibly. v2 added "spans" and "progress".
  static constexpr int kSchemaVersion = 2;

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, SpanStatSnapshot> spans;
  std::map<std::string, ProgressSnapshot> progress;

  std::uint64_t counter_or(const std::string& name, std::uint64_t fallback = 0) const;
  double gauge_or(const std::string& name, double fallback = 0.0) const;
  const HistogramSnapshot* histogram_or_null(const std::string& name) const;
  const SpanStatSnapshot* span_or_null(const std::string& name) const;
  const ProgressSnapshot* progress_or_null(const std::string& name) const;
  void set_counter(const std::string& name, std::uint64_t v) { counters[name] = v; }
  void set_gauge(const std::string& name, double v) { gauges[name] = v; }
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty() && progress.empty();
  }

  /// Merge `other` into this. The semantics make a chronological sequence
  /// of delta snapshots (delta_since) fold back into the totals:
  ///   counters    add
  ///   gauges      overwrite (later value wins)
  ///   histograms  bucket-wise add when the bounds match (count/sum add,
  ///               min/max widen); overwrite on bounds mismatch or when
  ///               ours is empty
  ///   spans       count/total add, max widens
  ///   progress    overwrite (later sample wins)
  void merge(const Snapshot& other);

  /// Delta record: everything in *this that changed since `prev`, with
  /// counters/histograms/spans expressed as differences so that
  /// prev.merge(delta) reconstructs *this. Edge cases:
  ///   * key missing from prev -> emitted in full
  ///   * counter reset (current < prev) -> current value emitted as a
  ///     fresh delta (the merged total keeps growing monotonically)
  ///   * histogram shrank or changed bounds -> emitted in full (merge then
  ///     overwrites)
  ///   * empty histograms and zero deltas -> omitted
  ///   * progress -> emitted in full when done or total changed (a rate or
  ///     ETA that moved with the clock alone is not a change)
  [[nodiscard]] Snapshot delta_since(const Snapshot& prev) const;

  /// Single-object JSON: {"obs_schema_version":2,"counters":{...},
  /// "gauges":{...},"histograms":{...},"spans":{...},"progress":{...}}.
  /// Keys sorted (std::map), so output is deterministic for a given
  /// snapshot.
  std::string to_json() const;
};

/// Copy out every registered metric. Empty with STCO_OBS=OFF.
[[nodiscard]] Snapshot snapshot();
/// Zero every registered counter/gauge/histogram (registrations remain).
void reset_metrics();

}  // namespace stco::obs
