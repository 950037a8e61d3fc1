#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "src/obs/keys.hpp"
#include "src/obs/progress.hpp"

namespace stco::obs {

namespace {

double bits_to_double(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t double_to_bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// atomic<double>::fetch_add exists in C++20 but not all standard libraries
// ship it for non-integral types; CAS-loop keeps us portable.
void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min_bits(std::atomic<std::uint64_t>& a, double v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < bits_to_double(cur) &&
         !a.compare_exchange_weak(cur, double_to_bits(v),
                                  std::memory_order_relaxed)) {
  }
}

void atomic_max_bits(std::atomic<std::uint64_t>& a, double v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > bits_to_double(cur) &&
         !a.compare_exchange_weak(cur, double_to_bits(v),
                                  std::memory_order_relaxed)) {
  }
}

// Node-based maps give stable instrument addresses; the registry is leaked
// so references stay valid through static destruction.
struct MetricRegistry {
  std::mutex m;
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
};

MetricRegistry& metric_registry() {
  static MetricRegistry* r = new MetricRegistry;  // intentionally leaked
  return *r;
}

void append_json_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

// Under STCO_CHECKS, registry lookups reject names outside the canonical
// registry (keys.hpp) unless they carry the test. prefix. obs is the lowest
// layer and cannot use the numeric contract machinery (circular link), so
// this reports and aborts on its own. Snapshot set_counter/set_gauge are a
// value-type API and stay unvalidated.
void check_metric_key(const std::string& name) {
#ifdef STCO_CHECKS
  if (keys::is_canonical_metric_key(name) || keys::is_test_key(name)) return;
  std::fprintf(stderr,
               "obs: metric key \"%s\" is not in the canonical registry "
               "(src/obs/keys.hpp) and lacks the \"%s\" prefix\n",
               name.c_str(), std::string(keys::kTestPrefix).c_str());
  std::abort();
#else
  (void)name;
#endif
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      min_bits_(double_to_bits(std::numeric_limits<double>::infinity())),
      max_bits_(double_to_bits(-std::numeric_limits<double>::infinity())) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe_impl(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
  atomic_min_bits(min_bits_, v);
  atomic_max_bits(max_bits_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::min() const {
  if (count() == 0) return 0.0;
  return bits_to_double(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  if (count() == 0) return 0.0;
  return bits_to_double(max_bits_.load(std::memory_order_relaxed));
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_bits_.store(double_to_bits(std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(double_to_bits(-std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  check_metric_key(name);
  auto& reg = metric_registry();
  std::lock_guard<std::mutex> lock(reg.m);
  return reg.counters[name];
}

Gauge& gauge(const std::string& name) {
  check_metric_key(name);
  auto& reg = metric_registry();
  std::lock_guard<std::mutex> lock(reg.m);
  return reg.gauges[name];
}

Histogram& histogram(const std::string& name, std::vector<double> bounds) {
  check_metric_key(name);
  auto& reg = metric_registry();
  std::lock_guard<std::mutex> lock(reg.m);
  // try_emplace constructs the Histogram in place (it holds atomics, so it
  // is neither copyable nor movable).
  return reg.histograms.try_emplace(name, std::move(bounds)).first->second;
}

std::uint64_t Snapshot::counter_or(const std::string& name,
                                   std::uint64_t fallback) const {
  const auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

double Snapshot::gauge_or(const std::string& name, double fallback) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

const HistogramSnapshot* Snapshot::histogram_or_null(
    const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

const SpanStatSnapshot* Snapshot::span_or_null(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? nullptr : &it->second;
}

const ProgressSnapshot* Snapshot::progress_or_null(
    const std::string& name) const {
  const auto it = progress.find(name);
  return it == progress.end() ? nullptr : &it->second;
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [k, v] : other.counters) counters[k] += v;
  for (const auto& [k, v] : other.gauges) gauges[k] = v;
  for (const auto& [k, h] : other.histograms) {
    if (h.count == 0) continue;
    auto [it, inserted] = histograms.try_emplace(k, h);
    if (inserted) continue;
    HistogramSnapshot& mine = it->second;
    if (mine.count == 0 || mine.bounds != h.bounds) {
      mine = h;
      continue;
    }
    for (std::size_t i = 0; i < mine.buckets.size() && i < h.buckets.size(); ++i)
      mine.buckets[i] += h.buckets[i];
    mine.count += h.count;
    mine.sum += h.sum;
    mine.min = std::min(mine.min, h.min);
    mine.max = std::max(mine.max, h.max);
  }
  for (const auto& [k, s] : other.spans) {
    SpanStatSnapshot& mine = spans[k];
    mine.count += s.count;
    mine.total_ns += s.total_ns;
    mine.max_ns = std::max(mine.max_ns, s.max_ns);
  }
  for (const auto& [k, p] : other.progress) progress[k] = p;
}

Snapshot Snapshot::delta_since(const Snapshot& prev) const {
  Snapshot d;
  for (const auto& [k, cur] : counters) {
    const auto it = prev.counters.find(k);
    // A reset (cur < prev) re-emits the fresh value: merged reconstruction
    // folds both epochs into one monotone running total.
    const std::uint64_t base =
        (it != prev.counters.end() && it->second <= cur) ? it->second : 0;
    if (cur - base != 0 || it == prev.counters.end()) d.counters[k] = cur - base;
  }
  for (const auto& [k, cur] : gauges) {
    const auto it = prev.gauges.find(k);
    if (it == prev.gauges.end() || it->second != cur) d.gauges[k] = cur;
  }
  for (const auto& [k, cur] : histograms) {
    const auto it = prev.histograms.find(k);
    if (it == prev.histograms.end() || it->second.count == 0 ||
        it->second.bounds != cur.bounds || cur.count < it->second.count) {
      if (cur.count != 0) d.histograms[k] = cur;
      continue;
    }
    if (cur.count == it->second.count) continue;  // unchanged
    HistogramSnapshot hd;
    hd.bounds = cur.bounds;
    hd.buckets.resize(cur.buckets.size(), 0);
    for (std::size_t i = 0;
         i < cur.buckets.size() && i < it->second.buckets.size(); ++i)
      hd.buckets[i] = cur.buckets[i] - it->second.buckets[i];
    hd.count = cur.count - it->second.count;
    hd.sum = cur.sum - it->second.sum;
    // Per-interval min/max are not recoverable from cumulative state; carry
    // the cumulative extremes so merge's widening keeps them correct.
    hd.min = cur.min;
    hd.max = cur.max;
    d.histograms[k] = hd;
  }
  for (const auto& [k, cur] : spans) {
    const auto it = prev.spans.find(k);
    if (it == prev.spans.end() || cur.count < it->second.count) {
      d.spans[k] = cur;
      continue;
    }
    if (cur.count == it->second.count) continue;
    SpanStatSnapshot sd;
    sd.count = cur.count - it->second.count;
    sd.total_ns = cur.total_ns - it->second.total_ns;
    sd.max_ns = cur.max_ns;
    d.spans[k] = sd;
  }
  // Rate and ETA drift with the clock while the counts stand still, so only
  // a count change makes a progress entry news (it carries both).
  for (const auto& [k, cur] : progress) {
    const auto it = prev.progress.find(k);
    if (it == prev.progress.end() || it->second.done != cur.done ||
        it->second.total != cur.total)
      d.progress[k] = cur;
  }
  return d;
}

std::string Snapshot::to_json() const {
  std::string out;
  out += "{\"obs_schema_version\":";
  out += std::to_string(kSchemaVersion);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += k;  // metric names are code-controlled identifiers, no escaping
    out += "\":";
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += k;
    out += "\":";
    append_json_number(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += k;
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    append_json_number(out, h.sum);
    out += ",\"min\":";
    append_json_number(out, h.min);
    out += ",\"max\":";
    append_json_number(out, h.max);
    out += ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      append_json_number(out, h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "},\"spans\":{";
  first = true;
  for (const auto& [k, s] : spans) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += k;
    out += "\":{\"count\":";
    out += std::to_string(s.count);
    out += ",\"total_ns\":";
    out += std::to_string(s.total_ns);
    out += ",\"max_ns\":";
    out += std::to_string(s.max_ns);
    out += '}';
  }
  out += "},\"progress\":{";
  first = true;
  for (const auto& [k, p] : progress) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += k;
    out += "\":{\"done\":";
    out += std::to_string(p.done);
    out += ",\"total\":";
    out += std::to_string(p.total);
    out += ",\"rate_per_sec\":";
    append_json_number(out, p.rate_per_sec);
    out += ",\"eta_seconds\":";
    append_json_number(out, p.eta_seconds);
    out += '}';
  }
  out += "}}";
  return out;
}

Snapshot snapshot() {
  Snapshot snap;
  if constexpr (!kEnabled) return snap;
  {
    auto& reg = metric_registry();
    std::lock_guard<std::mutex> lock(reg.m);
    for (const auto& [name, c] : reg.counters) snap.counters[name] = c.value();
    for (const auto& [name, g] : reg.gauges) snap.gauges[name] = g.value();
    for (const auto& [name, h] : reg.histograms) {
      HistogramSnapshot hs;
      hs.bounds = h.bounds();
      hs.buckets = h.bucket_counts();
      hs.count = h.count();
      hs.sum = h.sum();
      hs.min = h.min();
      hs.max = h.max();
      snap.histograms[name] = hs;
    }
  }
  // Always-on span aggregates and registered progress tasks ride along in
  // every snapshot — they are what telemetry and the report attribution
  // tree are built from.
  for (const auto& s : span_stats()) {
    SpanStatSnapshot ss;
    ss.count = s.count;
    ss.total_ns = s.total_ns;
    ss.max_ns = s.max_ns;
    snap.spans.emplace(std::string(s.name), ss);
  }
  snap.progress = progress_snapshot();
  return snap;
}

void reset_metrics() {
  if constexpr (!kEnabled) return;
  auto& reg = metric_registry();
  std::lock_guard<std::mutex> lock(reg.m);
  for (auto& [name, c] : reg.counters) c.reset();
  for (auto& [name, g] : reg.gauges) g.reset();
  for (auto& [name, h] : reg.histograms) h.reset();
}

}  // namespace stco::obs
