#include "src/obs/telemetry.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/obs/span.hpp"  // now_ns

namespace stco::obs {

// ---------------------------------------------------------------------------
// Writer side.
// ---------------------------------------------------------------------------

TelemetrySession::TelemetrySession(TelemetryOptions opts)
    : opts_(std::move(opts)) {
  writer_.open(opts_.path);
  sample_once("start");
  thread_ = std::thread([this] { run(); });
}

TelemetrySession::~TelemetrySession() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(m_);
  sample_once("final");
  writer_.flush();
}

void TelemetrySession::flush_now() {
  std::lock_guard<std::mutex> lock(m_);
  sample_once("sample");
  writer_.flush();
}

std::uint64_t TelemetrySession::records_written() const {
  return writer_.lines_written();
}

void TelemetrySession::run() {
  std::unique_lock<std::mutex> lock(m_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(opts_.interval_ms),
                 [this] { return stop_; });
    if (stop_) break;
    sample_once("sample");
  }
}

// Caller holds m_ (or is the constructor, before the thread exists).
void TelemetrySession::sample_once(const char* kind) {
  if (!writer_.ok()) return;
  Snapshot cur = snapshot();
  Snapshot delta = cur.delta_since(prev_);
  // Quiet ticks write nothing; start/final always land so even an idle
  // stream brackets the run.
  const bool must_write =
      seq_ == 0 || std::string_view(kind) != "sample" || !delta.empty();
  if (!must_write) return;
  std::string line;
  line.reserve(256);
  line += "{\"telemetry_schema_version\":";
  line += std::to_string(kTelemetrySchemaVersion);
  line += ",\"seq\":";
  line += std::to_string(seq_);
  line += ",\"t_ns\":";
  line += std::to_string(now_ns());
  line += ",\"kind\":\"";
  line += kind;
  line += "\",\"obs\":";
  line += delta.to_json();
  line += '}';
  if (writer_.append_line(line)) {
    ++seq_;
    prev_ = std::move(cur);
  }
}

// ---------------------------------------------------------------------------
// Environment activation: STCO_TELEMETRY=<path> samples the whole process.
// ---------------------------------------------------------------------------

namespace {

struct EnvTelemetry {
  std::unique_ptr<TelemetrySession> session;
  EnvTelemetry() {
    const char* p = std::getenv("STCO_TELEMETRY");
    if (!p || !*p) return;
    TelemetryOptions opts;
    opts.path = p;
    if (const char* iv = std::getenv("STCO_TELEMETRY_INTERVAL_MS"); iv && *iv) {
      const long ms = std::strtol(iv, nullptr, 10);
      if (ms > 0) opts.interval_ms = static_cast<std::uint32_t>(ms);
    }
    session = std::make_unique<TelemetrySession>(std::move(opts));
  }
};
EnvTelemetry g_env_telemetry;

}  // namespace

// ---------------------------------------------------------------------------
// Reader side.
// ---------------------------------------------------------------------------

namespace {

HistogramSnapshot histogram_from_json(const JsonValue& v) {
  HistogramSnapshot h;
  h.count = static_cast<std::uint64_t>(v.num_or("count", 0.0));
  h.sum = v.num_or("sum", 0.0);
  h.min = v.num_or("min", 0.0);
  h.max = v.num_or("max", 0.0);
  if (const JsonValue* b = v.get("bounds"); b && b->is_array())
    for (const JsonValue& x : b->arr)
      if (x.is_number()) h.bounds.push_back(x.number);
  if (const JsonValue* b = v.get("buckets"); b && b->is_array())
    for (const JsonValue& x : b->arr)
      if (x.is_number())
        h.buckets.push_back(static_cast<std::uint64_t>(x.number));
  return h;
}

}  // namespace

Snapshot snapshot_from_json(const JsonValue& v) {
  Snapshot s;
  if (const JsonValue* c = v.get("counters"); c && c->is_object())
    for (const auto& [k, x] : c->obj)
      if (x.is_number()) s.counters[k] = static_cast<std::uint64_t>(x.number);
  if (const JsonValue* g = v.get("gauges"); g && g->is_object())
    for (const auto& [k, x] : g->obj)
      if (x.is_number()) s.gauges[k] = x.number;
  if (const JsonValue* h = v.get("histograms"); h && h->is_object())
    for (const auto& [k, x] : h->obj)
      if (x.is_object()) s.histograms[k] = histogram_from_json(x);
  if (const JsonValue* sp = v.get("spans"); sp && sp->is_object())
    for (const auto& [k, x] : sp->obj) {
      if (!x.is_object()) continue;
      SpanStatSnapshot ss;
      ss.count = static_cast<std::uint64_t>(x.num_or("count", 0.0));
      ss.total_ns = static_cast<std::uint64_t>(x.num_or("total_ns", 0.0));
      ss.max_ns = static_cast<std::uint64_t>(x.num_or("max_ns", 0.0));
      s.spans[k] = ss;
    }
  if (const JsonValue* pr = v.get("progress"); pr && pr->is_object())
    for (const auto& [k, x] : pr->obj) {
      if (!x.is_object()) continue;
      ProgressSnapshot p;
      p.done = static_cast<std::uint64_t>(x.num_or("done", 0.0));
      p.total = static_cast<std::uint64_t>(x.num_or("total", 0.0));
      p.rate_per_sec = x.num_or("rate_per_sec", 0.0);
      p.eta_seconds = x.num_or("eta_seconds", 0.0);
      s.progress[k] = p;
    }
  return s;
}

Snapshot TelemetryLog::merged() const {
  Snapshot out;
  for (const TelemetryRecord& r : records) out.merge(r.obs);
  return out;
}

TelemetryLog read_telemetry_file(const std::string& path) {
  TelemetryLog log;
  std::ifstream in(path, std::ios::binary);
  if (!in) return log;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool complete = nl != std::string::npos;
    const std::string_view line(text.data() + pos,
                                (complete ? nl : text.size()) - pos);
    pos = complete ? nl + 1 : text.size();
    if (line.empty()) continue;
    const auto parsed = parse_json(line);
    if (!parsed || !parsed->is_object()) {
      // A torn tail (kill mid-append) is expected and not an error; an
      // unparseable COMPLETE line indicates real corruption.
      if (!complete)
        log.truncated_tail = true;
      else
        ++log.bad_lines;
      continue;
    }
    TelemetryRecord rec;
    rec.seq = static_cast<std::uint64_t>(parsed->num_or("seq", 0.0));
    rec.t_ns = static_cast<std::uint64_t>(parsed->num_or("t_ns", 0.0));
    if (const JsonValue* k = parsed->get("kind"); k && k->is_string())
      rec.kind = k->str;
    if (const JsonValue* o = parsed->get("obs"); o && o->is_object())
      rec.obs = snapshot_from_json(*o);
    log.records.push_back(std::move(rec));
  }
  return log;
}

}  // namespace stco::obs
