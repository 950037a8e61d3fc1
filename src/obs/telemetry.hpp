#pragma once
// Live telemetry: a background sampler that streams obs state to disk
// while a run is in flight, so progress/ETA and metric movement are
// observable without waiting for the final report — and survive a kill.
//
// A TelemetrySession snapshots the full obs state (metrics + always-on
// span stats + progress tasks) on a fixed interval and appends one JSONL
// record per tick to a file. Records after the first carry only the DELTA
// since the previous tick (Snapshot::delta_since), so a long quiet run
// costs almost nothing on disk; merging the records in order
// (TelemetryLog::merged) reconstructs the cumulative state at any point.
// Each line is written through persist::AppendWriter as a single append,
// so a process killed mid-run leaves every complete line parseable and at
// most one torn tail line, which the reader skips.
//
// Activation:
//   * programmatic — construct a TelemetrySession around the region of
//     interest;
//   * environment  — STCO_TELEMETRY=<path> samples for the whole process
//     (interval from STCO_TELEMETRY_INTERVAL_MS, default 250).
//
// Line format (one JSON object per line):
//   {"telemetry_schema_version":1,"seq":0,"t_ns":...,"kind":"start",
//    "obs":{<Snapshot::to_json>}}
// kind is "start" for the first record (full snapshot), "sample" for
// periodic deltas, "final" for the destructor's closing delta.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "src/obs/json_parse.hpp"
#include "src/obs/metrics.hpp"
#include "src/persist/append_file.hpp"

namespace stco::obs {

struct TelemetryOptions {
  std::string path;            ///< JSONL destination (append; created if missing)
  std::uint32_t interval_ms = 250;  ///< sampling period
};

/// Stream schema version stamped on every line; bump on incompatible
/// layout changes. Independent of Snapshot::kSchemaVersion (which tags the
/// nested "obs" object).
inline constexpr int kTelemetrySchemaVersion = 1;

/// RAII background sampler. Construction writes the "start" record and
/// launches the sampler thread; destruction writes the "final" record and
/// joins. Write failures never throw — the stream silently stops growing
/// (records_written() stalls), because telemetry must not take down the
/// run it observes.
class TelemetrySession {
 public:
  explicit TelemetrySession(TelemetryOptions opts);
  ~TelemetrySession();
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Force one sample now (bypassing the interval) and fsync the file.
  /// Deterministic handle for tests and pre-kill checkpoints.
  void flush_now();

  /// Lines successfully appended so far (including start/final).
  std::uint64_t records_written() const;

 private:
  void run();
  void sample_once(const char* kind);

  TelemetryOptions opts_;
  persist::AppendWriter writer_;
  Snapshot prev_;
  std::uint64_t seq_ = 0;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// One parsed telemetry line.
struct TelemetryRecord {
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  std::string kind;  ///< "start" | "sample" | "final"
  Snapshot obs;      ///< delta snapshot carried by this line
};

/// A parsed telemetry stream.
struct TelemetryLog {
  std::vector<TelemetryRecord> records;
  bool truncated_tail = false;  ///< file ended in a torn (kill-severed) line
  std::size_t bad_lines = 0;    ///< complete lines that failed to parse

  /// Fold every record's delta, in order, into the cumulative snapshot —
  /// the obs state as of the last record.
  [[nodiscard]] Snapshot merged() const;
};

/// Read a telemetry JSONL file. Missing file -> empty log. A torn final
/// line (no trailing newline and unparseable) sets truncated_tail instead
/// of counting as a bad line.
TelemetryLog read_telemetry_file(const std::string& path);

/// Convert a parsed "obs" JSON object back into a Snapshot (numbers only;
/// used by the reader and stco-perfdiff).
[[nodiscard]] Snapshot snapshot_from_json(const JsonValue& v);

}  // namespace stco::obs
