#pragma once
// Progress tasks: the "how far along / how much longer" third of src/obs.
//
// A ProgressTask is a named pair of monotone counters (done/total) plus a
// start timestamp, registered by name like a metric. Work producers call
// add_work() when they learn how much work exists and advance() as units
// complete; anything observing the run (the telemetry sampler, a report)
// calls sample() to get done/total, a smoothed rate, and an ETA. Totals are
// cumulative across phases, so a resumable build that loads some shards and
// rebuilds the rest just keeps adding to the same task and the percentages
// stay meaningful across the kill/resume boundary.
//
//   static obs::ProgressTask& prog = obs::progress("charlib.dataset.corners");
//   prog.add_work(corners.size());
//   ... per corner ... prog.advance();
//
// Hot-path cost matches the metric instruments: relaxed atomic RMWs, no
// locks after the one-time registry lookup. Progress task names live in the
// canonical metric-key registry (keys.hpp kMetricKeys) and are validated
// the same way under STCO_CHECKS.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "src/obs/metrics.hpp"  // ProgressSnapshot

namespace stco::obs {

/// One registered unit of trackable work. Thread-safe; references returned
/// by obs::progress() are stable for the process lifetime.
class ProgressTask {
 public:
  /// Announce `n` more units of work (raises total). The first call stamps
  /// the task's start time, which anchors the rate/ETA estimate.
  void add_work(std::uint64_t n);
  /// Retract `n` not-yet-done units (early stop, population shortfall), so
  /// a finished-early task still reads done == total / ETA 0.
  void reduce_work(std::uint64_t n);
  /// Mark `n` units complete.
  void advance(std::uint64_t n = 1);

  std::uint64_t done() const;
  std::uint64_t total() const;

  /// Point-in-time view with rate (done units per second since the first
  /// add_work) and ETA (remaining / rate; 0 when done or rate unknown).
  ProgressSnapshot sample() const;

  /// Zero everything including the start stamp.
  void reset();

 private:
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> start_ns_{0};  ///< now_ns()+1 of first add_work; 0 = unstarted
};

/// Registry lookup, creating on first use (same contract as obs::counter).
/// Under STCO_CHECKS the name must be a canonical metric key or carry the
/// test. prefix.
ProgressTask& progress(const std::string& name);

/// sample() of every registered task.
std::map<std::string, ProgressSnapshot> progress_snapshot();

/// Reset every registered task (registrations remain).
void reset_progress();

}  // namespace stco::obs
