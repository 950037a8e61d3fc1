#pragma once
// Parallel execution core shared by every compute layer of the stack.
//
// An exec::Context owns a work-stealing thread pool and is threaded (as a
// `const Context&`) through the hot loops of the framework: SPICE arc
// characterization, charlib / surrogate dataset builds, GNN minibatch
// training, and STCO candidate evaluation. One execution vocabulary instead
// of ad-hoc loops, with two contracts:
//
//   * Determinism — parallel_for schedules work arbitrarily, but callers
//     write results into index-addressed slots (see map()) and reduce in
//     index order, so output is bit-identical for any thread count,
//     including the serial inline context.
//   * Exception propagation — the first exception thrown by any task
//     aborts the remaining tasks of that region and is rethrown on the
//     submitting thread.
//
// The default at every public entry point is Context::serial(), an inline
// executor with no worker threads, so call sites migrate incrementally and
// tests run the exact serial semantics by default.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace stco::exec {

/// Scheduler counters, exposed so parallel runs are observable (stco::report
/// prints them next to the solver-robustness block).
struct ContextStats {
  std::size_t threads = 0;          ///< worker threads (0 = serial inline)
  std::size_t tasks_run = 0;        ///< task bodies actually executed
  std::size_t steals = 0;           ///< tasks taken from another queue
  std::size_t max_queue_depth = 0;  ///< high-water mark over all deques
  std::size_t parallel_regions = 0; ///< parallel_for regions

  /// "serial inline, 42 tasks" / "8 threads, 171 tasks, 23 steals, ...".
  std::string summary() const;
};

class Context {
 public:
  /// Shared inline executor: no worker threads, every task runs immediately
  /// on the calling thread in submission (= index) order. Used as the
  /// default argument of every parallel entry point.
  static const Context& serial();

  /// Pool with `threads` worker threads. The thread that calls
  /// parallel_for() also executes tasks while it waits, so `threads` is the
  /// number of *extra* execution lanes. 0 = inline.
  explicit Context(std::size_t threads);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Worker thread count (0 for the serial context).
  std::size_t threads() const;

  /// Run body(i) for every i in [0, n); blocks until the region completes.
  /// Scheduling order is arbitrary; determinism is the caller's job (write
  /// to slot i, reduce in index order). The first exception out of any
  /// iteration is rethrown here. Regions nest: a body may open its own
  /// parallel_for on the same context without deadlocking.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) const;

  /// Deterministic index-ordered map: out[i] = fn(i). T must be default-
  /// constructible.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) const
      -> std::vector<decltype(fn(std::size_t{0}))> {
    std::vector<decltype(fn(std::size_t{0}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Snapshot of the scheduler counters.
  ///
  /// Memory-ordering contract (audited): every counter is a relaxed
  /// std::atomic — individual loads never tear (atomicity is unconditional;
  /// relaxed only weakens ordering *between* objects). The snapshot is a
  /// *consistent cut* only when the context is quiescent, i.e. every
  /// parallel_for has returned on the calling thread: each task's counter
  /// increments are sequenced before that task releases its region mutex,
  /// and the waiter acquires the same mutex before wait_region() returns,
  /// so quiescence gives a full happens-before edge from every increment to
  /// the stats() loads — no fences or stronger orderings are needed. Called
  /// concurrently with running regions, stats() still returns valid
  /// (untorn) values per counter, but the set may be mid-update (e.g.
  /// tasks_run observed before a steal that preceded it).
  ContextStats stats() const;
  /// Zero the counters. Same contract as stats(): call at quiescence;
  /// concurrent with running regions it races benignly (increments landing
  /// around the reset may or may not be kept, but nothing tears).
  void reset_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace stco::exec
