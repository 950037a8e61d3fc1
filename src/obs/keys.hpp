#pragma once
// Canonical obs key registry — the single source of truth for every metric
// key and span name in the project. Both src/obs (runtime validation under
// STCO_CHECKS) and tools/stco-lint (static validation of string literals at
// obs call sites) compile this table in, so a key can only be used after it
// is registered here, and a registered key that disappears from the code is
// one `grep` away from being retired.
//
// Naming convention: `<layer>.<noun>[.<noun>]` with layers drawn from
// kKeyPrefixes (stco, solver, exec, spice, tcad, gnn, cells, charlib,
// surrogate, contract, persist). Tests may additionally use the `test.`
// prefix,
// which is never canonical in src/ or bench/.
//
// Adding a metric or span: add the literal here first, then use it at the
// call site; `ctest -L lint` fails otherwise (rule obs-unknown-key /
// obs-unknown-span).

#include <algorithm>
#include <array>
#include <string_view>

namespace stco::obs::keys {

/// Allowed key prefixes (layer names). Purely documentary for humans; the
/// authoritative check is exact membership in kMetricKeys / kSpanNames.
inline constexpr std::array<std::string_view, 11> kKeyPrefixes = {
    "cells.",  "charlib.", "contract.", "exec.", "gnn.", "persist.",
    "solver.", "spice.",   "stco.",     "surrogate.", "tcad.",
};

/// Every canonical metric key (counters, gauges, histograms, progress
/// tasks, and snapshot set_counter/set_gauge keys). Keep sorted.
inline constexpr std::array<std::string_view, 82> kMetricKeys = {
    "cells.arcs",
    "cells.characterize.sims",
    "cells.characterize_seconds",
    "cells.characterized",
    "charlib.dataset.corners",
    "charlib.dataset.samples",
    "contract.ensure_failures",
    "contract.fp.divbyzero",
    "contract.fp.invalid",
    "contract.fp.overflow",
    "contract.require_failures",
    "contract.violations",
    "exec.max_queue_depth",
    "exec.parallel_regions",
    "exec.queue_latency_seconds",
    "exec.steals",
    "exec.tasks_run",
    "exec.threads",
    "gnn.epoch_loss",
    "gnn.epoch_seconds",
    "gnn.epochs",
    "gnn.infer.arena_bytes",
    "gnn.infer.arena_high_water_bytes",
    "gnn.infer.batches",
    "gnn.infer.graphs",
    "gnn.infer.plan_compiles",
    "gnn.train.epochs",
    "persist.bytes_written",
    "persist.cache.warm_hits",
    "persist.corrupt_artifacts",
    "persist.faults_injected",
    "persist.reads",
    "persist.retries",
    "persist.shards_built",
    "persist.shards_loaded",
    "persist.writes",
    "solver.attempts",
    "solver.budget_exhausted",
    "solver.continuation_retries",
    "solver.damping_retries",
    "solver.direct_success",
    "solver.failures",
    "solver.fallbacks",
    "solver.gmin_retries",
    "solver.linear.band_solves",
    "solver.linear.dense_fallback",
    "solver.linear.ilu_refactors",
    "solver.linear.iterations",
    "solver.linear.pattern_builds",
    "solver.linear.refills",
    "solver.linear.solves",
    "solver.recovered",
    "solver.source_retries",
    "solver.workspace_bytes",
    "spice.dc.failures",
    "spice.dc.iterations",
    "spice.dc.solves",
    "spice.lu.factors",
    "spice.lu.reuses",
    "spice.transient.aborts",
    "spice.transient.retries",
    "spice.transient.runs",
    "stco.cost_cache.hits",
    "stco.cost_cache.misses",
    "stco.evaluations",
    "stco.infeasible_evaluations",
    "stco.library_seconds",
    "stco.search.steps",
    "stco.sta_seconds",
    "surrogate.population.attempts",
    "surrogate.population.devices",
    "surrogate.population.dropped",
    "tcad.continuation.stages",
    "tcad.drift_diffusion.failures",
    "tcad.drift_diffusion.iterations",
    "tcad.drift_diffusion.solves",
    "tcad.poisson.failures",
    "tcad.poisson.iterations",
    "tcad.poisson.solves",
    "tcad.transport.failures",
    "tcad.transport.iterations",
    "tcad.transport.solves",
};

/// Every canonical span name. Keep sorted. (Span names carry a `flow.`
/// prefix for the library-build flows in addition to the metric layers.)
inline constexpr std::array<std::string_view, 25> kSpanNames = {
    "cells.characterize_cell",
    "charlib.build_dataset",
    "charlib.build_dataset_resumable",
    "exec.parallel_for",
    "flow.build_library_gnn",
    "flow.build_library_spice",
    "flow.compile_sta",
    "gnn.epoch",
    "gnn.infer.compile",
    "gnn.infer.run",
    "gnn.train",
    "persist.read_artifact",
    "persist.write_artifact",
    "spice.dc_operating_point",
    "spice.transient",
    "spice.transient_adaptive",
    "stco.evaluate",
    "stco.optimize",
    "stco.optimize_random",
    "stco.sta",
    "surrogate.generate_population",
    "surrogate.generate_population_resumable",
    "tcad.drain_current",
    "tcad.solve_drift_diffusion",
    "tcad.solve_poisson",
};

/// Prefix reserved for ad-hoc keys in tests (never canonical in src/bench).
inline constexpr std::string_view kTestPrefix = "test.";

inline constexpr bool is_canonical_metric_key(std::string_view key) {
  return std::find(kMetricKeys.begin(), kMetricKeys.end(), key) != kMetricKeys.end();
}

inline constexpr bool is_canonical_span_name(std::string_view name) {
  return std::find(kSpanNames.begin(), kSpanNames.end(), name) != kSpanNames.end();
}

/// Index of `name` in kSpanNames (binary search over the sorted table), or
/// -1 for non-canonical names. The always-on span-statistics aggregate
/// (span.hpp) is indexed by this, so the lookup sits on every Span
/// construction and must stay cheap.
inline constexpr int span_name_index(std::string_view name) {
  const auto it = std::lower_bound(kSpanNames.begin(), kSpanNames.end(), name);
  if (it == kSpanNames.end() || *it != name) return -1;
  return static_cast<int>(it - kSpanNames.begin());
}

inline constexpr bool is_test_key(std::string_view key) {
  return key.substr(0, kTestPrefix.size()) == kTestPrefix;
}

}  // namespace stco::obs::keys
