#include "src/stco/report.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/persist/storage.hpp"

namespace stco {

namespace {

// The report renders robustness / exec lines through the existing summary()
// formatters; reconstruct the structs from the snapshot's canonical keys
// (see make_run_snapshot for the key schema).
numeric::RobustnessStats robustness_from(const obs::Snapshot& s) {
  numeric::RobustnessStats r;
  r.attempts = s.counter_or("solver.attempts");
  r.direct_success = s.counter_or("solver.direct_success");
  r.gmin_retries = s.counter_or("solver.gmin_retries");
  r.source_retries = s.counter_or("solver.source_retries");
  r.continuation_retries = s.counter_or("solver.continuation_retries");
  r.damping_retries = s.counter_or("solver.damping_retries");
  r.recovered = s.counter_or("solver.recovered");
  r.failures = s.counter_or("solver.failures");
  r.budget_exhausted = s.counter_or("solver.budget_exhausted");
  r.fallbacks = s.counter_or("solver.fallbacks");
  return r;
}

exec::ContextStats exec_from(const obs::Snapshot& s) {
  exec::ContextStats e;
  e.threads = s.counter_or("exec.threads");
  e.tasks_run = s.counter_or("exec.tasks_run");
  e.steals = s.counter_or("exec.steals");
  e.max_queue_depth = s.counter_or("exec.max_queue_depth");
  e.parallel_regions = s.counter_or("exec.parallel_regions");
  return e;
}

std::string format_ms(std::uint64_t ns) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(2)
     << static_cast<double>(ns) / 1e6 << " ms";
  return ss.str();
}

// "Where did the time go" attribution tree, rendered from the always-on
// span aggregate (sampled with zero setup — no TraceSession needed).
// Spans are grouped by their first dot-segment (the layer), layers and
// spans both sorted by descending total wall-clock. The totals overlap
// (an outer span contains its inner spans' time), so this is attribution,
// not a partition.
void write_attribution_tree(std::ostream& os, const obs::Snapshot& s) {
  if (s.spans.empty()) return;
  struct Row {
    std::string name;
    obs::SpanStatSnapshot stat;
  };
  std::map<std::string, std::vector<Row>> by_layer;
  std::map<std::string, std::uint64_t> layer_total;
  for (const auto& [name, stat] : s.spans) {
    const std::string layer = name.substr(0, name.find('.'));
    by_layer[layer].push_back({name, stat});
    layer_total[layer] += stat.total_ns;
  }
  std::vector<std::string> layers;
  for (const auto& [layer, total] : layer_total) layers.push_back(layer);
  std::sort(layers.begin(), layers.end(), [&](const auto& a, const auto& b) {
    return layer_total[a] != layer_total[b] ? layer_total[a] > layer_total[b]
                                            : a < b;
  });

  os << "## Where did the time go\n\n";
  os << "Always-on span attribution (wall-clock; nested spans overlap "
        "their parents).\n\n";
  for (const auto& layer : layers) {
    auto& rows = by_layer[layer];
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a.stat.total_ns != b.stat.total_ns
                 ? a.stat.total_ns > b.stat.total_ns
                 : a.name < b.name;
    });
    os << "- " << layer << " — " << format_ms(layer_total[layer]) << "\n";
    for (const Row& r : rows) {
      os << "  - " << r.name << ": " << format_ms(r.stat.total_ns) << " over "
         << r.stat.count << (r.stat.count == 1 ? " call" : " calls")
         << " (max " << format_ms(r.stat.max_ns) << ")\n";
    }
  }
  os << "\n";
}

}  // namespace

void write_run_report(std::ostream& os, const RunReportInputs& in) {
  os << "# STCO exploration report — " << in.benchmark << "\n\n";
  os << "Technology path: " << (in.fast_path ? "GNN fast path" : "SPICE traditional")
     << "\n\n";

  os << "## Selected technology point\n\n";
  os << "| knob | value |\n|---|---|\n";
  os << "| VDD | " << in.search.best_point.vdd << " V |\n";
  os << "| Vth | " << in.search.best_point.vth << " V |\n";
  os << "| Cox | " << in.search.best_point.cox * 1e5 << " nF/cm^2 |\n";
  os << "| scalarized cost | " << in.search.best_cost << " |\n\n";

  os << "## PPA at the selected point\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| min clock period | " << in.best_ppa.min_period * 1e6 << " us |\n";
  os << "| fmax | " << in.best_ppa.fmax / 1e6 << " MHz |\n";
  os << "| dynamic power | " << in.best_ppa.dynamic_power * 1e6 << " uW |\n";
  os << "| leakage power | " << in.best_ppa.leakage_power * 1e6 << " uW |\n";
  os << "| area | " << in.best_ppa.area * 1e6 << " mm^2 |\n";
  os << "| gates / FFs | " << in.best_ppa.num_gates << " / " << in.best_ppa.num_ffs
     << " |\n\n";

  os << "## Search\n\n";
  os << "- unique technology evaluations: " << in.search.unique_evaluations << "\n";
  os << "- wall time: library characterization "
     << in.obs.gauge_or("stco.library_seconds") << " s, system evaluation "
     << in.obs.gauge_or("stco.sta_seconds") << " s\n";
  if (!in.search.best_cost_history.empty()) {
    os << "- best-cost trajectory:";
    const auto& h = in.search.best_cost_history;
    const std::size_t stride = std::max<std::size_t>(1, h.size() / 8);
    for (std::size_t i = 0; i < h.size(); i += stride) os << " " << h[i];
    os << "\n";
  }
  os << "\n";

  // Always emitted: an all-zero block is itself evidence the run was clean.
  const numeric::RobustnessStats robustness = robustness_from(in.obs);
  os << "## Solver robustness\n\n";
  os << "- " << robustness.summary() << "\n";
  os << "- retries: gmin " << robustness.gmin_retries << ", source "
     << robustness.source_retries << ", continuation "
     << robustness.continuation_retries << ", damping "
     << robustness.damping_retries << "\n";
  os << "- budget exhaustions: " << robustness.budget_exhausted
     << ", degraded fallbacks: " << robustness.fallbacks << "\n";
  os << "- infeasible technology evaluations: "
     << in.obs.counter_or("stco.infeasible_evaluations") << "\n";
  os << "- execution: " << exec_from(in.obs).summary() << "\n";
  if (const auto* h = in.obs.histogram_or_null("exec.queue_latency_seconds");
      h != nullptr && h->count > 0) {
    os << "- task queue latency: mean " << h->mean() * 1e6 << " us, max "
       << h->max * 1e6 << " us over " << h->count << " tasks\n";
  }
  os << "\n";

  // Persistence health: artifact traffic, warm-start effectiveness, and —
  // most importantly — whether any artifact failed validation and was
  // regenerated (nonzero corrupt count with a successful run is the
  // crash-safety contract working as designed).
  os << "## Persistence\n\n";
  os << "- artifact writes: " << in.obs.counter_or("persist.writes") << " ("
     << in.obs.counter_or("persist.bytes_written") << " bytes), reads: "
     << in.obs.counter_or("persist.reads") << "\n";
  os << "- transient-write retries: " << in.obs.counter_or("persist.retries")
     << ", corrupt artifacts detected and regenerated: "
     << in.obs.counter_or("persist.corrupt_artifacts") << "\n";
  os << "- dataset shards: " << in.obs.counter_or("persist.shards_loaded")
     << " loaded from checkpoint, " << in.obs.counter_or("persist.shards_built")
     << " built\n";
  os << "- libraries loaded from the store: "
     << in.obs.counter_or("persist.cache.warm_hits")
     << "\n\n";

  write_attribution_tree(os, in.obs);

  if (!in.pareto.front.empty()) {
    os << "## Pareto front (delay / power / area)\n\n";
    os << "| VDD [V] | Vth [V] | Cox [nF/cm^2] | period [us] | power [uW] | area "
          "[mm^2] |\n|---|---|---|---|---|---|\n";
    for (const auto& p : in.pareto.front)
      os << "| " << p.tech.vdd << " | " << p.tech.vth << " | " << p.tech.cox * 1e5
         << " | " << p.delay * 1e6 << " | " << p.power * 1e6 << " | " << p.area * 1e6
         << " |\n";
    os << "\n";
  }

  // Per-iteration runtime accounting versus the commercial baseline.
  try {
    const auto row = table1_row(in.benchmark);
    os << "## Runtime accounting (Table I calibration)\n\n";
    os << "- traditional flow: " << row.traditional << " s/iteration\n";
    os << "- fast STCO: " << row.ours << " s/iteration (" << row.speedup
       << "x speedup)\n";
  } catch (const std::invalid_argument&) {
    // Custom benchmark without calibration data: skip the section.
  }
}

std::string run_report_markdown(const RunReportInputs& in) {
  std::ostringstream ss;
  write_run_report(ss, in);
  return ss.str();
}

void write_run_report_file(const std::string& path, const RunReportInputs& in) {
  persist::default_storage().write_atomic(path, run_report_markdown(in));
}

}  // namespace stco
