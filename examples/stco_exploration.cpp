// Example: the complete STCO iteration loop (paper Fig. 1) — an RL agent
// explores the (VDD, Vth, Cox) technology space of a benchmark, with every
// evaluation running cell-library characterization + static timing / power
// / area analysis, and the per-iteration runtime accounting of Table I.

#include <cstdio>

#include "src/exec/context.hpp"
#include "src/obs/obs.hpp"
#include "src/stco/loop.hpp"
#include "src/stco/report.hpp"
#include "src/stco/runtime_model.hpp"

int main() {
  using namespace stco;

  // Root span for the whole exploration; with STCO_TRACE=<path> set, the
  // run emits a chrome://tracing / Perfetto-loadable JSON trace on exit.
  obs::Span run_span("stco_exploration");

  StcoConfig cfg;
  cfg.benchmark = "s386";
  cfg.grid_n = 3;
  cfg.rl.episodes = 3;
  cfg.rl.steps_per_episode = 6;
  // The default cell set covers everything the benchmark generators emit;
  // the 2x2 NLDM axes keep each per-iteration library build to ~2 s.

  printf("benchmark %s: %zu gates, %zu flip-flops\n", cfg.benchmark.c_str(),
         flow::make_benchmark(cfg.benchmark).num_gates(),
         flow::make_benchmark(cfg.benchmark).num_flipflops());

  // Traditional path: every technology evaluation pays for SPICE
  // characterization of the library. The exec::Context spreads each
  // library's characterizations over worker threads; pass
  // exec::Context::serial() (the default) to run inline.
  exec::Context ctx(2);
  StcoEngine engine(cfg, SpiceBackend{}, ctx);
  printf("\nrunning RL exploration over a %zu^3 technology grid (%zu worker "
         "threads)...\n",
         cfg.grid_n, ctx.threads());
  const auto result = engine.optimize();

  printf("\nbest technology point found:\n");
  printf("  VDD = %.2f V, Vth = %.2f V, Cox = %.1f nF/cm^2, cost %.4f\n",
         result.best_point.vdd, result.best_point.vth, result.best_point.cox * 1e5,
         result.best_cost);
  const auto best_rep = engine.evaluate(result.best_point);
  printf("  fmax %.2f MHz, total power %.3e W, area %.4f mm^2\n", best_rep.fmax / 1e6,
         best_rep.total_power, best_rep.area * 1e6);

  printf("\nsearch statistics: %zu unique technology evaluations\n",
         result.unique_evaluations);
  printf("wall time split: library characterization %.1f s (%.0f%%), system "
         "evaluation %.1f s\n",
         engine.timing().library_seconds.load(),
         100.0 * engine.timing().library_seconds.load() /
             (engine.timing().library_seconds.load() +
              engine.timing().sta_seconds.load()),
         engine.timing().sta_seconds.load());
  printf("scheduler: %s\n", ctx.stats().summary().c_str());

  // Per-iteration runtime accounting as in Table I.
  const auto row = table1_row(cfg.benchmark);
  printf("\nTable I accounting for %s (paper-calibrated commercial costs):\n",
         cfg.benchmark.c_str());
  printf("  traditional %.0f s/iter, fast STCO %.0f s/iter -> %.1fx speedup\n",
         row.traditional, row.ours, row.speedup);
  printf("  over %zu evaluations that is %.1f h vs %.1f h of tooling time.\n",
         result.unique_evaluations,
         row.traditional * result.unique_evaluations / 3600.0,
         row.ours * result.unique_evaluations / 3600.0);

  // Archive the run as Markdown.
  RunReportInputs rpt;
  rpt.benchmark = cfg.benchmark;
  rpt.search = result;
  rpt.best_ppa = best_rep;
  rpt.fast_path = engine.fast_path();
  rpt.obs = engine.obs_snapshot();
  write_run_report_file("/tmp/stco_run_report.md", rpt);
  printf("\nrun report written to /tmp/stco_run_report.md\n");
  return 0;
}
