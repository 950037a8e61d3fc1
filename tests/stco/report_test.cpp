#include "src/stco/report.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace stco {
namespace {

RunReportInputs sample_inputs() {
  RunReportInputs in;
  in.benchmark = "s298";
  in.fast_path = true;
  in.search.best_point = {tcad::SemiconductorKind::kCnt, 3.0, 0.8, 1.2e-4};
  in.search.best_cost = 2.31;
  in.search.unique_evaluations = 14;
  in.search.best_cost_history = {3.0, 2.8, 2.5, 2.31, 2.31};
  in.best_ppa.min_period = 1.2e-6;
  in.best_ppa.fmax = 1.0 / 1.2e-6;
  in.best_ppa.dynamic_power = 8e-6;
  in.best_ppa.leakage_power = 5e-7;
  in.best_ppa.area = 1.3e-7;
  in.best_ppa.num_gates = 119;
  in.best_ppa.num_ffs = 14;
  in.obs.set_gauge("stco.library_seconds", 0.2);
  in.obs.set_gauge("stco.sta_seconds", 0.01);
  PpaPoint p;
  p.tech = in.search.best_point;
  p.delay = 1.2e-6;
  p.power = 8.5e-6;
  p.area = 1.3e-7;
  in.pareto.front = {p};
  return in;
}

TEST(RunReport, ContainsAllSections) {
  const std::string md = run_report_markdown(sample_inputs());
  EXPECT_NE(md.find("# STCO exploration report — s298"), std::string::npos);
  EXPECT_NE(md.find("GNN fast path"), std::string::npos);
  EXPECT_NE(md.find("## Selected technology point"), std::string::npos);
  EXPECT_NE(md.find("## PPA at the selected point"), std::string::npos);
  EXPECT_NE(md.find("## Search"), std::string::npos);
  EXPECT_NE(md.find("## Pareto front"), std::string::npos);
  EXPECT_NE(md.find("## Runtime accounting"), std::string::npos);
  EXPECT_NE(md.find("13.6"), std::string::npos);  // s298's calibrated speedup
}

TEST(RunReport, OmitsEmptyParetoSection) {
  auto in = sample_inputs();
  in.pareto.front.clear();
  const std::string md = run_report_markdown(in);
  EXPECT_EQ(md.find("## Pareto front"), std::string::npos);
}

TEST(RunReport, UnknownBenchmarkSkipsRuntimeSection) {
  auto in = sample_inputs();
  in.benchmark = "custom_chip";
  const std::string md = run_report_markdown(in);
  EXPECT_EQ(md.find("## Runtime accounting"), std::string::npos);
  EXPECT_NE(md.find("custom_chip"), std::string::npos);
}

TEST(RunReport, RobustnessSectionAlwaysPresent) {
  // Zero counters (clean run): the section still renders as evidence.
  const std::string clean = run_report_markdown(sample_inputs());
  EXPECT_NE(clean.find("## Solver robustness"), std::string::npos);
  EXPECT_NE(clean.find("infeasible technology evaluations: 0"), std::string::npos);

  // Populate through the StcoTiming/RobustnessStats -> Snapshot bridge, the
  // same path StcoEngine::obs_snapshot() takes.
  auto in = sample_inputs();
  StcoTiming timing;
  timing.library_seconds = 0.2;
  timing.sta_seconds = 0.01;
  numeric::RobustnessStats rb;
  rb.attempts = 12;
  rb.direct_success = 9;
  rb.recovered = 2;
  rb.failures = 1;
  rb.gmin_retries = 3;
  in.obs = make_run_snapshot(timing, rb, exec::ContextStats{},
                             /*infeasible_evaluations=*/2);
  const std::string md = run_report_markdown(in);
  EXPECT_NE(md.find("## Solver robustness"), std::string::npos);
  EXPECT_NE(md.find("12 attempts"), std::string::npos);
  EXPECT_NE(md.find("gmin 3"), std::string::npos);
  EXPECT_NE(md.find("infeasible technology evaluations: 2"), std::string::npos);
}

TEST(RunReport, AttributionTreeFromSpanStats) {
  // No span stats -> section omitted entirely.
  const std::string without = run_report_markdown(sample_inputs());
  EXPECT_EQ(without.find("## Where did the time go"), std::string::npos);

  // Hand-populated span aggregates (the value-type path): grouped by
  // layer, heaviest layer first.
  auto in = sample_inputs();
  in.obs.spans["tcad.poisson.solve"] = {40, 800'000'000, 30'000'000};
  in.obs.spans["tcad.dd.solve"] = {10, 200'000'000, 25'000'000};
  in.obs.spans["gnn.epoch"] = {60, 90'000'000, 2'000'000};
  const std::string md = run_report_markdown(in);
  EXPECT_NE(md.find("## Where did the time go"), std::string::npos);
  const auto tcad_pos = md.find("- tcad — 1000.00 ms");
  const auto gnn_pos = md.find("- gnn — 90.00 ms");
  ASSERT_NE(tcad_pos, std::string::npos);
  ASSERT_NE(gnn_pos, std::string::npos);
  EXPECT_LT(tcad_pos, gnn_pos);  // heavier layer renders first
  EXPECT_NE(md.find("tcad.poisson.solve: 800.00 ms over 40 calls"),
            std::string::npos);
  EXPECT_NE(md.find("gnn.epoch: 90.00 ms over 60 calls (max 2.00 ms)"),
            std::string::npos);
}

TEST(RunReport, ExecutionStatsLine) {
  // Default inputs carry a serial-inline context.
  const std::string serial = run_report_markdown(sample_inputs());
  EXPECT_NE(serial.find("- execution: serial inline"), std::string::npos);

  auto in = sample_inputs();
  in.obs.set_counter("exec.threads", 8);
  in.obs.set_counter("exec.tasks_run", 420);
  in.obs.set_counter("exec.steals", 17);
  in.obs.set_counter("exec.max_queue_depth", 9);
  in.obs.set_counter("exec.parallel_regions", 12);
  const std::string md = run_report_markdown(in);
  EXPECT_NE(md.find("8 worker threads"), std::string::npos);
  EXPECT_NE(md.find("420 tasks"), std::string::npos);
  EXPECT_NE(md.find("17 steals"), std::string::npos);
}

TEST(RunReport, WritesFile) {
  write_run_report_file("/tmp/stco_report.md", sample_inputs());
  std::ifstream f("/tmp/stco_report.md");
  ASSERT_TRUE(f.good());
  std::string first;
  std::getline(f, first);
  EXPECT_NE(first.find("# STCO exploration report"), std::string::npos);
  EXPECT_THROW(write_run_report_file("/no/dir/x.md", sample_inputs()),
               std::runtime_error);
}

}  // namespace
}  // namespace stco
