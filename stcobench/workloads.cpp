// stcobench workloads: runs ONE workload of the STCO benchmark in this process
// and prints one JSON object of raw samples as the last line of stdout.
// stcobench/run.py builds this binary, starts one process per workload and
// turns the samples into metrics (medians, percentiles, self times).
//
//   stcobench_workloads --workload trad_s386 --seed 1 --seconds 10 --trace 0
//
// Workloads (see stcobench/NOTES.md for why each exists):
//   trad_s386        SPICE library path + STA, serial, q-learning search
//   fast_darkriscv   GNN library path + STA, serial, q-learning searches
//   device_tcad      TCAD slice-transport I-V sweeps + compact LM fit, serial
//
// Every workload runs on exec::Context::serial(), so the process has one
// thread while it measures. With --trace 1 the binary also records spans around the public
// calls it makes (an in-memory recorder in this file, so the library carries
// no benchmark spans) and puts them into the result. The obs registry's
// changes over set-up and over the measured phase go into the result either
// way.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/charlib/dataset.hpp"
#include "src/charlib/model.hpp"
#include "src/compact/extraction.hpp"
#include "src/exec/context.hpp"
#include "src/flow/liberty.hpp"
#include "src/numeric/rng.hpp"
#include "src/obs/metrics.hpp"
#include "src/stco/loop.hpp"
#include "src/surrogate/dataset.hpp"
#include "src/tcad/transport.hpp"

namespace {

using namespace stco;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Span recorder: name, start, end, parent. Disabled unless --trace 1, in
// which case Scope costs two clock reads and a vector push.

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Recorder {
 public:
  class Scope {
   public:
    Scope(Recorder* r, int idx) : r_(r), idx_(idx) {}
    ~Scope() {
      if (r_) r_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* r_;
    int idx_;
  };

  explicit Recorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  Scope open(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(idx);
    return Scope(this, idx);
  }

  bool enabled() const { return enabled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end = now();
    stack_.pop_back();
  }
  double now() const { return seconds_between(t0_, Clock::now()); }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Result document (raw samples; run.py computes the metrics).

struct Result {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> iter_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;
  std::map<std::string, double> decision;
  std::map<std::string, double> layer;                  // named per-layer values
  std::map<std::string, std::vector<double>> samples;   // per-layer sample sets
  /// obs registry changes (Snapshot::delta_since) over all set-ups and over
  /// the measured phase.
  obs::Snapshot obs_setup, obs_run;

  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    checks.emplace_back(name, ok);
    if (!ok) notes.push_back(name + (detail.empty() ? "" : ": " + detail));
  }
};

void put_num(std::string& out, double v) {
  char buf[64];
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void put_str(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  out += '"';
}

void put_list(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    put_num(out, v[i]);
  }
  out += ']';
}

void put_map(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    put_str(out, k);
    out += ':';
    put_num(out, v);
  }
  out += '}';
}

void put_spans(std::string& out, const Recorder& rec) {
  out += '[';
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const auto& s = rec.spans()[i];
    if (i) out += ',';
    out += '[';
    put_str(out, s.name);
    out += ',';
    put_num(out, s.start);
    out += ',';
    put_num(out, s.end);
    out += ',' + std::to_string(s.parent) + ']';
  }
  out += ']';
}

std::string to_json(const std::string& workload, std::uint64_t seed, const Result& r,
                    const Recorder& rec) {
  std::string out = "{\"workload\":";
  put_str(out, workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"setup_s\":";
  put_list(out, r.setup_s);
  out += ",\"run_s\":";
  put_list(out, r.run_s);
  out += ",\"iter_s\":";
  put_list(out, r.iter_s);
  out += ",\"peak_rss_mb\":";
  put_num(out, peak_rss_mb());
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"checks\":{";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    if (i) out += ',';
    put_str(out, r.checks[i].first);
    out += r.checks[i].second ? ":true" : ":false";
  }
  out += "},\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    if (i) out += ',';
    put_str(out, r.notes[i]);
  }
  out += "],\"decision\":";
  put_map(out, r.decision);
  out += ",\"layer\":";
  put_map(out, r.layer);
  out += ",\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : r.samples) {
    if (!first) out += ',';
    first = false;
    put_str(out, k);
    out += ':';
    put_list(out, v);
  }
  out += "},\"obs\":{\"setup\":" + r.obs_setup.to_json();
  out += ",\"run\":" + r.obs_run.to_json() + '}';
  if (rec.enabled()) {
    out += ",\"spans\":";
    put_spans(out, rec);
  }
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// STCO workloads.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;

/// Measured units per run: --seconds divided by the unit's nominal length,
/// rounded up, at least one. The count depends only on the arguments, never
/// on how fast this machine is, so a seed always gets the same work.
std::size_t units_for(const Args& a, double nominal_s) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(a.seconds / nominal_s)));
}

/// Evaluation budget of one search: the search stops evaluating after this
/// many distinct technology points (later unseen points read as infeasible
/// without being evaluated), so every seed does the same number of
/// evaluations. The step budgets are large enough that every seed reaches
/// it (the budget_reached check holds them to it).
constexpr std::size_t kTradBudget = 8;  // the whole 2^3 grid
constexpr std::size_t kFastBudget = 96;

/// trad_s386 search settings. The seed draws the technology window (each
/// end of each default axis moved inward by up to 10% of its width, so
/// every point stays inside the feasible default box) and the RL seed. The
/// 2^3 grid is searched until all of it is evaluated: SPICE
/// characterization time depends on the point, so evaluating the same grid
/// shape for every seed keeps the work per run the same.
StcoConfig trad_config(std::uint64_t seed) {
  StcoConfig cfg;
  cfg.benchmark = "s386";
  cfg.grid_n = 2;
  cfg.rl.episodes = 10;
  cfg.rl.steps_per_episode = 20;
  cfg.rl.seed = numeric::mix_seed(seed, 1);
  auto rng = numeric::stream_rng(seed, 2);
  auto& rg = cfg.ranges;
  const auto narrow = [&](double& lo, double& hi) {
    const double w = hi - lo;
    lo += rng.uniform(0.0, 0.1) * w;
    hi -= rng.uniform(0.0, 0.1) * w;
  };
  narrow(rg.vdd_min, rg.vdd_max);
  narrow(rg.vth_min, rg.vth_max);
  narrow(rg.cox_min, rg.cox_max);
  return cfg;
}

StcoConfig fast_config(std::uint64_t seed, std::size_t search) {
  StcoConfig cfg;
  cfg.benchmark = "Darkriscv";
  cfg.grid_n = 6;
  cfg.rl.episodes = 30;
  cfg.rl.steps_per_episode = 20;
  cfg.rl.seed = numeric::mix_seed(seed, 100 + search);
  return cfg;
}

/// Per-library accounting read through StcoConfig::library_hook, which the
/// engine calls on every library it builds (from any lane).
struct LibraryTally {
  std::atomic<std::size_t> incomplete{0};
  std::atomic<std::size_t> dropped_arcs{0};
};

void attach_tally(StcoConfig& cfg, LibraryTally& tally) {
  cfg.library_hook = [&tally](flow::TimingLibrary& lib) {
    if (!lib.complete) tally.incomplete.fetch_add(1);
    tally.dropped_arcs.fetch_add(lib.dropped_arcs);
  };
}

/// One search driven from outside the engine: q_learning_search over
/// StcoEngine::cost (what optimize() does on a serial context, without
/// candidate prefetch), with every evaluation timed. The search asks each
/// grid state at most once, so every call is an evaluation until the budget
/// is spent.
struct SearchOutcome {
  SearchResult result;
  double run_s = 0.0;
  std::vector<double> eval_s, library_s, sta_s;
  std::vector<double> costs;  ///< cost of every evaluated point
  /// Evaluations that were infeasible or whose library was incomplete or
  /// dropped arcs: failures in the unit of the attempts (evaluations).
  std::size_t failed = 0;
};

SearchOutcome run_search(StcoEngine& engine, const StcoConfig& cfg, std::size_t budget,
                         const LibraryTally& tally, Recorder& rec) {
  SearchOutcome out;
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  auto cost_fn = [&](const compact::TechnologyPoint& t) {
    if (out.costs.size() >= budget) return cfg.infeasible_penalty;
    auto span = rec.open("stco.cost");
    const double lib0 = engine.timing().library_seconds.load();
    const double sta0 = engine.timing().sta_seconds.load();
    const std::size_t bad0 = engine.infeasible_evaluations() + tally.incomplete.load() +
                             tally.dropped_arcs.load();
    const auto t0 = Clock::now();
    const double c = engine.cost(t);
    out.eval_s.push_back(seconds_between(t0, Clock::now()));
    out.library_s.push_back(engine.timing().library_seconds.load() - lib0);
    out.sta_s.push_back(engine.timing().sta_seconds.load() - sta0);
    out.costs.push_back(c);
    if (engine.infeasible_evaluations() + tally.incomplete.load() +
            tally.dropped_arcs.load() != bad0)
      ++out.failed;
    return c;
  };
  auto span = rec.open("stco.search");
  const auto t0 = Clock::now();
  out.result = q_learning_search(grid, cost_fn, cfg.rl);
  out.run_s = seconds_between(t0, Clock::now());
  return out;
}

/// Decision checks shared by the STCO workloads. `reevaluated` is the cost
/// of the chosen point computed again on a fresh library.
void check_decision(Result& r, const SearchOutcome& s, std::size_t budget,
                    double reevaluated, const std::string& tag) {
  double best = INFINITY;
  for (double c : s.costs) best = std::min(best, c);
  r.check(tag + "budget_reached", s.costs.size() == budget,
          std::to_string(s.costs.size()) + " of " + std::to_string(budget));
  r.check(tag + "best_is_min_evaluated", s.result.best_cost == best,
          "best " + std::to_string(s.result.best_cost) + " min " + std::to_string(best));
  r.check(tag + "reevaluation_reproduces", reevaluated == s.result.best_cost,
          "search " + std::to_string(s.result.best_cost) + " re-evaluated " +
              std::to_string(reevaluated));
}

double cost_of(StcoEngine& engine, const flow::StaReport& rep) {
  return rep.infeasible ? INFINITY : engine.weights().cost(rep);
}

void finish_stco(Result& r, std::size_t infeasible, const numeric::RobustnessStats& rs,
                 const LibraryTally& tally) {
  r.check("no_infeasible_points", infeasible == 0, std::to_string(infeasible) + " infeasible");
  r.check("no_incomplete_libraries", tally.incomplete.load() == 0,
          std::to_string(tally.incomplete.load()) + " incomplete");
  r.check("no_dropped_arcs", tally.dropped_arcs.load() == 0,
          std::to_string(tally.dropped_arcs.load()) + " dropped");
  r.layer["solver.retries"] = static_cast<double>(
      rs.gmin_retries + rs.source_retries + rs.damping_retries + rs.continuation_retries);
  r.layer["solver.failures"] = static_cast<double>(rs.failures);
  r.layer["cells.dropped_arcs"] = static_cast<double>(tally.dropped_arcs.load());
}

/// Trace only: characterize every mapped cell once at the calibration point
/// (middle of the library's slew x load axes), timing each call.
void time_cells(Result& r, const StcoConfig& cfg, Recorder& rec) {
  const TechGrid grid(cfg.ranges, cfg.grid_n);
  cells::CharConfig cc;
  cc.tech = grid.point(grid.num_states() / 2);
  cc.sizing = cfg.lib_opts.sizing;
  cc.input_slew = cfg.lib_opts.slew_axis[cfg.lib_opts.slew_axis.size() / 2];
  cc.load_cap = cfg.lib_opts.load_axis[cfg.lib_opts.load_axis.size() / 2];
  cc.dt = cfg.lib_opts.char_dt;
  cc.time_unit = cfg.lib_opts.char_time_unit;
  double total = 0.0, worst = 0.0;
  for (const auto& name : flow::mapped_cell_set()) {
    auto span = rec.open("cells.characterize_cell");
    const auto t0 = Clock::now();
    (void)cells::characterize_cell(cells::find_cell(name), cc);
    const double dt = seconds_between(t0, Clock::now());
    total += dt;
    worst = std::max(worst, dt);
  }
  r.layer["cells.characterize_cell_s_total"] = total;
  r.layer["cells.characterize_cell_s_max"] = worst;
}

void add_search_samples(Result& r, const SearchOutcome& s) {
  r.run_s.push_back(s.run_s);
  r.iter_s.insert(r.iter_s.end(), s.eval_s.begin(), s.eval_s.end());
  auto& lib = r.samples["flow.build_library_s"];
  lib.insert(lib.end(), s.library_s.begin(), s.library_s.end());
  auto& sta = r.samples["flow.sta_s"];
  sta.insert(sta.end(), s.sta_s.begin(), s.sta_s.end());
  r.attempted += s.eval_s.size();
  r.failed += s.failed;
}

/// Set up one engine: construction (netlist generation) plus PPA-weight
/// calibration, which is one full evaluation at grid state num_states / 2.
std::unique_ptr<StcoEngine> setup_engine(const StcoConfig& cfg, LibraryBackend backend,
                                         const exec::Context& ctx, Result& r,
                                         Recorder& rec) {
  std::unique_ptr<StcoEngine> engine;
  {
    auto span = rec.open("stco.engine");
    const auto t0 = Clock::now();
    engine = std::make_unique<StcoEngine>(cfg, std::move(backend), ctx);
    r.samples["flow.make_benchmark_s"].push_back(seconds_between(t0, Clock::now()));
  }
  auto span = rec.open("stco.calibrate");
  const auto t0 = Clock::now();
  (void)engine->weights();
  r.samples["stco.calibrate_s"].push_back(seconds_between(t0, Clock::now()));
  return engine;
}

/// Set-up bookkeeping: the obs registry's changes over every set-up of the
/// run. Construct before the first set-up, call end() after the last.
struct SetupPhase {
  obs::Snapshot base = obs::snapshot();
  void end(Result& r) const { r.obs_setup = obs::snapshot().delta_since(base); }
};

/// Measured phase bookkeeping: the obs registry's changes over the phase,
/// and process CPU against the phase's wall time on the one lane.
struct Phase {
  obs::Snapshot base = obs::snapshot();
  double cpu0 = cpu_seconds();
  Clock::time_point t0 = Clock::now();
  void end(Result& r) const {
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = cpu_seconds() - cpu0;
    const auto now = obs::snapshot();
    r.obs_run = now.delta_since(base);
    // A high-water gauge: its value, not its change.
    r.layer["gnn.infer.arena_high_water_bytes"] =
        now.gauge_or("gnn.infer.arena_high_water_bytes");
    r.layer["exec.cpu_per_wall"] = cpu / wall;
    r.layer["exec.idle_s"] = wall - cpu;
  }
};

/// trad_s386: a budgeted search over SPICE libraries, inline. The chosen
/// point is then re-evaluated on a fresh library whose characterizations
/// fan out over a two-lane pool: costs are bit-identical for any lane count
/// (the determinism contract), so the cost must come back bit for bit. The
/// pool is made only after the measured phase and the traced cell timings,
/// which therefore run in a one-thread process.
Result run_trad(const Args& a, Recorder& rec) {
  Result r;
  StcoConfig cfg = trad_config(a.seed);
  LibraryTally tally;
  attach_tally(cfg, tally);
  const exec::Context& ctx = exec::Context::serial();

  const SetupPhase setup;
  std::unique_ptr<StcoEngine> engine;
  for (std::size_t i = 0; i < kSetups; ++i) {
    auto span = rec.open("setup");
    const auto t0 = Clock::now();
    engine = setup_engine(cfg, SpiceBackend{}, ctx, r, rec);
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  setup.end(r);
  ctx.reset_stats();

  const Phase phase;
  const auto s = run_search(*engine, cfg, kTradBudget, tally, rec);
  phase.end(r);
  const auto es = ctx.stats();
  r.layer["exec.tasks_run"] = static_cast<double>(es.tasks_run);
  r.layer["exec.parallel_regions"] = static_cast<double>(es.parallel_regions);
  add_search_samples(r, s);
  r.decision["best_state"] = static_cast<double>(s.result.best_state);
  r.decision["best_cost"] = s.result.best_cost;
  if (rec.enabled()) time_cells(r, cfg, rec);

  const exec::Context pool(1);  // one worker + the caller: two lanes
  auto rep = flow::analyze(engine->netlist(),
                           flow::build_library_spice(s.result.best_point, cfg.lib_opts, pool),
                           cfg.sta_opts);
  check_decision(r, s, kTradBudget, cost_of(*engine, rep), "");
  finish_stco(r, engine->infeasible_evaluations(), engine->robustness(), tally);
  return r;
}

/// Seeded SPICE labels for the fast path's model: the mapped cells at a few
/// random technology corners inside the search ranges.
std::vector<compact::TechnologyPoint> label_corners(const charlib::CornerRanges& rg,
                                                    std::uint64_t seed, std::size_t n) {
  auto rng = numeric::stream_rng(seed, 7);
  std::vector<compact::TechnologyPoint> out;
  for (std::size_t i = 0; i < n; ++i) {
    compact::TechnologyPoint p;
    p.kind = rg.kind;
    p.vdd = rng.uniform(rg.vdd_min, rg.vdd_max);
    p.vth = rng.uniform(rg.vth_min, rg.vth_max);
    p.cox = rng.uniform(rg.cox_min, rg.cox_max);
    out.push_back(p);
  }
  return out;
}

/// Model for the fast path: SPICE labels, normalization fit, training.
std::unique_ptr<charlib::CellCharModel> train_model(const StcoConfig& cfg,
                                                    std::uint64_t seed, Result& r,
                                                    Recorder& rec) {
  std::vector<charlib::CharSample> labels;
  {
    auto span = rec.open("charlib.dataset");
    const auto t0 = Clock::now();
    charlib::DatasetOptions dopts;
    dopts.cell_names = flow::mapped_cell_set();
    dopts.input_slews = {20e-9};
    dopts.output_loads = {20e-15, 80e-15};
    labels = charlib::build_charlib_dataset(label_corners(cfg.ranges, seed, 2), dopts);
    r.samples["charlib.dataset_s"].push_back(seconds_between(t0, Clock::now()));
  }
  auto span = rec.open("charlib.train");
  const auto t0 = Clock::now();
  charlib::CellCharModelConfig mcfg;
  mcfg.seed = numeric::mix_seed(seed, 17);
  mcfg.train.epochs = 12;
  mcfg.train.shuffle_seed = numeric::mix_seed(seed, 18);
  auto model = std::make_unique<charlib::CellCharModel>(mcfg);
  model->fit_normalization(labels);
  (void)model->train(labels);
  r.samples["charlib.train_s"].push_back(seconds_between(t0, Clock::now()));
  return model;
}

/// fast_darkriscv: GNN libraries + STA of an 18.5k-gate core. Each measured
/// search runs on a fresh engine (empty cost cache) over the model trained
/// by the last set-up, with its own RL seed.
Result run_fast(const Args& a, Recorder& rec) {
  Result r;
  LibraryTally tally;
  const SetupPhase setup;
  std::unique_ptr<charlib::CellCharModel> model;
  for (std::size_t i = 0; i < kSetups; ++i) {
    auto span = rec.open("setup");
    const auto t0 = Clock::now();
    StcoConfig cfg = fast_config(a.seed, 0);
    attach_tally(cfg, tally);
    model = train_model(cfg, a.seed, r, rec);
    (void)setup_engine(cfg, GnnBackend{*model}, exec::Context::serial(), r, rec);
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  setup.end(r);

  const std::size_t searches = units_for(a, 1.0);
  const Phase phase;
  std::vector<SearchOutcome> outs;
  std::size_t infeasible = 0;
  numeric::RobustnessStats robustness;
  for (std::size_t i = 0; i < searches; ++i) {
    StcoConfig cfg = fast_config(a.seed, i);
    attach_tally(cfg, tally);
    StcoEngine engine(cfg, GnnBackend{*model});
    (void)engine.weights();
    outs.push_back(run_search(engine, cfg, kFastBudget, tally, rec));
    const auto& s = outs.back();
    const auto rep = engine.evaluate(s.result.best_point);
    check_decision(r, s, kFastBudget, cost_of(engine, rep),
                   "search" + std::to_string(i) + ".");
    infeasible += engine.infeasible_evaluations();
    robustness.merge(engine.robustness());
  }
  phase.end(r);
  for (const auto& s : outs) add_search_samples(r, s);
  r.decision["best_state"] = static_cast<double>(outs.front().result.best_state);
  r.decision["best_cost"] = outs.front().result.best_cost;
  finish_stco(r, infeasible, robustness, tally);
  return r;
}

// ---------------------------------------------------------------------------
// Device workload: TCAD slice-transport I-V sweep + compact-model extraction
// for the first kSwept devices of a seeded population.

/// Set-up draws kPopulation devices (seconds of 2-D Poisson solves); each
/// measured pass sweeps and fits a fixed kSwept of them. Devices depend only
/// on their attempt index, so the swept devices are those a kSwept-device
/// population would hold.
constexpr std::size_t kPopulation = 1200;
constexpr std::size_t kSwept = 400;
constexpr double kMaxLogRmse = 0.5;  ///< fit bound [decades]
constexpr double kMaxOnMape = 15.0;  ///< fit bound [%]

struct DeviceSweep {
  std::vector<compact::MeasuredPoint> transfer, output;
  std::size_t invalid = 0;
};

/// Fixed bias grid in the film's natural polarity (CNT films are p-type:
/// gate and drain go negative). Currents are signed like the bias.
DeviceSweep sweep_device(const tcad::TftDevice& dev) {
  const double sgn = dev.semi.carrier == tcad::CarrierType::kPType ? -1.0 : 1.0;
  std::vector<double> vgs, vds;
  for (int i = -2; i <= 12; ++i) vgs.push_back(sgn * 0.5 * i);
  for (double v : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0}) vds.push_back(sgn * v);
  DeviceSweep s;
  for (const auto& p : tcad::transfer_curve(dev, sgn * 2.0, vgs)) {
    s.invalid += p.valid ? 0 : 1;
    s.transfer.push_back({p.vg, p.vd, sgn * p.id});
  }
  for (const auto& p : tcad::output_curve(dev, sgn * 5.0, vds)) {
    s.invalid += p.valid ? 0 : 1;
    s.output.push_back({p.vg, p.vd, sgn * p.id});
  }
  return s;
}

compact::TftParams fit_seed(const tcad::TftDevice& dev) {
  compact::TftParams seed;
  const bool ptype = dev.semi.carrier == tcad::CarrierType::kPType;
  seed.type = ptype ? compact::TftType::kPType : compact::TftType::kNType;
  seed.cox = tcad::oxide_capacitance(dev);
  seed.width = dev.width;
  seed.length = dev.length;
  seed.mu0 = dev.semi.mu0 * 0.5;
  seed.vth = ptype ? -1.0 : 1.0;
  seed.gamma = 0.3;
  return seed;
}

Result run_device(const Args& a, Recorder& rec) {
  Result r;
  const SetupPhase setup;
  std::vector<surrogate::DeviceSample> population;
  surrogate::PopulationStats pstats;
  for (std::size_t i = 0; i < kSetups; ++i) {
    auto span = rec.open("setup");
    const auto t0 = Clock::now();
    surrogate::PopulationOptions popts;
    pstats = {};
    popts.stats = &pstats;
    {
      auto ps = rec.open("surrogate.population");
      population = surrogate::generate_population(kPopulation, a.seed, popts);
    }
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
    r.samples["surrogate.population_s"].push_back(r.setup_s.back());
  }
  setup.end(r);
  r.layer["surrogate.population.dropped"] = static_cast<double>(pstats.dropped);
  r.layer["solver.retries"] = static_cast<double>(
      pstats.solver.gmin_retries + pstats.solver.source_retries +
      pstats.solver.damping_retries + pstats.solver.continuation_retries);
  r.layer["solver.failures"] = static_cast<double>(pstats.solver.failures);

  // Every pass sweeps and fits the same kSwept devices; passes repeat the
  // same work, so run_s is their median.
  const std::size_t swept = std::min(kSwept, population.size());
  const std::size_t passes = units_for(a, 6.0);
  const Phase phase;
  std::size_t invalid = 0, bad = 0, converged = 0;
  double worst_rmse = 0.0, worst_mape = 0.0, vth_sum = 0.0;
  auto& sweep_s = r.samples["tcad.sweep_s"];
  auto& extract_s = r.samples["compact.extract_s"];
  auto& lm_iters = r.samples["compact.lm_iterations"];
  for (std::size_t pass = 0; pass < passes; ++pass) {
    auto loop = rec.open("device.pass");
    const auto t_pass = Clock::now();
    for (std::size_t d = 0; d < swept; ++d) {
      const auto& sample = population[d];
      auto dspan = rec.open("device");
      const auto t0 = Clock::now();
      DeviceSweep sw;
      {
        auto sp = rec.open("tcad.sweep");
        sw = sweep_device(sample.device);
      }
      const auto t1 = Clock::now();
      compact::ExtractionResult fit;
      {
        auto sp = rec.open("compact.extract");
        fit = compact::extract_parameters(sw.transfer, sw.output, fit_seed(sample.device));
      }
      const auto t2 = Clock::now();
      r.iter_s.push_back(seconds_between(t0, t2));
      sweep_s.push_back(seconds_between(t0, t1));
      extract_s.push_back(seconds_between(t1, t2));
      lm_iters.push_back(static_cast<double>(fit.lm_iterations));
      invalid += sw.invalid;
      converged += fit.converged ? 1 : 0;
      const bool finite = std::isfinite(fit.log_rmse) && std::isfinite(fit.on_mape) &&
                          std::isfinite(fit.params.vth);
      const bool good = finite && fit.log_rmse < kMaxLogRmse && fit.on_mape < kMaxOnMape;
      if (sw.invalid > 0 || !good) ++bad;
      if (finite) {
        worst_rmse = std::max(worst_rmse, fit.log_rmse);
        worst_mape = std::max(worst_mape, fit.on_mape);
        if (pass == 0) vth_sum += fit.params.vth;
      }
    }
    r.run_s.push_back(seconds_between(t_pass, Clock::now()));
  }
  phase.end(r);
  const double fits = static_cast<double>(passes * swept);
  r.layer["tcad.invalid_points"] = static_cast<double>(invalid);
  r.layer["compact.converged_ratio"] = static_cast<double>(converged) / fits;
  r.decision["worst_log_rmse"] = worst_rmse;
  r.decision["worst_on_mape"] = worst_mape;
  r.decision["mean_vth"] = vth_sum / static_cast<double>(swept);
  r.check("population_complete", population.size() == kPopulation);
  r.check("all_bias_points_valid", invalid == 0, std::to_string(invalid) + " invalid");
  r.check("fits_within_bounds", bad == 0,
          std::to_string(bad) + " bad fits, worst log-rmse " + std::to_string(worst_rmse) +
              " on-mape " + std::to_string(worst_mape));
  r.attempted = pstats.attempts + passes * swept;
  r.failed = pstats.dropped + bad;
  return r;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else return false;
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse_args(argc, argv, a)) {
      std::fprintf(stderr,
                   "usage: %s --workload NAME --seed N [--seconds S] [--trace 0|1]\n",
                   argv[0]);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  Recorder rec(a.trace);
  Result r;
  try {
    if (a.workload == "trad_s386") r = run_trad(a, rec);
    else if (a.workload == "fast_darkriscv") r = run_fast(a, rec);
    else if (a.workload == "device_tcad") r = run_device(a, rec);
    else {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", to_json(a.workload, a.seed, r, rec).c_str());
  return 0;
}
