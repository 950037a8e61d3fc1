#include "src/cells/characterize.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/measure.hpp"

namespace stco::cells {

namespace {

using spice::EdgeDir;
using spice::Netlist;
using spice::TranResult;
using spice::Waveform;

const char* kMetricNames[kNumMetrics] = {
    "delay",         "output_slew", "capacitance",     "flip_power", "non_flip_power",
    "leakage_power", "min_pulse_width", "min_setup",   "min_hold"};

/// A built cell with one voltage source per input pin.
struct Fixture {
  Netlist nl;
  BuiltCell cell;
  std::size_t vdd_src = 0;
  std::map<std::string, std::size_t> input_src;
  spice::NodeId out = 0;
};

Fixture make_fixture(const CellDef& def, const CharConfig& cfg,
                     const std::map<std::string, Waveform>& waves) {
  Fixture f;
  f.cell = build_cell(f.nl, def, cfg.tech, cfg.sizing);
  f.vdd_src = f.nl.add_vsource("VDD", f.cell.vdd, spice::kGround,
                               Waveform::dc(cfg.tech.vdd));
  for (const auto& pin : def.inputs) {
    const auto it = waves.find(pin);
    if (it == waves.end())
      throw std::invalid_argument("make_fixture: missing waveform for pin " + pin);
    f.input_src[pin] =
        f.nl.add_vsource("V_" + pin, f.cell.pins.at(pin), spice::kGround, it->second);
  }
  f.out = f.cell.pins.at(def.output);
  f.nl.add_capacitor("CLOAD", f.out, spice::kGround, cfg.load_cap);
  return f;
}

double level(bool v, const CharConfig& cfg) { return v ? cfg.tech.vdd : 0.0; }

/// Fold one sim's recovery counters into the cell record; false means the
/// sim is unusable and whatever it was measuring must be skipped or zeroed.
bool track(CellCharacterization& out, const TranResult& tr) {
  out.stats.merge(tr.stats);
  if (!tr.converged) ++out.failed_sims;
  return tr.converged;
}

/// Fold a task-local scratch record's solver counters into the cell record.
/// The counters are commutative sums, so folding scratches in index order
/// reproduces the serial interleaved accumulation exactly.
void merge_counters(CellCharacterization& out, const CellCharacterization& scratch) {
  out.stats.merge(scratch.stats);
  out.failed_sims += scratch.failed_sims;
  out.incomplete_arcs += scratch.incomplete_arcs;
}

/// Edge waveform: holds `from` until t_start, ramps to `to` over the slew.
Waveform edge_wave(bool from, bool to, double t_start, const CharConfig& cfg) {
  return Waveform::ramp(level(from, cfg), level(to, cfg), t_start, cfg.input_slew);
}

/// Leakage power of the cell in one static state. A DC failure counts as a
/// failed sim and contributes zero (degraded, never NaN).
double static_power(const CellDef& def, const CharConfig& cfg,
                    const std::map<std::string, bool>& state,
                    CellCharacterization& out) {
  std::map<std::string, Waveform> waves;
  for (const auto& pin : def.inputs) waves.emplace(pin, Waveform::dc(level(state.at(pin), cfg)));
  Fixture f = make_fixture(def, cfg, waves);
  const auto dc = spice::dc_operating_point(f.nl);
  out.stats.merge(dc.stats);
  if (!dc.converged) {
    ++out.failed_sims;
    return 0.0;
  }
  // Delivering supply has negative branch current in MNA convention.
  return cfg.tech.vdd * std::max(0.0, -dc.source_current[f.vdd_src]);
}

/// Supply energy above the leakage baseline over [t0, t1]; zero when the
/// transient is unusable.
double dynamic_energy(const TranResult& tr, std::size_t vdd_src, double vdd,
                      double leak_power, double t0, double t1) {
  const auto total = spice::supply_energy(tr, vdd_src, vdd, t0, t1);
  if (!total) return 0.0;
  return std::max(0.0, *total - leak_power * (t1 - t0));
}

/// Enumerate all 2^k assignments of the given pins.
std::vector<std::map<std::string, bool>> all_states(const std::vector<std::string>& pins) {
  std::vector<std::map<std::string, bool>> out;
  const std::size_t n = pins.size();
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    std::map<std::string, bool> s;
    for (std::size_t i = 0; i < n; ++i) s[pins[i]] = (mask >> i) & 1;
    out.push_back(std::move(s));
  }
  return out;
}

// --- combinational ----------------------------------------------------------

CellCharacterization characterize_combinational(const CellDef& def,
                                                const CharConfig& cfg,
                                                const exec::Context& ctx,
                                                MetricSet metrics) {
  CellCharacterization out;
  out.cell = def.name;
  const double u = cfg.time_unit;
  const double t_edge = 2 * u;
  const double t_back = t_edge + 4 * u;  ///< return edge of the pulse cycle
  const double t_end = t_back + cfg.input_slew + 4 * u;
  const double vdd = cfg.tech.vdd;

  // Full cycle on the toggling pin: edge at t_edge, return at t_back. Energy
  // is measured over the whole cycle and halved, which captures both the
  // supply-charging edge and the crowbar-only edge evenly.
  auto pulse_wave = [&](bool rising) {
    return Waveform::pwl({{0.0, level(!rising, cfg)},
                          {t_edge, level(!rising, cfg)},
                          {t_edge + cfg.input_slew, level(rising, cfg)},
                          {t_back, level(rising, cfg)},
                          {t_back + cfg.input_slew, level(!rising, cfg)}});
  };

  static obs::ProgressTask& prog_sims = obs::progress("cells.characterize.sims");

  // Static power of every input state, solved once (one task per state):
  // leakage is its mean, and the flip and non-flip energies subtract the
  // powers of the states they toggle between. Powers are summed in state
  // order so the serial reduction is reproduced exactly.
  std::vector<double> state_power;
  if (metrics.any({Metric::kLeakagePower, Metric::kFlipPower, Metric::kNonFlipPower})) {
    const auto states = all_states(def.inputs);
    struct StateJob {
      CellCharacterization scratch;
      double power = 0.0;
    };
    prog_sims.add_work(states.size());
    auto jobs = ctx.map(states.size(), [&](std::size_t i) {
      StateJob j;
      j.power = static_power(def, cfg, states[i], j.scratch);
      prog_sims.advance(1);
      return j;
    });
    double sum = 0.0;
    for (const auto& j : jobs) {
      state_power.push_back(j.power);
      sum += j.power;
      merge_counters(out, j.scratch);
    }
    if (metrics.has(Metric::kLeakagePower))
      out.leakage_power = sum / static_cast<double>(states.size());
  }
  // Mean static power of the two states a toggle moves between; the state
  // index follows all_states' bit order (bit i = def.inputs[i]).
  auto toggle_leakage = [&](const std::map<std::string, bool>& s0,
                            const std::map<std::string, bool>& s1) {
    auto index = [&](const std::map<std::string, bool>& s) {
      std::size_t mask = 0;
      for (std::size_t i = 0; i < def.inputs.size(); ++i)
        if (s.at(def.inputs[i])) mask |= std::size_t{1} << i;
      return mask;
    };
    return 0.5 * (state_power[index(s0)] + state_power[index(s1)]);
  };

  // One task per input pin: its capacitance toggles, sensitized arcs, and
  // non-flip toggles. Each task records into its own scratch; scratches are
  // merged in pin order below.
  const bool want_cap = metrics.has(Metric::kCapacitance);
  const bool want_arcs =
      metrics.any({Metric::kDelay, Metric::kOutputSlew, Metric::kFlipPower});
  const bool want_nonflip = metrics.has(Metric::kNonFlipPower);
  if (!want_cap && !want_arcs && !want_nonflip) return out;
  struct PinJob {
    CellCharacterization scratch;
    double cap = 0.0;
  };
  prog_sims.add_work(def.inputs.size());
  auto pin_jobs = ctx.map(def.inputs.size(), [&](std::size_t pi) {
    PinJob job;
    CellCharacterization& scr = job.scratch;
    const std::string& pin = def.inputs[pi];
    // Side-input assignments over the other pins.
    std::vector<std::string> others;
    for (const auto& p : def.inputs)
      if (p != pin) others.push_back(p);
    std::optional<std::map<std::string, bool>> sensitized, insensitive;
    for (const auto& side : all_states(others)) {
      auto s0 = side, s1 = side;
      s0[pin] = false;
      s1[pin] = true;
      const bool y0 = eval_combinational(def, s0);
      const bool y1 = eval_combinational(def, s1);
      if (y0 != y1 && !sensitized) sensitized = side;
      if (y0 == y1 && !insensitive) insensitive = side;
      if (sensitized && insensitive) break;
    }

    // Input capacitance: charge through the pin source during a toggle (use
    // the sensitized state if any, else the insensitive one).
    if (want_cap) {
      const auto side = sensitized ? *sensitized : *insensitive;
      double cmax = 0.0;
      for (bool rising : {true, false}) {
        std::map<std::string, Waveform> waves;
        for (const auto& o : others) waves.emplace(o, Waveform::dc(level(side.at(o), cfg)));
        waves.emplace(pin, edge_wave(!rising, rising, t_edge, cfg));
        Fixture f = make_fixture(def, cfg, waves);
        const auto tr = spice::transient(f.nl, t_end, cfg.dt);
        if (!track(scr, tr)) continue;
        const double q = spice::integrate_source_charge_smoothed(
            tr, f.input_src.at(pin), t_edge - 0.5 * u, t_end);
        cmax = std::max(cmax, std::fabs(q) / vdd);
      }
      job.cap = cmax;
    }

    // Delay / slew / flip power on the sensitized arc, both directions.
    if (want_arcs && sensitized) {
      for (bool rising : {true, false}) {
        auto state0 = *sensitized;
        state0[pin] = !rising;
        auto state1 = state0;
        state1[pin] = rising;
        const bool y1 = eval_combinational(def, state1);

        std::map<std::string, Waveform> waves;
        for (const auto& o : others)
          waves.emplace(o, Waveform::dc(level(sensitized->at(o), cfg)));
        waves.emplace(pin, pulse_wave(rising));
        Fixture f = make_fixture(def, cfg, waves);
        const auto tr = spice::transient(f.nl, t_end, cfg.dt);
        if (!track(scr, tr)) continue;  // arc invalid: sim failed post-retry

        ArcResult arc;
        arc.input_pin = pin;
        arc.input_rising = rising;
        arc.output_rising = y1;
        arc.side_inputs = *sensitized;
        const double in50 = t_edge + 0.5 * cfg.input_slew;
        const auto out50 = spice::cross_time(
            tr, f.out, 0.5 * vdd, y1 ? EdgeDir::kRising : EdgeDir::kFalling,
            t_edge);
        const auto slew = spice::transition_time(
            tr, f.out, 0.0, vdd, y1 ? EdgeDir::kRising : EdgeDir::kFalling, 0.1, 0.9,
            t_edge);
        if (!out50 || !slew || *out50 > t_back) {  // output missed the window
          ++scr.incomplete_arcs;
          continue;
        }
        if (metrics.has(Metric::kDelay)) arc.delay = *out50 - in50;
        if (metrics.has(Metric::kOutputSlew)) arc.output_slew = *slew;
        if (metrics.has(Metric::kFlipPower)) {
          arc.flip_energy = 0.5 * dynamic_energy(tr, f.vdd_src, vdd,
                                                 toggle_leakage(state0, state1),
                                                 t_edge - 0.5 * u, t_end);
        }
        scr.arcs.push_back(std::move(arc));
      }
    }

    // Non-flip power: toggle the pin in a state where the output holds.
    if (want_nonflip && insensitive) {
      for (bool rising : {true, false}) {
        auto state0 = *insensitive;
        state0[pin] = !rising;
        auto state1 = *insensitive;
        state1[pin] = rising;
        std::map<std::string, Waveform> waves;
        for (const auto& o : others)
          waves.emplace(o, Waveform::dc(level(insensitive->at(o), cfg)));
        waves.emplace(pin, pulse_wave(rising));
        Fixture f = make_fixture(def, cfg, waves);
        const auto tr = spice::transient(f.nl, t_end, cfg.dt);
        if (!track(scr, tr)) continue;
        NonFlipResult nf;
        nf.input_pin = pin;
        nf.input_rising = rising;
        nf.side_inputs = *insensitive;
        nf.energy = 0.5 * dynamic_energy(tr, f.vdd_src, vdd, toggle_leakage(state0, state1),
                                         t_edge - 0.5 * u, t_end);
        scr.nonflip.push_back(std::move(nf));
      }
    }
    prog_sims.advance(1);
    return job;
  });

  // Deterministic merge: pin order, preserving the serial arc/non-flip order.
  for (std::size_t pi = 0; pi < def.inputs.size(); ++pi) {
    PinJob& job = pin_jobs[pi];
    if (want_cap) out.input_capacitance[def.inputs[pi]] = job.cap;
    for (auto& a : job.scratch.arcs) out.arcs.push_back(std::move(a));
    for (auto& n : job.scratch.nonflip) out.nonflip.push_back(std::move(n));
    merge_counters(out, job.scratch);
  }
  return out;
}

// --- sequential --------------------------------------------------------------

/// Clock/latch-enable polarity helpers: "active edge" is the capturing edge
/// (rising CK for DFF, falling CK for DFFN, falling G for DLATCH, rising G
/// for DLATCHN — a latch captures when it goes opaque).
struct SeqPolarity {
  bool is_latch = false;
  bool clock_idle = false;   ///< clock level away from the active edge
};

SeqPolarity seq_polarity(const CellDef& def) {
  SeqPolarity p;
  p.is_latch = def.name.rfind("DLATCH", 0) == 0;
  if (p.is_latch) {
    // DLATCH transparent high -> captures on falling G; idle (opaque) low.
    p.clock_idle = def.negative_edge;  // DLATCHN: idle high
  } else {
    p.clock_idle = !def.negative_edge ? false : true;  // DFF idles low
  }
  return p;
}

/// Build the D / CK waveforms for one sequential trial.
///
/// Schedule (U = time_unit): preload pulse on the clock at [1U, 2U] with
/// D = !v, D moves to v at `t_d`, the capture edge happens at `t_edge`
/// (= 5U), the clock returns to idle at `t_off`, and the run ends at 8U.
struct SeqTrial {
  double t_edge, t_off, t_end;
  std::map<std::string, Waveform> waves;
};

SeqTrial seq_trial(const CellDef& def, const CharConfig& cfg, bool v, double t_d,
                   double pulse_width = -1.0) {
  const SeqPolarity pol = seq_polarity(def);
  const double u = cfg.time_unit;
  SeqTrial tr;
  tr.t_edge = 5 * u;
  tr.t_end = 8 * u;
  const bool idle = pol.clock_idle;

  std::vector<std::pair<double, double>> ck;
  const double lv_idle = idle ? cfg.tech.vdd : 0.0;
  const double lv_act = idle ? 0.0 : cfg.tech.vdd;
  const double sl = cfg.input_slew;
  if (!pol.is_latch) {
    // DFF: preload pulse [1U, 2U], capture edge toward active at t_edge,
    // back to idle at t_edge + width (default 1.5U). Width can't resolve
    // below the stimulus slew, so clamp (the pulse needs to reach lv_act).
    const double w = std::max(pulse_width > 0 ? pulse_width : 1.5 * u, 1.02 * sl);
    tr.t_off = tr.t_edge + w;
    ck = {{0.0, lv_idle},          {1 * u, lv_idle},      {1 * u + sl, lv_act},
          {2 * u, lv_act},         {2 * u + sl, lv_idle}, {tr.t_edge, lv_idle},
          {tr.t_edge + sl, lv_act}, {tr.t_off, lv_act},   {tr.t_off + sl, lv_idle}};
  } else {
    // Latch: preload window [1U, 2U] latches !v, then the main transparent
    // window opens at 3.5U; the capture (closing) edge is at t_edge.
    // pulse_width (when given) shrinks the main window.
    const double open =
        pulse_width > 0 ? tr.t_edge - std::max(pulse_width, 1.02 * sl) : 3.5 * u;
    tr.t_off = tr.t_edge;
    ck = {{0.0, lv_idle},   {1 * u, lv_idle},    {1 * u + sl, lv_act},
          {2 * u, lv_act},  {2 * u + sl, lv_idle}, {open, lv_idle},
          {open + sl, lv_act}, {tr.t_edge, lv_act}, {tr.t_edge + sl, lv_idle}};
  }
  tr.waves.emplace(def.clock_pin, Waveform::pwl(std::move(ck)));

  // D: !v during preload, ramp to v at t_d.
  tr.waves.emplace("D", Waveform::ramp(level(!v, cfg), level(v, cfg), t_d, cfg.input_slew));
  // Any remaining pins (e.g. reset) held low.
  for (const auto& pin : def.inputs)
    if (pin != "D" && pin != def.clock_pin) tr.waves.emplace(pin, Waveform::dc(0.0));
  return tr;
}

/// Run one trial and report whether Q captured `v`. A failed sim reads as a
/// capture failure (conservative: constraints bisect toward the safe side).
bool capture_ok(const CellDef& def, const CharConfig& cfg, bool v, double t_d,
                double pulse_width, CellCharacterization& out,
                TranResult* tr_out = nullptr, Fixture* fx_out = nullptr) {
  const SeqTrial trial = seq_trial(def, cfg, v, t_d, pulse_width);
  Fixture f = make_fixture(def, cfg, trial.waves);
  const auto tr = spice::transient(f.nl, trial.t_end, cfg.dt);
  const bool usable = track(out, tr);
  const double target = level(v, cfg);
  const auto fv = spice::final_voltage(tr, f.out);
  const bool ok = usable && fv && std::fabs(*fv - target) < 0.2 * cfg.tech.vdd;
  if (tr_out) *tr_out = tr;
  if (fx_out) *fx_out = std::move(f);
  return ok;
}

/// Smallest passing value in [lo, hi] assuming pass is monotone in x.
/// Returns hi if even hi fails (constraint unresolvable in the window).
double bisect_constraint(const std::function<bool(double)>& pass, double lo, double hi,
                         std::size_t iters = 9) {
  if (!pass(hi)) return hi;
  if (pass(lo)) return lo;
  for (std::size_t i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    (pass(mid) ? hi : lo) = mid;
  }
  return hi;
}

CellCharacterization characterize_sequential(const CellDef& def, const CharConfig& cfg,
                                             const exec::Context& ctx,
                                             MetricSet metrics) {
  CellCharacterization out;
  out.cell = def.name;
  const double u = cfg.time_unit;
  const double vdd = cfg.tech.vdd;
  const SeqPolarity pol = seq_polarity(def);

  // Leakage from a dedicated quiet run: one early clock pulse settles the
  // state deterministically (a raw DC solve of a bistable latch can land on
  // the metastable point, whose crowbar current wildly overstates static
  // power), then the supply current is averaged over a long edge-free tail,
  // which cancels any residual integrator ringing exactly. The arcs' flip
  // energy is measured above this baseline.
  double leakage = 0.0;
  if (metrics.any({Metric::kLeakagePower, Metric::kFlipPower})) {
    std::map<std::string, Waveform> waves;
    const double lv_idle = level(pol.clock_idle, cfg);
    const double lv_act = level(!pol.clock_idle, cfg);
    waves.emplace(def.clock_pin,
                  Waveform::pwl({{0.0, lv_idle},
                                 {1 * u, lv_idle},
                                 {1 * u + cfg.input_slew, lv_act},
                                 {2 * u, lv_act},
                                 {2 * u + cfg.input_slew, lv_idle}}));
    for (const auto& pin : def.inputs)
      if (pin != def.clock_pin) waves.emplace(pin, Waveform::dc(0.0));
    Fixture f = make_fixture(def, cfg, waves);
    const auto tr = spice::transient(f.nl, 8 * u, cfg.dt);
    if (track(out, tr)) {
      const double q =
          spice::integrate_source_charge_smoothed(tr, f.vdd_src, 5 * u, 8 * u);
      leakage = vdd * std::max(0.0, -q / (3 * u));
    }
  }
  if (metrics.has(Metric::kLeakagePower)) out.leakage_power = leakage;

  // Everything after the leakage run is independent: the two clock-to-Q
  // arcs, the non-flip run, the per-pin capacitances, and the six constraint
  // bisections. Each requested one becomes a task writing into its own slot;
  // slots are merged in list order below, reproducing the serial result
  // exactly.
  enum class SeqTask { kArc, kNonFlip, kCapacitance, kSetup, kHold, kPulseWidth };
  struct SeqJob {
    SeqTask kind;
    std::string pin;  ///< the toggled pin of a capacitance task
    CellCharacterization scratch;
    std::optional<ArcResult> arc;
    std::optional<NonFlipResult> nf;
    double value = 0.0;  ///< capacitance or constraint time
  };
  std::vector<SeqJob> slots;
  std::vector<std::function<void(SeqJob&)>> tasks;
  auto add = [&](SeqTask kind, std::string pin, std::function<void(SeqJob&)> task) {
    slots.push_back(SeqJob{kind, std::move(pin), {}, {}, {}, 0.0});
    tasks.push_back(std::move(task));
  };

  // Clock-to-Q arcs (for latches: D-to-Q while transparent) for both
  // captured values.
  const bool want_arcs =
      metrics.any({Metric::kDelay, Metric::kOutputSlew, Metric::kFlipPower});
  if (want_arcs) {
    for (bool v : {true, false}) {
      add(SeqTask::kArc, "", [&, v](SeqJob& job) {
        CellCharacterization& scr = job.scratch;
        TranResult tr;
        Fixture f;
        // For a latch, move D inside the transparent window (opens at 3.5U) so
        // the arc is D -> Q; for a flip-flop D settles early and the arc is
        // clock -> Q.
        const double t_d_arc = pol.is_latch ? 4 * u : 3 * u;
        if (!capture_ok(def, cfg, v, t_d_arc, -1.0, scr, &tr, &f)) {
          if (tr.converged) ++scr.incomplete_arcs;  // Q never captured v
          return;
        }
        ArcResult arc;
        arc.input_pin = pol.is_latch ? "D" : def.clock_pin;
        arc.output_rising = v;
        const double ref50 = pol.is_latch ? (t_d_arc + 0.5 * cfg.input_slew)
                                          : (5 * u + 0.5 * cfg.input_slew);
        arc.input_rising = pol.is_latch ? v : !pol.clock_idle;
        const auto q50 = spice::cross_time(tr, f.out, 0.5 * vdd,
                                           v ? EdgeDir::kRising : EdgeDir::kFalling,
                                           ref50 - 0.5 * cfg.input_slew);
        const auto slew = spice::transition_time(tr, f.out, 0.0, vdd,
                                                 v ? EdgeDir::kRising : EdgeDir::kFalling,
                                                 0.1, 0.9, ref50 - 0.5 * cfg.input_slew);
        if (!q50 || !slew) {  // Q moved before the edge or never finished
          ++scr.incomplete_arcs;
          return;
        }
        if (metrics.has(Metric::kDelay)) arc.delay = *q50 - ref50;
        if (metrics.has(Metric::kOutputSlew)) arc.output_slew = *slew;
        if (metrics.has(Metric::kFlipPower))
          arc.flip_energy = dynamic_energy(tr, f.vdd_src, vdd, leakage, 2.5 * u, 8 * u);
        job.arc = std::move(arc);
      });
    }
  }

  // Non-flip power: pulse D (full cycle) while the clock holds Q opaque;
  // the master churns internally but the output never moves.
  if (metrics.has(Metric::kNonFlipPower)) {
    add(SeqTask::kNonFlip, "", [&](SeqJob& job) {
      std::map<std::string, Waveform> waves;
      waves.emplace(def.clock_pin, Waveform::dc(level(pol.clock_idle, cfg)));
      waves.emplace("D", Waveform::pulse(0.0, vdd, 2 * u, cfg.input_slew, 1.5 * u,
                                         cfg.input_slew));
      for (const auto& pin : def.inputs)
        if (!waves.count(pin)) waves.emplace(pin, Waveform::dc(0.0));
      Fixture f = make_fixture(def, cfg, waves);
      const auto tr = spice::transient(f.nl, 6 * u, cfg.dt);
      if (track(job.scratch, tr)) {
        NonFlipResult nf;
        // push_back, not `= "D"`: GCC 12 raises a false -Wrestrict on the
        // literal assignment at -O2 (bug 105651).
        nf.input_pin.push_back('D');
        nf.input_rising = true;
        const double leak = vdd * std::max(0.0, -tr.i_src.back()[f.vdd_src]);
        nf.energy = 0.5 * dynamic_energy(tr, f.vdd_src, vdd, leak, 1.5 * u, 6 * u);
        job.nf = std::move(nf);
      }
    });
  }

  // Input capacitance per pin (toggle that pin, others held at idle/low).
  if (metrics.has(Metric::kCapacitance)) {
    for (const auto& pin_name : def.inputs) {
      add(SeqTask::kCapacitance, pin_name, [&, pin = pin_name](SeqJob& job) {
        double cmax = 0.0;
        for (bool rising : {true, false}) {
          std::map<std::string, Waveform> waves;
          for (const auto& p : def.inputs) {
            if (p == pin) {
              waves.emplace(p, edge_wave(!rising, rising, 2 * u, cfg));
            } else if (p == def.clock_pin) {
              waves.emplace(p, Waveform::dc(level(pol.clock_idle, cfg)));
            } else {
              waves.emplace(p, Waveform::dc(0.0));
            }
          }
          Fixture f = make_fixture(def, cfg, waves);
          const auto tr = spice::transient(f.nl, 5 * u, cfg.dt);
          if (!track(job.scratch, tr)) continue;
          const double q = spice::integrate_source_charge_smoothed(
              tr, f.input_src.at(pin), 1.5 * u, 5 * u);
          cmax = std::max(cmax, std::fabs(q) / vdd);
        }
        job.value = cmax;
      });
    }
  }

  // Constraints (worst case over both captured values; max is commutative,
  // so per-task bisections merge deterministically).
  for (bool v : {true, false}) {
    // Setup: D moves to v at t_edge - x; smaller x is harder.
    if (metrics.has(Metric::kMinSetup)) {
      add(SeqTask::kSetup, "", [&, v](SeqJob& job) {
        job.value = bisect_constraint(
            [&](double x) {
              return capture_ok(def, cfg, v, 5 * u - x, -1.0, job.scratch);
            },
            cfg.dt, 2.5 * u);
      });
    }
    // Hold: D moves *away* from v at t_edge + x. Equivalent trial: capture
    // !v ... instead run with D starting at v and leaving at t_edge + x.
    if (metrics.has(Metric::kMinHold)) {
      add(SeqTask::kHold, "", [&, v](SeqJob& job) {
        job.value = bisect_constraint(
            [&](double x) {
              // D at v early, departs at 5U + x; Q must still hold v.
              const SeqTrial trial = [&] {
                SeqTrial t = seq_trial(def, cfg, v, 2.8 * u, -1.0);
                t.waves.erase("D");
                t.waves.emplace("D", Waveform::pwl(
                    {{0.0, level(!v, cfg)},
                     {2.8 * u, level(!v, cfg)},
                     {2.8 * u + cfg.input_slew, level(v, cfg)},
                     {5 * u + x, level(v, cfg)},
                     {5 * u + x + cfg.input_slew, level(!v, cfg)}}));
                return t;
              }();
              Fixture f = make_fixture(def, cfg, trial.waves);
              const auto tr = spice::transient(f.nl, trial.t_end, cfg.dt);
              if (!track(job.scratch, tr)) return false;
              const auto fv = spice::final_voltage(tr, f.out);
              return fv && std::fabs(*fv - level(v, cfg)) < 0.2 * vdd;
            },
            cfg.dt, 2.5 * u);
      });
    }
    // Minimum clock pulse width (D settles well before the window).
    if (metrics.has(Metric::kMinPulseWidth)) {
      add(SeqTask::kPulseWidth, "", [&, v](SeqJob& job) {
        job.value = bisect_constraint(
            [&](double w) { return capture_ok(def, cfg, v, 2.5 * u, w, job.scratch); },
            2 * cfg.dt, 1.5 * u);
      });
    }
  }

  static obs::ProgressTask& prog_sims = obs::progress("cells.characterize.sims");
  prog_sims.add_work(tasks.size());
  ctx.parallel_for(tasks.size(), [&](std::size_t i) {
    tasks[i](slots[i]);
    prog_sims.advance(1);
  });

  // Deterministic merge in task-list order.
  for (SeqJob& job : slots) {
    merge_counters(out, job.scratch);
    switch (job.kind) {
      case SeqTask::kArc:
        if (job.arc) out.arcs.push_back(std::move(*job.arc));
        break;
      case SeqTask::kNonFlip:
        if (job.nf) out.nonflip.push_back(std::move(*job.nf));
        break;
      case SeqTask::kCapacitance:
        out.input_capacitance[job.pin] = job.value;
        break;
      case SeqTask::kSetup:
        out.min_setup = std::max(out.min_setup, job.value);
        break;
      case SeqTask::kHold:
        out.min_hold = std::max(out.min_hold, job.value);
        break;
      case SeqTask::kPulseWidth:
        out.min_pulse_width = std::max(out.min_pulse_width, job.value);
        break;
    }
  }
  return out;
}

}  // namespace

const char* to_string(Metric m) { return kMetricNames[static_cast<std::size_t>(m)]; }

double CellCharacterization::worst_delay() const {
  double d = 0.0;
  for (const auto& a : arcs) d = std::max(d, a.delay);
  return d;
}

double CellCharacterization::mean_flip_energy() const {
  if (arcs.empty()) return 0.0;
  double e = 0.0;
  for (const auto& a : arcs) e += a.flip_energy;
  return e / static_cast<double>(arcs.size());
}

CellCharacterization characterize_cell(const CellDef& cell, const CharConfig& cfg,
                                       const exec::Context& ctx, MetricSet metrics) {
  obs::Span span("cells.characterize_cell");
  span.set_arg(cell.name.c_str());
  static obs::Counter& c_cells = obs::counter("cells.characterized");
  static obs::Counter& c_arcs = obs::counter("cells.arcs");
  static obs::Histogram& h_latency = obs::histogram(
      "cells.characterize_seconds", {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0});
  // stco-lint: allow(nondet-clock-now) characterization-latency histogram
  const auto t0 = std::chrono::steady_clock::now();
  CellCharacterization out = cell.sequential
                                 ? characterize_sequential(cell, cfg, ctx, metrics)
                                 : characterize_combinational(cell, cfg, ctx, metrics);
  c_cells.add(1);
  c_arcs.add(out.arcs.size());
  h_latency.observe(
      // stco-lint: allow(nondet-clock-now) characterization-latency histogram
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  return out;
}

}  // namespace stco::cells
