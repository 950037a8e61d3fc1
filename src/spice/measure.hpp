#pragma once
// Waveform measurement utilities used by cell characterization: threshold
// crossings, transition times, and supply charge/energy integration.

#include <optional>

#include "src/spice/engine.hpp"

namespace stco::spice {

enum class EdgeDir { kRising, kFalling };

/// First time after `t_after` where the node waveform crosses `level` in
/// the given direction (linear interpolation between samples). Returns
/// nullopt for a non-converged (aborted) transient — its tail samples do
/// not exist and any crossing found in the truncated record is suspect.
std::optional<double> cross_time(const TranResult& tr, NodeId node, double level,
                                 EdgeDir dir, double t_after = 0.0);

/// Transition time between lo_frac and hi_frac of the supply swing
/// (e.g. 0.1 / 0.9) around the first matching edge after `t_after`.
/// For falling edges the crossings happen in the opposite order.
std::optional<double> transition_time(const TranResult& tr, NodeId node, double v_low,
                                      double v_high, EdgeDir dir, double lo_frac = 0.1,
                                      double hi_frac = 0.9, double t_after = 0.0);

/// Integral of a voltage source's branch current over [t0, t1] (trapezoid
/// over the stored samples) — charge through the source.
double integrate_source_charge(const TranResult& tr, std::size_t src, double t0,
                               double t1);

/// Same integral with a 3-point (1,2,1)/4 moving average applied to the
/// current samples first. The smoothing exactly annihilates the +-
/// alternating ringing mode the trapezoidal integrator can leave behind
/// after sharp edges, which otherwise swamps small energy measurements
/// (non-flip power is ~1e-16 J; one ringing impulse is ~1e-14 C).
double integrate_source_charge_smoothed(const TranResult& tr, std::size_t src,
                                        double t0, double t1);

/// Energy delivered by a DC supply at voltage `vdd` over [t0, t1].
/// MNA convention: the stored branch current flows from + through the
/// source, so a delivering supply has negative current; this returns the
/// positive delivered energy, or nullopt when the transient did not
/// converge (a truncated record under-integrates silently otherwise).
std::optional<double> supply_energy(const TranResult& tr, std::size_t src,
                                    double vdd, double t0, double t1);

/// Last-sample voltage of a node, or nullopt when the transient did not
/// converge (the "final" sample would be wherever the run aborted).
std::optional<double> final_voltage(const TranResult& tr, NodeId node);

}  // namespace stco::spice
