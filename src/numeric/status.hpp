#pragma once
// Structured solver status shared by every numerical engine in the stack
// (linear solvers, Levenberg-Marquardt, SPICE Newton, TCAD Poisson /
// drift-diffusion / transport). Replaces bare `bool converged` so callers
// can distinguish a genuinely singular system from an exhausted iteration
// budget, and so the recovery ladders can report what they consumed.

#include <cstddef>
#include <string>

namespace stco::numeric {

/// Why a solve ended.
enum class SolveReason {
  kOk = 0,            ///< converged within tolerance
  kMaxIterations,     ///< iteration cap hit without convergence
  kSingularJacobian,  ///< linear system singular to working precision
  kNanResidual,       ///< NaN/Inf appeared in the residual or update
  kBudgetExceeded,    ///< overall iteration budget exhausted
};

const char* to_string(SolveReason r);

/// Outcome of one (possibly retried) nonlinear solve.
struct [[nodiscard]] SolveStatus {
  SolveReason reason = SolveReason::kOk;
  std::size_t iterations = 0;  ///< iterations consumed, summed over attempts
  std::size_t retries = 0;     ///< recovery attempts beyond the first
  double residual = 0.0;       ///< final residual / update norm

  bool ok() const { return reason == SolveReason::kOk; }
  explicit operator bool() const { return ok(); }

  /// "ok (12 it)" / "max_iterations after 3 retries (res 1.2e-3)".
  std::string describe() const;
};

/// Shared iteration budget for a retry ladder; a zero limit is unlimited.
/// One budget can span many solves (e.g. every Newton attempt of a whole
/// transient run) so a pathological circuit cannot consume unbounded time
/// ramping gmin forever. Counting iterations rather than seconds keeps
/// every solver result independent of machine speed.
class SolveBudget {
 public:
  SolveBudget() = default;
  explicit SolveBudget(std::size_t max_iterations) : max_iterations_(max_iterations) {}

  void charge(std::size_t iterations) { used_iterations_ += iterations; }

  bool exhausted() const {
    return max_iterations_ > 0 && used_iterations_ >= max_iterations_;
  }

 private:
  std::size_t max_iterations_ = 0;  ///< 0 = unlimited
  std::size_t used_iterations_ = 0;
};

/// Counters describing how often the recovery machinery fired. Aggregated
/// upward: per solve -> per characterization -> per library build -> per
/// STCO engine, and surfaced in stco::report.
struct RobustnessStats {
  std::size_t attempts = 0;              ///< solver entries (ladder invocations)
  std::size_t direct_success = 0;        ///< converged without any retry
  std::size_t gmin_retries = 0;          ///< SPICE gmin-stepping stages run
  std::size_t source_retries = 0;        ///< SPICE source-stepping stages run
  std::size_t continuation_retries = 0;  ///< TCAD bias-continuation sub-steps
  std::size_t damping_retries = 0;       ///< tightened-damping re-attempts
  std::size_t recovered = 0;             ///< converged only thanks to a retry
  std::size_t failures = 0;              ///< unrecoverable after the full ladder
  std::size_t budget_exhausted = 0;      ///< ladders cut short by the budget
  std::size_t fallbacks = 0;             ///< degraded results substituted downstream

  std::size_t total_retries() const {
    return gmin_retries + source_retries + continuation_retries + damping_retries;
  }
  bool clean() const { return failures == 0 && fallbacks == 0; }

  void merge(const RobustnessStats& o);

  /// One-line summary for logs and reports.
  std::string summary() const;
};

}  // namespace stco::numeric
