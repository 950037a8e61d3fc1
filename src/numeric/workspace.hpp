#pragma once
// Reusable linear-solver state for Newton loops.
//
// The TCAD solvers assemble the same sparsity pattern every Newton
// iteration, every bias-continuation step, and every warm-started sweep
// point. NewtonWorkspace exploits that: the CSR pattern is built once
// (from_triplets) and refilled afterwards, the ILU(0) preconditioner is
// re-factored only when the matrix values drift past a staleness
// threshold, and the solve ladder runs ILU-preconditioned BiCGSTAB ->
// banded direct LU -> (counted, discouraged) dense LU. All decisions are
// surfaced through obs `solver.linear.*` metrics and the local
// WorkspaceStats.

#include <cstddef>
#include <vector>

#include "src/numeric/band.hpp"
#include "src/numeric/precond.hpp"
#include "src/numeric/solve.hpp"
#include "src/numeric/sparse.hpp"

namespace stco::numeric {

/// Per-workspace tallies (process-wide equivalents live in obs).
struct WorkspaceStats {
  std::size_t pattern_builds = 0;  ///< from_triplets calls (pattern changed)
  std::size_t refills = 0;         ///< cheap value-only refills
  std::size_t ilu_factors = 0;     ///< ILU(0) factorizations
  std::size_t krylov_solves = 0;   ///< solves settled by ILU-preconditioned BiCGSTAB
  std::size_t band_solves = 0;     ///< solves settled by banded LU
  std::size_t dense_solves = 0;    ///< solves settled by dense LU (should be 0)
};

/// Owns the matrix pattern, preconditioner factors, and scratch vectors
/// for one Newton system. Create once per mesh/system shape and keep it
/// alive across Newton iterations AND continuation/warm-start steps.
class NewtonWorkspace {
 public:
  /// Load the system matrix from `b`. First call (or after a shape/pattern
  /// change) builds the CSR pattern; later calls refill values in place.
  void assemble(const TripletBuilder& b);

  /// Solve A x = rhs with the ILU -> band -> dense ladder. The returned
  /// status is authoritative; `converged` mirrors it for boolean call sites.
  [[nodiscard]] IterativeResult solve(const Vec& rhs);

  /// Drop pattern + factors (call when the mesh/system shape changes).
  void reset();

  const SparseMatrix& matrix() const { return a_; }
  const WorkspaceStats& stats() const { return stats_; }

 private:
  bool ilu_fresh_enough() const;

  SparseMatrix a_;
  bool has_pattern_ = false;
  Ilu0 ilu_;
  std::vector<double> factored_values_;  ///< values at last ILU factorization
  WorkspaceStats stats_;
  Vec residual_scratch_;
};

/// Reusable buffers for the tridiagonal (Thomas) transport solves. The
/// 1-D slice solver fills lower/diag/upper/rhs in place every Newton
/// iteration; solve() runs Thomas with internal scratch, no allocation
/// after the first call at a given size.
class TridiagWorkspace {
 public:
  /// Size the system to n unknowns (lower/upper get n-1).
  void resize(std::size_t n);
  std::size_t size() const { return diag.size(); }

  /// Solve into `x` using the current lower/diag/upper/rhs. Throws
  /// std::runtime_error on a singular pivot (same contract as
  /// solve_tridiagonal).
  void solve(Vec& x);

  Vec lower, diag, upper, rhs;

 private:
  Vec c_, d_;
};

}  // namespace stco::numeric
