#pragma once
// Linear solvers: dense LU (partial pivoting) for small MNA systems,
// Thomas algorithm for tridiagonal transport systems, and preconditioned
// CG / BiCGSTAB for the sparse Poisson Jacobians (Jacobi by default, ILU(0)
// via the precond hook — see precond.hpp / workspace.hpp).

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/numeric/matrix.hpp"
#include "src/numeric/precond.hpp"
#include "src/numeric/sparse.hpp"
#include "src/numeric/status.hpp"

namespace stco::numeric {

/// Result of an iterative solve. `status` is authoritative; `converged` is
/// kept in sync as a convenience for boolean call sites.
struct [[nodiscard]] IterativeResult {
  Vec x;
  std::size_t iterations = 0;
  double residual = 0.0;  ///< final ||Ax-b|| / ||b||
  bool converged = false;
  SolveStatus status;
};

/// Dense LU factorization with partial pivoting.
///
/// Factor once, solve many right-hand sides — the SPICE transient loop
/// refactors only when the Jacobian changes. A default-constructed object
/// is an empty workspace: `refactor` and the buffer `solve` reuse its
/// storage, so a caller that keeps one per system allocates only when the
/// dimension or the sparsity pattern changes.
///
/// The elimination skips exact zeros: after each pivot choice only the
/// pivot row's non-zero columns update the rows below, and the
/// substitutions skip zero factor entries. The pivot choice is the dense
/// algorithm's, and a skipped update is `x -= m*0` with a finite
/// multiplier, which leaves `x` unchanged unless it is a negative zero —
/// and elimination never makes one from inputs free of them. So the
/// factors and solutions are bitwise those of the plain dense algorithm.
/// Inputs holding a negative zero, rows with a non-finite multiplier and
/// solves that end non-finite take the dense update instead, which keeps
/// that guarantee for them.
///
/// Refactoring one object repeatedly — a Newton loop on a fixed netlist —
/// learns, from the second refactor on, the union of the non-zero patterns
/// seen and, under the last pivot order, the symbolic elimination of that
/// pattern: which rows can hold each pivot, which rows each pivot row
/// updates and in which columns. Later refactors whose non-zeros lie in the
/// pattern replay that plan with no test on values. The pivot search still
/// runs over every row that can be non-zero and must pick the recorded
/// row, else the factorization restarts without the plan and records a new
/// one. Entries outside the pattern stay exact zeros, so the replay is the
/// same arithmetic as the value-skipping elimination.
class DenseLu {
 public:
  DenseLu() = default;

  /// Factors a copy of `a`. Returns nullopt if the matrix is singular to
  /// working precision.
  [[nodiscard]] static std::optional<DenseLu> factor(const Matrix& a);

  /// Factors `a` into this object's storage. Returns false if the matrix is
  /// singular to working precision; the factors are then unusable until
  /// the next successful refactor.
  [[nodiscard]] bool refactor(const Matrix& a);

  /// Solve L U x = P b.
  Vec solve(const Vec& b) const;
  /// Solve L U x = P b into `x` (resized to dim(); `x` must not alias `b`).
  void solve(const Vec& b, Vec& x) const;

  std::size_t dim() const { return lu_.rows(); }
  /// Packed factors in pivot order: unit-lower L below the diagonal, U on
  /// and above it (a copy; the factorization keeps rows where they were
  /// and permutes through perm()).
  Matrix factors() const;
  /// Row permutation: row i of L U is row perm()[i] of the input.
  const std::vector<std::size_t>& perm() const { return perm_; }

 private:
  /// Symbolic elimination of `pattern_` under the pivot order `pivot`, in
  /// storage offsets (row r, column c at r * dim + c). Lists are flat;
  /// entry k of each `*_begin` opens step (or logical row) k.
  struct Plan {
    std::vector<std::size_t> pivot;  ///< logical pivot row per step; the
                                     ///< value-driven factor records it
    std::vector<std::size_t> diag;   ///< (k, k) before the pivot swap
    std::vector<std::size_t> cand_begin, cand, cand_row;  ///< column k below k that may be
                                                          ///< non-zero, and its logical row
    std::vector<std::size_t> prow;   ///< pivot row start, i.e. U row k's start
    std::vector<std::size_t> elim_begin, elim;  ///< row starts below k to eliminate
    std::vector<std::size_t> zero_begin, zero;  ///< (row, k) below k with a zero multiplier
    std::vector<std::size_t> ucol_begin, ucol;  ///< U row k's columns right of the diagonal
    std::vector<std::size_t> lcol_begin, lcol;  ///< L row i's columns left of the diagonal
    std::vector<std::size_t> perm;              ///< storage row of logical row i
  };
  enum class Replay { kOk, kSingular, kDiverged };

  bool factor_in_place(bool skip_zeros);
  Replay replay();
  void build_plan();
  void substitute(const Vec& b, Vec& x, bool skip_zeros) const;
  void substitute_planned(const Vec& b, Vec& x) const;

  Matrix lu_;
  std::vector<std::size_t> perm_;
  /// Union of the non-zeros refactored since the second refactor: all ones
  /// where seen, else 0; empty before that.
  std::vector<std::uint64_t> pattern_;
  std::size_t refactors_ = 0;         ///< refactors since the dimension was set
  bool planned_ = false;              ///< plan_ matches pattern_ and plan_.pivot
  bool by_plan_ = false;              ///< the current factors came from plan_
  Plan plan_;
};

/// Convenience: solve a dense system, throwing on singularity.
Vec solve_dense(const Matrix& a, const Vec& b);

/// Thomas algorithm for tridiagonal systems.
/// `lower`, `diag`, `upper` have sizes n-1, n, n-1.
Vec solve_tridiagonal(const Vec& lower, const Vec& diag, const Vec& upper, const Vec& b);

/// Preconditioned BiCGSTAB for general nonsymmetric systems.
/// `precond == nullptr` falls back to Jacobi scaling from `a`'s diagonal.
[[nodiscard]] IterativeResult solve_bicgstab(const SparseMatrix& a, const Vec& b,
                                             double tol = 1e-10, std::size_t max_iter = 0,
                                             const Preconditioner* precond = nullptr);

}  // namespace stco::numeric
