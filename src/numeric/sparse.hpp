#pragma once
// Compressed sparse row matrix plus a coordinate-format builder.
//
// Used by the TCAD Poisson solver (five-point stencils) and the SPICE MNA
// assembly, where the same sparsity pattern is refilled every Newton step.

#include <cstddef>
#include <vector>

#include "src/numeric/matrix.hpp"

namespace stco::numeric {

/// Triplet (COO) accumulator. Duplicate (row, col) entries are summed when
/// converting to CSR, which is exactly the "stamping" pattern MNA wants.
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t r, std::size_t c, double v);
  /// Append every entry of `other` (same shape required). Parallel Newton
  /// assembly stamps per-row-block scratch builders concurrently, then
  /// merges them serially in block order — the combined entry sequence (and
  /// hence from_triplets/refill duplicate-summation order) is identical to
  /// a single serial stamping pass, at any thread count.
  void append(const TripletBuilder& other);
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  void clear() { entries_.clear(); }

  struct Entry {
    std::size_t row, col;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t rows_, cols_;
  std::vector<Entry> entries_;
};

/// CSR sparse matrix.
///
/// Invariants: row_ptr.size() == rows+1; row_ptr is nondecreasing;
/// col_idx within each row is strictly increasing.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from triplets, summing duplicates.
  static SparseMatrix from_triplets(const TripletBuilder& b);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// y = A x
  Vec apply(const Vec& x) const;
  /// y = A x written into a caller-provided buffer (resized to rows()).
  /// Allocation-free once `y` has capacity; the Krylov solvers call this
  /// every iteration.
  void apply(const Vec& x, Vec& y) const;

  /// Refill values from a builder with the *same* sparsity pattern; cheap
  /// path for Newton loops. Throws if the pattern does not match.
  void refill(const TripletBuilder& b);

  /// Read-only structure access (used by solvers and tests).
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Value at (r, c), zero if not stored.
  double coeff(std::size_t r, std::size_t c) const;

  /// Dense copy (tests / tiny systems only).
  Matrix to_dense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace stco::numeric
