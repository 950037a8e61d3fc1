#include "src/numeric/sparse.hpp"

#include <algorithm>
#include <stdexcept>

namespace stco::numeric {

void TripletBuilder::add(std::size_t r, std::size_t c, double v) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("TripletBuilder::add");
  entries_.push_back({r, c, v});
}

void TripletBuilder::append(const TripletBuilder& other) {
  if (other.rows_ != rows_ || other.cols_ != cols_)
    throw std::invalid_argument("TripletBuilder::append: shape mismatch");
  entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
}

SparseMatrix SparseMatrix::from_triplets(const TripletBuilder& b) {
  SparseMatrix m;
  m.rows_ = b.rows();
  m.cols_ = b.cols();

  auto entries = b.entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& e) {
    return a.row != e.row ? a.row < e.row : a.col < e.col;
  });

  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    double sum = 0.0;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      sum += entries[j].value;
      ++j;
    }
    m.col_idx_.push_back(entries[i].col);
    m.values_.push_back(sum);
    ++m.row_ptr_[entries[i].row + 1];
    i = j;
  }
  for (std::size_t r = 0; r < m.rows_; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

Vec SparseMatrix::apply(const Vec& x) const {
  Vec y;
  apply(x, y);
  return y;
}

void SparseMatrix::apply(const Vec& x, Vec& y) const {
  if (x.size() != cols_) throw std::invalid_argument("SparseMatrix::apply: shape");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_idx_[k]];
    y[r] = acc;
  }
}

void SparseMatrix::refill(const TripletBuilder& b) {
  if (b.rows() != rows_ || b.cols() != cols_)
    throw std::invalid_argument("SparseMatrix::refill: shape");
  std::fill(values_.begin(), values_.end(), 0.0);
  for (const auto& e : b.entries()) {
    // Binary search within the row for the column slot.
    const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[e.row]);
    const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[e.row + 1]);
    const auto it = std::lower_bound(begin, end, e.col);
    if (it == end || *it != e.col)
      throw std::invalid_argument("SparseMatrix::refill: pattern mismatch");
    values_[static_cast<std::size_t>(it - col_idx_.begin())] += e.value;
  }
}

double SparseMatrix::coeff(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("SparseMatrix::coeff");
  // Column indices are strictly increasing within a row (CSR invariant), so
  // binary-search the slot — same lookup refill() already uses.
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Matrix SparseMatrix::to_dense() const {
  Matrix d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      d(r, col_idx_[k]) = values_[k];
  return d;
}

}  // namespace stco::numeric
