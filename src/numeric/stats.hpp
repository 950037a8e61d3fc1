#pragma once
// Error metrics used throughout the evaluation harness: MSE (Table II),
// MAPE (Table IV), R^2 (Table II "R2(32K)" column), plus basic summaries.

#include <stdexcept>
#include <vector>

#include "src/numeric/matrix.hpp"

namespace stco::numeric {

double mean(const Vec& v);
double variance(const Vec& v);  ///< population variance
double stddev(const Vec& v);

/// Mean squared error; sizes must match and be nonzero.
double mse(const Vec& predicted, const Vec& actual);

/// Root mean squared error.
double rmse(const Vec& predicted, const Vec& actual);

/// Mean absolute percentage error, in percent. Entries of `actual` with
/// |actual| < floor are skipped (dynamic power spans orders of magnitude;
/// the paper notes MAPE blows up near zero).
double mape(const Vec& predicted, const Vec& actual, double floor = 1e-30);

/// Coefficient of determination R^2 = 1 - SS_res / SS_tot.
double r_squared(const Vec& predicted, const Vec& actual);

/// Mean absolute error.
double mae(const Vec& predicted, const Vec& actual);

/// Max absolute error.
double max_abs_error(const Vec& predicted, const Vec& actual);

/// Linear 1D interpolation on a sorted grid; clamps outside the range.
double interp1(const Vec& xs, const Vec& ys, double x);

/// Bilinear interpolation on sorted axes; clamps outside the table.
/// `table` is row-major with rows indexed by xs and columns by ys.
double interp2(const Vec& xs, const Vec& ys, const Matrix& table, double x, double y);

/// The stencil of interp2 at one (x, y): brackets the axes once, then
/// interpolates any table on those axes (interp2 is bilinear(...)(table)).
/// Throws std::invalid_argument on an empty axis or a table of another shape.
struct Bilinear {
  std::size_t rows = 0, cols = 0;  ///< axis sizes the stencil was built on
  std::size_t i = 0, i1 = 0, j = 0, j1 = 0;
  double tx = 0.0, ty = 0.0;

  double operator()(const Matrix& table) const {
    if (table.rows() != rows || table.cols() != cols)
      throw std::invalid_argument("interp2: sizes");
    const double v00 = table(i, j), v01 = table(i, j1);
    const double v10 = table(i1, j), v11 = table(i1, j1);
    return (1 - tx) * ((1 - ty) * v00 + ty * v01) + tx * ((1 - ty) * v10 + ty * v11);
  }
};
Bilinear bilinear(const Vec& xs, const Vec& ys, double x, double y);

}  // namespace stco::numeric
